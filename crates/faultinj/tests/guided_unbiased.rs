//! Property tests for the guided campaign estimator (`faultinj::guided`):
//! Horvitz–Thompson unbiasedness on synthetic stratified populations,
//! the per-epoch weight law, and allocation purity.
//!
//! These run the *planning math* (allocation + weights) against
//! synthetic outcome draws — no simulator in the loop — so thousands of
//! epoch protocols are exercised per second. The end-to-end guided
//! pipeline is covered by the `guided_verify` bench test and the
//! `guided-verify` CI job.

use diverseav_faultinj::guided::epoch_budgets;
use diverseav_faultinj::{
    adaptive_allocation, pilot_allocation, run_weight, EpochSummary, Stratum,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Build a synthetic stratified population: `sizes[s]` members per
/// stratum over a shared denominator (the population size).
fn synthetic_strata(sizes: &[u64]) -> Vec<Stratum> {
    let den: u64 = sizes.iter().sum();
    sizes
        .iter()
        .enumerate()
        .map(|(i, &m)| Stratum {
            code: 0x7100 + i as u64,
            label: format!("S:synthetic{i}"),
            num: m,
            den,
        })
        .collect()
}

/// One full guided campaign over the synthetic population: pilot epoch,
/// then adaptive epochs steered by the cumulative summary — exactly the
/// protocol `GuidedPlanner` runs, with Bernoulli(rate) outcomes in
/// place of the simulator. Returns the Horvitz–Thompson estimate of the
/// population's safety-critical count and the executed run count.
fn run_protocol(
    strata: &[Stratum],
    rates: &[f64],
    budgets: &[usize],
    rng: &mut StdRng,
) -> (f64, usize) {
    let mut counts: BTreeMap<u64, (u64, u64)> = strata.iter().map(|s| (s.code, (0, 0))).collect();
    let mut estimate = 0.0;
    let mut executed = 0usize;
    for (e, &ne) in budgets.iter().enumerate() {
        let alloc = if e == 0 {
            pilot_allocation(strata, ne).expect("pilot allocates")
        } else {
            let prior = EpochSummary::from_counts(e, &counts);
            adaptive_allocation(strata, &prior, ne).expect("adaptive allocates")
        };
        for (s, &rate) in strata.iter().zip(rates) {
            let n_se = alloc[&s.code];
            let w = run_weight(ne, s, n_se);
            assert!(w.is_finite() && w > 0.0, "weights must be positive finite, got {w}");
            for _ in 0..n_se {
                executed += 1;
                let critical = (rng.gen::<u64>() as f64 / u64::MAX as f64) < rate;
                let slot = counts.get_mut(&s.code).expect("known stratum");
                slot.0 += 1;
                if critical {
                    slot.1 += 1;
                    estimate += w;
                }
            }
        }
    }
    (estimate, executed)
}

/// Budget-vs-variance sweep backing the table in EXPERIMENTS.md
/// ("Guided campaigns"); print the table with
///
/// ```text
/// cargo test -p diverseav-faultinj --test guided_unbiased -- \
///     variance_sweep --nocapture
/// ```
///
/// Fixed skewed population (one big benign stratum, small critical
/// ones), 2-epoch protocol, 2000 replications per budget; prints the
/// empirical sd of the Horvitz-Thompson rate estimate next to the
/// analytic sd of uniform sampling at the same budget, and holds the
/// guided variance to at most 0.75× uniform sampling's at every budget.
#[test]
fn variance_sweep() {
    let sizes = [30u64, 10, 5, 3, 2];
    let rates = [0.02f64, 0.05, 0.1, 0.3, 0.6];
    let strata = synthetic_strata(&sizes);
    let den: u64 = sizes.iter().sum();
    let true_rate: f64 =
        strata.iter().zip(&rates).map(|(s, r)| (s.num as f64 / den as f64) * r).sum();
    const REPLICATIONS: usize = 2000;
    println!("population: {} strata, true safety-critical rate {true_rate:.4}", sizes.len());
    println!("budget  mean-rate  sd(guided)  sd(uniform)  var-ratio");
    for budget in [16usize, 32, 64, 128, 256] {
        let budgets = epoch_budgets(budget, 2, budget.div_ceil(2));
        let mut rng = StdRng::seed_from_u64(0x5EED ^ budget as u64);
        let (mut sum, mut sumsq) = (0.0f64, 0.0f64);
        for _ in 0..REPLICATIONS {
            let (estimate, _) = run_protocol(&strata, &rates, &budgets, &mut rng);
            let rate = estimate / budget as f64;
            sum += rate;
            sumsq += rate * rate;
        }
        let mean = sum / REPLICATIONS as f64;
        let sd = (sumsq / REPLICATIONS as f64 - mean * mean).max(0.0).sqrt();
        let sd_uniform = (true_rate * (1.0 - true_rate) / budget as f64).sqrt();
        let ratio = (sd / sd_uniform).powi(2);
        println!("{budget:>6}  {mean:>9.4}  {sd:>10.4}  {sd_uniform:>11.4}  {ratio:>9.2}");
        assert!((mean - true_rate).abs() < 0.05, "sweep mean {mean} drifted from {true_rate}");
        assert!(ratio <= 0.75, "budget {budget}: guided variance {ratio:.2}x uniform's");
    }
}

proptest! {
    /// The weighted estimator is unbiased: averaged over replications,
    /// the Horvitz–Thompson estimate of the safety-critical rate
    /// converges to the true stratified population rate for random
    /// (pilot, budget, epoch) splits — even though adaptive epochs
    /// deliberately oversample high-criticality strata.
    #[test]
    fn weighted_estimator_is_unbiased_on_stratified_population(
        sizes in proptest::collection::vec(1u64..40, 2..6),
        raw_rates in proptest::collection::vec(0u64..11, 2..6),
        budget_extra in 0u64..40,
        pilot_raw in 1u64..1000,
        epochs in 1u64..5,
        seed in 0u64..1_000_000,
    ) {
        let k = sizes.len();
        let strata = synthetic_strata(&sizes);
        // Rates land on {0, 0.1, ..., 1.0}; reuse cyclically if the two
        // vectors sampled different lengths.
        let rates: Vec<f64> = (0..k).map(|i| raw_rates[i % raw_rates.len()] as f64 / 10.0).collect();
        let epochs = epochs as usize;
        // Budget large enough that every epoch can honor the 1-run
        // floor per stratum even after the random pilot split.
        let budget = 3 * k * epochs + budget_extra as usize;
        let pilot = (pilot_raw as usize % (budget / 2)).max(k);
        let budgets = epoch_budgets(budget, epochs, pilot);
        prop_assert_eq!(budgets.iter().sum::<usize>(), budget);
        prop_assert!(budgets.iter().all(|&ne| ne >= k), "epoch budgets {budgets:?} < {k} strata");

        let den: u64 = sizes.iter().sum();
        let true_rate: f64 =
            strata.iter().zip(&rates).map(|(s, r)| (s.num as f64 / den as f64) * r).sum();

        const REPLICATIONS: usize = 400;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mean_rate = 0.0;
        for _ in 0..REPLICATIONS {
            let (estimate, _) = run_protocol(&strata, &rates, &budgets, &mut rng);
            mean_rate += estimate / budget as f64;
        }
        mean_rate /= REPLICATIONS as f64;
        // Var(rate estimate) <= 1/4 per replication (1-run floor bounds
        // every weight), so 400 replications put 4 standard errors
        // under 0.1; 0.12 has deterministic-seed headroom.
        prop_assert!(
            (mean_rate - true_rate).abs() < 0.12,
            "mean weighted rate {mean_rate:.4} vs true rate {true_rate:.4} \
             (sizes {sizes:?}, rates {rates:?}, budgets {budgets:?})"
        );
    }

    /// The weight law: within every epoch, the allocated runs' weights
    /// sum back to exactly the epoch budget (`sum_s n_s * (N_e p_s /
    /// n_s) = N_e` — the invariant the merge gate re-checks), and every
    /// weight is positive and finite. Holds for the pilot and for
    /// adaptive epochs under arbitrary prior tallies.
    #[test]
    fn weights_are_positive_and_normalize_per_epoch(
        sizes in proptest::collection::vec(1u64..50, 2..7),
        ne_extra in 0u64..60,
        prior_runs in proptest::collection::vec(1u64..30, 2..7),
        prior_crit_frac in proptest::collection::vec(0u64..11, 2..7),
    ) {
        let k = sizes.len();
        let strata = synthetic_strata(&sizes);
        let ne = k + ne_extra as usize;

        let check = |alloc: &BTreeMap<u64, usize>| {
            let total: f64 = strata
                .iter()
                .map(|s| {
                    let n_se = alloc[&s.code];
                    let w = run_weight(ne, s, n_se);
                    assert!(w.is_finite() && w > 0.0, "weight {w} for stratum {:04x}", s.code);
                    n_se as f64 * w
                })
                .sum();
            assert!(
                (total - ne as f64).abs() < 1e-9 * ne as f64,
                "epoch weights sum to {total}, budget is {ne}"
            );
            assert_eq!(alloc.values().sum::<usize>(), ne, "allocation spends the epoch budget");
            assert!(alloc.values().all(|&n| n >= 1), "1-run floor: {alloc:?}");
        };

        check(&pilot_allocation(&strata, ne).expect("pilot allocates"));

        let counts: BTreeMap<u64, (u64, u64)> = strata
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let runs = prior_runs[i % prior_runs.len()];
                let crit = runs * prior_crit_frac[i % prior_crit_frac.len()] / 10;
                (s.code, (runs, crit))
            })
            .collect();
        let prior = EpochSummary::from_counts(1, &counts);
        check(&adaptive_allocation(&strata, &prior, ne).expect("adaptive allocates"));
    }

    /// Allocation is a pure function of (strata, prior, budget): two
    /// computations agree bit-for-bit, and a prior whose tallies were
    /// assembled in reverse order (any order — the summary is a sorted
    /// map by construction) produces the identical allocation and
    /// digest. This is the HashMap-order-freedom the lint gate enforces
    /// structurally, checked behaviorally.
    #[test]
    fn allocation_is_pure_and_insertion_order_free(
        sizes in proptest::collection::vec(1u64..50, 2..7),
        ne_extra in 0u64..60,
        prior_runs in proptest::collection::vec(1u64..30, 2..7),
    ) {
        let k = sizes.len();
        let strata = synthetic_strata(&sizes);
        let ne = k + ne_extra as usize;

        let forward: BTreeMap<u64, (u64, u64)> = strata
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let runs = prior_runs[i % prior_runs.len()];
                (s.code, (runs, runs / 2))
            })
            .collect();
        let mut reversed: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for (code, tally) in forward.iter().rev() {
            reversed.insert(*code, *tally);
        }
        let a = EpochSummary::from_counts(1, &forward);
        let b = EpochSummary::from_counts(1, &reversed);
        prop_assert_eq!(a.digest(), b.digest(), "summary digest must be insertion-order-free");

        let alloc1 = adaptive_allocation(&strata, &a, ne).expect("allocates");
        let alloc2 = adaptive_allocation(&strata, &b, ne).expect("allocates");
        let alloc3 = adaptive_allocation(&strata, &a, ne).expect("allocates");
        prop_assert_eq!(&alloc1, &alloc2, "insertion order must not steer allocation");
        prop_assert_eq!(&alloc1, &alloc3, "allocation must be deterministic");
    }
}
