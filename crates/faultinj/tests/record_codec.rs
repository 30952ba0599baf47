//! Round trip of the run record's two line framings over arbitrary
//! records: a rendered shard line or journal line parses back to the
//! record bit for bit (NaN payloads, infinities and `-0.0` in every `f64`
//! member, seeds and sensor-site `cycle` values above 2^53, `None` and
//! `Some` in every option, escapes in every label), and the parsed record
//! renders back to the same bytes. A journal line carries no trajectory,
//! so its record comes back with an empty one.
//!
//! `PROPTEST_CASES` sets the number of drawn records (default 32; CI runs
//! 4096 in release).

use diverseav_faultinj::RunRecord;
use diverseav_obs::json;
use diverseav_obs::FaultSite;
use diverseav_simworld::{TrajPoint, Vec2};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Values every `f64` member must survive.
const SPECIAL: [f64; 12] = [
    f64::NAN,
    -f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    f64::MIN_POSITIVE,
    5e-324,
    f64::MAX,
    -1.5,
    0.1,
    1e300,
];

/// NaNs with payloads, quiet and signaling.
const NAN_BITS: [u64; 3] = [0x7ff8_0000_dead_beef, 0x7ff0_0000_0000_0001, 0xfff4_0000_0000_0000];

/// Characters a label may hold: JSON escapes, control characters and
/// multi-byte text.
const PALETTE: [char; 16] = [
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{1}', '\u{1f}', '\u{7f}', 'é', '€',
    '😀',
];

fn f64_any(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..4u32) {
        0 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
        1 => f64::from_bits(NAN_BITS[rng.gen_range(0..NAN_BITS.len())]),
        _ => f64::from_bits(rng.gen()),
    }
}

fn u64_any(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..4u32) {
        0 => (1 << 53) + rng.gen_range(1..1000u64),
        1 => u64::MAX - rng.gen_range(0..3u64),
        2 => rng.gen_range(0..1000u64),
        _ => rng.gen(),
    }
}

/// A bare-number member (`index`, `unit`): exact below 2^53.
fn small_usize(rng: &mut StdRng) -> usize {
    (rng.gen::<u64>() >> 11) as usize
}

fn label(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..8usize)).map(|_| PALETTE[rng.gen_range(0..PALETTE.len())]).collect()
}

fn maybe<T>(rng: &mut StdRng, some: impl FnOnce(&mut StdRng) -> T) -> Option<T> {
    if rng.gen() {
        Some(some(rng))
    } else {
        None
    }
}

fn arbitrary_record(rng: &mut StdRng) -> RunRecord {
    RunRecord {
        campaign: label(rng),
        scenario: label(rng),
        kind: if rng.gen() { "golden" } else { "injected" },
        index: small_usize(rng),
        seed: u64_any(rng),
        outcome: label(rng),
        end_time: f64_any(rng),
        collision_time: maybe(rng, f64_any),
        alarm_time: maybe(rng, f64_any),
        fault_activated: rng.gen(),
        fault_onset_time: maybe(rng, f64_any),
        min_cvip: f64_any(rng),
        red_light_violations: rng.gen(),
        ticks: u64_any(rng),
        deadline_misses: u64_any(rng),
        incident: maybe(rng, label),
        stratum: maybe(rng, u64_any),
        weight: maybe(rng, f64_any),
        div_peak: [f64_any(rng), f64_any(rng), f64_any(rng)],
        fault: maybe(rng, |rng| FaultSite {
            profile: label(rng),
            unit: small_usize(rng),
            model: label(rng),
            mask: rng.gen(),
            cycle: maybe(rng, u64_any),
            op: maybe(rng, label),
        }),
        trajectory: (0..rng.gen_range(0..4usize))
            .map(|_| TrajPoint { t: f64_any(rng), pos: Vec2 { x: f64_any(rng), y: f64_any(rng) } })
            .collect(),
    }
}

/// Bitwise equality of two records: every `f64` compared by its bits.
fn same_bits(a: &RunRecord, b: &RunRecord) -> bool {
    let bits = |v: f64| v.to_bits();
    let opt = |v: Option<f64>| v.map(f64::to_bits);
    let RunRecord {
        campaign,
        scenario,
        kind,
        index,
        seed,
        outcome,
        end_time,
        collision_time,
        alarm_time,
        fault_activated,
        fault_onset_time,
        min_cvip,
        red_light_violations,
        ticks,
        deadline_misses,
        incident,
        stratum,
        weight,
        div_peak,
        fault,
        trajectory,
    } = a;
    let point = |p: &TrajPoint| [bits(p.t), bits(p.pos.x), bits(p.pos.y)];
    *campaign == b.campaign
        && *scenario == b.scenario
        && *kind == b.kind
        && *index == b.index
        && *seed == b.seed
        && *outcome == b.outcome
        && bits(*end_time) == bits(b.end_time)
        && opt(*collision_time) == opt(b.collision_time)
        && opt(*alarm_time) == opt(b.alarm_time)
        && *fault_activated == b.fault_activated
        && opt(*fault_onset_time) == opt(b.fault_onset_time)
        && bits(*min_cvip) == bits(b.min_cvip)
        && *red_light_violations == b.red_light_violations
        && *ticks == b.ticks
        && *deadline_misses == b.deadline_misses
        && *incident == b.incident
        && *stratum == b.stratum
        && opt(*weight) == opt(b.weight)
        && div_peak.map(bits) == b.div_peak.map(bits)
        && *fault == b.fault
        && trajectory.iter().map(point).eq(b.trajectory.iter().map(point))
}

/// Render `r` in both framings, parse each back and render again.
fn round_trip(r: &RunRecord, batch: usize) -> Result<(), String> {
    let line = r.render_shard_line(batch);
    let v = json::parse(&line).map_err(|e| format!("shard line is not JSON: {e}\n{line}"))?;
    let (b, back) = RunRecord::parse_shard_line(&v, &r.campaign, &r.scenario)
        .map_err(|e| format!("shard line does not parse: {e}\n{line}"))?;
    if b != batch || !same_bits(&back, r) {
        return Err(format!("shard line parses to another record\n{r:?}\n{back:?}"));
    }
    if back.render_shard_line(batch) != line {
        return Err(format!("shard line re-renders differently\n{line}"));
    }

    let line = r.render_journal_line();
    let v = json::parse(&line).map_err(|e| format!("journal line is not JSON: {e}\n{line}"))?;
    let back = RunRecord::parse_journal_line(&v)
        .map_err(|e| format!("journal line does not parse: {e}\n{line}"))?;
    let want = RunRecord { trajectory: Vec::new(), ..r.clone() };
    if !same_bits(&back, &want) {
        return Err(format!("journal line parses to another record\n{want:?}\n{back:?}"));
    }
    if back.render_journal_line() != line {
        return Err(format!("journal line re-renders differently\n{line}"));
    }
    Ok(())
}

/// Each special value and NaN payload in every `f64` member at once, and
/// every option both ways.
#[test]
fn special_values_in_every_f64_member_round_trip() {
    let mut rng = StdRng::seed_from_u64(7);
    let base = arbitrary_record(&mut rng);
    let values = SPECIAL.into_iter().chain(NAN_BITS.map(f64::from_bits));
    for v in values {
        for some in [false, true] {
            let opt = some.then_some(v);
            let r = RunRecord {
                end_time: v,
                collision_time: opt,
                alarm_time: opt,
                fault_onset_time: opt,
                min_cvip: v,
                weight: opt,
                div_peak: [v; 3],
                trajectory: vec![TrajPoint { t: v, pos: Vec2 { x: v, y: v } }],
                ..base.clone()
            };
            round_trip(&r, 0).unwrap_or_else(|e| panic!("{v:?}: {e}"));
        }
    }
}

proptest! {
    #[test]
    fn arbitrary_records_round_trip_in_both_framings(seed in any::<u64>(), batch in 0usize..1 << 20) {
        let r = arbitrary_record(&mut StdRng::seed_from_u64(seed));
        let checked = round_trip(&r, batch);
        prop_assert!(checked.is_ok(), "seed {seed}: {}", checked.unwrap_err());
    }
}
