//! Refactor-equivalence guard: one full Table-I cell — {GPU, CPU} ×
//! {transient, permanent} on (LeadSlowdown, RoundRobin) — must reproduce
//! the pinned golden fixture bit-for-bit: identical `RunResult`s (hashed
//! over their full `Debug` rendering, which prints every f64 with
//! shortest-roundtrip precision), identical Table-I rows, identical
//! violation baselines, and run-journal lines that re-render to
//! themselves and carry the pinned values (see [`pinned_view`]), for any
//! `DIVERSEAV_THREADS`.
//!
//! A per-mode section follows: every other deployment mode (single agent,
//! FD, and footnote-5 overlap at three periods) runs golden and under
//! three fabric faults, each without and with an online detector, so the
//! ADS tick of every mode is pinned too (see [`render_modes`]).
//!
//! The fixture was generated *before* the `SimLoop` runtime migration
//! (`crates/runtime`), so this test proves the refactor changed no
//! observable output. Regenerate deliberately with:
//!
//! ```text
//! cargo test --test refactor_equivalence -- --ignored
//! ```

use diverseav::{AgentMode, DetectorConfig, DetectorModel};
use diverseav_fabric::{FaultModel, Op, Profile};
use diverseav_faultinj::{
    run_campaign_cached, run_experiment, summarize, Campaign, CampaignScale, FaultModelKind,
    FaultSpec, GoldenCache, RunConfig, RunRecord,
};
use diverseav_obs::{journal, json};
use diverseav_simworld::{lead_slowdown, ScenarioKind, SensorConfig};
use std::fmt::Write as _;
use std::num::NonZeroU32;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/table1_cell_lsd.txt");

fn scale() -> CampaignScale {
    CampaignScale {
        n_transient: 2,
        permanent_repeats: 1,
        golden_runs: 2,
        long_route_duration: 20.0,
        training_runs: 1,
    }
}

/// The four campaigns of one (scenario, mode) Table-I cell.
fn cell() -> [Campaign; 4] {
    let base = Campaign {
        scenario: ScenarioKind::LeadSlowdown,
        target: Profile::Gpu,
        kind: FaultModelKind::Transient,
        mode: AgentMode::RoundRobin,
    };
    [
        base,
        Campaign { target: Profile::Cpu, ..base },
        Campaign { kind: FaultModelKind::Permanent, ..base },
        Campaign { target: Profile::Cpu, kind: FaultModelKind::Permanent, ..base },
    ]
}

/// FNV-1a over the bytes of a run's `Debug` rendering: compact, stable,
/// and sensitive to any bit change in any recorded field (floats print
/// with shortest-roundtrip precision).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run the cell (tracing on) and render every observable output as a
/// deterministic text document.
fn render_cell() -> String {
    let before = journal::len();
    let cache = GoldenCache::new();
    let mut out = String::new();
    for campaign in cell() {
        let r = run_campaign_cached(
            campaign,
            &scale(),
            None,
            SensorConfig::default(),
            true,
            Some(&cache),
        );
        let label = r.campaign.to_string();
        writeln!(out, "summary {label} {:?}", summarize(&r, 2.0)).unwrap();
        for (i, g) in r.golden.iter().enumerate() {
            writeln!(out, "golden {label} {i} {:016x}", fnv1a(format!("{g:?}").as_bytes()))
                .unwrap();
        }
        for (i, g) in r.injected.iter().enumerate() {
            writeln!(out, "injected {label} {i} {:016x}", fnv1a(format!("{g:?}").as_bytes()))
                .unwrap();
        }
        writeln!(out, "baseline {label} {:016x}", fnv1a(format!("{:?}", r.baseline).as_bytes()))
            .unwrap();
    }
    for line in journal::snapshot()
        .into_iter()
        .skip(before)
        .filter(|l| l.starts_with("{\"type\": \"run\"") && l.contains(" LSD ["))
    {
        writeln!(out, "journal {}", pinned_view(&line)).unwrap();
    }
    render_modes(&mut out);
    out
}

/// Append one line per run of every deployment mode the Table-I cell
/// above leaves out: golden, GPU permanent, GPU transient and CPU
/// permanent on a short LeadSlowdown, each without a detector and with
/// an untrained one. The untrained model's floor thresholds make the run
/// alarm (or, where two agent steps a tick already miss the deadline, a
/// deadline burst is its incident), so its flight ring stays in the
/// hashed `RunResult`; the divergence stream and actuation trace are
/// recorded too.
fn render_modes(out: &mut String) {
    let overlap = |p| AgentMode::Overlap(NonZeroU32::new(p).expect("nonzero period"));
    let modes = [AgentMode::Single, AgentMode::Duplicate, overlap(4), overlap(1), overlap(3)];
    let fabric = |profile, model| Some(FaultSpec::Fabric { unit: 0, profile, model });
    let faults = [
        ("golden", None),
        (
            "gpu-permanent",
            fabric(Profile::Gpu, FaultModel::Permanent { op: Op::FMax, mask: 1 << 23 }),
        ),
        (
            "gpu-transient",
            fabric(Profile::Gpu, FaultModel::Transient { instr_index: 40_000, mask: 1 << 22 }),
        ),
        (
            "cpu-permanent",
            fabric(Profile::Cpu, FaultModel::Permanent { op: Op::FMul, mask: 1 << 3 }),
        ),
    ];
    let det_cfg = DetectorConfig::default();
    let untrained = DetectorModel::train(&[], &det_cfg);
    let mut scenario = lead_slowdown();
    scenario.duration = 2.0;
    for mode in modes {
        for (label, fault) in faults {
            for detector in [None, Some((untrained.clone(), det_cfg))] {
                let attached = detector.is_some();
                let mut cfg = RunConfig::new(scenario.clone(), mode, 17);
                cfg.fault = fault;
                cfg.detector = detector;
                cfg.collect_training = true;
                let r = run_experiment(&cfg);
                writeln!(
                    out,
                    "mode {mode} {label} detector={attached} {:016x}",
                    fnv1a(format!("{r:?}").as_bytes())
                )
                .unwrap();
            }
        }
    }
}

/// A run-journal line as the fixture pins it. The fixture predates the
/// lossless journal: it holds the members the journal carried then, in
/// their order, with times, `min_cvip` and `div_peak` at 6 decimals
/// (`null` when non-finite) and `seed`/`cycle` as bare numbers. The line
/// itself must parse and re-render to itself; the view then renders the
/// parsed record the old way, so the fixture checks the same values.
fn pinned_view(line: &str) -> String {
    let r = RunRecord::parse_journal_line(&json::parse(line).expect("journal line is JSON"))
        .expect("journal line parses");
    assert_eq!(r.render_journal_line(), line, "journal line re-renders to itself");
    let fault = r.fault.as_ref().map_or("null".to_string(), |f| {
        format!(
            "{{\"profile\": \"{}\", \"unit\": {}, \"model\": \"{}\", \"mask\": {}, \
             \"cycle\": {}, \"op\": {}}}",
            json::escape(&f.profile),
            f.unit,
            json::escape(&f.model),
            f.mask,
            f.cycle.map_or("null".to_string(), |c| c.to_string()),
            json::opt_str(f.op.as_deref()),
        )
    });
    format!(
        "{{\"type\": \"run\", \"campaign\": \"{}\", \"kind\": \"{}\", \"index\": {}, \
         \"seed\": {}, \"scenario\": \"{}\", \"outcome\": \"{}\", \"end_time\": {}, \
         \"collision_time\": {}, \"alarm_time\": {}, \"fault_activated\": {}, \
         \"fault_onset_time\": {}, \"min_cvip\": {}, \"div_peak\": [{}, {}, {}], \
         \"fault\": {fault}}}",
        json::escape(&r.campaign),
        r.kind,
        r.index,
        r.seed,
        json::escape(&r.scenario),
        json::escape(&r.outcome),
        json::num(r.end_time),
        json::opt_num(r.collision_time),
        json::opt_num(r.alarm_time),
        r.fault_activated,
        json::opt_num(r.fault_onset_time),
        json::num(r.min_cvip),
        json::num(r.div_peak[0]),
        json::num(r.div_peak[1]),
        json::num(r.div_peak[2]),
    )
}

#[test]
fn table1_cell_matches_pinned_fixture() {
    let expected = std::fs::read_to_string(FIXTURE).expect(
        "missing golden fixture; regenerate with \
         `cargo test --test refactor_equivalence -- --ignored`",
    );
    std::env::set_var("DIVERSEAV_TRACE", "1");
    for threads in ["1", "3"] {
        std::env::set_var("DIVERSEAV_THREADS", threads);
        let got = render_cell();
        for (i, (g, e)) in got.lines().zip(expected.lines()).enumerate() {
            assert_eq!(g, e, "fixture line {i} diverged with DIVERSEAV_THREADS={threads}");
        }
        assert_eq!(
            got.lines().count(),
            expected.lines().count(),
            "line count diverged with DIVERSEAV_THREADS={threads}"
        );
    }
    std::env::remove_var("DIVERSEAV_THREADS");
    std::env::remove_var("DIVERSEAV_TRACE");
}

#[test]
#[ignore = "regenerates the pinned golden fixture"]
fn generate_fixture() {
    std::env::set_var("DIVERSEAV_TRACE", "1");
    let doc = render_cell();
    std::env::remove_var("DIVERSEAV_TRACE");
    let dir = std::path::Path::new(FIXTURE).parent().expect("fixture has a parent dir");
    std::fs::create_dir_all(dir).expect("create fixtures dir");
    std::fs::write(FIXTURE, doc).expect("write fixture");
}
