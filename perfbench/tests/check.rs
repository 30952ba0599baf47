//! The output check and the printer, without simulating anything.

use diverseav_obs::json;
use perfbench::digest::{parse_reference, Entry};
use perfbench::workload::{ALL, VARIANTS};
use perfbench::{reference_text, Report, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;

#[test]
fn committed_references_cover_every_workload_and_variant() {
    for w in ALL {
        for v in 0..VARIANTS {
            let d = parse_reference(reference_text(w), v).expect("reference parses");
            assert!(d.runs() > 0, "{} v{v} has run records", w.name());
            let (failed, bad) = d.failed_against(&d, false);
            assert_eq!((failed, bad.len()), (0, 0));
            let again = parse_reference(&d.render(v), v).expect("rendered reference parses");
            assert_eq!(again, d, "render/parse round-trips");
        }
    }
}

#[test]
fn a_tampered_reference_fails_runs() {
    let output = parse_reference(reference_text(ALL[0]), 0).expect("reference parses");

    let mut one_run = output.clone();
    let key = one_run
        .0
        .iter()
        .find_map(|(k, e)| matches!(e, Entry::Run { .. }).then(|| k.clone()))
        .expect("a run record");
    if let Some(Entry::Run { hash, .. }) = one_run.0.get_mut(&key) {
        *hash ^= 1;
    }
    assert_eq!(output.failed_against(&one_run, false), (1, vec![key.clone()]));

    let mut misses = output.clone();
    if let Some(Entry::Run { deadline_misses, .. }) = misses.0.get_mut(&key) {
        *deadline_misses += 1;
    }
    assert_eq!(output.failed_against(&misses, false).0, 1);
    assert_eq!(output.failed_against(&misses, true).0, 0, "wall-clock runs skip deadline misses");

    let mut summary = output.clone();
    let skey = summary
        .0
        .iter()
        .find_map(|(k, e)| matches!(e, Entry::Summary(_)).then(|| k.clone()))
        .expect("a summary");
    summary.0.insert(skey, Entry::Summary("tampered".into()));
    assert_eq!(
        output.failed_against(&summary, false).0,
        output.runs(),
        "a wrong summary fails all"
    );

    let mut missing = output.clone();
    missing.0.remove(&key);
    assert_eq!(output.failed_against(&missing, false).0, 1, "an unexpected run fails");
    assert_eq!(missing.failed_against(&output, false).0, 1, "a missing run fails");
}

fn benchmark_json() -> json::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses")
}

fn names(doc: &json::Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(|v| v.as_arr())
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(|v| v.as_str()).expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn the_printer_emits_every_named_metric_with_its_unit() {
    let doc = benchmark_json();
    for (traced, table, key) in
        [(false, &END_TO_END[..], "end_to_end"), (true, &PER_LAYER[..], "per_layer")]
    {
        let declared = names(&doc, key);
        let ours: Vec<(String, String)> =
            table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(ours, declared, "{key} in BENCHMARK.json matches the printer");

        let metrics: BTreeMap<String, f64> =
            table.iter().enumerate().map(|(i, (n, _))| (n.to_string(), 1.5 + i as f64)).collect();
        let report = Report { correct: true, attempted: 7, failed: 0, metrics, traced };
        let human = report.human();
        for (name, unit) in table {
            assert!(
                human.lines().any(|l| l.starts_with(name) && l.ends_with(&format!(" {unit}"))),
                "{name} printed with {unit}"
            );
        }
        assert!(human.contains("runs_failed") && human.contains("7 runs attempted"));

        let line = json::parse(&report.json()).expect("result line is JSON");
        assert_eq!(line.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(line.get("attempted").and_then(|v| v.as_f64()), Some(7.0));
        assert_eq!(line.get("failed").and_then(|v| v.as_f64()), Some(0.0));
        let m = line.get("metrics").expect("metrics");
        for (i, (name, unit)) in table.iter().enumerate() {
            let entry = m.get(name).expect("metric present");
            assert_eq!(entry.get("unit").and_then(|v| v.as_str()), Some(*unit));
            assert_eq!(entry.get("value").and_then(|v| v.as_f64()), Some(1.5 + i as f64));
        }
    }
}
