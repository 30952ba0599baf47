//! Trace-analysis CLI over the `DIVERSEAV_TRACE` journal, the metrics
//! snapshot, and the bench timings.
//!
//! ```text
//! # analyze a traced run (summary + distributions, optional exports)
//! diverseav-tracecheck --trace trace.jsonl [--metrics METRICS_campaigns.json]
//!                      [--chrome trace_chrome.json]
//!
//! # flight-recorder forensics over an incident artifact (a shard
//! # sidecar or a merged incident set); combines with --trace or alone
//! diverseav-tracecheck --forensics INCIDENTS.jsonl
//!
//! # bench-regression check: flag >20 % ticks_per_sec drops
//! diverseav-tracecheck --baseline BENCH_baseline.json \
//!                      --bench-diff BENCH_campaigns.json [--bench-diff-pct 20]
//!
//! # guided-campaign report: allocation table + ESS health, optional
//! # weighted-estimate tolerance check against a committed fixture
//! diverseav-tracecheck --guided GUIDED_report.json \
//!                      [--expect tests/fixtures/guided_expected_lsd.json]
//! ```
//!
//! `--bench-diff-pct N` sets the regression threshold in percent
//! (default 20). Both bench documents must be complete
//! `BENCH_campaigns.json` renderings. When the fresh bench document carries guided entries (phase
//! `"guided"` with `critical` counts), `--bench-diff` also prints a
//! non-blocking `guided_speedup:` line comparing guided vs uniform
//! safety-critical-outcomes-per-run-budget yield.
//!
//! `--guided` prints the per-epoch allocation table and effective
//! sample size from a `diverseav-merge --guided-report` document, with
//! a loud WARNING (exit 2) when the ESS collapses below 20 % of the
//! executed runs. `--expect FIXTURE.json` additionally checks each
//! weighted Table-I cell against the fixture's precomputed
//! uniform-enumeration values ± tolerance; violations exit 2.
//!
//! Exit codes: 0 clean, 1 on unreadable/malformed/empty inputs —
//! including a missing or unparsable baseline, which is a hard failure,
//! never a silent pass — 2 when the bench diff found regressions, the
//! guided ESS collapsed, or weighted estimates left the fixture
//! tolerance (so CI can treat it as a warning gate distinct from hard
//! failure).

use diverseav_bench::tracecheck;
use diverseav_obs::json;
use std::process::ExitCode;

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_path = None;
    let mut metrics_path = None;
    let mut chrome_path = None;
    let mut baseline_path: Option<String> = None;
    let mut bench_diff: Option<String> = None;
    let mut forensics_path = None;
    let mut guided_path = None;
    let mut expect_path = None;
    let mut threshold = 0.20;
    let mut i = 0;
    let next = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("{flag} needs an argument"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--trace" => trace_path = Some(next(&mut i, "--trace")?),
            "--metrics" => metrics_path = Some(next(&mut i, "--metrics")?),
            "--chrome" => chrome_path = Some(next(&mut i, "--chrome")?),
            "--baseline" => baseline_path = Some(next(&mut i, "--baseline")?),
            "--bench-diff" => bench_diff = Some(next(&mut i, "--bench-diff")?),
            "--bench-diff-pct" => {
                threshold = next(&mut i, "--bench-diff-pct")?
                    .parse::<f64>()
                    .map_err(|e| format!("--bench-diff-pct: {e}"))?
                    / 100.0;
            }
            "--forensics" => forensics_path = Some(next(&mut i, "--forensics")?),
            "--guided" => guided_path = Some(next(&mut i, "--guided")?),
            "--expect" => expect_path = Some(next(&mut i, "--expect")?),
            other => return Err(format!("unknown argument: {other} (see the crate docs)")),
        }
        i += 1;
    }

    if let Some(new_path) = bench_diff {
        let old_path = baseline_path
            .ok_or("--bench-diff needs a baseline: --baseline PATH --bench-diff FRESH")?;
        let parse = |path: &str| -> Result<json::Value, String> {
            json::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))
        };
        let fresh = parse(&new_path)?;
        let warnings = tracecheck::bench_diff_checked(
            &parse(&old_path).map_err(|e| format!("baseline: {e}"))?,
            &fresh,
            threshold,
        )?;
        // Informational yield comparison: never gates the exit code.
        if let Some(line) = tracecheck::guided_speedup(&fresh)? {
            println!("{line}");
        }
        if warnings.is_empty() {
            println!(
                "bench diff: no entry dropped more than {:.0} % ticks_per_sec",
                threshold * 100.0
            );
            return Ok(ExitCode::SUCCESS);
        }
        println!("bench diff: {} regression(s) beyond {:.0} %:", warnings.len(), threshold * 100.0);
        for w in &warnings {
            println!("  {w}");
        }
        return Ok(ExitCode::from(2));
    }
    if baseline_path.is_some() {
        return Err("--baseline only makes sense together with --bench-diff".into());
    }

    if let Some(guided_path) = &guided_path {
        let report = json::parse(&read(guided_path)?).map_err(|e| format!("{guided_path}: {e}"))?;
        let (text, mut warnings) = tracecheck::guided_report_summary(&report)
            .map_err(|e| format!("{guided_path}: {e}"))?;
        print!("{text}");
        if let Some(expect_path) = &expect_path {
            let fixture =
                json::parse(&read(expect_path)?).map_err(|e| format!("{expect_path}: {e}"))?;
            let violations = tracecheck::guided_expect_check(&report, &fixture)
                .map_err(|e| format!("{expect_path}: {e}"))?;
            if violations.is_empty() {
                println!("\nweighted estimates: all cells within the {expect_path} tolerances");
            }
            warnings.extend(violations);
        }
        if warnings.is_empty() {
            return Ok(ExitCode::SUCCESS);
        }
        println!();
        for w in &warnings {
            println!("{w}");
        }
        return Ok(ExitCode::from(2));
    }
    if expect_path.is_some() {
        return Err("--expect only makes sense together with --guided".into());
    }

    if let Some(forensics_path) = &forensics_path {
        let incidents = tracecheck::parse_incidents(&read(forensics_path)?).map_err(|errs| {
            format!("{} parse error(s) in {forensics_path}:\n  {}", errs.len(), errs.join("\n  "))
        })?;
        print!("{}", tracecheck::forensics_report(&incidents));
        if trace_path.is_none() {
            return Ok(ExitCode::SUCCESS);
        }
        println!();
    }

    let Some(trace_path) = trace_path else {
        return Err("nothing to do: pass --trace PATH, --forensics PATH, --guided REPORT, \
             or --baseline OLD --bench-diff NEW"
            .into());
    };
    let trace = tracecheck::parse_trace(&read(&trace_path)?).map_err(|errs| {
        format!("{} parse error(s) in {trace_path}:\n  {}", errs.len(), errs.join("\n  "))
    })?;
    if trace.runs.is_empty() {
        return Err(format!("{trace_path}: no run lines — empty report"));
    }

    println!("== per-cell summary ({} runs) ==\n", trace.runs.len());
    print!("{}", tracecheck::cell_summary(&trace.runs));
    println!("\n== distributions ==\n");
    print!("{}", tracecheck::latency_report(&trace.runs));
    println!("\n== sensor-fault detection latency (onset -> alarm) ==\n");
    print!("{}", tracecheck::sensor_latency_report(&trace.runs));

    if let Some(metrics_path) = metrics_path {
        let metrics =
            json::parse(&read(&metrics_path)?).map_err(|e| format!("{metrics_path}: {e}"))?;
        println!("\n== profiling ({metrics_path}) ==\n");
        print!(
            "{}",
            tracecheck::metrics_summary(&metrics).map_err(|e| format!("{metrics_path}: {e}"))?
        );
    }

    if let Some(chrome_path) = chrome_path {
        std::fs::write(&chrome_path, tracecheck::chrome_trace(&trace))
            .map_err(|e| format!("cannot write {chrome_path}: {e}"))?;
        println!(
            "\nwrote {chrome_path} ({} span groups) — open in chrome://tracing or Perfetto",
            trace.spans.len()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("diverseav-tracecheck: {e}");
            ExitCode::FAILURE
        }
    }
}
