//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Extra flag: `--emit-reference` runs one untraced round of the seed's
//! variant and prints its reference lines instead of measuring.

use perfbench::workload::{self, Inputs, Workload};
use perfbench::{Report, Spans};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    emit_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut emit) =
        (None, 0u64, 10.0f64, false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--emit-reference" => emit = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace, emit_reference: emit })
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The workload fixes the engine's environment before any thread
    // starts: its thread count, no journal, default profiling and scale.
    std::env::set_var("DIVERSEAV_THREADS", args.workload.threads().to_string());
    for var in ["DIVERSEAV_TRACE", "DIVERSEAV_PROFILE", "DIVERSEAV_SCALE"] {
        std::env::remove_var(var);
    }
    let inp = Inputs::new(args.workload, args.seed);
    let tmp = PathBuf::from(".bench_tmp").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));

    if args.emit_reference {
        let prep = workload::setup(&inp, &mut Spans::default());
        let round = workload::round(&inp, &prep, &tmp);
        let _ = std::fs::remove_dir_all(&tmp);
        print!("{}", round.digests.render(inp.variant));
        return ExitCode::SUCCESS;
    }

    println!(
        "perfbench: workload {} seed {} (input variant {}), {} engine thread(s), trace {}",
        args.workload.name(),
        args.seed,
        inp.variant,
        args.workload.threads(),
        u8::from(args.trace)
    );
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if args.trace {
            perfbench::run_traced(&inp, &tmp)
        } else {
            perfbench::run_untraced(&inp, args.seconds, &tmp, start)
        }
    }));
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".bench_tmp");
    // A panic fails every run of the workload.
    let report = outcome.unwrap_or_else(|_| Report::all_failed(args.trace, 1));
    print!("{}", report.human());
    println!("{}", report.json());
    ExitCode::SUCCESS
}
