//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or `all` of them in turn), prints the report, and
//! ends with one JSON result line. See `perfbench/README.md`.

use presburger_perfbench::report::result_json;
use presburger_perfbench::workloads::{self, Args, WORKLOADS};
use presburger_perfbench::{END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => args.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Pins the engine's environment knobs, so a variable left in the
/// caller's shell cannot change what is measured.
fn pin_environment() {
    std::env::set_var("PRESBURGER_THREADS", "1");
    for knob in [
        "PRESBURGER_MEMO",
        "PRESBURGER_FAULT",
        "PRESBURGER_CHAOS",
        "PRESBURGER_GEN_FAULT",
    ] {
        std::env::remove_var(knob);
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    pin_environment();
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let emit: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut last = String::new();
    for name in names {
        let run_args = Args {
            workload: name.to_string(),
            ..args.clone()
        };
        let start = if last.is_empty() {
            process_start
        } else {
            Instant::now()
        };
        let out = match name {
            "compiler_apps" => workloads::compiler_apps::run(&run_args, start),
            "gen_unique" => workloads::gen_unique::run(&run_args, start),
            _ => workloads::serve_zipf::run(&run_args, start),
        };
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::from(1);
            }
        };
        let (correct, attempted, failed, metrics) = out.finish(emit);
        last = result_json(correct, attempted, failed, &metrics);
        if args.workload == "all" {
            println!("{last}");
        }
    }
    if args.workload != "all" {
        println!("{last}");
    }
    ExitCode::SUCCESS
}
