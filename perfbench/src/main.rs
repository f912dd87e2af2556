//! Command line of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload read_cold|read_hot|ingest_online --seed N --seconds N --trace 0|1
//! ```
//!
//! `--scale tiny` runs the same workloads on `DatasetSpec::tiny`-sized
//! data in seconds; the self-check test uses it.
//!
//! Prints one line per metric (with its unit and sample count) and, as
//! the last line, a JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Exits 1 when an answer was wrong or the run could not
//! complete, 2 on bad arguments.

use rstore_perfbench::{run, Options, Outcome, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: rstore-perfbench --workload read_cold|read_hot|ingest_online \
     --seed N --seconds N --trace 0|1 [--scale full|tiny]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => {
                let n = number()?;
                if !(1..=60).contains(&n) {
                    return Err(format!("--seconds takes 1 to 60, not {n}"));
                }
                seconds = Some(n)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("--scale takes full or tiny, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    let trace = trace.unwrap_or(false);
    let trace_path = trace.then(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "trace-{workload}-{seed}{}.json",
                if scale == Scale::Tiny { "-tiny" } else { "" }
            ))
    });
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        scale,
        trace_path,
    })
}

fn json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: run failed: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("{}: metric {} is not a number", opts.workload, bad.name);
        return ExitCode::FAILURE;
    }
    println!(
        "# {} seed {} ({}), available parallelism {}",
        opts.workload,
        opts.seed,
        if opts.trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!(
            "{:<36} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if let Some(f) = &outcome.first_failure {
        println!("# first failure: {f}");
    }
    println!("{}", json(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
