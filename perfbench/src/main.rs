//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints log lines prefixed `#`, one `host` JSON line, and, last, the
//! result JSON object. Exits 1 when any reply failed the correctness gate
//! or a metric could not be measured, 2 on bad arguments.

use perfbench::host::{self, Host};
use perfbench::report::{self, END_TO_END, PER_LAYER};
use perfbench::workloads::{self, Options, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <warm-wire-d8|cold-solve-d8|cold-solve-d196|mixed-durable-d196> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scratch: PathBuf::from(".perfbench_tmp").join(std::process::id().to_string()),
    })
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
    let host = Host::probe();
    println!(
        "# workload {} seed {} seconds {} trace {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let (ticks_before, steal_before) = host::cpu_ticks();
    let result = workloads::run(&opts);
    let (ticks_after, steal_after) = host::cpu_ticks();
    for note in &result.notes {
        println!("# {note}");
    }
    // Time the hypervisor gave to other guests: the main source of
    // run-to-run noise on a shared host.
    println!(
        "# cpu steal {:.1}% of machine time during the run",
        100.0 * (steal_after - steal_before) as f64 / (ticks_after - ticks_before).max(1) as f64
    );
    let mut failures = result.failures.clone();
    if let Some(recorded) = &result.recorded {
        let dir = PathBuf::from(".perfbench_out");
        let path = dir.join(format!(
            "{}-seed{}.spans.tsv",
            opts.workload.name(),
            opts.seed
        ));
        match std::fs::create_dir_all(&dir).and_then(|()| recorded.write_tsv(&path)) {
            Ok(()) => println!("# spans: {}", path.display()),
            Err(e) => failures.push(format!("writing spans: {e}")),
        }
    }
    let declared = if opts.trace { PER_LAYER } else { END_TO_END };
    let metrics = result.metrics.restricted_to(declared);
    for failure in &failures {
        println!("# FAILED: {failure}");
    }
    println!("{{\"host\": {}}}", host.to_json());
    let correct = failures.is_empty() && result.failed == 0;
    println!(
        "{}",
        report::result_line(correct, result.attempted.max(1), result.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
