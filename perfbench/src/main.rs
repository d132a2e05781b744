//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench aa [--workload NAME]...
//! perfbench digests
//! ```
//!
//! The first form runs one workload and prints, as its last stdout line,
//! the JSON result: end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1` (spans go to `out/`). The second is A/A
//! mode (see `aa.rs`), on the named workloads or else on those
//! `BENCHMARK.json` lists. The third prints each workload's output digest
//! at its default seed, in the format of `expected_digests.txt`.

use std::process::ExitCode;

use baat_perfbench::aa;
use baat_perfbench::workload::{Workload, RUNNER_THREADS};

fn main() -> ExitCode {
    // Before any scenario runner starts: sweeps read their pool size
    // from the environment.
    std::env::set_var("BAAT_RUNNER_THREADS", RUNNER_THREADS.to_string());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("aa") => run_aa(&args[1..]),
        Some("digests") => {
            for w in Workload::ALL {
                let seed = w.default_seed();
                println!("{} {seed} {:#018x}", w.name(), w.output_digest(seed));
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => run_one(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs, in order.
fn pairs(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    args.chunks(2)
        .map(|c| match c {
            [flag, value] if flag.starts_with("--") => Ok((flag.as_str(), value.as_str())),
            _ => Err(format!("expected `--flag value`, got {c:?}")),
        })
        .collect()
}

fn number(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
}

fn workload(value: &str) -> Result<Workload, String> {
    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))
}

fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let (mut w, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for (flag, value) in pairs(args)? {
        match flag {
            "--workload" => w = Some(workload(value)?),
            "--seed" => seed = Some(number(flag, value)?),
            "--seconds" => seconds = Some(number(flag, value)?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let w = w.ok_or("--workload is required")?;
    let seed = seed.unwrap_or_else(|| w.default_seed());
    let seconds = seconds.ok_or("--seconds is required")?;
    let trace = trace.unwrap_or(false);
    eprintln!("{}: {}", w.name(), w.traffic(seed));
    let (outcome, log) = w.run(seed, seconds as f64, trace);
    for m in &outcome.metrics {
        eprintln!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  operations {} attempted, {} failed; correct: {}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    if let Some(log) = log {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-seed{seed}.spans.jsonl", w.name()));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, log.to_jsonl()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("  spans: {}", path.display());
    }
    println!("{}", outcome.to_json());
    Ok(ExitCode::SUCCESS)
}

fn run_aa(args: &[String]) -> Result<ExitCode, String> {
    let mut workloads = Vec::new();
    for (flag, value) in pairs(args)? {
        match flag {
            "--workload" => workloads.push(workload(value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workloads.is_empty() {
        workloads = Workload::BENCHMARKED.to_vec();
    }
    Ok(if aa::run(&workloads)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
