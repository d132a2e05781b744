//! A/A mode: runs each workload repeatedly on one build, in two
//! interleaved sets over the same seeds, and prints for every
//! end-to-end metric each set's median, quartiles and spread against
//! the metric's bound, and how far the second median moved from the
//! first. This is the acceptance check the benchmark must pass, made in
//! one command.

use std::process::{Command, Stdio};

use crate::stats::{median, quartiles, spread};
use crate::workload::Workload;
use crate::{Outcome, END_TO_END, RUN_SECONDS};

/// Runs per set; run `i` of both sets uses seed `i + 1`.
pub const RUNS: u64 = 10;

/// Two sets: the second is compared against the first.
const SETS: usize = 2;

/// Runs the session on `workloads` by starting this executable once per
/// run, for [`RUN_SECONDS`] each, as the benchmark is run for real, and
/// prints the tables. Returns whether every run was correct and every
/// metric stayed within its bound.
pub fn run(workloads: &[Workload]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for &workload in workloads {
        // values[set][metric] over runs
        let mut values = vec![vec![Vec::new(); END_TO_END.len()]; SETS];
        for i in 0..RUNS {
            for (set, set_values) in values.iter_mut().enumerate() {
                let seed = i + 1;
                let output = Command::new(&exe)
                    .args(["--workload", workload.name()])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &RUN_SECONDS.to_string()])
                    .args(["--trace", "0"])
                    .stderr(Stdio::null())
                    .output()
                    .map_err(|e| e.to_string())?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let line = stdout.lines().last().unwrap_or_default();
                let correct = Outcome::parse_field(line, "correct").as_deref() == Some("true");
                if !output.status.success() || !correct {
                    eprintln!("{} seed {seed} set {set}: failed: {line}", workload.name());
                    ok = false;
                }
                for (m, bound) in END_TO_END.iter().enumerate() {
                    if let Some(v) = Outcome::parse_value(line, bound.name) {
                        set_values[m].push(v);
                    }
                }
                eprintln!("{} seed {seed} set {set}: {line}", workload.name());
            }
        }
        ok &= print_table(workload, &values);
    }
    Ok(ok)
}

/// Prints one workload's table; returns whether every metric passed:
/// each set's spread within the bound, and the later sets' medians
/// within the bound of the first's, in either direction.
fn print_table(workload: Workload, values: &[Vec<Vec<f64>>]) -> bool {
    println!("\n{}", workload.name());
    println!(
        "{:<12} {:>3} {:>12} {:>12} {:>12} {:>8} {:>7} {:>8} {:>8}",
        "metric", "set", "median", "q1", "q3", "spread", "bound", "spr/bnd", "shift"
    );
    let mut ok = true;
    for (m, bound) in END_TO_END.iter().enumerate() {
        let base = median(&values[0][m]);
        for (set, set_values) in values.iter().enumerate() {
            let v = &set_values[m];
            let (Some(med), Some((q1, q3)), Some(spr)) = (median(v), quartiles(v), spread(v))
            else {
                println!("{:<12} {set:>3} no values", bound.name);
                ok = false;
                continue;
            };
            let shift = base.map_or(0.0, |b| med / b - 1.0);
            let passed = spr <= bound.bound && shift.abs() <= bound.bound;
            ok &= passed;
            println!(
                "{:<12} {set:>3} {med:>12.6} {q1:>12.6} {q3:>12.6} {spr:>8.4} {:>7.3} {:>8.3} {shift:>+8.4}{}",
                bound.name,
                bound.bound,
                spr / bound.bound,
                if passed { "" } else { "  FAIL" }
            );
        }
    }
    ok
}
