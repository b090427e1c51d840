//! The repository benchmark. One workload per process:
//!
//! ```text
//! lobster-repo-bench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! makes the separate traced run that yields the per-layer metrics. Every
//! run's output is checked; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. See
//! README.md for the workloads and the layer → end-to-end map.

mod alloc;
mod engine;
mod report;
mod sim;
mod stats;

use report::{Outcome, WORKLOADS};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str =
    "usage: lobster-repo-bench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|w| w.name == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be all or one of {}",
            names.join(", ")
        ));
    }
    Ok(args)
}

/// The end of a run's measuring time. Another round starts only while
/// one more round as long as the last would still end in time (warm-up
/// and checks included), so a run never outlasts `--seconds` by a round.
pub struct Deadline {
    end: Instant,
    last_start: Option<Instant>,
    last_len: Duration,
}

impl Deadline {
    fn after(seconds: u64) -> Deadline {
        Deadline {
            end: Instant::now() + Duration::from_secs(seconds),
            last_start: None,
            last_len: Duration::ZERO,
        }
    }

    /// Call before each round: whether to start round number `done`,
    /// which always holds while fewer than `min` rounds are done.
    pub fn another(&mut self, done: usize, min: usize) -> bool {
        let now = Instant::now();
        if let Some(start) = self.last_start {
            self.last_len = now - start;
        }
        self.last_start = Some(now);
        done < min || now + self.last_len <= self.end
    }
}

/// Run one workload within `--seconds`.
fn run(name: &str, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let deadline = Deadline::after(args.seconds);
    match (engine::shape(name), args.trace) {
        (Some(shape), false) => engine::measure(&shape, args.seed, deadline, &mut out),
        (Some(shape), true) => engine::trace(&shape, args.seed, deadline, &mut out),
        (None, false) => sim::measure(args.seed, deadline, &mut out),
        (None, true) => sim::trace(args.seed, &mut out),
    }
    out
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.iter().map(|w| w.name).collect(),
        one => vec![one],
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut all_correct = true;
    for w in WORKLOADS.iter().filter(|w| names.contains(&w.name)) {
        let name = w.name;
        println!(
            "== {name} (seed {}, {} s, {}, {cores} cores): {}",
            args.seed,
            args.seconds,
            if args.trace { "traced" } else { "untraced" },
            w.why
        );
        let out = run(name, &args);
        print!("{}", report::table(&out, args.trace));
        println!(
            "  operations: {} attempted, {} failed",
            out.attempted, out.failed
        );
        for why in out.failures.iter().chain(&out.violations) {
            println!("  FAILED: {why}");
        }
        all_correct &= out.correct();
        println!("{}", report::json_line(&out, args.trace));
    }
    if !all_correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload engine_pfs --seed 7 --seconds 10 --trace 1",
        ));
        assert_eq!(
            a,
            Ok(Args {
                workload: "engine_pfs".into(),
                seed: 7,
                seconds: 10,
                trace: true
            })
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "--workload engine_pfs --trace 2",
            "--workload engine_pfs --seed",
            "--workload engine_pfs --seed -1",
            "--frobnicate 1",
            "",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
