//! The medsim benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times the workload's unit end to end through the
//! public API: one cold set-up and a checked warm-up repetition (the peak
//! RSS is read after them), more cold set-ups, a second warm-up on the
//! last set-up's cache, then timed warm repetitions for `--seconds`
//! seconds. The repetition times are reported as their lower decile
//! (`HOST_QUANTILE`), the set-up times as their median; simulated cycles
//! and the figure of merit are exact.
//! With `--trace 1` it instead runs the workload once through the
//! benchmark's own instrumented copy of the serial machine loop and
//! reports per-layer numbers (see `traced.rs`).
//!
//! Human-readable lines go to standard output first; the last line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod host;
mod oracle;
mod report;
mod stats;
mod traced;
mod workloads;

use report::{Report, Tally};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{run_unit, set_up, Workload};

/// Cold set-ups per run: at least `MIN_SETUPS`, then more until
/// `SETUP_SECONDS` have passed since the warm-up, at most `MAX_SETUPS`.
/// `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 31;
const SETUP_SECONDS: f64 = 2.0;

/// Timed warm repetitions per run, at least, however long they take.
const MIN_REPS: usize = 5;

/// The quantile of the timed repetitions that `wall_s` and `cpu_s`
/// report. The host slows down in stretches of seconds to minutes, so
/// a run's repetitions mix a fast and a slow state in a share that
/// changes from run to run; their median flips between the two states
/// and spread past the bounds across runs. The lower decile stays on
/// the fast state as long as one repetition in ten reaches it, and,
/// unlike the minimum, one odd repetition cannot move it.
const HOST_QUANTILE: f64 = 0.1;

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds {value} outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Remove every `MEDSIM_*` variable, before the first simulator call
/// (the knobs are read once per process), so a stray knob can neither
/// change the schedule nor turn timing into store reads.
fn clear_simulator_env() -> Vec<String> {
    let names: Vec<std::ffi::OsString> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("MEDSIM_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
        .iter()
        .map(|k| k.to_string_lossy().into_owned())
        .collect()
}

fn main() -> ExitCode {
    let cleared = clear_simulator_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if !cleared.is_empty() {
        println!("cleared from the environment: {}", cleared.join(" "));
    }
    let report = if args.trace {
        traced::run(args.workload, args.seed, args.seconds)
    } else {
        end_to_end(args.workload, args.seed, args.seconds)
    };
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

fn end_to_end(workload: Workload, seed: u64, seconds: f64) -> Report {
    let spec = workload.spec(seed);
    let configs = workload.configs(spec);
    println!(
        "workload {} seed {seed} (workload seed {:#x}, scale {:e}): {} run(s) per repetition",
        workload.name(),
        spec.seed,
        spec.scale,
        configs.len()
    );

    // One cold set-up and the checked warm-up repetition (repetition 0)
    // come first, with nothing before them, so the peak RSS read after
    // them is what one use of the unit costs. Read after the later
    // set-ups and repetitions, it would also hold whatever the allocator
    // kept from them, which varies from run to run.
    let (first, first_setup_s) = host::timed(|| set_up(&spec));
    let mut tally = Tally::new(workload, seed, &configs, first.factor);
    let warm_up = catch_unwind(AssertUnwindSafe(|| run_unit(&configs, &first.cache)));
    tally.record(0, warm_up.ok());
    tally.print_reference();
    let peak_rss_mib = host::peak_rss_mib();

    // More cold set-ups, each after dropping the previous cache; the
    // last one serves the timed repetitions.
    let mut setups = vec![first_setup_s];
    let mut prepared = first;
    let setup_start = Instant::now();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setup_start.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        drop(prepared);
        let (p, s) = host::timed(|| set_up(&spec));
        prepared = p;
        setups.push(s);
    }

    // Repetition 1, the first on the last set-up's cache, is a warm-up
    // too: it ran about 1.2x the median.
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let started = Instant::now();
    let mut rep = 1usize;
    while walls.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        let c0 = host::process_cpu_s();
        let (out, wall) =
            host::timed(|| catch_unwind(AssertUnwindSafe(|| run_unit(&configs, &prepared.cache))));
        let cpu = host::process_cpu_s() - c0;
        if tally.record(rep, out.ok()) && rep > 1 {
            walls.push(wall);
            cpus.push(cpu);
        }
        rep += 1;
        // A unit that keeps failing has nothing to time; stop once the
        // time is up and a timed repetition has been tried, even without
        // a sample.
        if walls.is_empty() && rep > 2 && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    report::print_samples("setup_s", &setups);
    report::print_samples("wall_s", &walls);
    report::print_samples("cpu_s", &cpus);
    let mut r = tally.report();
    let Some(reference) = tally.reference().filter(|_| !walls.is_empty()) else {
        r.correct = false;
        return r;
    };
    let wall_s = stats::quantile(&walls, HOST_QUANTILE);
    let sim_cycles = workloads::sim_cycles(reference) as f64;
    r.metric("setup_s", stats::median(&setups), "s");
    r.metric("wall_s", wall_s, "s");
    // An exact transform of the same quantile, never a quantile of ratios.
    r.metric("sim_cycles_per_s", sim_cycles / wall_s, "cycles/s");
    r.metric("cpu_s", stats::quantile(&cpus, HOST_QUANTILE), "s");
    r.metric("peak_rss_mib", peak_rss_mib, "MiB");
    r.metric("ok_frac", r.ok_frac(), "ratio");
    r.metric("sim_cycles", sim_cycles, "cycles");
    r.metric(
        "eipc",
        workloads::eipc(reference, &prepared.factor),
        "ratio",
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_documented_command_line_parses() {
        let a = parse_args(&argv(
            "--workload cmp4_shared_l2 --seed 7 --seconds 20 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: Workload::Cmp4SharedL2,
                seed: 7,
                seconds: 20.0,
                trace: true,
            }
        );
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        for bad in [
            "",
            "--workload nope",
            "--workload fig5_sweep --seed -1",
            "--workload fig5_sweep --trace 2",
            "--workload fig5_sweep --seconds 0",
            "--workload fig5_sweep --bogus 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} rejected");
        }
    }
}
