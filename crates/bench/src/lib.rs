//! # medsim-bench — the table/figure regeneration harness
//!
//! One bench target per table and figure of the paper (run with
//! `cargo bench -p medsim-bench --bench <target>`), plus ablation
//! sweeps and Criterion micro-benchmarks. `cargo bench --workspace`
//! regenerates everything.
//!
//! The workload scale defaults to [`DEFAULT_SCALE`] (fractions of the
//! paper's full-size instruction counts) and can be overridden with the
//! `MEDSIM_SCALE` environment variable, e.g.
//! `MEDSIM_SCALE=0.01 cargo bench -p medsim-bench --bench fig5_real`.

use medsim_workloads::WorkloadSpec;
use std::io::Write as _;
use std::time::Instant;

/// Default workload scale for bench runs: large enough for stable
/// shapes, small enough to regenerate every figure in minutes.
pub const DEFAULT_SCALE: f64 = 0.001;

/// Workload spec for bench targets, honoring `MEDSIM_SCALE` and
/// `MEDSIM_SEED` environment overrides.
#[must_use]
pub fn spec_from_env() -> WorkloadSpec {
    let scale = std::env::var("MEDSIM_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(DEFAULT_SCALE);
    let mut spec = WorkloadSpec::new(scale);
    if let Some(seed) = std::env::var("MEDSIM_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
    {
        spec.seed = seed;
    }
    spec
}

/// Run `f`, printing its wall-clock time with a label.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    eprintln!("[{label}: {:.1}s]", start.elapsed().as_secs_f64());
    out
}

/// Run `f`, returning its result and wall-clock seconds.
pub fn timed_secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// One measured entry of a bench-run report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Benchmark / driver name.
    pub name: String,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Total simulated cycles covered by the measurement (0 when not
    /// applicable, e.g. pure trace generation).
    pub sim_cycles: u64,
}

impl BenchEntry {
    /// Simulated cycles per wall-clock second — the simulator's
    /// headline throughput metric.
    #[must_use]
    pub fn sim_cycles_per_sec(&self) -> f64 {
        if self.wall_s <= 0.0 {
            0.0
        } else {
            self.sim_cycles as f64 / self.wall_s
        }
    }
}

/// Collects [`BenchEntry`] rows and emits `BENCH_runs.json` so the
/// perf trajectory of the simulator itself is tracked PR over PR (the
/// CI smoke-bench job uploads the file as an artifact and
/// `compare_bench` gates on it).
#[derive(Debug, Default)]
pub struct BenchRecorder {
    entries: Vec<BenchEntry>,
}

impl BenchRecorder {
    /// Empty recorder.
    #[must_use]
    pub fn new() -> Self {
        BenchRecorder::default()
    }

    /// Record one measurement.
    pub fn record(&mut self, name: &str, wall_s: f64, sim_cycles: u64) {
        self.entries.push(BenchEntry {
            name: name.to_string(),
            wall_s,
            sim_cycles,
        });
    }

    /// Time `f`, record it under `name` with the simulated-cycle count
    /// its result reports via `cycles_of`, and pass the result through.
    pub fn measure<T>(
        &mut self,
        name: &str,
        f: impl FnOnce() -> T,
        cycles_of: impl FnOnce(&T) -> u64,
    ) -> T {
        let (out, wall_s) = timed_secs(f);
        self.record(name, wall_s, cycles_of(&out));
        out
    }

    /// The rows recorded so far.
    #[must_use]
    pub fn entries(&self) -> &[BenchEntry] {
        &self.entries
    }

    /// Render the report as a JSON document (hand-emitted: the
    /// environment's serde is a no-op shim). The top-level `scale`
    /// records the workload scale the rows were measured at, so trend
    /// comparison can refuse to compare across scale changes.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"schema\": \"medsim-bench-runs/v2\",\n  \"scale\": {},\n  \"runs\": [\n",
            spec_from_env().scale
        );
        for (i, e) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"wall_s\": {:.6}, \"sim_cycles\": {}, \"sim_cycles_per_sec\": {:.1}}}{comma}\n",
                escape_json(&e.name),
                e.wall_s,
                e.sim_cycles,
                e.sim_cycles_per_sec(),
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write the report to `MEDSIM_BENCH_JSON` (default
    /// `BENCH_runs.json` in the working directory).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_default(&self) -> std::io::Result<()> {
        let path = std::env::var("MEDSIM_BENCH_JSON").unwrap_or_else(|_| "BENCH_runs.json".into());
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_json().as_bytes())?;
        eprintln!("[bench report -> {path}]");
        Ok(())
    }
}

/// A parsed `BENCH_runs.json` document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchReport {
    /// Workload scale the rows were measured at (absent in v1 reports).
    pub scale: Option<f64>,
    /// Measured rows.
    pub runs: Vec<BenchEntry>,
}

/// Parse a `BENCH_runs.json` document — the inverse of
/// [`BenchRecorder::to_json`], hand-rolled for the same reason that
/// emitter is (the workspace serde is a no-op shim). Tolerant of
/// unknown fields; rows missing `name`/`wall_s`/`sim_cycles` are
/// skipped; v1 reports (no top-level `scale`) parse with `scale: None`.
#[must_use]
pub fn parse_report(json: &str) -> BenchReport {
    let scale = json
        .split('{')
        .nth(1)
        .and_then(|head| extract_number(head, "\"scale\": "));
    BenchReport {
        scale,
        runs: parse_runs(json),
    }
}

/// Parse just the rows of a `BENCH_runs.json` document (see
/// [`parse_report`] for the scale-aware variant).
#[must_use]
pub fn parse_runs(json: &str) -> Vec<BenchEntry> {
    let mut out = Vec::new();
    for row in json.split('{').skip(1) {
        let Some(name) = extract_string(row, "\"name\": \"") else {
            continue;
        };
        let Some(wall_s) = extract_number(row, "\"wall_s\": ") else {
            continue;
        };
        let Some(sim_cycles) = extract_number(row, "\"sim_cycles\": ") else {
            continue;
        };
        out.push(BenchEntry {
            name,
            wall_s,
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            sim_cycles: sim_cycles as u64,
        });
    }
    out
}

/// Compare two parsed reports; returns `(name, old_wall_s, new_wall_s)`
/// for every entry whose wall clock regressed by more than
/// `threshold` (fractional, e.g. `0.10`). Entries below `noise_floor_s`
/// in both reports are ignored — sub-50 ms rows are scheduler noise on
/// shared CI runners.
#[must_use]
pub fn regressions(
    old: &[BenchEntry],
    new: &[BenchEntry],
    threshold: f64,
    noise_floor_s: f64,
) -> Vec<(String, f64, f64)> {
    let mut out = Vec::new();
    for n in new {
        let Some(o) = old.iter().find(|o| o.name == n.name) else {
            continue;
        };
        if o.wall_s < noise_floor_s && n.wall_s < noise_floor_s {
            continue;
        }
        if n.wall_s > o.wall_s * (1.0 + threshold) {
            out.push((n.name.clone(), o.wall_s, n.wall_s));
        }
    }
    out
}

/// How `compare_bench` responds to a regression on a gated row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateMode {
    /// Gated regressions fail the build (the default).
    Fail,
    /// Everything only warns (opt-out: `MEDSIM_BENCH_GATE=warn`).
    Warn,
}

impl GateMode {
    /// Gate mode selected by `MEDSIM_BENCH_GATE` (`warn`/`off`/`0`
    /// disable the failing gate; anything else, or unset, enforces it).
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("MEDSIM_BENCH_GATE") {
            Ok(v)
                if v.eq_ignore_ascii_case("warn") || v.eq_ignore_ascii_case("off") || v == "0" =>
            {
                GateMode::Warn
            }
            _ => GateMode::Fail,
        }
    }
}

/// The headline rows whose wall-clock regressions fail CI: the
/// figure-5 grid (end-to-end), the raw single-thread hot path, the
/// sharded-frontend single big run, the packed block-decode throughput,
/// the 4-core CMP run, the observability
/// off-path (a run with every `MEDSIM_TRACE_EVENTS`-family knob off —
/// the price of the dormant `obs::tracing()` checks on the hot path,
/// which must stay zero), the decoupled vector-fetch run so the
/// run-ahead path's wall clock cannot rot unnoticed, and the
/// memory-hierarchy hot-path row (the packed line-state model timed
/// against the reference model, with identical stats asserted). All are
/// still subject to the `--noise-floor` guard — rows under the floor in
/// both reports never gate.
pub const GATED_ROWS: &[&str] = &[
    "fig5_real",
    "pipeline_1thread",
    "sharded_frontend",
    "packed_block_decode",
    "cmp_4core",
    "obs_off_overhead",
    "decoupled_vector",
    "warm_grid",
    "mem_hot_path",
];

/// Rows present in only one of two reports: `(added, removed)` relative
/// to the old one. The gate only compares rows present in both, so new
/// rows (a fresh CMP configuration, say) and vanished rows (a silently
/// un-gated benchmark) must be reported rather than skipped.
#[must_use]
pub fn row_changes(old: &[BenchEntry], new: &[BenchEntry]) -> (Vec<String>, Vec<String>) {
    let added = new
        .iter()
        .filter(|n| !old.iter().any(|o| o.name == n.name))
        .map(|n| n.name.clone())
        .collect();
    let removed = old
        .iter()
        .filter(|o| !new.iter().any(|n| n.name == o.name))
        .map(|o| o.name.clone())
        .collect();
    (added, removed)
}

/// Whether a regression on `name` fails the build (vs warns).
#[must_use]
pub fn is_gated(name: &str) -> bool {
    GATED_ROWS.contains(&name)
}

/// The verdict of a trend comparison between two reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GateDecision {
    /// Regressions on [`GATED_ROWS`] — these fail the build in
    /// [`GateMode::Fail`].
    pub gated: Vec<(String, f64, f64)>,
    /// Regressions on other rows — always warnings.
    pub ungated: Vec<(String, f64, f64)>,
    /// `false` when the two reports were measured at different workload
    /// scales: wall clocks are incomparable and the baseline resets.
    pub comparable: bool,
}

/// Compare two reports and classify every regression. Reports measured
/// at different scales (e.g. after a CI smoke-scale change) are
/// declared incomparable rather than producing bogus regressions. A v1
/// baseline (no recorded scale) against a v2 report is likewise
/// incomparable — the old artifact may have been measured at any scale,
/// and guessing would fabricate regressions on the first run after the
/// schema change; two legacy reports still compare best-effort.
#[must_use]
pub fn evaluate_gate(
    old: &BenchReport,
    new: &BenchReport,
    threshold: f64,
    noise_floor_s: f64,
) -> GateDecision {
    let comparable = match (old.scale, new.scale) {
        (Some(a), Some(b)) => (a - b).abs() <= a.abs() * 1e-9,
        (None, None) => true,
        _ => false,
    };
    if !comparable {
        return GateDecision {
            comparable: false,
            ..GateDecision::default()
        };
    }
    let (gated, ungated) = regressions(&old.runs, &new.runs, threshold, noise_floor_s)
        .into_iter()
        .partition(|(name, _, _)| is_gated(name));
    GateDecision {
        gated,
        ungated,
        comparable: true,
    }
}

/// The per-row delta table as one GitHub Actions `::notice::` workflow
/// command, so the PR-over-PR trend surfaces in the run summary instead
/// of only in the log. Multi-line content uses the `%0A` escape the
/// workflow-command grammar requires. Rows present in only one report
/// are skipped (they are reported separately as added/removed); `None`
/// when no row is comparable.
#[must_use]
pub fn notice_delta_table(old: &[BenchEntry], new: &[BenchEntry]) -> Option<String> {
    let mut lines = Vec::new();
    for n in new {
        let Some(o) = old.iter().find(|o| o.name == n.name) else {
            continue;
        };
        if o.wall_s <= 0.0 {
            continue;
        }
        let delta = (n.wall_s / o.wall_s - 1.0) * 100.0;
        lines.push(format!(
            "{}: {:.3}s -> {:.3}s ({:+.1}%)",
            n.name, o.wall_s, n.wall_s, delta
        ));
    }
    if lines.is_empty() {
        return None;
    }
    Some(format!(
        "::notice title=bench deltas::{}",
        lines.join("%0A")
    ))
}

/// Parsed `compare_bench` command line.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareArgs {
    /// Previous report path.
    pub old_path: String,
    /// Current report path.
    pub new_path: String,
    /// Regression threshold as a fraction (CLI takes percent).
    pub threshold: f64,
    /// Rows faster than this (seconds) in both reports are ignored.
    pub noise_floor_s: f64,
}

/// Parse `compare_bench` arguments:
/// `<previous.json> <current.json> [threshold-percent] [--noise-floor <seconds>]`.
///
/// # Errors
///
/// Returns a usage message when paths are missing or a value fails to
/// parse.
pub fn parse_compare_args(args: &[String]) -> Result<CompareArgs, String> {
    const USAGE: &str = "usage: compare_bench <previous.json> <current.json> [threshold-percent] \
         [--noise-floor <seconds>]";
    let mut positional = Vec::new();
    let mut noise_floor_s = 0.05;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--noise-floor" {
            let v = it
                .next()
                .ok_or(format!("--noise-floor needs a value\n{USAGE}"))?;
            noise_floor_s = v
                .parse::<f64>()
                .map_err(|_| format!("bad --noise-floor {v:?}\n{USAGE}"))?;
        } else {
            positional.push(a.clone());
        }
    }
    let (Some(old_path), Some(new_path)) = (positional.first(), positional.get(1)) else {
        return Err(USAGE.to_string());
    };
    let threshold = match positional.get(2) {
        Some(v) => {
            v.parse::<f64>()
                .map_err(|_| format!("bad threshold {v:?}\n{USAGE}"))?
                / 100.0
        }
        None => 0.10,
    };
    Ok(CompareArgs {
        old_path: old_path.clone(),
        new_path: new_path.clone(),
        threshold,
        noise_floor_s,
    })
}

fn extract_string(row: &str, key: &str) -> Option<String> {
    let rest = &row[row.find(key)? + key.len()..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

fn extract_number(row: &str, key: &str) -> Option<f64> {
    let rest = &row[row.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Escape a string for inclusion in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_positive_scale() {
        let s = spec_from_env();
        assert!(s.scale > 0.0);
    }

    #[test]
    fn timed_passes_value_through() {
        assert_eq!(timed("test", || 42), 42);
    }

    #[test]
    fn recorder_emits_valid_json_shape() {
        let mut r = BenchRecorder::new();
        r.record("alpha", 2.0, 1_000_000);
        let x = r.measure("beta", || 7u64, |&v| v);
        assert_eq!(x, 7);
        assert_eq!(r.entries().len(), 2);
        assert_eq!(r.entries()[0].sim_cycles_per_sec(), 500_000.0);
        let json = r.to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"name\": \"alpha\""));
        assert!(json.contains("\"sim_cycles_per_sec\": 500000.0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut r = BenchRecorder::new();
        r.record("quote\" back\\ tab\tnl\n", 1.0, 1);
        let json = r.to_json();
        assert!(json.contains(r#"quote\" back\\ tab\tnl\n"#), "{json}");
    }

    #[test]
    fn parse_runs_inverts_to_json() {
        let mut r = BenchRecorder::new();
        r.record("fig5_real", 5.25, 123_456_789);
        r.record("name with \"quotes\"\t", 0.5, 42);
        let parsed = parse_runs(&r.to_json());
        assert_eq!(parsed, r.entries());
    }

    #[test]
    fn parse_runs_tolerates_junk() {
        assert!(parse_runs("").is_empty());
        assert!(parse_runs("{\"schema\": \"x\", \"runs\": []}").is_empty());
        assert!(parse_runs("not json at all").is_empty());
    }

    #[test]
    fn regressions_flag_slowdowns_over_threshold() {
        let old = vec![
            BenchEntry {
                name: "a".into(),
                wall_s: 1.0,
                sim_cycles: 1,
            },
            BenchEntry {
                name: "b".into(),
                wall_s: 1.0,
                sim_cycles: 1,
            },
            BenchEntry {
                name: "tiny".into(),
                wall_s: 0.001,
                sim_cycles: 1,
            },
        ];
        let new = vec![
            BenchEntry {
                name: "a".into(),
                wall_s: 1.05,
                sim_cycles: 1,
            },
            BenchEntry {
                name: "b".into(),
                wall_s: 1.2,
                sim_cycles: 1,
            },
            BenchEntry {
                name: "tiny".into(),
                wall_s: 0.04,
                sim_cycles: 1,
            },
            BenchEntry {
                name: "new_row".into(),
                wall_s: 9.0,
                sim_cycles: 1,
            },
        ];
        let regs = regressions(&old, &new, 0.10, 0.05);
        assert_eq!(regs.len(), 1, "only b regressed beyond 10%: {regs:?}");
        assert_eq!(regs[0].0, "b");
    }

    #[test]
    fn report_records_and_parses_scale() {
        let mut r = BenchRecorder::new();
        r.record("fig5_real", 1.0, 10);
        let report = parse_report(&r.to_json());
        assert_eq!(report.scale, Some(DEFAULT_SCALE));
        assert_eq!(report.runs, r.entries());
        // v1 documents (no scale) parse with None.
        let v1 = "{\n \"schema\": \"medsim-bench-runs/v1\",\n \"runs\": [\n \
                  {\"name\": \"a\", \"wall_s\": 1.0, \"sim_cycles\": 2}\n ]\n}\n";
        let legacy = parse_report(v1);
        assert_eq!(legacy.scale, None);
        assert_eq!(legacy.runs.len(), 1);
    }

    fn entry(name: &str, wall_s: f64) -> BenchEntry {
        BenchEntry {
            name: name.into(),
            wall_s,
            sim_cycles: 1,
        }
    }

    fn report(scale: Option<f64>, runs: Vec<BenchEntry>) -> BenchReport {
        BenchReport { scale, runs }
    }

    #[test]
    fn gate_partitions_gated_and_ungated_regressions() {
        let old = report(
            Some(1e-4),
            vec![entry("fig5_real", 1.0), entry("grid_serial", 1.0)],
        );
        let new = report(
            Some(1e-4),
            vec![entry("fig5_real", 1.5), entry("grid_serial", 1.5)],
        );
        let d = evaluate_gate(&old, &new, 0.10, 0.05);
        assert!(d.comparable);
        assert_eq!(d.gated.len(), 1);
        assert_eq!(d.gated[0].0, "fig5_real");
        assert_eq!(d.ungated.len(), 1);
        assert_eq!(d.ungated[0].0, "grid_serial");
    }

    #[test]
    fn new_frontend_and_block_decode_rows_are_gated() {
        assert!(is_gated("sharded_frontend"));
        assert!(is_gated("packed_block_decode"));
        let old = report(
            Some(1e-4),
            vec![
                entry("sharded_frontend", 1.0),
                entry("packed_block_decode", 0.01),
            ],
        );
        // sharded_frontend regresses over the floor => gated failure;
        // packed_block_decode doubles but stays under the noise floor
        // in both reports => ignored.
        let new = report(
            Some(1e-4),
            vec![
                entry("sharded_frontend", 1.5),
                entry("packed_block_decode", 0.02),
            ],
        );
        let d = evaluate_gate(&old, &new, 0.10, 0.05);
        assert_eq!(d.gated.len(), 1);
        assert_eq!(d.gated[0].0, "sharded_frontend");
        assert!(d.ungated.is_empty());
    }

    #[test]
    fn gate_respects_threshold_and_noise_floor() {
        let old = report(
            Some(1e-4),
            vec![entry("fig5_real", 1.0), entry("pipeline_1thread", 0.01)],
        );
        // +9% on fig5_real (under threshold); pipeline_1thread doubles
        // but sits under the noise floor in both reports.
        let new = report(
            Some(1e-4),
            vec![entry("fig5_real", 1.09), entry("pipeline_1thread", 0.02)],
        );
        let d = evaluate_gate(&old, &new, 0.10, 0.05);
        assert!(d.comparable);
        assert!(d.gated.is_empty(), "{:?}", d.gated);
        assert!(d.ungated.is_empty());
        // A tighter threshold flags the +9%.
        let d = evaluate_gate(&old, &new, 0.05, 0.05);
        assert_eq!(d.gated.len(), 1);
    }

    #[test]
    fn gate_refuses_cross_scale_comparison() {
        let old = report(Some(1e-5), vec![entry("fig5_real", 0.06)]);
        let new = report(Some(1e-4), vec![entry("fig5_real", 0.60)]);
        let d = evaluate_gate(&old, &new, 0.10, 0.05);
        assert!(!d.comparable, "scale change must reset the baseline");
        assert!(d.gated.is_empty() && d.ungated.is_empty());
        // A v1 baseline (unknown scale) against a v2 report must also
        // reset: the old artifact may have been measured at any scale.
        let legacy = report(None, vec![entry("fig5_real", 0.06)]);
        assert!(!evaluate_gate(&legacy, &new, 0.10, 0.05).comparable);
        // Two legacy reports still compare best-effort.
        let legacy2 = report(None, vec![entry("fig5_real", 0.10)]);
        let d = evaluate_gate(&legacy, &legacy2, 0.10, 0.05);
        assert!(d.comparable);
        assert_eq!(d.gated.len(), 1);
    }

    #[test]
    fn gated_rows_are_the_headline_benchmarks() {
        assert!(is_gated("fig5_real"));
        assert!(is_gated("pipeline_1thread"));
        assert!(is_gated("cmp_4core"));
        assert!(is_gated("obs_off_overhead"));
        assert!(is_gated("decoupled_vector"));
        assert!(is_gated("warm_grid"));
        assert!(!is_gated("grid_serial"));
        assert!(!is_gated("fig5_real_warm_store"));
    }

    #[test]
    fn notice_delta_table_renders_one_workflow_command() {
        let old = vec![entry("fig5_real", 1.0), entry("vanished", 1.0)];
        let new = vec![entry("fig5_real", 1.1), entry("added", 2.0)];
        let notice = notice_delta_table(&old, &new).expect("one comparable row");
        assert!(notice.starts_with("::notice title=bench deltas::"));
        assert!(notice.contains("fig5_real: 1.000s -> 1.100s (+10.0%)"));
        assert!(!notice.contains("vanished"), "removed rows are skipped");
        assert!(!notice.contains("added:"), "new rows are skipped");
        assert!(!notice.contains('\n'), "workflow commands are one line");
        // Multi-row tables join with the %0A escape.
        let old2 = vec![entry("a", 1.0), entry("b", 2.0)];
        let new2 = vec![entry("a", 1.0), entry("b", 1.0)];
        let n2 = notice_delta_table(&old2, &new2).expect("two rows");
        assert_eq!(n2.matches("%0A").count(), 1);
        assert!(n2.contains("b: 2.000s -> 1.000s (-50.0%)"));
        // Nothing comparable: no command at all.
        assert!(notice_delta_table(&old, &[entry("other", 1.0)]).is_none());
    }

    #[test]
    fn row_changes_report_added_and_removed() {
        let old = vec![entry("fig5_real", 1.0), entry("vanished", 1.0)];
        let new = vec![entry("fig5_real", 1.0), entry("cmp_4core", 2.0)];
        let (added, removed) = row_changes(&old, &new);
        assert_eq!(added, vec!["cmp_4core".to_string()]);
        assert_eq!(removed, vec!["vanished".to_string()]);
        let (added, removed) = row_changes(&new, &new);
        assert!(added.is_empty() && removed.is_empty());
    }

    #[test]
    fn compare_args_parse_positionals_and_flags() {
        let args = |v: &[&str]| v.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
        let a = parse_compare_args(&args(&["old.json", "new.json"])).unwrap();
        assert_eq!(a.threshold, 0.10);
        assert_eq!(a.noise_floor_s, 0.05);
        let a = parse_compare_args(&args(&[
            "old.json",
            "new.json",
            "25",
            "--noise-floor",
            "0.2",
        ]))
        .unwrap();
        assert_eq!(a.threshold, 0.25);
        assert_eq!(a.noise_floor_s, 0.2);
        assert_eq!(a.old_path, "old.json");
        assert_eq!(a.new_path, "new.json");
        // Flag order does not matter.
        let a = parse_compare_args(&args(&["--noise-floor", "0.1", "o", "n", "5"])).unwrap();
        assert_eq!(a.threshold, 0.05);
        assert_eq!(a.noise_floor_s, 0.1);
        assert!(parse_compare_args(&args(&["only-one.json"])).is_err());
        assert!(parse_compare_args(&args(&["o", "n", "not-a-number"])).is_err());
        assert!(parse_compare_args(&args(&["o", "n", "--noise-floor"])).is_err());
    }

    #[test]
    fn gate_mode_defaults_to_fail() {
        // No env mutation (tests run in parallel): just the default.
        assert_eq!(GateMode::from_env(), GateMode::Fail);
    }

    #[test]
    fn zero_wall_time_does_not_divide_by_zero() {
        let e = BenchEntry {
            name: "x".into(),
            wall_s: 0.0,
            sim_cycles: 5,
        };
        assert_eq!(e.sim_cycles_per_sec(), 0.0);
    }
}
