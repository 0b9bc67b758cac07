//! Schema-shape tests for the observability layer: the Chrome trace
//! export and the per-run JSON report produced by a small figure-5
//! style run.
//!
//! The event sink and the knobs are process-global, so every test here
//! serializes on one mutex and uses the programmatic knob overrides
//! (`set_trace` / `set_sample_cycles` / `set_report_path`) instead of
//! mutating the environment.

use medsim::core::sim::{SimConfig, Simulation};
use medsim::obs;
use medsim::workloads::trace::SimdIsa;
use medsim::workloads::WorkloadSpec;
use std::sync::Mutex;

/// Every test in this file that runs the simulator must hold this lock
/// for its whole run: a run's events land in the one process-global
/// sink, so an unlocked run interleaves its events with a locked test's
/// trace (this once broke the B/E pairing of the Chrome-trace test).
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn small_config() -> SimConfig {
    SimConfig::new(SimdIsa::Mom, 2)
        .with_cores(2)
        .with_spec(WorkloadSpec {
            scale: 1.0e-5,
            seed: 4242,
        })
}

/// All `"key": <integer>` values of `key` in `json`, in textual order.
fn int_values(json: &str, key: &str) -> Vec<u64> {
    let needle = format!("\"{key}\": ");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        if !digits.is_empty() {
            out.push(digits.parse().expect("digits parse"));
        }
    }
    out
}

#[test]
fn chrome_trace_has_valid_shape_on_a_small_run() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let _ = obs::drain_events(); // someone else's leftovers
    obs::set_trace(true, None); // buffer-only: this test drains itself
    let result = Simulation::run(&small_config());
    obs::set_trace(false, None);
    assert!(result.cycles > 0);

    let (events, dropped) = obs::drain_events();
    assert!(!events.is_empty(), "a traced run emits events");
    assert!(
        events.iter().any(|e| e.kind == obs::EventKind::Commit),
        "commit events present"
    );
    assert!(
        events.iter().any(|e| e.kind == obs::EventKind::RunBegin),
        "run-begin present"
    );

    let json = obs::chrome_trace_json(&events, dropped);
    obs::validate_json(&json).expect("chrome trace must be valid JSON");
    assert!(json.contains("\"schema\": \"medsim-chrome-trace/v1\""));

    // Timestamps must be monotonically non-decreasing in file order.
    let ts = int_values(&json, "ts");
    assert_eq!(ts.len(), events.len(), "one ts per event");
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "ts sorted");

    // Span begins and ends must pair up.
    let begins = json.matches("\"ph\": \"B\"").count();
    let ends = json.matches("\"ph\": \"E\"").count();
    assert_eq!(begins, ends, "matched B/E span pairs");
    assert!(begins >= 1, "at least the run span");
}

#[test]
fn run_report_has_valid_shape_with_sampling_on() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let path = std::env::temp_dir().join(format!("medsim_report_{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    obs::set_report_path(Some(path_str));
    obs::set_sample_cycles(256);
    let result = Simulation::run(&small_config());
    obs::set_sample_cycles(0);
    obs::set_report_path(None);

    let json = std::fs::read_to_string(&path).expect("report file written");
    let _ = std::fs::remove_file(&path);
    obs::validate_json(&json).expect("report must be valid JSON");
    assert!(json.contains("\"schema\": \"medsim-run-report/v2\""));
    for section in ["\"config\"", "\"result\"", "\"roofline\"", "\"samples\""] {
        assert!(json.contains(section), "missing section {section}");
    }
    assert!(
        json.contains("\"interval_cycles\": 256"),
        "sampler interval recorded"
    );
    assert!(
        json.matches("\"cycle\": ").count() >= 2,
        "a multi-thousand-cycle run yields sample rows at period 256"
    );
    // The report's headline counters agree with the returned result.
    assert!(json.contains(&format!("\"cycles\": {}", result.cycles)));
    assert!(json.contains(&format!("\"committed\": {}", result.committed)));
    assert!(json.contains("\"peak_bytes_per_cycle\""));
}
