//! Oracle accounting across repetitions, and the result line.

use crate::oracle;
use crate::stats;
use crate::workloads::{self, Workload};
use medsim_core::{EipcFactor, RunResult, SimConfig};

/// The benchmark's result: the last line of standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// No run failed.
    pub correct: bool,
    /// Simulation runs attempted.
    pub attempted: u64,
    /// Simulation runs that panicked or failed the oracle.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Report {
    /// Add a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Runs that passed ÷ runs attempted.
    #[must_use]
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    /// The JSON object the benchmark prints last. Non-finite values
    /// (which JSON cannot hold) are printed as 0.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Oracle bookkeeping over the repetitions of one run. The first
/// repetition that completes is the reference: it is checked against
/// the run invariants, the pinned digest and (figure 5 at seed 0) the
/// reference table; every later repetition must equal it run for run.
pub struct Tally<'a> {
    workload: Workload,
    seed: u64,
    configs: &'a [SimConfig],
    factor: EipcFactor,
    reference: Option<Vec<RunResult>>,
    reference_ok: Vec<bool>,
    attempted: u64,
    failed: u64,
}

impl<'a> Tally<'a> {
    /// Empty tally for one workload's run.
    #[must_use]
    pub fn new(
        workload: Workload,
        seed: u64,
        configs: &'a [SimConfig],
        factor: EipcFactor,
    ) -> Self {
        Tally {
            workload,
            seed,
            configs,
            factor,
            reference: None,
            reference_ok: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Account one repetition (`None`: it panicked). Returns whether all
    /// of its runs passed.
    pub fn record(&mut self, rep: usize, results: Option<Vec<RunResult>>) -> bool {
        let n = self.configs.len();
        self.attempted += n as u64;
        let ok: Vec<bool> = match results {
            None => {
                self.note(format!("repetition {rep} panicked"));
                vec![false; n]
            }
            Some(rs) if rs.len() != n => {
                self.note(format!(
                    "repetition {rep} returned {} of {n} runs",
                    rs.len()
                ));
                vec![false; n]
            }
            Some(rs) => match &self.reference {
                None => {
                    let ok = self.check_reference(&rs);
                    self.reference = Some(rs);
                    self.reference_ok.clone_from(&ok);
                    ok
                }
                Some(reference) => {
                    let ok: Vec<bool> = rs
                        .iter()
                        .zip(reference)
                        .zip(&self.reference_ok)
                        .map(|((r, r0), &ok0)| ok0 && r == r0)
                        .collect();
                    if rs != *reference {
                        self.note(format!("repetition {rep} differs from the reference"));
                    }
                    ok
                }
            },
        };
        let bad = ok.iter().filter(|&&x| !x).count();
        self.failed += bad as u64;
        bad == 0
    }

    fn check_reference(&mut self, rs: &[RunResult]) -> Vec<bool> {
        let mut ok: Vec<bool> = self
            .configs
            .iter()
            .zip(rs)
            .map(|(c, r)| match oracle::check_run(c, r) {
                None => true,
                Some(why) => {
                    self.note(why);
                    false
                }
            })
            .collect();
        let digest = oracle::unit_digest(rs);
        if let Some(pin) = oracle::pinned(self.workload, self.seed) {
            if pin != digest {
                self.note(format!("digest {digest:016x} != pinned {pin:016x}"));
                ok.fill(false);
            }
        }
        if self.workload == Workload::Fig5Sweep && self.seed == 0 {
            if let Some(why) = oracle::check_fig5_reference(rs, &self.factor) {
                self.note(why);
                ok.fill(false);
            }
        }
        ok
    }

    fn note(&self, what: String) {
        println!("oracle: {what}");
    }

    /// The reference repetition, once one completed.
    #[must_use]
    pub fn reference(&self) -> Option<&[RunResult]> {
        self.reference.as_deref()
    }

    /// Print the reference repetition's digest and model figures.
    pub fn print_reference(&self) {
        let Some(rs) = &self.reference else {
            return;
        };
        let digest = oracle::unit_digest(rs);
        let pin = match oracle::pinned(self.workload, self.seed) {
            Some(p) if p == digest => "matches its pin",
            Some(_) => "DIFFERS from its pin",
            None => "not pinned at this seed",
        };
        println!(
            "digest {} {} {digest:016x} ({pin}); sim_cycles {} eipc {:.4}",
            self.workload.name(),
            self.seed,
            workloads::sim_cycles(rs),
            workloads::eipc(rs, &self.factor)
        );
        if self.workload == Workload::Fig5Sweep {
            for (isa, row) in oracle::fig5_table(rs, &self.factor) {
                println!(
                    "figure 5 {isa} conventional, threads 1/2/4/8: {}",
                    row.join("/")
                );
            }
            for ((isa, got), (_, paper)) in oracle::fig5_degradation(rs, &self.factor)
                .into_iter()
                .zip(oracle::PAPER_DEGRADATION)
            {
                println!(
                    "figure 5 {isa} average ideal->real degradation {:.1}% (paper headline {:.0}%)",
                    got * 100.0,
                    paper * 100.0
                );
            }
        }
    }

    /// The result line so far: counts and correctness, no metrics yet.
    #[must_use]
    pub fn report(&self) -> Report {
        Report {
            correct: self.attempted > 0 && self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics: Vec::new(),
        }
    }
}

/// Print every sample of a timing with its lower decile, median and
/// quartiles, so a noisy run shows next to its result.
pub fn print_samples(name: &str, xs: &[f64]) {
    if xs.is_empty() {
        println!("{name}: no samples");
        return;
    }
    let (q1, q3) = stats::quartiles(xs);
    let all: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    println!(
        "{name}: n={} p10 {:.4} median {:.4} q1 {q1:.4} q3 {q3:.4} spread {:.1}% samples [{}]",
        xs.len(),
        stats::quantile(xs, 0.1),
        stats::median(xs),
        stats::relative_spread(xs) * 100.0,
        all.join(" ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsim_workloads::WorkloadSpec;

    fn tiny() -> (Vec<SimConfig>, Vec<RunResult>, EipcFactor) {
        let spec = WorkloadSpec {
            scale: 2e-5,
            seed: 11,
        };
        let configs = Workload::Smt8MomDecoupled.configs(spec);
        let p = workloads::set_up(&spec);
        let rs = workloads::run_unit(&configs, &p.cache);
        (configs, rs, p.factor)
    }

    #[test]
    fn ok_frac_counts_panics_and_mismatches_as_failures() {
        let (configs, rs, factor) = tiny();
        // Seed 11 of this workload is not pinned: only invariants and
        // repetition equality apply.
        let mut t = Tally::new(Workload::Smt8MomDecoupled, 11, &configs, factor);
        assert!(t.record(0, Some(rs.clone())), "reference passes");
        assert!(t.record(1, Some(rs.clone())), "identical repetition passes");
        assert!(!t.record(2, None), "a panic fails");
        let mut off = rs.clone();
        off[0].cycles += 1;
        assert!(!t.record(3, Some(off)), "a differing repetition fails");
        assert!(!t.record(4, Some(Vec::new())), "a short repetition fails");
        let r = t.report();
        assert_eq!((r.attempted, r.failed), (5, 3));
        assert!((r.ok_frac() - 0.4).abs() < 1e-12);
        assert!(!r.correct);
    }

    #[test]
    fn a_panicking_reference_is_replaced_by_the_next_good_repetition() {
        let (configs, rs, factor) = tiny();
        let mut t = Tally::new(Workload::Smt8MomDecoupled, 11, &configs, factor);
        assert!(!t.record(0, None));
        assert!(t.record(1, Some(rs.clone())));
        assert!(t.record(2, Some(rs)));
        assert_eq!(t.report().failed, 1);
        assert!(t.reference().is_some());
    }

    #[test]
    fn copies_of_a_reference_that_breaks_an_invariant_fail_too() {
        let (configs, mut rs, factor) = tiny();
        rs[0].programs_completed = 0;
        let mut t = Tally::new(Workload::Smt8MomDecoupled, 11, &configs, factor);
        assert!(!t.record(0, Some(rs.clone())), "invariant violated");
        assert!(
            !t.record(1, Some(rs)),
            "equal to a bad reference still fails"
        );
        assert_eq!(t.report().failed, 2);
    }

    #[test]
    fn a_digest_that_differs_from_its_pin_fails_every_run() {
        // Seed 0 is pinned at the workload's own scale, so the tiny
        // scale's digest cannot match it.
        let (configs, rs, factor) = tiny();
        let mut t = Tally::new(Workload::Smt8MomDecoupled, 0, &configs, factor);
        assert!(!t.record(0, Some(rs)));
        assert_eq!(t.report().failed, 1);
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: Vec::new(),
        };
        r.metric("wall_s", 1.25, "s");
        r.metric("bad", f64::NAN, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"bad\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}
