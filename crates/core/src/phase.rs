//! Per-phase bookkeeping shared by the retarget and compile pipelines.
//!
//! Every pipeline phase is timed the same way: a trace span on the probe
//! brackets the phase body (closed on the error path too, because the
//! body's result is returned rather than propagated), and the phase's
//! wall clock lands in the run's [`Report`] under the span's label.

use record_probe::{Probe, Report};
use std::time::Instant;

/// The probe and report of one pipeline run.
pub(crate) struct Phases<'a, 'p> {
    pub(crate) probe: &'a mut Probe<'p>,
    pub(crate) report: Report,
}

impl<'a, 'p> Phases<'a, 'p> {
    /// Bookkeeping for a run streaming spans into `probe` and summing
    /// phase times into `report`.
    pub(crate) fn new(probe: &'a mut Probe<'p>, report: Report) -> Phases<'a, 'p> {
        Phases { probe, report }
    }

    /// Runs `body` inside a `span` trace span and returns its result
    /// with the elapsed wall-clock nanoseconds, recording nothing in the
    /// report (for phases whose report entries are split differently
    /// from their span).
    pub(crate) fn timed<T>(
        &mut self,
        span: &'static str,
        body: impl FnOnce(&mut Probe<'p>) -> T,
    ) -> (T, u64) {
        let t0 = Instant::now();
        self.probe.begin(span);
        let out = body(self.probe);
        self.probe.end(span);
        (out, t0.elapsed().as_nanos() as u64)
    }

    /// Runs `body` as phase `label`: a `label` span on the probe and a
    /// `label` entry in the report.
    pub(crate) fn run<T>(
        &mut self,
        label: &'static str,
        body: impl FnOnce(&mut Probe<'p>) -> T,
    ) -> T {
        let (out, ns) = self.timed(label, body);
        self.report.phase(label, ns);
        out
    }

    /// Records counter `name` on both the trace and the report.
    pub(crate) fn count(&mut self, name: &'static str, value: u64) {
        self.probe.count(name, value);
        self.report.count(name, value);
    }
}
