//! Outside-in per-layer tracing.
//!
//! The simulator has no built-in profile, so the traced runs wrap every
//! accelerator and every interconnect in a forwarding model that counts
//! each call into the layer's public trait (`tick`, ticks that report
//! progress, `next_event` horizon queries) and times every
//! [`SAMPLE`]-th call. Every other trait method forwards untouched —
//! `as_any` included, so downcasts still reach the concrete model, and
//! `save_state`/`restore_state`, so snapshots are unchanged — which is
//! what lets each traced run be checked byte-identical against its
//! untraced twin.
//!
//! Counters are plain load/store pairs on relaxed atomics: the wrapped
//! models are ticked by one simulation thread, and a read-modify-write
//! would cost more than the calls being counted.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use axi_hyperconnect::axi::observe::{BoundReport, BoundViolation, MetricsRegistry};
use axi_hyperconnect::axi::{AxiInterconnect, AxiPort};
use axi_hyperconnect::ha::Accelerator;
use axi_hyperconnect::sim::persist::{PersistError, SnapshotReader, SnapshotWriter};
use axi_hyperconnect::sim::{Component, Cycle};

use crate::Outcome;

/// One call in `SAMPLE` is timed. Timing every call would cost about
/// one `Instant` pair per call, as much as a whole simulated cycle; the
/// stride is prime so the timed calls rotate through the nodes of a
/// topology that are ticked in a fixed order.
pub const SAMPLE: u64 = 61;

fn bump(counter: &AtomicU64, by: u64) -> u64 {
    let v = counter.load(Relaxed);
    counter.store(v + by, Relaxed);
    v
}

/// Call counts and sampled call times of one layer (all the nodes of
/// one kind in a topology share one).
#[derive(Debug, Default)]
pub struct Layer {
    ticks: AtomicU64,
    progress: AtomicU64,
    horizon: AtomicU64,
    tick_ns: AtomicU64,
    horizon_ns: AtomicU64,
    clock_ns: AtomicU64,
}

impl Layer {
    /// Runs `call`, timing it when it is the `n`-th call of its method
    /// and `n` is a multiple of [`SAMPLE`]. A timed call reads the clock
    /// three times: the first interval is empty and measures, in the
    /// same cache and pipeline state, the cost of one `Instant` pair
    /// that the second interval carries on top of the call.
    fn sampled<T>(&self, n: u64, spent: &AtomicU64, call: impl FnOnce() -> T) -> T {
        if !n.is_multiple_of(SAMPLE) {
            return call();
        }
        let t0 = Instant::now();
        let t1 = Instant::now();
        let out = call();
        let t2 = Instant::now();
        bump(spent, (t2 - t1).as_nanos() as u64);
        bump(&self.clock_ns, (t1 - t0).as_nanos() as u64);
        out
    }

    fn tick(&self, call: impl FnOnce() -> bool) -> bool {
        let n = bump(&self.ticks, 1);
        let progress = self.sampled(n, &self.tick_ns, call);
        if progress {
            bump(&self.progress, 1);
        }
        progress
    }

    fn horizon(&self, call: impl FnOnce() -> Option<Cycle>) -> Option<Cycle> {
        let n = bump(&self.horizon, 1);
        self.sampled(n, &self.horizon_ns, call)
    }

    /// The counts accumulated so far.
    pub fn counts(&self) -> Counts {
        Counts {
            ticks: self.ticks.load(Relaxed),
            progress: self.progress.load(Relaxed),
            horizon: self.horizon.load(Relaxed),
            tick_ns: self.tick_ns.load(Relaxed),
            horizon_ns: self.horizon_ns.load(Relaxed),
            clock_ns: self.clock_ns.load(Relaxed),
        }
    }
}

/// A snapshot of one [`Layer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// `tick` calls.
    pub ticks: u64,
    /// `tick` calls that reported progress.
    pub progress: u64,
    /// `next_event` calls.
    pub horizon: u64,
    /// Summed wall time of the timed `tick` calls.
    pub tick_ns: u64,
    /// Summed wall time of the timed `next_event` calls.
    pub horizon_ns: u64,
    /// Summed wall time of the empty intervals read beside them.
    pub clock_ns: u64,
}

impl Counts {
    /// Share of ticks that made progress.
    pub fn progress_ratio(&self) -> f64 {
        self.progress as f64 / self.ticks.max(1) as f64
    }

    fn samples(&self) -> (u64, u64) {
        (self.ticks.div_ceil(SAMPLE), self.horizon.div_ceil(SAMPLE))
    }

    /// Mean cost of one `Instant` pair, in ns, as measured beside the
    /// timed calls.
    pub fn pair_ns(&self) -> f64 {
        let (t, h) = self.samples();
        self.clock_ns as f64 / (t + h).max(1) as f64
    }

    /// Estimated wall time spent inside the layer, in ms: each method's
    /// mean timed call, less the cost of the `Instant` pair that timed
    /// it, scaled to all its calls.
    pub fn self_ms(&self) -> f64 {
        let pair_ns = self.pair_ns();
        let estimate = |calls: u64, samples: u64, ns: u64| {
            if samples == 0 {
                return 0.0;
            }
            (ns as f64 / samples as f64 - pair_ns).max(0.0) * calls as f64
        };
        let (t, h) = self.samples();
        (estimate(self.ticks, t, self.tick_ns) + estimate(self.horizon, h, self.horizon_ns)) / 1e6
    }
}

/// The two layers a traced topology records into.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Every accelerator (`ha`).
    pub ha: Arc<Layer>,
    /// Every interconnect (`hyperconnect`).
    pub ic: Arc<Layer>,
}

impl Tracer {
    /// Wraps an accelerator into the `ha` layer.
    pub fn acc(&self, inner: Box<dyn Accelerator>) -> Box<dyn Accelerator> {
        Box::new(TracedAcc {
            inner,
            layer: Arc::clone(&self.ha),
        })
    }

    /// Wraps an interconnect into the `hyperconnect` layer.
    pub fn ic<I: AxiInterconnect>(&self, inner: I) -> TracedIc<I> {
        TracedIc {
            inner,
            layer: Arc::clone(&self.ic),
        }
    }

    /// The counts so far, for a run that took `run_s`.
    pub fn run(&self, run_s: f64) -> TracedRun {
        TracedRun {
            run_s,
            ha: self.ha.counts(),
            ic: self.ic.counts(),
        }
    }
}

/// A counting, sampling forwarder around one accelerator.
pub struct TracedAcc {
    inner: Box<dyn Accelerator>,
    layer: Arc<Layer>,
}

impl Accelerator for TracedAcc {
    fn tick(&mut self, now: Cycle, port: &mut AxiPort) -> bool {
        let inner = &mut self.inner;
        self.layer.tick(|| inner.tick(now, port))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn jobs_completed(&self) -> u64 {
        self.inner.jobs_completed()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.layer.horizon(|| self.inner.next_event(now))
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        self.inner.save_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), PersistError> {
        self.inner.restore_state(r)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// A counting, sampling forwarder around one interconnect.
pub struct TracedIc<I> {
    inner: I,
    layer: Arc<Layer>,
}

impl<I: AxiInterconnect> Component for TracedIc<I> {
    fn tick(&mut self, now: Cycle) -> bool {
        let inner = &mut self.inner;
        self.layer.tick(|| inner.tick(now))
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.layer.horizon(|| self.inner.next_event(now))
    }

    fn last_active(&self) -> Vec<String> {
        self.inner.last_active()
    }
}

impl<I: AxiInterconnect> AxiInterconnect for TracedIc<I> {
    fn num_ports(&self) -> usize {
        self.inner.num_ports()
    }

    fn port(&mut self, i: usize) -> &mut AxiPort {
        self.inner.port(i)
    }

    fn mem_port(&mut self) -> &mut AxiPort {
        self.inner.mem_port()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }

    fn config_generation(&self) -> u64 {
        self.inner.config_generation()
    }

    fn metrics(&self) -> Option<&MetricsRegistry> {
        self.inner.metrics()
    }

    fn metrics_mut(&mut self) -> Option<&mut MetricsRegistry> {
        self.inner.metrics_mut()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }

    fn bound_violations(&self) -> &[BoundViolation] {
        self.inner.bound_violations()
    }

    fn bound_report(&self) -> Option<BoundReport> {
        self.inner.bound_report()
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        self.inner.save_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), PersistError> {
        self.inner.restore_state(r)
    }
}

/// One traced repetition: its run wall time and both layers' counts.
#[derive(Debug, Clone, Copy)]
pub struct TracedRun {
    /// Wall time of the traced run call, in seconds.
    pub run_s: f64,
    /// The `ha` layer.
    pub ha: Counts,
    /// The `hyperconnect` layer.
    pub ic: Counts,
}

/// Sets the `ha`, `hyperconnect` and `topology` per-layer metrics from
/// traced repetitions of a topology with `interconnects` interconnect
/// nodes that skipped `skipped` of its `cycles` cycles, and checks that
/// the call counts repeat exactly and the layers' self times fit inside
/// the traced total.
pub fn layer_metrics(
    out: &mut Outcome,
    runs: &[TracedRun],
    interconnects: u64,
    skipped: Cycle,
    cycles: Cycle,
) {
    let calls = |c: &Counts| (c.ticks, c.progress, c.horizon);
    let first = runs[0];
    for (i, r) in runs.iter().enumerate() {
        out.check(
            (calls(&r.ha), calls(&r.ic)) == (calls(&first.ha), calls(&first.ic)),
            || format!("traced repetition {i} call counts differ"),
        );
    }
    let fastest = runs
        .iter()
        .min_by(|a, b| a.run_s.total_cmp(&b.run_s))
        .expect("at least one traced repetition");
    let (ha_ms, ic_ms) = (fastest.ha.self_ms(), fastest.ic.self_ms());
    let total_ms = fastest.run_s * 1e3;
    let residual_ms = total_ms - ha_ms - ic_ms;
    let pair_ns = (fastest.ha.pair_ns() + fastest.ic.pair_ns()) / 2.0;
    out.check(ha_ms + ic_ms <= total_ms, || {
        format!(
            "layer self times {ha_ms:.1} + {ic_ms:.1} ms exceed the traced total {total_ms:.1} ms"
        )
    });
    // Every topology horizon query asks each interconnect once.
    let horizon_calls = first.ic.horizon / interconnects;
    for (name, value) in [
        ("ha.ticks", first.ha.ticks as f64),
        ("ha.progress_ratio", first.ha.progress_ratio()),
        ("ha.horizon_queries", first.ha.horizon as f64),
        ("ha.self_ms", ha_ms),
        ("hyperconnect.ticks", first.ic.ticks as f64),
        ("hyperconnect.progress_ratio", first.ic.progress_ratio()),
        ("hyperconnect.horizon_queries", first.ic.horizon as f64),
        ("hyperconnect.self_ms", ic_ms),
        ("topology.horizon_calls", horizon_calls as f64),
        ("topology.skipped_ratio", skipped as f64 / cycles as f64),
        (
            "topology.skip_yield",
            skipped as f64 / horizon_calls.max(1) as f64,
        ),
        ("topology.residual_ms", residual_ms),
        ("trace.total_ms", total_ms),
        ("trace.instant_pair_ns", pair_ns),
    ] {
        out.set(name, value);
    }
}
