//! The per-node event-horizon contract that activity-driven
//! fast-forward relies on, checked on every in-tree model.
//!
//! Fast-forward skips a node's ticks while its inputs are unchanged and
//! its wake cycle lies in the future, even while other nodes keep
//! making progress. That is sound only if, for each node on its own, a
//! tick at `t` that makes no progress and promises a wake `e` is
//! followed — until `e`, and while the node's inputs stay unchanged —
//! by ticks that return `false` and leave its `save_state` bytes
//! unchanged. The checkers below wrap every accelerator model and both
//! interconnects, step the system naively (so every node is ticked
//! every cycle) and record each tick inside a promised-quiet span that
//! progresses or changes state.
//!
//! Wake and inputs are exactly what the scheduler uses. For an
//! accelerator: `next_event` and the slave port's pending R/B beats;
//! the port's lifetime push/pop activity. For an interconnect:
//! `next_event`; the activity of all its ports plus its control-plane
//! generation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use axi::observe::{BoundReport, BoundViolation, MetricsRegistry};
use axi::types::BurstSize;
use axi::{AxiInterconnect, AxiPort};
use axi_hyperconnect::{SchedulerMode, SocSystem};
use ha::chaidnn::{Chaidnn, ChaidnnConfig, Layer};
use ha::dma::{Dma, DmaConfig};
use ha::fault::{
    BoundaryViolator, DelayedFault, RogueReader, RunawayMaster, StalledWriter, WlastViolator,
};
use ha::scoreboard::ScoreboardMaster;
use ha::traffic::{BandwidthStealer, PeriodicReader, RandomTraffic};
use ha::Accelerator;
use hyperconnect::regfile::{offsets, port_block_offset};
use hyperconnect::{HcConfig, HyperConnect};
use mem::{MemConfig, MemoryController};
use proptest::prelude::*;
use sim::persist::{PersistError, SnapshotReader, SnapshotWriter};
use sim::{Component, Cycle};
use smartconnect::{ScConfig, SmartConnect};

/// Contract breaches, one line each, shared by every checker of a run.
#[derive(Clone, Default)]
struct Log {
    breaches: Arc<Mutex<Vec<String>>>,
    /// Ticks that fell inside a promised-quiet span (the checks made).
    checked: Arc<AtomicU64>,
}

/// What a no-progress tick promised.
struct Quiet {
    since: Cycle,
    wake: Cycle,
    inputs: u64,
    state: Vec<u8>,
}

/// The bookkeeping both checkers share: arms a promise on each
/// no-progress tick and holds later ticks to it.
struct Watch {
    name: String,
    quiet: Option<Quiet>,
    log: Log,
}

impl Watch {
    fn new(name: impl Into<String>, log: &Log) -> Self {
        Self {
            name: name.into(),
            quiet: None,
            log: log.clone(),
        }
    }

    /// Judges the tick at `now`: `inputs_before` is the node's input
    /// digest before it ticked, the closures read the state, wake hint
    /// and input digest after it.
    fn observe(
        &mut self,
        now: Cycle,
        inputs_before: u64,
        progress: bool,
        state: impl FnOnce() -> Vec<u8>,
        wake: impl FnOnce() -> Option<Cycle>,
        inputs_after: u64,
    ) {
        if let Some(q) = &self.quiet {
            if now < q.wake && inputs_before == q.inputs {
                self.log.checked.fetch_add(1, Ordering::Relaxed);
                let breach = if progress {
                    Some("made progress")
                } else if state() != q.state {
                    Some("changed state")
                } else {
                    // Still quiet: the scheduler would not have ticked it.
                    return;
                };
                self.log.breaches.lock().unwrap().push(format!(
                    "{}: tick at {now} {} inside the quiet span ({}, {})",
                    self.name,
                    breach.unwrap(),
                    q.since,
                    q.wake,
                ));
                self.quiet = None;
                return;
            }
        }
        self.quiet = (!progress).then(|| Quiet {
            since: now,
            wake: wake().map_or(Cycle::MAX, |e| e.max(now + 1)),
            inputs: inputs_after,
            state: state(),
        });
    }
}

fn bytes(save: impl FnOnce(&mut SnapshotWriter)) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    save(&mut w);
    w.into_bytes()
}

/// An accelerator held to the contract.
struct CheckedAcc {
    inner: Box<dyn Accelerator>,
    watch: Watch,
}

impl CheckedAcc {
    fn boxed(inner: impl Accelerator + 'static, log: &Log) -> Box<dyn Accelerator> {
        let watch = Watch::new(inner.name().to_owned(), log);
        Box::new(Self {
            inner: Box::new(inner),
            watch,
        })
    }
}

impl Accelerator for CheckedAcc {
    fn tick(&mut self, now: Cycle, port: &mut AxiPort) -> bool {
        let before = port.lifetime_activity();
        let progress = self.inner.tick(now, port);
        let inner = &self.inner;
        let port = &*port;
        self.watch.observe(
            now,
            before,
            progress,
            || bytes(|w| inner.save_state(w)),
            || {
                [
                    inner.next_event(now),
                    port.r.next_ready_at(),
                    port.b.next_ready_at(),
                ]
                .into_iter()
                .flatten()
                .min()
            },
            port.lifetime_activity(),
        );
        progress
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
        self.inner.next_event(now)
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

/// An interconnect held to the contract.
struct CheckedIc<I> {
    inner: I,
    watch: Watch,
}

impl<I: AxiInterconnect> CheckedIc<I> {
    fn new(inner: I, log: &Log) -> Self {
        let watch = Watch::new(inner.name(), log);
        Self { inner, watch }
    }

    fn inputs(&mut self) -> u64 {
        let mut sum = self.inner.config_generation();
        for i in 0..self.inner.num_ports() {
            sum = sum.wrapping_add(self.inner.port(i).lifetime_activity());
        }
        sum.wrapping_add(self.inner.mem_port().lifetime_activity())
    }
}

impl<I: AxiInterconnect> Component for CheckedIc<I> {
    fn tick(&mut self, now: Cycle) -> bool {
        let before = self.inputs();
        let progress = self.inner.tick(now);
        let after = self.inputs();
        let inner = &self.inner;
        self.watch.observe(
            now,
            before,
            progress,
            || bytes(|w| inner.save_state(w)),
            || inner.next_event(now),
            after,
        );
        progress
    }
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.inner.next_event(now)
    }
    fn last_active(&self) -> Vec<String> {
        self.inner.last_active()
    }
}

impl<I: AxiInterconnect + 'static> AxiInterconnect for CheckedIc<I> {
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
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
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

/// Every well-behaved model, with traffic parameters drawn from `seed`.
fn well_behaved(seed: u64, log: &Log) -> Vec<Box<dyn Accelerator>> {
    let gap = |k: u64| 50 + (seed.rotate_left(k as u32 * 7) % 900);
    let layers = vec![
        Layer {
            name: "conv",
            weight_bytes: 2 << 10,
            input_bytes: 1 << 10,
            output_bytes: 1 << 10,
            compute_cycles: 1_500 + seed % 2_000,
        },
        Layer {
            name: "fc",
            weight_bytes: 1 << 10,
            input_bytes: 512,
            output_bytes: 256,
            compute_cycles: 700,
        },
    ];
    let copy = DmaConfig {
        src_base: 0x1000_0000,
        dst_base: 0x1800_0000,
        read_bytes: 4096,
        write_bytes: 4096,
        burst_beats: 16,
        size: BurstSize::B16,
        max_outstanding: 2,
        jobs: Some(3),
    };
    vec![
        CheckedAcc::boxed(Dma::new("dma", copy), log),
        CheckedAcc::boxed(
            Chaidnn::new(
                "dnn",
                layers,
                ChaidnnConfig {
                    frames: Some(2),
                    ..ChaidnnConfig::default()
                },
            ),
            log,
        ),
        CheckedAcc::boxed(
            RandomTraffic::new(
                "rnd",
                0x2000_0000,
                1 << 20,
                BurstSize::B16,
                16,
                gap(1),
                seed,
            ),
            log,
        ),
        CheckedAcc::boxed(
            PeriodicReader::new("periodic", 0x3000_0000, 1 << 20, 16, BurstSize::B16, gap(2)),
            log,
        ),
        CheckedAcc::boxed(
            ScoreboardMaster::new("scoreboard", 0x3800_0000, 4096, 8, BurstSize::B16, seed)
                .gap(gap(3)),
            log,
        ),
        CheckedAcc::boxed(
            BandwidthStealer::new("stealer", 0x6000_0000, 1 << 20, 64, BurstSize::B16),
            log,
        ),
    ]
}

/// Every misbehaving model; the delayed wrapper arms mid-run.
fn faulty(seed: u64, log: &Log) -> Vec<Box<dyn Accelerator>> {
    vec![
        CheckedAcc::boxed(
            RogueReader::new("rogue", 0x8000_0000, 8, BurstSize::B16),
            log,
        ),
        CheckedAcc::boxed(
            BoundaryViolator::new("cross", 0x2000_0000, 16, BurstSize::B16),
            log,
        ),
        CheckedAcc::boxed(
            DelayedFault::new(
                Box::new(WlastViolator::new("wlast", 0x2100_0000, 8, BurstSize::B16)),
                1_000 + seed % 5_000,
            ),
            log,
        ),
        CheckedAcc::boxed(
            StalledWriter::new("hung", 0x2200_0000, 8, BurstSize::B16),
            log,
        ),
        CheckedAcc::boxed(
            RunawayMaster::new("runaway", 0x2300_0000, 1 << 20, 16, BurstSize::B16),
            log,
        ),
        CheckedAcc::boxed(
            PeriodicReader::new("victim", 0x2400_0000, 1 << 20, 16, BurstSize::B16, 300),
            log,
        ),
    ]
}

/// Steps `sys` naively and returns the breaches and the number of
/// promised-quiet ticks checked.
fn run_naive<I: AxiInterconnect>(mut sys: SocSystem<I>, log: &Log, cycles: Cycle) -> u64 {
    sys.set_scheduler(SchedulerMode::Naive);
    sys.run_for(cycles);
    let breaches = log.breaches.lock().unwrap();
    assert!(
        breaches.is_empty(),
        "{} contract breaches, first: {}",
        breaches.len(),
        breaches[0]
    );
    log.checked.load(Ordering::Relaxed)
}

/// A HyperConnect whose ports run under finite budgets on a short
/// period and, on every other port, a credit regulator — so period
/// boundaries and refill windows are live wake sources.
fn reserved_hc(ports: usize, period: u32, budget: u32, rate: u32) -> HyperConnect {
    let hc = HyperConnect::new(HcConfig::new(ports));
    let regs = hc.regs();
    regs.write32(offsets::PERIOD, period);
    regs.write32(offsets::REG_WINDOW, 64);
    for p in 0..ports {
        let block = port_block_offset(p);
        regs.write32(block + offsets::PORT_BUDGET, budget + p as u32);
        if p % 2 == 1 {
            regs.write32(block + offsets::PORT_REG_RATE, rate);
            regs.write32(block + offsets::PORT_REG_BURST, 2);
        }
    }
    hc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every well-behaved model and the HyperConnect itself, under
    /// budgets, regulation and period boundaries.
    #[test]
    fn hyperconnect_and_well_behaved_masters_never_over_promise(
        seed in any::<u64>(),
        period in 200u32..3_000,
        budget in 1u32..6,
        rate in 1u32..4,
    ) {
        let log = Log::default();
        let accs = well_behaved(seed, &log);
        let hc = CheckedIc::new(reserved_hc(accs.len(), period, budget, rate), &log);
        let mut sys = SocSystem::new(hc, MemoryController::new(MemConfig::zcu102()));
        for acc in accs {
            sys.add_accelerator(acc).unwrap();
        }
        let checked = run_naive(sys, &log, 25_000);
        prop_assert!(checked > 1_000, "only {} quiet ticks checked", checked);
    }

    /// Every fault model, with the HyperConnect decoupling nothing (the
    /// faults flow through its protocol checks unhindered).
    #[test]
    fn fault_models_never_over_promise(seed in any::<u64>()) {
        let log = Log::default();
        let accs = faulty(seed, &log);
        let hc = CheckedIc::new(HyperConnect::new(HcConfig::new(accs.len())), &log);
        let mut sys = SocSystem::new(hc, MemoryController::new(MemConfig::zcu102()));
        for acc in accs {
            sys.add_accelerator(acc).unwrap();
        }
        let checked = run_naive(sys, &log, 15_000);
        prop_assert!(checked > 1_000, "only {} quiet ticks checked", checked);
    }

    /// The SmartConnect baseline with the well-behaved mix.
    #[test]
    fn smartconnect_never_over_promises(seed in any::<u64>()) {
        let log = Log::default();
        let accs = well_behaved(seed, &log);
        let sc = CheckedIc::new(SmartConnect::new(ScConfig::new(accs.len())), &log);
        let mut sys = SocSystem::new(sc, MemoryController::new(MemConfig::zcu102()));
        for acc in accs {
            sys.add_accelerator(acc).unwrap();
        }
        let checked = run_naive(sys, &log, 25_000);
        prop_assert!(checked > 1_000, "only {} quiet ticks checked", checked);
    }
}
