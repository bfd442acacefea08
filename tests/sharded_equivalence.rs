//! Sharded-tree equivalence suite. A cascade of HyperConnects behind
//! bridges is sharded into subtrees, one per cascaded child, and the
//! fast-forward scheduler puts each shard — and each idle accelerator
//! inside it — to sleep on its own while the rest of the tree is busy.
//! Every tree shape here runs under `SchedulerMode::Naive` and
//! `SchedulerMode::FastForward` and must be byte-identical: clock, job
//! counters, supervisor counters and violation logs, bridge beats,
//! memory service, IRQ order, metrics and the full snapshot image.
//!
//! The suite also covers every way the world can change under a
//! sleeping shard (run boundaries, AXI-Lite writes from outside or from
//! a hook, snapshot restore, a late accelerator, responses still in
//! flight), every bridge flavour (registered, wire, nested), and checks
//! that the sleeping is real on a 100-node tree.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use axi::lite::LiteBus;
use axi::types::BurstSize;
use axi::{AxiInterconnect, BridgeConfig};
use axi_hyperconnect::{SchedulerMode, SocTopology, TopologyBuilder};
use ha::chaidnn::{Chaidnn, ChaidnnConfig, Layer};
use ha::dma::{Dma, DmaConfig};
use ha::fault::WlastViolator;
use ha::traffic::{BandwidthStealer, PeriodicReader, RandomTraffic};
use ha::Accelerator;
use hyperconnect::{HcConfig, HyperConnect};
use hypervisor::HcDriver;
use mem::{MemConfig, MemoryController};
use sim::Cycle;

/// Byte-exact digest of a topology after a run: clock, job counters,
/// every named HyperConnect's per-port supervisor counters and
/// violation log (debug-formatted, so cycle stamps must match), every
/// named bridge's beat counters, memory service counters, the IRQ
/// order and the full metrics snapshot. The second element is the
/// complete snapshot image, which covers every persisted register,
/// queue, counter and RNG.
fn tree_state(
    topo: &mut SocTopology,
    hc_labels: &[&str],
    bridge_children: &[&str],
) -> (String, Vec<u8>) {
    let mut fp = format!("now={}", topo.now());
    for i in 0..topo.num_accelerators() {
        let acc = topo.accelerator(i).unwrap();
        fp.push_str(&format!(" {}={}", acc.name(), acc.jobs_completed()));
    }
    for &label in hc_labels {
        let id = topo.node_by_label(label).unwrap();
        let hc = topo.interconnect_as::<HyperConnect>(id).unwrap();
        for p in 0..hc.num_ports() {
            fp.push_str(&format!(
                " {label}.p{p}={:?}/{:?}",
                hc.port_stats(p),
                hc.violations(p)
            ));
        }
    }
    for &label in bridge_children {
        let id = topo.node_by_label(label).unwrap();
        let s = topo.bridge_stats(id).unwrap();
        fp.push_str(&format!(" bridge[{label}]={}/{}", s.beats_down, s.beats_up));
    }
    let mem_id = topo.node_by_label("ddr").unwrap();
    let stats = topo.memory(mem_id).unwrap().stats();
    fp.push_str(&format!(
        " mem=[{} {} {} {} {} {}]",
        stats.reads_served,
        stats.writes_served,
        stats.beats_served,
        stats.bytes_served,
        stats.busy_cycles,
        stats.error_responses,
    ));
    fp.push_str(&format!(" irq={:?}", topo.take_irq_events()));
    fp.push_str(" metrics=");
    fp.push_str(&topo.metrics_snapshot_json());
    (fp, topo.snapshot_bytes())
}

/// Asserts two tree states are identical without dumping the images.
fn assert_same_tree_state(naive: &(String, Vec<u8>), fast: &(String, Vec<u8>), label: &str) {
    assert_eq!(naive.0, fast.0, "{label}: fingerprint diverged");
    assert!(naive.1 == fast.1, "{label}: snapshot images differ");
}

fn hc(ports: usize) -> HyperConnect {
    HyperConnect::new(HcConfig::new(ports))
}

fn boxed(acc: impl Accelerator + 'static) -> Box<dyn Accelerator> {
    Box::new(acc)
}

/// Root HC(3): a four-master stress cluster on port 0 behind a
/// latency-2 bridge, two more masters flat on the root.
fn build_stress_tree(mode: SchedulerMode) -> SocTopology {
    let mut b = TopologyBuilder::new();
    let root = b.add_interconnect("root", hc(3)).unwrap();
    let cluster = b.add_interconnect("cluster", hc(4)).unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.cascade_with(cluster, root, 0, BridgeConfig::wire().latency(2))
        .unwrap();
    b.connect_memory(root, mem).unwrap();
    let cluster_accs = [
        boxed(RandomTraffic::new(
            "rnd0",
            0x1000_0000,
            1 << 20,
            BurstSize::B16,
            64,
            10,
            11,
        )),
        boxed(BandwidthStealer::new(
            "steal",
            0x3000_0000,
            1 << 20,
            256,
            BurstSize::B16,
        )),
        boxed(PeriodicReader::new(
            "periodic",
            0x5000_0000,
            1 << 20,
            16,
            BurstSize::B16,
            100,
        )),
        boxed(RandomTraffic::new(
            "rnd1",
            0x7000_0000,
            1 << 20,
            BurstSize::B4,
            32,
            50,
            23,
        )),
    ];
    for (i, acc) in cluster_accs.into_iter().enumerate() {
        let a = b.add_accelerator(format!("c{i}"), acc).unwrap();
        b.attach(a, cluster, i).unwrap();
    }
    let r0 = b
        .add_accelerator(
            "root_rnd",
            boxed(RandomTraffic::new(
                "root_rnd",
                0x9000_0000,
                1 << 20,
                BurstSize::B16,
                48,
                30,
                47,
            )),
        )
        .unwrap();
    b.attach(r0, root, 1).unwrap();
    let r1 = b
        .add_accelerator(
            "root_per",
            boxed(PeriodicReader::new(
                "root_per",
                0xB000_0000,
                1 << 20,
                16,
                BurstSize::B16,
                250,
            )),
        )
        .unwrap();
    b.attach(r1, root, 2).unwrap();
    let mut topo = b.build().unwrap();
    topo.set_scheduler(mode);
    topo
}

#[test]
fn stress_tree_fingerprints_identical_across_all_schedulers() {
    let run = |mode: SchedulerMode| {
        let mut topo = build_stress_tree(mode);
        topo.run_for(120_000);
        tree_state(&mut topo, &["root", "cluster"], &["cluster"])
    };
    assert_same_tree_state(
        &run(SchedulerMode::Naive),
        &run(SchedulerMode::FastForward),
        "stress tree",
    );
}

/// A WLAST-corrupting writer between two periodic victims, all three in
/// a cluster behind a latency-1 bridge, plus a DMA on the root.
fn build_fault_tree(mode: SchedulerMode) -> SocTopology {
    let mut b = TopologyBuilder::new();
    let root = b.add_interconnect("root", hc(2)).unwrap();
    let cluster = b.add_interconnect("cluster", hc(3)).unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.cascade_with(cluster, root, 0, BridgeConfig::wire().latency(1))
        .unwrap();
    b.connect_memory(root, mem).unwrap();
    let accs = [
        boxed(PeriodicReader::new(
            "victim_a",
            0x1000_0000,
            1 << 20,
            16,
            BurstSize::B16,
            40,
        )),
        boxed(WlastViolator::new(
            "faulty",
            0x2000_0000,
            16,
            BurstSize::B16,
        )),
        boxed(PeriodicReader::new(
            "victim_b",
            0x3000_0000,
            1 << 20,
            16,
            BurstSize::B16,
            40,
        )),
    ];
    for (port, acc) in accs.into_iter().enumerate() {
        let a = b.add_accelerator(format!("f{port}"), acc).unwrap();
        b.attach(a, cluster, port).unwrap();
    }
    let d = b
        .add_accelerator(
            "root_dma",
            boxed(Dma::new(
                "root_dma",
                DmaConfig::reader(32 * 1024, 16, BurstSize::B16).jobs(4),
            )),
        )
        .unwrap();
    b.attach(d, root, 1).unwrap();
    let mut topo = b.build().unwrap();
    topo.set_scheduler(mode);
    topo
}

#[test]
fn fault_tree_violation_logs_byte_identical_when_sharded() {
    let run = |mode: SchedulerMode| {
        let mut topo = build_fault_tree(mode);
        topo.run_for(40_000);
        tree_state(&mut topo, &["root", "cluster"], &["cluster"])
    };
    let naive = run(SchedulerMode::Naive);
    assert_same_tree_state(&naive, &run(SchedulerMode::FastForward), "fault tree");
    assert!(
        naive.0.contains("WlastMismatch"),
        "scenario never reported the fault: {}",
        naive.0
    );
}

/// A waveform probe samples the FPGA–PS boundary every cycle, so it
/// forces naive stepping of the whole tree and records the same VCD.
#[test]
fn tree_waveform_vcd_byte_identical() {
    let run = |mode: SchedulerMode| {
        let mut topo = build_fault_tree(mode);
        let mem = topo.node_by_label("ddr").unwrap();
        topo.attach_waveform(mem);
        topo.run_for(20_000);
        let vcd = topo.waveform_vcd(mem).expect("probe attached");
        (vcd, topo.skipped_cycles())
    };
    let (naive_vcd, _) = run(SchedulerMode::Naive);
    let (fast_vcd, skipped) = run(SchedulerMode::FastForward);
    assert_eq!(naive_vcd, fast_vcd, "fast-forward VCD diverged");
    assert_eq!(skipped, 0, "waveform capture must force naive stepping");
}

/// ChaiDNN alone in a leaf cluster behind a latency-4 bridge, a DMA on
/// the root: the compute phases put the leaf subtree to sleep while the
/// root is still busy, and then every node at once.
fn build_chaidnn_tree(mode: SchedulerMode) -> SocTopology {
    let layers = vec![
        Layer {
            name: "conv1",
            weight_bytes: 4 << 10,
            input_bytes: 2 << 10,
            output_bytes: 2 << 10,
            compute_cycles: 20_000,
        },
        Layer {
            name: "fc",
            weight_bytes: 8 << 10,
            input_bytes: 1 << 10,
            output_bytes: 512,
            compute_cycles: 35_000,
        },
    ];
    let dnn = Chaidnn::new(
        "dnn",
        layers,
        ChaidnnConfig {
            frames: Some(2),
            ..ChaidnnConfig::default()
        },
    );
    let mut b = TopologyBuilder::new();
    let root = b.add_interconnect("root", hc(2)).unwrap();
    let leaf = b.add_interconnect("leaf", hc(1)).unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.cascade_with(leaf, root, 0, BridgeConfig::wire().latency(4))
        .unwrap();
    b.connect_memory(root, mem).unwrap();
    let a = b.add_accelerator("dnn", boxed(dnn)).unwrap();
    b.attach(a, leaf, 0).unwrap();
    let d = b
        .add_accelerator(
            "root_dma",
            boxed(Dma::new(
                "root_dma",
                DmaConfig::reader(64 * 1024, 16, BurstSize::B16).jobs(3),
            )),
        )
        .unwrap();
    b.attach(d, root, 1).unwrap();
    let mut topo = b.build().unwrap();
    topo.set_scheduler(mode);
    topo
}

/// The completion window is quantized to one cycle: fast-forward must
/// report done on exactly the naive cycle, with the leaf shard asleep
/// through the compute phases.
#[test]
fn chaidnn_tree_state_byte_identical_and_completion_window_quantized() {
    let run = |mode: SchedulerMode| {
        let mut topo = build_chaidnn_tree(mode);
        assert!(topo.run_until_done(10_000_000).is_done(), "{mode:?}");
        let skipped = topo.skipped_cycles();
        (tree_state(&mut topo, &["root", "leaf"], &["leaf"]), skipped)
    };
    let (naive, _) = run(SchedulerMode::Naive);
    let (fast, skipped) = run(SchedulerMode::FastForward);
    assert_same_tree_state(&naive, &fast, "chaidnn tree");
    assert!(
        skipped > 10_000,
        "fast-forward skipped only {skipped} cycles across the compute phases"
    );
}

/// root ←(latency 1)─ mid ←(latency 3)─ leaf, a copying DMA on every
/// spare port.
fn build_three_level(mode: SchedulerMode) -> SocTopology {
    let mut b = TopologyBuilder::new();
    let root = b.add_interconnect("root", hc(2)).unwrap();
    let mid = b.add_interconnect("mid", hc(2)).unwrap();
    let leaf = b.add_interconnect("leaf", hc(2)).unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.cascade_with(mid, root, 0, BridgeConfig::wire().latency(1))
        .unwrap();
    b.cascade_with(leaf, mid, 0, BridgeConfig::wire().latency(3))
        .unwrap();
    b.connect_memory(root, mem).unwrap();
    for (i, (ic, port)) in [(leaf, 0), (leaf, 1), (mid, 1), (root, 1)]
        .into_iter()
        .enumerate()
    {
        let d = b
            .add_accelerator(
                format!("d{i}"),
                boxed(Dma::new(
                    format!("d{i}"),
                    DmaConfig {
                        src_base: 0x1000_0000 + i as u64 * 0x0100_0000,
                        dst_base: 0x5000_0000 + i as u64 * 0x0100_0000,
                        read_bytes: 8 * 1024,
                        write_bytes: 8 * 1024,
                        burst_beats: 32,
                        size: BurstSize::B16,
                        max_outstanding: 4,
                        jobs: Some(2),
                    },
                )),
            )
            .unwrap();
        b.attach(d, ic, port).unwrap();
    }
    let mut topo = b.build().unwrap();
    topo.set_scheduler(mode);
    topo
}

#[test]
fn three_level_cascade_byte_identical_across_all_schedulers() {
    let run = |mode: SchedulerMode| {
        let mut topo = build_three_level(mode);
        topo.run_for(60_000);
        let mem_id = topo.node_by_label("ddr").unwrap();
        let memory = topo.memory(mem_id).unwrap();
        for i in 0..4u64 {
            let dst = 0x5000_0000 + i * 0x0100_0000;
            assert!(
                memory.memory().verify_pattern(dst, dst, 8 * 1024),
                "{mode:?}: d{i} corrupted across the cascade"
            );
        }
        tree_state(&mut topo, &["root", "mid", "leaf"], &["mid", "leaf"])
    };
    assert_same_tree_state(
        &run(SchedulerMode::Naive),
        &run(SchedulerMode::FastForward),
        "three-level cascade",
    );
}

/// Counts the ticks an accelerator actually receives; everything else
/// forwards to the wrapped model.
struct Counted {
    inner: Box<dyn Accelerator>,
    ticks: Arc<AtomicU64>,
}

impl Accelerator for Counted {
    fn tick(&mut self, now: Cycle, port: &mut axi::AxiPort) -> bool {
        self.ticks.fetch_add(1, Ordering::Relaxed);
        self.inner.tick(now, port)
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
    fn save_state(&self, w: &mut sim::persist::SnapshotWriter) {
        self.inner.save_state(w);
    }
    fn restore_state(
        &mut self,
        r: &mut sim::persist::SnapshotReader<'_>,
    ) -> Result<(), sim::persist::PersistError> {
        self.inner.restore_state(r)
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// The 100-node shape of `bench::tree100`: seven 13-master clusters
/// behind latency-32 bridges under one root, one cluster of random
/// masters that keeps nearly every cycle busy, six clusters of periodic
/// readers with long gaps. Every accelerator counts its ticks into
/// `ticks`.
fn tree100(mode: SchedulerMode, ticks: &Arc<AtomicU64>) -> SocTopology {
    const CLUSTERS: usize = 7;
    const ACCS: usize = 13;
    let mut b = TopologyBuilder::new();
    let root = b.add_interconnect("root", hc(CLUSTERS)).unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.connect_memory(root, mem).unwrap();
    for c in 0..CLUSTERS {
        let cluster = b.add_interconnect(format!("cluster{c}"), hc(ACCS)).unwrap();
        let bridge = BridgeConfig {
            addr_capacity: 32,
            data_capacity: 256,
            resp_capacity: 32,
            ..BridgeConfig::wire()
        }
        .latency(32);
        b.cascade_with(cluster, root, c, bridge).unwrap();
        for p in 0..ACCS {
            let i = c * ACCS + p;
            let base = 0x1000_0000 + i as u64 * 0x0020_0000;
            let name = format!("a{i}");
            let inner = if c == 0 {
                boxed(RandomTraffic::new(
                    &name,
                    base,
                    1 << 19,
                    BurstSize::B16,
                    16,
                    250 + (p as u64 * 37) % 250,
                    p as u64 * 31 + 17,
                ))
            } else {
                boxed(PeriodicReader::new(
                    &name,
                    base,
                    1 << 19,
                    16,
                    BurstSize::B16,
                    8_000 + (i as Cycle * 211) % 3_000,
                ))
            };
            let acc = boxed(Counted {
                inner,
                ticks: Arc::clone(ticks),
            });
            let a = b.add_accelerator(&name, acc).unwrap();
            b.attach(a, cluster, p).unwrap();
        }
    }
    let mut topo = b.build().unwrap();
    topo.set_scheduler(mode);
    topo
}

/// Wake-table invalidation at run boundaries: splitting a fast-forward
/// run anywhere gives the naive state, and fast-forward really sleeps
/// the idle nodes (the comparison is not vacuous).
#[test]
fn split_runs_match_one_run_on_tree100() {
    const CYCLES: Cycle = 30_000;
    let clusters: Vec<String> = (0..7).map(|c| format!("cluster{c}")).collect();
    let labels: Vec<&str> = clusters.iter().map(String::as_str).collect();
    let naive_ticks = Arc::new(AtomicU64::new(0));
    let mut naive = tree100(SchedulerMode::Naive, &naive_ticks);
    naive.run_for(CYCLES);
    let naive = tree_state(&mut naive, &labels, &labels);

    let fast_ticks = Arc::new(AtomicU64::new(0));
    let mut fast = tree100(SchedulerMode::FastForward, &fast_ticks);
    fast.run_for(CYCLES);
    assert_same_tree_state(&naive, &tree_state(&mut fast, &labels, &labels), "one run");

    let mut split = tree100(SchedulerMode::FastForward, &Arc::new(AtomicU64::new(0)));
    split.run_for(9_871);
    split.run_for(1);
    split.run_for(CYCLES - 9_872);
    assert_same_tree_state(
        &naive,
        &tree_state(&mut split, &labels, &labels),
        "split run",
    );

    let (naive_ticks, fast_ticks) = (
        naive_ticks.load(Ordering::Relaxed),
        fast_ticks.load(Ordering::Relaxed),
    );
    assert_eq!(naive_ticks, 91 * CYCLES);
    assert!(
        fast_ticks * 20 < naive_ticks,
        "fast-forward ticked {fast_ticks} of {naive_ticks} accelerator-cycles"
    );
}

/// A tree built to sleep: a busy cluster keeps every cycle live, a
/// "sleepy" cluster of slow periodic readers (one port left free) sits
/// behind a latency-16 bridge, and a "wired" cluster on a zero-latency
/// bridge nests a "deep" cluster behind a latency-3 bridge.
fn sleepy_tree(mode: SchedulerMode) -> SocTopology {
    let mut b = TopologyBuilder::new();
    let root = b.add_interconnect("root", hc(3)).unwrap();
    let busy = b.add_interconnect("busy", hc(2)).unwrap();
    let sleepy = b.add_interconnect("sleepy", hc(3)).unwrap();
    let wired = b.add_interconnect("wired", hc(2)).unwrap();
    let deep = b.add_interconnect("deep", hc(1)).unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.connect_memory(root, mem).unwrap();
    b.cascade_with(busy, root, 0, BridgeConfig::wire().latency(4))
        .unwrap();
    b.cascade_with(sleepy, root, 1, BridgeConfig::wire().latency(16))
        .unwrap();
    b.cascade(wired, root, 2).unwrap();
    b.cascade_with(deep, wired, 0, BridgeConfig::wire().latency(3))
        .unwrap();
    let accs = [
        (
            busy,
            "rnd0",
            boxed(RandomTraffic::new(
                "rnd0",
                0x1000_0000,
                1 << 20,
                BurstSize::B16,
                16,
                40,
                5,
            )),
        ),
        (
            busy,
            "rnd1",
            boxed(RandomTraffic::new(
                "rnd1",
                0x1100_0000,
                1 << 20,
                BurstSize::B4,
                8,
                60,
                9,
            )),
        ),
        (
            sleepy,
            "slow0",
            boxed(PeriodicReader::new(
                "slow0",
                0x2000_0000,
                1 << 20,
                16,
                BurstSize::B16,
                6_000,
            )),
        ),
        (
            sleepy,
            "slow1",
            boxed(PeriodicReader::new(
                "slow1",
                0x2100_0000,
                1 << 20,
                8,
                BurstSize::B16,
                9_000,
            )),
        ),
        (
            deep,
            "deep0",
            boxed(PeriodicReader::new(
                "deep0",
                0x3000_0000,
                1 << 20,
                16,
                BurstSize::B16,
                7_000,
            )),
        ),
        (
            wired,
            "wdma",
            boxed(Dma::new(
                "wdma",
                DmaConfig::reader(16 * 1024, 16, BurstSize::B16).jobs(3),
            )),
        ),
    ];
    for (ic, label, acc) in accs {
        let a = b.add_accelerator(label, acc).unwrap();
        b.attach_next(a, ic).unwrap();
    }
    let mut topo = b.build().unwrap();
    topo.set_scheduler(mode);
    topo
}

const SLEEPY_HCS: [&str; 5] = ["root", "busy", "sleepy", "wired", "deep"];
const SLEEPY_BRIDGES: [&str; 4] = ["busy", "sleepy", "wired", "deep"];

fn sleepy_state(topo: &mut SocTopology) -> (String, Vec<u8>) {
    tree_state(topo, &SLEEPY_HCS, &SLEEPY_BRIDGES)
}

#[test]
fn wire_bridges_and_nested_cascades_byte_identical() {
    let run = |mode: SchedulerMode| {
        let mut topo = sleepy_tree(mode);
        topo.run_for(50_000);
        sleepy_state(&mut topo)
    };
    assert_same_tree_state(
        &run(SchedulerMode::Naive),
        &run(SchedulerMode::FastForward),
        "wire + nested cascade",
    );
}

/// Programs a finite budget on a short period and decouples a port of
/// the "sleepy" cluster over AXI-Lite, through the register file's
/// shared handle — a path the topology cannot see.
fn reprogram_sleepy(bus: &LiteBus) {
    const BASE: u64 = 0xA000_0000;
    let drv = HcDriver::probe(bus, BASE).unwrap();
    drv.set_period(500).unwrap();
    drv.set_budget(0, 1).unwrap();
    drv.set_decoupled(1, true).unwrap();
}

fn sleepy_bus(topo: &SocTopology) -> LiteBus {
    let id = topo.node_by_label("sleepy").unwrap();
    let regs = topo.interconnect_as::<HyperConnect>(id).unwrap().regs();
    let mut bus = LiteBus::new();
    bus.map(0xA000_0000, 0x1000, regs.clone());
    bus
}

/// Register writes to a cluster whose subtree is asleep (its readers
/// next issue at cycle 24 000), made between two runs: the next run
/// must not trust wake cycles computed under the old configuration.
/// The new finite budget makes every period boundary a state change,
/// so the state is compared while the readers are still idle, too.
#[test]
fn lite_writes_to_a_sleeping_cluster_between_runs() {
    let run = |mode: SchedulerMode| {
        let mut topo = sleepy_tree(mode);
        let bus = sleepy_bus(&topo);
        topo.run_for(20_000);
        reprogram_sleepy(&bus);
        topo.run_for(2_000);
        let idle = sleepy_state(&mut topo);
        topo.run_for(28_000);
        (idle, sleepy_state(&mut topo))
    };
    let (naive_idle, naive) = run(SchedulerMode::Naive);
    let (fast_idle, fast) = run(SchedulerMode::FastForward);
    assert_same_tree_state(&naive_idle, &fast_idle, "write between runs, idle");
    assert_same_tree_state(&naive, &fast, "write between runs");
}

/// The same writes made from a `run_for_with` hook, mid-run.
#[test]
fn lite_writes_to_a_sleeping_cluster_from_a_hook() {
    let run = |mode: SchedulerMode| {
        let mut topo = sleepy_tree(mode);
        let bus = sleepy_bus(&topo);
        topo.run_for_with(22_000, |now, _| {
            if now == 20_000 {
                reprogram_sleepy(&bus);
            }
        });
        let idle = sleepy_state(&mut topo);
        topo.run_for(28_000);
        (idle, sleepy_state(&mut topo))
    };
    let (naive_idle, naive) = run(SchedulerMode::Naive);
    let (fast_idle, fast) = run(SchedulerMode::FastForward);
    assert_same_tree_state(&naive_idle, &fast_idle, "write from a hook, idle");
    assert_same_tree_state(&naive, &fast, "write from a hook");
}

/// A snapshot taken while subtrees sleep, restored both into a fresh
/// topology and back into the one that took it (whose wake table by
/// then describes a later state).
#[test]
fn snapshot_restore_while_subtrees_sleep() {
    let mut naive = sleepy_tree(SchedulerMode::Naive);
    naive.run_for(50_000);
    let naive = sleepy_state(&mut naive);

    let mut fast = sleepy_tree(SchedulerMode::FastForward);
    fast.run_for(20_000);
    let mid = fast.snapshot_bytes();
    fast.run_for(15_000);
    fast.restore_snapshot_bytes(&mid).unwrap();
    fast.run_for(30_000);
    assert_same_tree_state(&naive, &sleepy_state(&mut fast), "restore in place");

    let mut fresh = sleepy_tree(SchedulerMode::FastForward);
    fresh.restore_snapshot_bytes(&mid).unwrap();
    fresh.run_for(30_000);
    assert_same_tree_state(&naive, &sleepy_state(&mut fresh), "restore into fresh");
}

/// An accelerator added after build onto the free port of a sleeping
/// cluster starts issuing at once.
#[test]
fn add_accelerator_onto_a_sleeping_cluster() {
    let run = |mode: SchedulerMode| {
        let mut topo = sleepy_tree(mode);
        topo.run_for(20_000);
        let sleepy = topo.node_by_label("sleepy").unwrap();
        let dma = Dma::new(
            "late",
            DmaConfig {
                src_base: 0x2200_0000,
                ..DmaConfig::reader(8 * 1024, 16, BurstSize::B16).jobs(2)
            },
        );
        assert_eq!(topo.add_accelerator(sleepy, boxed(dma)).unwrap(), 2);
        topo.run_for(30_000);
        assert_eq!(topo.accelerator(6).unwrap().jobs_completed(), 2, "{mode:?}");
        sleepy_state(&mut topo)
    };
    assert_same_tree_state(
        &run(SchedulerMode::Naive),
        &run(SchedulerMode::FastForward),
        "late accelerator",
    );
}
