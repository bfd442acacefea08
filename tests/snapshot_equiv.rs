//! The snapshot-exactness oracle: for every scenario family and every
//! scheduler, *run-to-cycle-K → snapshot → restore into a freshly built
//! system → finish* must land in a state **byte-identical** to the
//! uninterrupted run — compared via the full `hcsim-snapshot/v1` image,
//! which covers every persisted register, queue, counter and RNG across
//! all layers.
//!
//! Because snapshots deliberately exclude scheduler artifacts
//! (scheduler mode, fast-forward skip counters and wake table), one
//! single naive-mode reference image pins *every* scheduler's split
//! run, and a snapshot taken under one scheduler must resume under
//! another without drift.

use axi::types::BurstSize;
use axi::BridgeConfig;
use axi_hyperconnect::{SchedulerMode, SocSystem, SocTopology, TopologyBuilder};
use ha::dma::{Dma, DmaConfig};
use ha::fault::{DelayedFault, StalledWriter, WlastViolator};
use ha::traffic::{BandwidthStealer, PeriodicReader, RandomTraffic};
use ha::Accelerator;
use hyperconnect::{HcConfig, HyperConnect};
use hypervisor::HcDriver;
use mem::{MemConfig, MemoryController};
use sim::Cycle;

/// Every scheduler the split runs are swept over.
const MODES: [SchedulerMode; 2] = [SchedulerMode::Naive, SchedulerMode::FastForward];

/// Drives the oracle for a flat [`SocSystem`] scenario: `build` must
/// assemble the identical system every call (same shapes, same seeds —
/// only the scheduler differs).
fn oracle_system(
    build: &dyn Fn(SchedulerMode) -> SocSystem<HyperConnect>,
    cycles: Cycle,
    split_at: Cycle,
    label: &str,
) {
    let mut reference = build(SchedulerMode::Naive);
    reference.run_for(cycles);
    let reference_bytes = reference.snapshot_bytes();

    for mode in MODES {
        let mut first = build(mode);
        first.run_for(split_at);
        let mid = first.snapshot_bytes();

        let mut resumed = build(mode);
        resumed
            .restore_snapshot_bytes(&mid)
            .unwrap_or_else(|e| panic!("{label}: restore under {mode:?} failed: {e:?}"));
        assert_eq!(resumed.now(), split_at, "{label}: restored clock");
        resumed.run_for(cycles - split_at);
        assert_eq!(
            resumed.snapshot_bytes(),
            reference_bytes,
            "{label}: split run under {mode:?} diverged from uninterrupted naive run"
        );
    }

    // Cross-scheduler resume: freeze under fast-forward, thaw naive.
    let mut first = build(SchedulerMode::FastForward);
    first.run_for(split_at);
    let mid = first.snapshot_bytes();
    let mut resumed = build(SchedulerMode::Naive);
    resumed
        .restore_snapshot_bytes(&mid)
        .unwrap_or_else(|e| panic!("{label}: cross-scheduler restore failed: {e:?}"));
    resumed.run_for(cycles - split_at);
    assert_eq!(
        resumed.snapshot_bytes(),
        reference_bytes,
        "{label}: fast-forward snapshot resumed under naive diverged"
    );
}

/// Same oracle over a cascaded [`SocTopology`].
fn oracle_topology(
    build: &dyn Fn(SchedulerMode) -> SocTopology,
    cycles: Cycle,
    split_at: Cycle,
    label: &str,
) {
    let mut reference = build(SchedulerMode::Naive);
    reference.run_for(cycles);
    let reference_bytes = reference.snapshot_bytes();

    for mode in MODES {
        let mut first = build(mode);
        first.run_for(split_at);
        let mid = first.snapshot_bytes();

        let mut resumed = build(mode);
        resumed
            .restore_snapshot_bytes(&mid)
            .unwrap_or_else(|e| panic!("{label}: restore under {mode:?} failed: {e:?}"));
        assert_eq!(resumed.now(), split_at, "{label}: restored clock");
        resumed.run_for(cycles - split_at);
        assert_eq!(
            resumed.snapshot_bytes(),
            reference_bytes,
            "{label}: split run under {mode:?} diverged from uninterrupted naive run"
        );
    }
}

// ---------------------------------------------------------------------
// Scenario 1: the four-master stress soak.
// ---------------------------------------------------------------------

fn build_stress(mode: SchedulerMode) -> SocSystem<HyperConnect> {
    let mut memory = MemoryController::new(MemConfig::zcu102());
    memory.attach_monitor();
    let mut sys = SocSystem::new(HyperConnect::new(HcConfig::new(4)), memory);
    sys.set_scheduler(mode);
    sys.add_accelerator(Box::new(RandomTraffic::new(
        "rnd0",
        0x1000_0000,
        1 << 20,
        BurstSize::B16,
        64,
        10,
        11,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(BandwidthStealer::new(
        "steal",
        0x3000_0000,
        1 << 20,
        256,
        BurstSize::B16,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "periodic",
        0x5000_0000,
        1 << 20,
        16,
        BurstSize::B16,
        100,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(RandomTraffic::new(
        "rnd1",
        0x7000_0000,
        1 << 20,
        BurstSize::B4,
        32,
        50,
        23,
    )))
    .unwrap();
    sys
}

#[test]
fn stress_snapshot_split_is_exact() {
    oracle_system(&build_stress, 60_000, 26_371, "stress");
}

// ---------------------------------------------------------------------
// Scenario 2: fault injection (protocol violations mid-flight).
// ---------------------------------------------------------------------

fn build_fault(mode: SchedulerMode) -> SocSystem<HyperConnect> {
    let mut memory = MemoryController::new(MemConfig::zcu102());
    memory.attach_monitor();
    let mut sys = SocSystem::new(HyperConnect::new(HcConfig::new(3)), memory);
    sys.set_scheduler(mode);
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "victim_a",
        0x1000_0000,
        1 << 20,
        16,
        BurstSize::B16,
        40,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(WlastViolator::new(
        "faulty",
        0x2000_0000,
        16,
        BurstSize::B16,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "victim_b",
        0x3000_0000,
        1 << 20,
        16,
        BurstSize::B16,
        40,
    )))
    .unwrap();
    sys
}

#[test]
fn fault_snapshot_split_is_exact() {
    oracle_system(&build_fault, 40_000, 17_203, "fault");
}

// ---------------------------------------------------------------------
// Scenario 3: QoS regulation (credit regulators + bound monitor live).
// ---------------------------------------------------------------------

fn build_qos(mode: SchedulerMode) -> SocSystem<HyperConnect> {
    let hc = HyperConnect::new(HcConfig::new(4));
    let mut bus = axi::lite::LiteBus::new();
    bus.map(0xA000_0000, 0x1000, hc.regs().clone());
    let drv = HcDriver::probe(&bus, 0xA000_0000).expect("HyperConnect regfile");
    drv.set_regulation_window(128).expect("window register");
    for p in 1..4 {
        drv.set_rate(p, 8).expect("rate register");
        drv.set_reg_burst(p, 4).expect("burst register");
        drv.set_out_cap(p, 2).expect("out-cap register");
    }
    let mut sys = SocSystem::new(hc, MemoryController::new(MemConfig::zcu102()));
    sys.set_scheduler(mode);
    sys.enable_observability();
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "qos_victim",
        0x1000_0000,
        1 << 20,
        16,
        BurstSize::B16,
        200,
    )))
    .unwrap();
    for p in 1..4u64 {
        sys.add_accelerator(Box::new(Dma::new(
            format!("qos_swarm{p}"),
            DmaConfig {
                src_base: 0x3000_0000 + p * 0x0100_0000,
                jobs: None,
                ..DmaConfig::reader(256 * 1024, 16, BurstSize::B16)
            },
        )))
        .unwrap();
    }
    sys
}

#[test]
fn qos_snapshot_split_is_exact() {
    oracle_system(&build_qos, 50_000, 23_917, "qos");
}

// ---------------------------------------------------------------------
// Scenario 4: chaos-seed — a dormant fault arming mid-run between
// seeded traffic, exercising DelayedFault + SimRng persistence. The
// split point lands *before* the fault arms, so the restore must carry
// the dormant wrapper's inner state faithfully into the injection.
// ---------------------------------------------------------------------

fn build_chaos_seed(mode: SchedulerMode) -> SocSystem<HyperConnect> {
    let mut memory = MemoryController::new(MemConfig::zcu102());
    memory.attach_monitor();
    let mut sys = SocSystem::new(HyperConnect::new(HcConfig::new(3)), memory);
    sys.set_scheduler(mode);
    sys.add_accelerator(Box::new(RandomTraffic::new(
        "seeded0",
        0x1000_0000,
        1 << 20,
        BurstSize::B16,
        48,
        20,
        23, // PINNED_SEEDS member
    )))
    .unwrap();
    sys.add_accelerator(Box::new(DelayedFault::new(
        Box::new(StalledWriter::new("stall", 0x2000_0000, 16, BurstSize::B16)),
        21_000,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(RandomTraffic::new(
        "seeded1",
        0x5000_0000,
        1 << 20,
        BurstSize::B4,
        32,
        60,
        29, // PINNED_SEEDS member
    )))
    .unwrap();
    sys
}

#[test]
fn chaos_seed_snapshot_split_is_exact() {
    oracle_system(&build_chaos_seed, 45_000, 15_551, "chaos-seed");
}

// ---------------------------------------------------------------------
// Scenario 5: a three-level cascade (leaf → mid → root → DDR) with
// registered bridges at both cuts, so fast-forward puts whole subtrees
// to sleep across the split.
// ---------------------------------------------------------------------

fn build_tree3(mode: SchedulerMode) -> SocTopology {
    let mut b = TopologyBuilder::new();
    let root = b
        .add_interconnect("root", HyperConnect::new(HcConfig::new(2)))
        .unwrap();
    let mid = b
        .add_interconnect("mid", HyperConnect::new(HcConfig::new(2)))
        .unwrap();
    let leaf = b
        .add_interconnect("leaf", HyperConnect::new(HcConfig::new(2)))
        .unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.cascade_with(leaf, mid, 0, BridgeConfig::wire().latency(2))
        .unwrap();
    b.cascade_with(mid, root, 0, BridgeConfig::wire().latency(1))
        .unwrap();
    b.connect_memory(root, mem).unwrap();
    let placements: [(&str, Box<dyn Accelerator>, _, usize); 4] = [
        (
            "l0",
            Box::new(RandomTraffic::new(
                "leaf_rnd",
                0x1000_0000,
                1 << 20,
                BurstSize::B16,
                40,
                15,
                31,
            )),
            leaf,
            0,
        ),
        (
            "l1",
            Box::new(PeriodicReader::new(
                "leaf_per",
                0x2000_0000,
                1 << 20,
                16,
                BurstSize::B16,
                90,
            )),
            leaf,
            1,
        ),
        (
            "m1",
            Box::new(PeriodicReader::new(
                "mid_per",
                0x5000_0000,
                1 << 20,
                16,
                BurstSize::B16,
                130,
            )),
            mid,
            1,
        ),
        (
            "r1",
            Box::new(RandomTraffic::new(
                "root_rnd",
                0x9000_0000,
                1 << 20,
                BurstSize::B16,
                48,
                35,
                47,
            )),
            root,
            1,
        ),
    ];
    for (name, acc, node, port) in placements {
        let a = b.add_accelerator(name, acc).unwrap();
        b.attach(a, node, port).unwrap();
    }
    let mut topo = b.build().unwrap();
    topo.set_scheduler(mode);
    topo
}

#[test]
fn tree3_snapshot_split_is_exact() {
    oracle_topology(&build_tree3, 80_000, 33_331, "tree3");
}

// ---------------------------------------------------------------------
// Scenario 6: fabric faults — an armed memory-side injector (spurious
// SLVERRs + ECC-corrected bit flips) under a retrying scoreboard
// oracle. The split must carry the injector's RNG and counters, the
// controller's error-region bookkeeping, and the scoreboard's
// mid-retry/backoff state byte-faithfully across the restore.
// ---------------------------------------------------------------------

fn build_fabric_fault(mode: SchedulerMode) -> SocSystem<HyperConnect> {
    let mut memory = MemoryController::new(MemConfig::zcu102());
    memory.attach_fault_injector(
        mem::MemFaultConfig::new(17)
            .spurious_slverr(0.08)
            .flip_single(0.05)
            .ecc(true),
    );
    let mut sys = SocSystem::new(HyperConnect::new(HcConfig::new(3)), memory);
    sys.set_scheduler(mode);
    sys.add_accelerator(Box::new(
        ha::scoreboard::ScoreboardMaster::new(
            "fabric_oracle",
            0x2000_0000,
            16 * 256,
            16,
            BurstSize::B16,
            13,
        )
        .policy(axi::retry::RetryPolicy {
            max_attempts: 8,
            backoff_base: 2,
            backoff_cap: 64,
        })
        .gap(40),
    ))
    .unwrap();
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "victim",
        0x1000_0000,
        1 << 20,
        16,
        BurstSize::B16,
        50,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(RandomTraffic::new(
        "rnd",
        0x5000_0000,
        1 << 20,
        BurstSize::B16,
        48,
        25,
        31, // FABRIC_PINNED_SEEDS member
    )))
    .unwrap();
    sys
}

#[test]
fn fabric_fault_snapshot_split_is_exact() {
    oracle_system(&build_fabric_fault, 45_000, 19_777, "fabric-fault");
}

// ---------------------------------------------------------------------
// Negative space: a snapshot must refuse a differently-shaped host.
// ---------------------------------------------------------------------

#[test]
fn snapshot_rejects_mismatched_shape() {
    let mut donor = build_stress(SchedulerMode::FastForward);
    donor.run_for(5_000);
    let bytes = donor.snapshot_bytes();
    let mut other = build_fault(SchedulerMode::FastForward);
    assert!(
        other.restore_snapshot_bytes(&bytes).is_err(),
        "a stress snapshot must not restore into the fault topology"
    );
}

// ---------------------------------------------------------------------
// Satellite sweep: snapshot at EVERY cycle of a short Fig 3(a)-style
// run. Restore-and-finish from every split point must reproduce the
// pinned goldens: the run's completion cycle and the CRC of the final
// state image. This is the exhaustive version of the spot-check oracles
// above — no cycle, including the cycles around channel-stage
// boundaries (the d_AR/d_R latency pipeline of Fig. 3(a)), may hold
// unserialized state.
// ---------------------------------------------------------------------

/// Two finite DMA readers through a 2-port HyperConnect — the Fig 3(a)
/// measurement shape, sized to finish in a few hundred cycles.
fn build_fig3a_short(mode: SchedulerMode) -> SocSystem<HyperConnect> {
    let mut sys = SocSystem::new(
        HyperConnect::new(HcConfig::new(2)),
        MemoryController::new(MemConfig::zcu102()),
    );
    sys.set_scheduler(mode);
    for p in 0..2u64 {
        sys.add_accelerator(Box::new(Dma::new(
            format!("fig3a_dma{p}"),
            DmaConfig {
                src_base: 0x1000_0000 + p * 0x0100_0000,
                jobs: Some(2),
                ..DmaConfig::reader(1024, 16, BurstSize::B16)
            },
        )))
        .unwrap();
    }
    sys
}

#[test]
fn fig3a_snapshot_sweep_every_cycle() {
    // Goldens pinned from the uninterrupted naive run; a change here
    // means the simulated microarchitecture itself changed.
    const DONE_CYCLE: Cycle = 296;
    const FINAL_STATE_CRC: u32 = 0x7890_99F8;

    let mut reference = build_fig3a_short(SchedulerMode::Naive);
    let outcome = reference.run_until_done(5_000);
    assert_eq!(
        outcome,
        sim::RunOutcome::Done(DONE_CYCLE),
        "golden completion cycle moved"
    );
    let reference_bytes = reference.snapshot_bytes();
    assert_eq!(
        sim::persist::crc32(&reference_bytes),
        FINAL_STATE_CRC,
        "golden final-state CRC moved"
    );

    // One continuous pass captures the snapshot at every cycle...
    let mut sweeper = build_fig3a_short(SchedulerMode::Naive);
    let mut per_cycle: Vec<Vec<u8>> = vec![sweeper.snapshot_bytes()];
    for _ in 0..DONE_CYCLE {
        sweeper.run_for(1);
        per_cycle.push(sweeper.snapshot_bytes());
    }

    // ...and every one of them must restore and finish on the goldens.
    for (k, bytes) in per_cycle.iter().enumerate() {
        let mut resumed = build_fig3a_short(SchedulerMode::FastForward);
        resumed
            .restore_snapshot_bytes(bytes)
            .unwrap_or_else(|e| panic!("cycle {k}: restore failed: {e:?}"));
        assert_eq!(resumed.now(), k as Cycle, "cycle {k}: restored clock");
        resumed.run_for(DONE_CYCLE - k as Cycle);
        assert_eq!(
            resumed.snapshot_bytes(),
            reference_bytes,
            "cycle {k}: restore-and-finish diverged from the pinned final state"
        );
    }
}
