//! Transaction-level observability suite: the metrics registry and the
//! runtime bound monitor watching *real* end-to-end traffic.
//!
//! Three properties are pinned here:
//!
//! 1. **Propagation floors.** No observed per-channel latency may ever
//!    undercut the HyperConnect's pipeline propagation constants
//!    (`analysis::propagation`) — a sample below the floor means a
//!    timestamp was taken at the wrong hop, not that the fabric got
//!    faster.
//! 2. **Contention-free minima equal the Fig. 3(a) goldens.** With a
//!    single master and an idle fabric, the *minimum* observed channel
//!    latency equals the golden constant exactly: the observability
//!    layer measures the same d_AR/d_AW/d_R/d_W/d_B the conformance
//!    probes pin.
//! 3. **Zero bound violations on clean scenarios.** Randomized traffic
//!    against the real ZCU102-model memory controller must stay inside
//!    the closed-form worst-case bounds at every port count.
//!
//! A fourth test pins the registry's outputs byte for byte on the
//! Fig. 5 `HC-50-50` contention pair, whose 256-beat DMA reads build
//! the longest hop histories any workload produces.

use axi::lite::LiteBus;
use axi::observe::ObsChannel;
use axi::types::BurstSize;
use axi::AxiInterconnect;
use axi_hyperconnect::SocSystem;
use ha::chaidnn::{Chaidnn, ChaidnnConfig};
use ha::dma::{Dma, DmaConfig};
use ha::traffic::{PeriodicReader, RandomTraffic};
use hyperconnect::analysis::propagation;
use hyperconnect::{HcConfig, HyperConnect};
use hypervisor::Hypervisor;
use mem::{MemConfig, MemoryController};
use sim::persist::crc32;

/// Builds an observed system: HyperConnect with metrics + bound monitor
/// armed, ZCU102-model memory with the protocol monitor attached.
fn observed_system(ports: usize) -> SocSystem<HyperConnect> {
    let mut memory = MemoryController::new(MemConfig::zcu102());
    memory.attach_monitor();
    memory.memory_mut().fill_pattern(0x1000_0000, 64 * 1024);
    let mut sys = SocSystem::new(HyperConnect::new(HcConfig::new(ports)), memory);
    sys.enable_observability();
    sys
}

/// Every channel's observed minimum latency must respect the pipeline
/// propagation floor; end-to-end transactions must respect the summed
/// address + data floors.
fn assert_propagation_floors(sys: &SocSystem<HyperConnect>) {
    let metrics = sys.interconnect_ref().metrics().expect("armed");
    let floors = [
        (ObsChannel::Ar, propagation::D_AR),
        (ObsChannel::Aw, propagation::D_AW),
        (ObsChannel::R, propagation::D_R),
        (ObsChannel::W, propagation::D_W),
        (ObsChannel::B, propagation::D_B),
    ];
    for port in 0..metrics.num_ports() {
        let p = metrics.port(port);
        for (channel, floor) in floors {
            if let Some(min) = p.channel(channel).latency.min() {
                assert!(
                    min >= floor,
                    "port {port} {channel:?} min latency {min} < propagation floor {floor}"
                );
            }
        }
        if let Some(min) = p.read_txns.min() {
            assert!(
                min >= propagation::READ_TOTAL,
                "port {port} read txn min {min} < {}",
                propagation::READ_TOTAL
            );
        }
        if let Some(min) = p.write_txns.min() {
            assert!(
                min >= propagation::WRITE_TOTAL,
                "port {port} write txn min {min} < {}",
                propagation::WRITE_TOTAL
            );
        }
    }
}

#[test]
fn randomized_traffic_respects_propagation_floors() {
    let mut sys = observed_system(4);
    for (i, seed) in [11u64, 23, 47].iter().enumerate() {
        sys.add_accelerator(Box::new(RandomTraffic::new(
            "rnd",
            0x1000_0000 + ((i as u64) << 24),
            1 << 20,
            BurstSize::B16,
            64,
            10,
            *seed,
        )))
        .unwrap();
    }
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "periodic",
        0x5000_0000,
        1 << 20,
        16,
        BurstSize::B16,
        100,
    )))
    .unwrap();
    sys.run_for(400_000);

    assert_propagation_floors(&sys);
    let metrics = sys.interconnect_ref().metrics().unwrap();
    // Every master actually produced samples on its port.
    for port in 0..4 {
        assert!(
            metrics.port(port).read_txns.count() > 0,
            "port {port} recorded no read transactions"
        );
    }
    // And the fabric stayed inside the analytical worst case throughout.
    let report = sys.interconnect_ref().bound_report().unwrap();
    assert!(report.checked_reads > 100, "{report:?}");
    assert_eq!(
        report.violations,
        0,
        "{:?}",
        sys.interconnect_ref().bound_violations().first()
    );
    assert!(sys.memory().monitor().unwrap().is_clean());
}

#[test]
fn contention_free_minima_equal_fig3a_goldens() {
    // One DMA on an otherwise idle 2-port fabric: the minimum observed
    // latency of each channel is the pure pipeline propagation delay —
    // the same constants `tests/conformance.rs` pins with beat probes.
    let mut sys = observed_system(2);
    sys.add_accelerator(Box::new(Dma::new(
        "dma0",
        DmaConfig {
            src_base: 0x1000_0000,
            dst_base: 0x2000_0000,
            read_bytes: 16 * 1024,
            write_bytes: 16 * 1024,
            jobs: Some(2),
            ..DmaConfig::case_study()
        },
    )))
    .unwrap();
    let outcome = sys.run_until_done(4_000_000);
    assert!(outcome.is_done(), "DMA did not finish: {outcome}");

    let metrics = sys.interconnect_ref().metrics().unwrap();
    let p = metrics.port(0);
    assert_eq!(p.ar.latency.min(), Some(propagation::D_AR), "d_AR");
    assert_eq!(p.aw.latency.min(), Some(propagation::D_AW), "d_AW");
    assert_eq!(p.r.latency.min(), Some(propagation::D_R), "d_R");
    // The DMA streams W beats back-to-back, so even the fastest beat
    // queues one cycle behind its predecessor in the W stage; the pure
    // d_W propagation (an isolated beat on an established route) is
    // pinned by the injection probes in the conformance suite.
    assert_eq!(p.w.latency.min(), Some(propagation::D_W + 1), "d_W");
    assert_eq!(p.b.latency.min(), Some(propagation::D_B), "d_B");
    assert_propagation_floors(&sys);

    let report = sys.interconnect_ref().bound_report().unwrap();
    assert!(report.checked_reads > 0 && report.checked_writes > 0);
    assert_eq!(report.violations, 0, "{report:?}");
}

#[test]
fn bound_monitor_clean_across_port_counts() {
    for ports in [1usize, 2, 4] {
        let mut sys = observed_system(ports);
        for port in 0..ports {
            sys.add_accelerator(Box::new(RandomTraffic::new(
                "rnd",
                0x1000_0000 + ((port as u64) << 24),
                1 << 20,
                BurstSize::B16,
                64,
                20,
                100 + port as u64,
            )))
            .unwrap();
        }
        sys.run_for(200_000);
        let report = sys.interconnect_ref().bound_report().unwrap();
        assert!(report.checked_reads > 0, "{ports} ports: {report:?}");
        assert_eq!(
            report.violations,
            0,
            "{ports} ports: {:?}",
            sys.interconnect_ref().bound_violations().first()
        );
        assert_propagation_floors(&sys);
    }
}

/// The Fig. 5 `HC-50-50` pair: CHaiDNN GoogleNet on port 0 and the
/// case-study DMA (256-beat bursts) on port 1, with a 50/50 bandwidth
/// reservation programmed through the hypervisor, observability armed.
fn hc_50_50_observed() -> SocSystem<HyperConnect> {
    const HC_BASE: u64 = 0xA000_0000;
    let hc = HyperConnect::new(HcConfig::new(2));
    let mut bus = LiteBus::new();
    bus.map(HC_BASE, 0x1000, hc.regs().clone());
    let hv = Hypervisor::new(bus, HC_BASE).expect("device present");
    hv.hc().set_period(50_000).unwrap();
    hv.set_bandwidth_shares(&[50, 50], MemConfig::zcu102().first_word_latency)
        .unwrap();
    let mut sys = SocSystem::new(hc, MemoryController::new(MemConfig::zcu102()));
    sys.add_accelerator(Box::new(Chaidnn::googlenet(ChaidnnConfig::default())))
        .unwrap();
    sys.add_accelerator(Box::new(Dma::new("HA_DMA", DmaConfig::case_study())))
        .unwrap();
    sys.enable_observability();
    sys
}

#[test]
fn fig5_long_burst_outputs_are_pinned() {
    // Byte-for-byte pins of everything the registry and bound monitor
    // publish, so a faster registry can prove it changed nothing.
    let mut sys = hc_50_50_observed();
    sys.run_for(40_000);
    let metrics = sys.interconnect_ref().metrics().unwrap();
    assert!(metrics.inflight_len() > 0, "no reads in flight mid-run");
    let mid = crc32(&sys.snapshot_bytes());

    sys.run_for(40_000);
    let json = sys.metrics_snapshot_json().unwrap();
    let report = sys.interconnect_ref().bound_report().unwrap().to_json();
    let metrics = sys.interconnect_ref().metrics().unwrap();
    let mut hops = String::new();
    let mut longest = 0;
    for rec in metrics.completed() {
        longest = longest.max(rec.hops.len());
        hops.push_str(&format!(
            "{} p{} w{} {}..{:?} {}B:",
            rec.uid, rec.port, rec.is_write, rec.issued_at, rec.completed_at, rec.bytes
        ));
        for h in &rec.hops {
            hops.push_str(&format!(
                " {}/{}@{}",
                h.hop.name(),
                h.channel.name(),
                h.cycle
            ));
        }
        hops.push('\n');
    }
    // Several case-study reads (one MemResponded and one Delivered
    // stamp per R beat) completed inside the ring.
    let long_reads = metrics
        .completed()
        .filter(|r| !r.is_write && r.hops.len() > 2 * 256)
        .count();
    assert!(
        long_reads >= 2,
        "{long_reads} long reads, longest {longest} hops"
    );
    assert_eq!(
        (
            crc32(json.as_bytes()),
            crc32(report.as_bytes()),
            crc32(hops.as_bytes()),
            mid
        ),
        (0xDA0D_8F31, 0x5CF2_CEC8, 0xA7C5_8EA9, 0x4ED3_35F7),
        "{report}"
    );
}
