//! `tree100_sparse`: the 100-node cascade of `bench::tree100`.
//!
//! One cluster of thirteen random read/write masters sits beside six
//! clusters of periodic readers, each cluster behind a latency-32
//! bridge, under the default scheduler with observability off. The busy
//! cluster pins the global clock, so the scheduler ticks all 100 nodes
//! nearly every cycle while almost none of them have work: the workload
//! where scheduler and activity tracking matter, and where bridges
//! carry the traffic. The seed derives the random masters' seeds and
//! mean gaps and the periodic readers' gaps; the shape is fixed.

use std::time::Instant;

use axi_hyperconnect::axi::types::BurstSize;
use axi_hyperconnect::axi::BridgeConfig;
use axi_hyperconnect::ha::traffic::{PeriodicReader, RandomTraffic};
use axi_hyperconnect::ha::Accelerator;
use axi_hyperconnect::hyperconnect::{HcConfig, HyperConnect};
use axi_hyperconnect::mem::{MemConfig, MemStats, MemoryController};
use axi_hyperconnect::sim::{Cycle, SimRng};
use axi_hyperconnect::{NodeId, SocTopology, TopologyBuilder};
use bench::tree100::{fingerprint, ACCS_PER_CLUSTER, BRIDGE_LATENCY, CLUSTERS};

use crate::trace::{layer_metrics, TracedRun, Tracer};
use crate::{fnv64, min_of, repeat, Outcome};

/// Simulated cycles per repetition.
const WINDOW: Cycle = 100_000;

/// The shape of `bench::tree100::build`, which fixes its traffic
/// parameters and cannot wrap its nodes: here the traffic comes from the
/// seed, and every node is wrapped into `tracer` when one is given.
fn build(seed: u64, tracer: Option<&Tracer>) -> SocTopology {
    let mut rng = SimRng::seed(seed);
    let mut b = TopologyBuilder::new();
    let add_hc = |b: &mut TopologyBuilder, label: String, ports: usize| -> NodeId {
        let hc = HyperConnect::new(HcConfig::new(ports));
        match tracer {
            Some(t) => b.add_interconnect(label, t.ic(hc)),
            None => b.add_interconnect(label, hc),
        }
        .expect("unique label")
    };
    let root = add_hc(&mut b, "root".into(), CLUSTERS);
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .expect("unique label");
    b.connect_memory(root, mem).expect("root is unbound");
    for c in 0..CLUSTERS {
        let cluster = add_hc(&mut b, format!("cluster{c}"), ACCS_PER_CLUSTER);
        let bridge = BridgeConfig {
            addr_capacity: 32,
            data_capacity: 256,
            resp_capacity: 32,
            ..BridgeConfig::wire()
        }
        .latency(BRIDGE_LATENCY);
        b.cascade_with(cluster, root, c, bridge)
            .expect("root port is free");
        for p in 0..ACCS_PER_CLUSTER {
            let i = c * ACCS_PER_CLUSTER + p;
            let base = 0x1000_0000 + i as u64 * 0x0020_0000;
            let name = format!("a{i}");
            let acc: Box<dyn Accelerator> = if c == 0 {
                let mean_gap = rng.range_u64(250, 499);
                let seed = rng.range_u64(0, u64::MAX);
                Box::new(RandomTraffic::new(
                    &name,
                    base,
                    1 << 19,
                    BurstSize::B16,
                    16,
                    mean_gap,
                    seed,
                ))
            } else {
                let gap = rng.range_u64(8_000, 10_999);
                Box::new(PeriodicReader::new(
                    &name,
                    base,
                    1 << 19,
                    16,
                    BurstSize::B16,
                    gap,
                ))
            };
            let acc = match tracer {
                Some(t) => t.acc(acc),
                None => acc,
            };
            let a = b.add_accelerator(&name, acc).expect("unique label");
            b.attach(a, cluster, p).expect("cluster port is free");
        }
    }
    b.build().expect("well-formed tree")
}

struct Rep {
    setup_s: f64,
    run_s: f64,
    /// Hash of `bench::tree100::fingerprint`.
    digest: u64,
    skipped: Cycle,
    stats: MemStats,
    bridge_beats: u64,
    jobs: u64,
}

fn rep(seed: u64, tracer: Option<&Tracer>) -> Rep {
    let t0 = Instant::now();
    let mut topo = build(seed, tracer);
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    topo.run_for(WINDOW);
    let run_s = t1.elapsed().as_secs_f64();
    let mem = topo.node_by_label("ddr").expect("memory node");
    let bridge_beats = (0..CLUSTERS)
        .filter_map(|c| topo.node_by_label(&format!("cluster{c}")))
        .filter_map(|id| topo.bridge_stats(id))
        .map(|s| s.beats_down + s.beats_up)
        .sum();
    Rep {
        setup_s,
        run_s,
        skipped: topo.skipped_cycles(),
        stats: topo.memory(mem).expect("memory node").stats(),
        bridge_beats,
        jobs: (0..topo.num_accelerators())
            .filter_map(|i| topo.accelerator(i))
            .map(|a| a.jobs_completed())
            .sum(),
        digest: fnv64(&fingerprint(&mut topo)),
    }
}

/// Runs the workload (see the module docs).
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    println!("tree100_sparse: {WINDOW} cycles per repetition");
    let mut out = Outcome::default();
    let untraced_s = if trace { seconds / 2.0 } else { seconds };
    let (warm, reps) = repeat(untraced_s, || rep(seed, None));
    out.digest = warm.digest;
    for (i, r) in reps.iter().enumerate() {
        out.attempted += 1;
        if r.digest != warm.digest {
            out.failed += 1;
            out.problems.push(format!("repetition {i} digest differs"));
        }
    }
    let rates: Vec<String> = reps
        .iter()
        .map(|r| format!("{:.3}", WINDOW as f64 / r.run_s / 1e6))
        .collect();
    println!(
        "tree100_sparse: Mcycles/s per repetition: {}",
        rates.join(" ")
    );
    out.set(
        "sim_mcycles_per_s",
        WINDOW as f64 / min_of(&reps, |r| r.run_s) / 1e6,
    );
    out.set("setup_s", min_of(&reps, |r| r.setup_s));
    if !trace {
        return out;
    }

    out.set("ha.jobs", warm.jobs as f64);
    out.set("mem.reads", warm.stats.reads_served as f64);
    out.set("mem.writes", warm.stats.writes_served as f64);
    out.set("mem.beats", warm.stats.beats_served as f64);
    out.set(
        "mem.busy_ratio",
        warm.stats.busy_cycles as f64 / WINDOW as f64,
    );
    out.set("axi.bridge_beats", warm.bridge_beats as f64);

    let (_, treps) = repeat(seconds / 2.0, || {
        let tracer = Tracer::default();
        let r = rep(seed, Some(&tracer));
        let run = tracer.run(r.run_s);
        (r, run)
    });
    for (i, (r, _)) in treps.iter().enumerate() {
        out.check(r.digest == warm.digest, || {
            format!("traced repetition {i} digest differs from the untraced one")
        });
    }
    let runs: Vec<TracedRun> = treps.iter().map(|(_, t)| *t).collect();
    layer_metrics(&mut out, &runs, 1 + CLUSTERS as u64, warm.skipped, WINDOW);
    out.set(
        "trace.overhead_ratio",
        min_of(&treps, |(r, _)| r.run_s) / min_of(&reps, |r| r.run_s),
    );
    out
}
