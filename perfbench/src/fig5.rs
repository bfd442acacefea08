//! `fig5_contention`: the paper's Fig. 5 `HC-X-Y` contention point.
//!
//! CHaiDNN's GoogleNet replay and the case-study DMA share a 2-port
//! HyperConnect whose bandwidth reservation the hypervisor programs over
//! AXI-Lite, against `MemConfig::zcu102()`. Each repetition simulates the
//! seed's reservation point and its mirror (see [`shares`]), each once
//! bare and once with observability armed (metrics registry + runtime
//! bound monitor). Every node is busy nearly every cycle, so this is the
//! workload where the interconnect/memory hot path and `axi::observe`
//! dominate and fast-forward has nothing to skip.

use std::time::Instant;

use axi_hyperconnect::axi::lite::LiteBus;
use axi_hyperconnect::axi::AxiInterconnect;
use axi_hyperconnect::ha::chaidnn::{Chaidnn, ChaidnnConfig};
use axi_hyperconnect::ha::dma::{Dma, DmaConfig};
use axi_hyperconnect::ha::Accelerator;
use axi_hyperconnect::hyperconnect::analysis::ServiceModel;
use axi_hyperconnect::hyperconnect::{HcConfig, HyperConnect};
use axi_hyperconnect::hypervisor::Hypervisor;
use axi_hyperconnect::mem::{MemConfig, MemoryController};
use axi_hyperconnect::sim::Cycle;
use axi_hyperconnect::SocSystem;
use bench::fig5::{PERIOD, SHARES};

use crate::trace::{layer_metrics, TracedIc, TracedRun, Tracer};
use crate::{fnv64, min_of, repeat, Outcome};

/// Simulated cycles per system.
const WINDOW: Cycle = 300_000;

const HC_BASE: u64 = 0xA000_0000;

/// CHaiDNN's shares in the repetition's two systems: the seed's `HC-X-Y`
/// point of the paper's sweep (seed 1 gives `HC-50-50`) and its mirror
/// `HC-Y-X`. Simulated traffic per cycle grows with the DMA's share, by
/// about half from one end of the sweep to the other; the mirror pair
/// keeps the traffic a repetition simulates nearly the same for every
/// seed.
pub fn shares(seed: u64) -> [u32; 2] {
    let x = SHARES[((seed % 5 + 1) % 5) as usize];
    [x, 100 - x]
}

/// A 2-port HyperConnect with `share`% reserved to port 0 through the
/// hypervisor's AXI-Lite driver.
fn reserved_hyperconnect(share: u32) -> HyperConnect {
    let hc = HyperConnect::new(HcConfig::new(2));
    let mut bus = LiteBus::new();
    bus.map(HC_BASE, 0x1000, hc.regs().clone());
    let hv = Hypervisor::new(bus, HC_BASE).expect("HyperConnect register file is mapped");
    hv.hc().set_period(PERIOD).expect("period register");
    hv.set_bandwidth_shares(
        &[share, 100 - share],
        MemConfig::zcu102().first_word_latency,
    )
    .expect("shares sum to 100");
    hc
}

fn system<I: AxiInterconnect + 'static>(
    ic: I,
    wrap: impl Fn(Box<dyn Accelerator>) -> Box<dyn Accelerator>,
) -> SocSystem<I> {
    let mut sys = SocSystem::new(ic, MemoryController::new(MemConfig::zcu102()));
    sys.add_accelerator(wrap(Box::new(Chaidnn::googlenet(ChaidnnConfig::default()))))
        .expect("port 0 free");
    sys.add_accelerator(wrap(Box::new(Dma::new("HA_DMA", DmaConfig::case_study()))))
        .expect("port 1 free");
    sys
}

/// What [`SocSystem::enable_observability`] does, reached through the
/// tracing wrapper by downcast.
fn arm_traced(sys: &mut SocSystem<TracedIc<HyperConnect>>) {
    let (first_word, write_resp) = {
        let config = sys.memory().config();
        (config.first_word_latency, config.write_resp_latency)
    };
    let node = sys.interconnect_node();
    let hc = sys
        .topology_mut()
        .interconnect_as_mut::<HyperConnect>(node)
        .expect("the wrapper forwards as_any_mut");
    let n = hc.num_ports();
    let (nominal, max_out) = hc.regs().with(|rf| {
        let max_out = (0..n)
            .map(|i| rf.port(i).max_outstanding)
            .max()
            .unwrap_or(1);
        (rf.nominal_burst(), max_out)
    });
    let mut model = ServiceModel::hyperconnect(n, nominal, first_word).max_outstanding(max_out);
    model.write_resp_latency = write_resp;
    hc.enable_bound_monitor(model);
}

/// Both systems of a repetition, bare or observed: set-up and run wall
/// times plus the simulated outcome.
#[derive(Default)]
struct Half {
    setup_s: f64,
    run_s: f64,
    /// Hash of every system's simulated outcome, chained.
    digest: u64,
    checked: u64,
    violations: u64,
    worst_read: u64,
    /// Memory reads, writes, beats and busy cycles.
    mem: [u64; 4],
    skipped: Cycle,
    jobs: u64,
}

impl Half {
    fn add<I: AxiInterconnect + 'static>(&mut self, mut sys: SocSystem<I>, setup_s: f64) {
        let t0 = Instant::now();
        sys.run_for(WINDOW);
        self.run_s += t0.elapsed().as_secs_f64();
        self.setup_s += setup_s;
        let report = sys
            .topology()
            .interconnect_dyn(sys.interconnect_node())
            .and_then(|ic| ic.bound_report());
        if let Some(r) = report {
            self.checked += r.checked_reads + r.checked_writes;
            self.violations += r.violations;
            self.worst_read = self.worst_read.max(r.worst_read);
        }
        let s = sys.memory().stats();
        let mem = [
            s.reads_served,
            s.writes_served,
            s.beats_served,
            s.busy_cycles,
        ];
        for (sum, v) in self.mem.iter_mut().zip(mem) {
            *sum += v;
        }
        let jobs: Vec<u64> = (0..sys.num_accelerators())
            .map(|i| sys.accelerator(i).map_or(0, |a| a.jobs_completed()))
            .collect();
        self.jobs += jobs.iter().sum::<u64>();
        self.skipped += sys.skipped_cycles();
        self.digest = fnv64(&format!(
            "{:016x} now={} skipped={} jobs={jobs:?} mem={mem:?} bytes={} metrics={}",
            self.digest,
            sys.now(),
            sys.skipped_cycles(),
            s.bytes_served,
            sys.metrics_snapshot_json().unwrap_or_default(),
        ));
    }
}

fn untraced(shares: [u32; 2], observe: bool) -> Half {
    let mut half = Half::default();
    for share in shares {
        let t0 = Instant::now();
        let mut sys = system(reserved_hyperconnect(share), |a| a);
        if observe {
            sys.enable_observability();
        }
        half.add(sys, t0.elapsed().as_secs_f64());
    }
    half
}

fn traced(shares: [u32; 2], observe: bool) -> (Half, TracedRun) {
    let tracer = Tracer::default();
    let mut half = Half::default();
    for share in shares {
        let mut sys = system(tracer.ic(reserved_hyperconnect(share)), |a| tracer.acc(a));
        if observe {
            arm_traced(&mut sys);
        }
        half.add(sys, 0.0);
    }
    let run = tracer.run(half.run_s);
    (half, run)
}

struct Rep {
    bare: Half,
    observed: Half,
}

impl Rep {
    fn digest(&self) -> u64 {
        fnv64(&format!(
            "{:016x} {:016x}",
            self.bare.digest, self.observed.digest
        ))
    }

    fn run_s(&self) -> f64 {
        self.bare.run_s + self.observed.run_s
    }
}

/// Runs the workload (see the module docs).
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let shares = shares(seed);
    let [x, y] = shares;
    println!("fig5_contention: HC-{x}-{y} and HC-{y}-{x}, {WINDOW} cycles each, bare and observed");
    let mut out = Outcome::default();
    let untraced_s = if trace { seconds / 2.0 } else { seconds };
    let (warm, reps) = repeat(untraced_s, || Rep {
        bare: untraced(shares, false),
        observed: untraced(shares, true),
    });
    let reference = warm.digest();
    out.digest = reference;
    // Every repetition replays the same transactions (the digests
    // match), so one repetition's are the operations attempted.
    out.attempted = warm.observed.checked;
    out.failed = warm.observed.violations;
    for (i, rep) in reps.iter().enumerate() {
        out.check(rep.digest() == reference, || {
            format!("repetition {i} digest differs")
        });
    }
    let cycles = 2.0 * WINDOW as f64;
    let rates: Vec<String> = reps
        .iter()
        .map(|r| format!("{:.3}", 2.0 * cycles / r.run_s() / 1e6))
        .collect();
    println!(
        "fig5_contention: Mcycles/s per repetition: {}",
        rates.join(" ")
    );
    out.set(
        "sim_mcycles_per_s",
        2.0 * cycles / min_of(&reps, Rep::run_s) / 1e6,
    );
    out.set(
        "setup_s",
        min_of(&reps, |r| r.bare.setup_s + r.observed.setup_s),
    );
    if !trace {
        return out;
    }

    let mcycles = cycles / 1e6;
    let bare_s = min_of(&reps, |r| r.bare.run_s);
    let observed_s = min_of(&reps, |r| r.observed.run_s);
    let [reads, writes, beats, busy] = warm.bare.mem;
    for (name, value) in [
        ("observe.bare_mcycles_per_s", mcycles / bare_s),
        ("observe.observed_mcycles_per_s", mcycles / observed_s),
        ("observe.overhead_ratio", observed_s / bare_s),
        (
            "observe.ms_per_mcycle",
            (observed_s - bare_s) * 1e3 / mcycles,
        ),
        ("observe.checked_txns", warm.observed.checked as f64),
        ("observe.worst_read_cycles", warm.observed.worst_read as f64),
        ("mem.reads", reads as f64),
        ("mem.writes", writes as f64),
        ("mem.beats", beats as f64),
        ("mem.busy_ratio", busy as f64 / cycles),
        ("ha.jobs", warm.bare.jobs as f64),
    ] {
        out.set(name, value);
    }

    let (_, treps) = repeat(seconds / 2.0, || {
        let (bare, t) = traced(shares, false);
        let (observed, _) = traced(shares, true);
        (Rep { bare, observed }, t)
    });
    for (i, (rep, _)) in treps.iter().enumerate() {
        out.check(rep.digest() == reference, || {
            format!("traced repetition {i} digest differs from the untraced one")
        });
    }
    let runs: Vec<TracedRun> = treps.iter().map(|(_, t)| *t).collect();
    layer_metrics(&mut out, &runs, 1, warm.bare.skipped, 2 * WINDOW);
    out.set(
        "trace.overhead_ratio",
        min_of(&treps, |(r, _)| r.run_s()) / min_of(&reps, Rep::run_s),
    );
    out
}
