//! `fork_campaign`: the snapshot-forking chaos campaign service.
//!
//! `campaign::run_campaign` on one worker, once per scenario shape of
//! [`configs`]: warm the scenario once, snapshot it, fork [`VARIANTS`]
//! seeded fault variants through hypervisor recovery and bisect any
//! invariant failure. The workload also saves and restores a snapshot of
//! a stress topology. It is the one that reaches persist (save and
//! restore), topology build, hypervisor recovery and the campaign layer;
//! its simulations are short and mostly fast-forwarded, so hot-path
//! changes barely show here.
//!
//! The campaign builds its systems internally, so this workload's
//! per-layer figures come from the campaign's own event stream and
//! report rather than from tracing wrappers.

use std::time::Instant;

use axi_hyperconnect::axi::types::BurstSize;
use axi_hyperconnect::campaign::{
    run_campaign, run_variant_cold, CampaignConfig, CampaignEvent, CampaignReport,
};
use axi_hyperconnect::chaos::PINNED_SEEDS;
use axi_hyperconnect::ha::dma::{Dma, DmaConfig};
use axi_hyperconnect::ha::traffic::{BandwidthStealer, RandomTraffic};
use axi_hyperconnect::hyperconnect::{HcConfig, HyperConnect};
use axi_hyperconnect::mem::{MemConfig, MemoryController};
use axi_hyperconnect::sim::Cycle;
use axi_hyperconnect::SocSystem;

use crate::{fnv64, min_of, quantile, repeat, Outcome};

/// Variants forked per campaign.
const VARIANTS: usize = 4;

/// One campaign per shape of the chaos engine's pinned seed set, which
/// covers all four fault kinds, each recoverable and permanent. A base
/// seed fixes a campaign's shape, and shapes differ up to fourfold in
/// host cost per simulated cycle, so the shapes stay fixed and the
/// benchmark seed picks the cycle every campaign warms to and forks
/// from, which moves every variant's injection cycle.
fn configs(seed: u64) -> Vec<CampaignConfig> {
    let warm = 1_500 + (seed % 1_001 + 499) % 1_001;
    PINNED_SEEDS
        .iter()
        .map(|&base| {
            CampaignConfig::new(base)
                .variants(VARIANTS)
                .warm_cycles(warm)
                .workers(1)
        })
        .collect()
}

/// Cycles the stress topology runs before its snapshot is taken.
const STRESS_WINDOW: Cycle = 200_000;

/// Save/restore pairs timed on the stress image.
const PERSIST_REPS: usize = 15;

struct Rep {
    wall_s: f64,
    warm_ms: f64,
    cycles: Cycle,
    bisections: usize,
    /// Hash of every campaign's warm image size and variant fingerprints.
    digest: u64,
    /// Wall time of each forked variant, read off the event stream of a
    /// traced repetition.
    fork_ms: Vec<f64>,
    /// The campaign reports, kept for the warm-up repetition only so the
    /// measured ones hold the same memory however many of them run.
    reports: Option<Vec<CampaignReport>>,
}

/// Cycles one bisection simulates: both end states, then two restores
/// per step of the search that ends at `first` (the divergence is
/// monotone, so states match exactly below it).
fn bisection_cycles(cfg: &CampaignConfig, inject_at: Cycle, first: Option<Cycle>) -> Cycle {
    let span = |k: Cycle| 2 * (k - cfg.warm_cycles);
    let mut total = span(cfg.cycles);
    if let Some(first) = first {
        let (mut lo, mut hi) = (inject_at, cfg.cycles);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            total += span(mid);
            if mid < first {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    total
}

fn rep(cfgs: &[CampaignConfig], keep_reports: bool, trace: bool) -> Rep {
    let mut warm_ms = 0.0;
    let mut bisected = Vec::new();
    let mut fork_ms = Vec::new();
    let t0 = Instant::now();
    let reports: Vec<CampaignReport> = cfgs
        .iter()
        .map(|cfg| {
            run_campaign(cfg, |event| match event {
                CampaignEvent::Warmed { wall_ms, .. } => warm_ms += wall_ms,
                CampaignEvent::VariantFinished { wall_ms, .. } if trace => fork_ms.push(wall_ms),
                CampaignEvent::VariantFinished { .. } => {}
                CampaignEvent::Bisected { seed, .. } => bisected.push(seed),
            })
        })
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();
    let mut cycles = 0;
    let mut fingerprints = Vec::new();
    for (cfg, report) in cfgs.iter().zip(&reports) {
        cycles += report.warm_cycles;
        fingerprints.push(format!("image={}", report.snapshot_bytes));
        for run in &report.runs {
            cycles += run.outcome.end_cycle - report.warm_cycles;
            if bisected.contains(&run.outcome.seed) {
                cycles += bisection_cycles(cfg, run.inject_at, run.first_divergence);
            }
            fingerprints.push(run.outcome.fingerprint());
        }
    }
    Rep {
        wall_s,
        warm_ms,
        cycles,
        bisections: bisected.len(),
        digest: fnv64(&fingerprints.join(" | ")),
        fork_ms,
        reports: keep_reports.then_some(reports),
    }
}

/// The stress topology of the `perf` snapshot probe: random, greedy and
/// DMA masters behind a 4-port HyperConnect with the protocol monitor
/// armed. It is the same for every seed, so the image and the process's
/// peak memory do not move with the seed.
fn stress_system() -> SocSystem<HyperConnect> {
    let mut memory = MemoryController::new(MemConfig::zcu102());
    memory.attach_monitor();
    let mut sys = SocSystem::new(HyperConnect::new(HcConfig::new(4)), memory);
    let random = |name, base, size, max_burst, gap, seed| {
        Box::new(RandomTraffic::new(
            name,
            base,
            1 << 20,
            size,
            max_burst,
            gap,
            seed,
        ))
    };
    sys.add_accelerator(random("rnd0", 0x1000_0000, BurstSize::B16, 64, 10, 1))
        .expect("port free");
    sys.add_accelerator(Box::new(BandwidthStealer::new(
        "steal",
        0x3000_0000,
        1 << 20,
        256,
        BurstSize::B16,
    )))
    .expect("port free");
    sys.add_accelerator(random("rnd1", 0x5000_0000, BurstSize::B4, 32, 50, 2))
        .expect("port free");
    sys.add_accelerator(Box::new(Dma::new("dma", DmaConfig::case_study())))
        .expect("port free");
    sys
}

/// Times `snapshot_bytes` and `restore_snapshot_bytes` on the stress
/// image and checks that every restore re-saves byte-identically.
fn persist(out: &mut Outcome) {
    let mut sys = stress_system();
    sys.run_for(STRESS_WINDOW);
    let (mut save_ms, mut restore_ms) = (Vec::new(), Vec::new());
    let mut image = Vec::new();
    for _ in 0..PERSIST_REPS {
        let t0 = Instant::now();
        image = sys.snapshot_bytes();
        save_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let mut restored = stress_system();
        let t1 = Instant::now();
        let ok = restored.restore_snapshot_bytes(&image).is_ok();
        restore_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        out.check(
            ok && restored.now() == STRESS_WINDOW && restored.snapshot_bytes() == image,
            || "stress snapshot does not round-trip".to_owned(),
        );
    }
    out.set("persist.image_bytes", image.len() as f64);
    out.set("persist.save_ms", min_of(&save_ms, |&t| t));
    out.set("persist.restore_ms", min_of(&restore_ms, |&t| t));
}

/// Runs the workload (see the module docs).
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let cfgs = configs(seed);
    println!(
        "fork_campaign: base seeds {PINNED_SEEDS:?}, {VARIANTS} variants of {} cycles each, \
         warmed to {}",
        cfgs[0].cycles, cfgs[0].warm_cycles
    );
    let mut out = Outcome::default();
    // First, while the allocator's heap is fresh: the stress image is the
    // process's largest allocation, and after the campaigns' threads
    // have churned the heap its peak would vary from run to run.
    persist(&mut out);
    let untraced_s = if trace { seconds / 2.0 } else { seconds };
    let mut first = true;
    let (warm, reps) = repeat(untraced_s, || {
        let r = rep(&cfgs, first, false);
        first = false;
        r
    });
    let reference = warm.digest;
    out.digest = reference;
    let reports = warm
        .reports
        .as_deref()
        .expect("the warm-up keeps its reports");
    let variants = || reports.iter().flat_map(|c| c.runs.iter());
    // Every repetition replays the same variants (the digests match),
    // so one repetition's are the operations attempted.
    for run in variants() {
        let violations = run.outcome.invariant_violations();
        out.attempted += 1;
        out.failed += u64::from(!violations.is_empty());
        for v in violations {
            eprintln!("variant seed {}: {v}", run.outcome.seed);
        }
    }
    for (i, r) in reps.iter().enumerate() {
        out.check(r.digest == reference, || {
            format!("repetition {i} digest differs")
        });
    }
    // Forking is sound only if a forked variant equals its cold replay.
    let k = (seed % cfgs.len() as u64) as usize;
    let forked = &reports[k].runs[0].outcome;
    let cold = run_variant_cold(&cfgs[k], forked.seed);
    out.attempted += 1;
    if cold.outcome.fingerprint() != forked.fingerprint() {
        out.failed += 1;
        out.problems
            .push(format!("campaign {k} variant 0: forked != cold replay"));
    }
    let rates: Vec<String> = reps
        .iter()
        .map(|r| format!("{:.3}", r.cycles as f64 / r.wall_s / 1e6))
        .collect();
    println!(
        "fork_campaign: Mcycles/s per repetition: {}",
        rates.join(" ")
    );
    out.set(
        "sim_mcycles_per_s",
        warm.cycles as f64 / min_of(&reps, |r| r.wall_s) / 1e6,
    );
    out.set("setup_s", min_of(&reps, |r| r.warm_ms) / 1e3);
    if !trace {
        return out;
    }

    let (_, treps) = repeat(seconds / 2.0, || rep(&cfgs, false, true));
    for (i, r) in treps.iter().enumerate() {
        out.check(r.digest == reference, || {
            format!("traced repetition {i} digest differs from the untraced one")
        });
    }
    let mut fork_ms: Vec<f64> = treps
        .iter()
        .flat_map(|r| r.fork_ms.iter().copied())
        .collect();
    let outcomes = || variants().map(|r| &r.outcome);
    let fastest = min_of(&treps, |r| r.wall_s);
    for (name, value) in [
        (
            "campaign.variants_per_s",
            (cfgs.len() * VARIANTS) as f64 / fastest,
        ),
        (
            "campaign.warm_ms",
            min_of(&treps, |r| r.warm_ms) / cfgs.len() as f64,
        ),
        ("campaign.fork_ms_p50", quantile(&mut fork_ms, 0.5)),
        ("campaign.fork_ms_p90", quantile(&mut fork_ms, 0.9)),
        ("campaign.bisections", warm.bisections as f64),
        (
            "campaign.victim_worst_cycles",
            outcomes().map(|o| o.victim_worst).max().unwrap_or(0) as f64,
        ),
        (
            "hypervisor.transitions",
            outcomes().map(|o| o.transitions.len()).sum::<usize>() as f64,
        ),
        (
            "hypervisor.resets",
            outcomes().map(|o| o.resets).sum::<u64>() as f64,
        ),
        (
            "hypervisor.dropped_subs",
            outcomes().map(|o| u64::from(o.dropped_subs)).sum::<u64>() as f64,
        ),
        ("trace.total_ms", fastest * 1e3),
        (
            "trace.overhead_ratio",
            fastest / min_of(&reps, |r| r.wall_s),
        ),
    ] {
        out.set(name, value);
    }
    out
}
