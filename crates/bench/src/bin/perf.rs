//! `perf`: the simulator's own performance harness.
//!
//! Measures host-side throughput (simulated cycles per wall-clock
//! second) across the paper's scenario classes and emits
//! `BENCH_simulator.json` so the perf trajectory is tracked from PR to
//! PR:
//!
//! 1. **Fig. 3(a) goldens** — the channel-latency probes, re-checked
//!    against the paper constants (a warped pipeline fails the run).
//! 2. **Idle-heavy probe** — a single DMA against `MemConfig::zcu102()`
//!    that finishes early and leaves the window mostly idle; run under
//!    both schedulers to demonstrate the event-horizon speedup.
//! 3. **Figure sweeps** — the independent Fig. 3(b)/4/5 scenario points
//!    executed on `std::thread` workers, reporting per-point wall time,
//!    the per-figure worker count actually used, and the
//!    parallel-runner gain over serial execution.
//! 4. **100-node tree** — the [`bench::tree100`] scenario run under the
//!    naive oracle and then under activity-driven fast-forward, which
//!    is asserted byte-identical; `speedup` is the naive wall time over
//!    the fast-forward wall time. Whole cycles are almost never idle
//!    there, so the gain is fast-forward sleeping idle subtrees and
//!    idle accelerators inside busy cycles.
//!
//! Usage: `perf [--quick | --full] [--out PATH] [--workers N]
//! [--min-cycles-per-sec N]`
//!
//! `--workers N` sizes the figure-sweep thread pool (default: available
//! parallelism).
//!
//! Exits non-zero if the Fig. 3(a) goldens regress, the fast-forward
//! tree run diverges from the naive oracle, or the fast-forward idle-heavy
//! throughput falls below the `--min-cycles-per-sec` floor (the CI
//! perf-smoke gate).

#![cfg_attr(not(feature = "alloc-count"), forbid(unsafe_code))]

use std::sync::{Arc, Mutex};
use std::time::Instant;

use axi::lite::LiteBus;
use axi::observe::BoundReport;
use axi::types::BurstSize;
use axi::AxiInterconnect;
use axi_hyperconnect::{SchedulerMode, SocSystem};
use bench::{fig3a, fig3b, fig4, fig5, tree100, Design};
use ha::dma::{Dma, DmaConfig};
use ha::traffic::{BandwidthStealer, PeriodicReader, RandomTraffic};
use hyperconnect::{HcConfig, HyperConnect};
use hypervisor::HcDriver;
use mem::{MemConfig, MemoryController};
use sim::Cycle;

/// A counting wrapper around the system allocator, compiled only under
/// the `alloc-count` feature. The sole overhead is one relaxed atomic
/// increment per allocation — negligible precisely when the hot path
/// allocates nothing, which is the property the probe verifies.
#[cfg(feature = "alloc-count")]
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Heap allocations (incl. reallocations) since process start.
    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub struct CountingAlloc;

    // SAFETY: every method delegates directly to `System`, which
    // upholds the `GlobalAlloc` contract; the counter is a side effect.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

/// The global allocation count, when the counting allocator is armed.
fn alloc_count() -> Option<u64> {
    #[cfg(feature = "alloc-count")]
    {
        Some(counting_alloc::ALLOCS.load(std::sync::atomic::Ordering::Relaxed))
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        None
    }
}

/// One schedulable scenario point: a closure returning the simulated
/// cycle count it covered (approximate for the latency sweeps, where
/// the workload length is data-dependent).
struct Point {
    name: String,
    run: Box<dyn FnOnce() -> u64 + Send>,
}

struct PointResult {
    name: String,
    wall_ms: f64,
    cycles: u64,
}

struct FigureReport {
    figure: &'static str,
    /// Scheduler the scenario systems ran under.
    scheduler: &'static str,
    /// Worker threads the point pool actually used (≤ requested,
    /// never more than the number of points).
    workers: usize,
    points: Vec<PointResult>,
    wall_ms_parallel: f64,
    peak_rss_kb_after: u64,
}

impl FigureReport {
    fn wall_ms_serial_sum(&self) -> f64 {
        self.points.iter().map(|p| p.wall_ms).sum()
    }

    fn sim_cycles(&self) -> u64 {
        self.points.iter().map(|p| p.cycles).sum()
    }

    fn cycles_per_sec(&self) -> f64 {
        self.sim_cycles() as f64 / (self.wall_ms_parallel / 1e3).max(1e-9)
    }
}

fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Runs the points on a fixed-size `std::thread` worker pool and
/// returns the results in submission order.
fn run_parallel(
    figure: &'static str,
    scheduler: &'static str,
    pool_workers: usize,
    points: Vec<Point>,
) -> FigureReport {
    let workers = pool_workers.max(1).min(points.len().max(1));
    let n = points.len();
    let queue: Arc<Mutex<Vec<(usize, Point)>>> =
        Arc::new(Mutex::new(points.into_iter().enumerate().rev().collect()));
    let results: Arc<Mutex<Vec<Option<PointResult>>>> =
        Arc::new(Mutex::new((0..n).map(|_| None).collect()));

    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let queue = Arc::clone(&queue);
            let results = Arc::clone(&results);
            scope.spawn(move || loop {
                let Some((idx, point)) = queue.lock().unwrap().pop() else {
                    return;
                };
                let t0 = Instant::now();
                let cycles = (point.run)();
                let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
                results.lock().unwrap()[idx] = Some(PointResult {
                    name: point.name,
                    wall_ms,
                    cycles,
                });
            });
        }
    });
    let wall_ms_parallel = start.elapsed().as_secs_f64() * 1e3;

    let points = Arc::try_unwrap(results)
        .ok()
        .expect("all workers joined")
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("every point ran"))
        .collect();
    FigureReport {
        figure,
        scheduler,
        workers,
        points,
        wall_ms_parallel,
        peak_rss_kb_after: peak_rss_kb(),
    }
}

/// The idle-heavy acceptance scenario: a single DMA reader that
/// finishes its jobs early in the window, leaving the SoC idle for the
/// remainder — the exact case event-horizon scheduling targets.
fn idle_heavy(mode: SchedulerMode, window: Cycle) -> (f64, u64, Cycle, u64) {
    let mut sys = SocSystem::new(
        HyperConnect::new(HcConfig::new(1)),
        MemoryController::new(MemConfig::zcu102()),
    );
    sys.set_scheduler(mode);
    sys.add_accelerator(Box::new(Dma::new(
        "probe",
        DmaConfig {
            jobs: Some(4),
            ..DmaConfig::reader(256 * 1024, 16, BurstSize::B16)
        },
    )))
    .unwrap();
    let t0 = Instant::now();
    sys.run_for(window);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (
        wall_ms,
        sys.accelerator(0).unwrap().jobs_completed(),
        sys.skipped_cycles(),
        sys.memory().stats().bytes_served,
    )
}

/// Bare/observed pairs the observability probe times. One pair swings
/// by tens of percent from run to run, so the probe reports medians.
const OBS_PAIRS: usize = 5;

/// The median of an odd-length sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The observability probe: the quickstart scenario (two 64 KiB-per-job
/// DMAs behind a 2-port HyperConnect against `MemConfig::zcu102()`) run
/// to completion with and without the metrics registry + runtime bound
/// monitor armed — reporting the host-side cost of always-on
/// observability and the bound monitor's verdict on real traffic.
fn observed_probe(observe: bool) -> (f64, Cycle, Option<BoundReport>) {
    let mut memory = MemoryController::new(MemConfig::zcu102());
    memory.memory_mut().fill_pattern(0x1000_0000, 64 * 1024);
    let mut sys = SocSystem::new(HyperConnect::new(HcConfig::new(2)), memory);
    if observe {
        sys.enable_observability();
    }
    for (name, src, dst) in [
        ("dma0", 0x1000_0000u64, 0x2000_0000u64),
        ("dma1", 0x3000_0000, 0x3800_0000),
    ] {
        sys.add_accelerator(Box::new(Dma::new(
            name,
            DmaConfig {
                src_base: src,
                dst_base: dst,
                read_bytes: 64 * 1024,
                write_bytes: 64 * 1024,
                jobs: Some(8),
                ..DmaConfig::case_study()
            },
        )))
        .unwrap();
    }
    let t0 = Instant::now();
    let outcome = sys.run_until_done(10_000_000);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(outcome.is_done(), "observability probe did not finish");
    (wall_ms, sys.now(), sys.interconnect_ref().bound_report())
}

/// The QoS regulation probe: the mixed-criticality scenario from the
/// `qos_regulation` example (a hard-RT periodic victim plus three
/// free-running greedy DMA readers on a 4-port HyperConnect) run bare
/// and with per-port credit regulators programmed over AXI-Lite —
/// reporting the host-side cost of the regulation hot path, the total
/// throttle events, and the tightened-bound verdict on real traffic.
fn qos_probe(regulate: bool, window: Cycle) -> (f64, u64, u64, u64, u64, usize) {
    const BASE: u64 = 0xA000_0000;
    let hc = HyperConnect::new(HcConfig::new(4));
    let mut bus = LiteBus::new();
    bus.map(BASE, 0x1000, hc.regs().clone());
    let drv = HcDriver::probe(&bus, BASE).expect("HyperConnect at BASE");
    if regulate {
        drv.set_regulation_window(256).unwrap();
        for port in 1..4 {
            drv.set_rate(port, 2).unwrap();
            drv.set_reg_burst(port, 2).unwrap();
            drv.set_out_cap(port, 2).unwrap();
        }
    }
    let mut sys = SocSystem::new(hc, MemoryController::new(MemConfig::zcu102()));
    sys.enable_observability();
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "victim",
        0x1000_0000,
        1 << 20,
        16,
        BurstSize::B16,
        200,
    )))
    .unwrap();
    for i in 0..3u64 {
        sys.add_accelerator(Box::new(Dma::new(
            format!("swarm{i}"),
            DmaConfig {
                src_base: 0x3000_0000 + i * 0x0100_0000,
                jobs: None,
                ..DmaConfig::reader(256 * 1024, 16, BurstSize::B16)
            },
        )))
        .unwrap();
    }
    let t0 = Instant::now();
    sys.run_for(window);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let throttle: u64 = (1..4)
        .map(|p| u64::from(drv.throttle_events(p).unwrap()))
        .sum();
    let mon = sys
        .interconnect_ref()
        .bound_monitor()
        .expect("observability armed");
    (
        wall_ms,
        sys.accelerator(0).unwrap().jobs_completed(),
        throttle,
        mon.read_bound(),
        mon.port_read_bound(0),
        mon.violations().len(),
    )
}

/// The snapshot probe: the stress topology (four mixed masters — two
/// random-traffic generators, a greedy stealer and the case-study DMA —
/// behind a 4-port HyperConnect with the protocol monitor armed) frozen
/// after `window` cycles. Reports the `hcsim-snapshot/v1` image size,
/// the save and restore wall times, and whether the round-trip is
/// canonical (a restored system re-saves to byte-identical bytes).
fn snapshot_probe(window: Cycle) -> (f64, f64, usize, bool) {
    fn build() -> SocSystem<HyperConnect> {
        let mut memory = MemoryController::new(MemConfig::zcu102());
        memory.attach_monitor();
        let mut sys = SocSystem::new(HyperConnect::new(HcConfig::new(4)), memory);
        sys.add_accelerator(Box::new(RandomTraffic::new(
            "rnd0",
            0x1000_0000,
            1 << 20,
            BurstSize::B16,
            64,
            10,
            1,
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
        sys.add_accelerator(Box::new(RandomTraffic::new(
            "rnd1",
            0x5000_0000,
            1 << 20,
            BurstSize::B4,
            32,
            50,
            2,
        )))
        .unwrap();
        sys.add_accelerator(Box::new(Dma::new("dma", DmaConfig::case_study())))
            .unwrap();
        sys
    }
    let mut sys = build();
    sys.run_for(window);
    let t0 = Instant::now();
    let bytes = sys.snapshot_bytes();
    let save_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut restored = build();
    let t1 = Instant::now();
    restored
        .restore_snapshot_bytes(&bytes)
        .expect("stress snapshot restores into a fresh build");
    let restore_ms = t1.elapsed().as_secs_f64() * 1e3;
    let roundtrip = restored.now() == window && restored.snapshot_bytes() == bytes;
    (save_ms, restore_ms, bytes.len(), roundtrip)
}

fn json_points(points: &[PointResult]) -> String {
    points
        .iter()
        .map(|p| {
            format!(
                "{{\"name\":\"{}\",\"wall_ms\":{:.3},\"sim_cycles\":{},\"cycles_per_sec\":{:.0}}}",
                p.name,
                p.wall_ms,
                p.cycles,
                p.cycles as f64 / (p.wall_ms / 1e3).max(1e-9)
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_simulator.json".to_string();
    let mut floor: f64 = 0.0;
    let mut mode = "default";
    let mut workers_override: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => mode = "quick",
            "--full" => mode = "full",
            "--out" => {
                i += 1;
                out_path = args[i].clone();
            }
            "--workers" => {
                i += 1;
                workers_override = Some(args[i].parse().expect("numeric worker count"));
            }
            "--min-cycles-per-sec" => {
                i += 1;
                floor = args[i].parse().expect("numeric floor");
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let pool_workers = workers_override.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
    });
    let (window, repeats, idle_window, tree_cycles): (Cycle, u64, Cycle, Cycle) = match mode {
        "quick" => (1_000_000, 2, 2_000_000, 150_000),
        "full" => (
            fig4::DEFAULT_WINDOW,
            5,
            20_000_000,
            2 * tree100::DEFAULT_CYCLES,
        ),
        _ => (3_000_000, 3, 5_000_000, tree100::DEFAULT_CYCLES),
    };

    // 1. Fig. 3(a) goldens — fail fast on a warped pipeline.
    let t0 = Instant::now();
    let lat = fig3a::measure(Design::HyperConnect);
    let fig3a_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let goldens_ok = (lat.d_ar, lat.d_aw, lat.d_r, lat.d_w, lat.d_b) == (4, 4, 2, 2, 2);
    println!(
        "fig3a: d_AR={} d_AW={} d_R={} d_W={} d_B={} ({})",
        lat.d_ar,
        lat.d_aw,
        lat.d_r,
        lat.d_w,
        lat.d_b,
        if goldens_ok { "golden" } else { "REGRESSED" }
    );

    // 2. Idle-heavy probe, naive vs fast-forward.
    let (naive_ms, naive_jobs, _, naive_bytes) = idle_heavy(SchedulerMode::Naive, idle_window);
    let (ff_ms, ff_jobs, skipped, ff_bytes) = idle_heavy(SchedulerMode::FastForward, idle_window);
    assert_eq!(
        (naive_jobs, naive_bytes),
        (ff_jobs, ff_bytes),
        "schedulers diverged on the idle-heavy probe"
    );
    let speedup = naive_ms / ff_ms.max(1e-9);
    let ff_cps = idle_window as f64 / (ff_ms / 1e3).max(1e-9);
    let naive_cps = idle_window as f64 / (naive_ms / 1e3).max(1e-9);
    println!(
        "idle-heavy ({idle_window} cycles): naive {naive_ms:.1} ms ({naive_cps:.2e} c/s) \
         vs fast-forward {ff_ms:.1} ms ({ff_cps:.2e} c/s) — {speedup:.1}x, {skipped} skipped"
    );

    // 3. Observability probe: instrumented vs bare runs of the same
    // scenario, alternating, plus the runtime bound monitor's verdict.
    // The overhead is the median of the per-pair ratios.
    let (mut bare, mut observed, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..OBS_PAIRS {
        let (base_ms, _, _) = observed_probe(false);
        let (obs_ms, obs_cycles, report) = observed_probe(true);
        bare.push(base_ms);
        observed.push(obs_ms);
        ratios.push(obs_ms / base_ms.max(1e-9));
        last = Some((obs_cycles, report));
    }
    let (obs_cycles, report) = last.expect("at least one pair");
    let report = report.expect("observability armed");
    let (base_ms, obs_ms, obs_overhead) = (median(bare), median(observed), median(ratios));
    println!(
        "observability ({obs_cycles} cycles, median of {OBS_PAIRS} pairs): bare {base_ms:.1} ms \
         vs observed {obs_ms:.1} ms ({obs_overhead:.2}x), {} reads / {} writes checked, \
         {} violations",
        report.checked_reads, report.checked_writes, report.violations
    );

    // 3b. Allocation probe: the contended Fig. 3(b) point (HyperConnect,
    // 4 MiB — a DMA reader saturating the R channel back-to-back) run
    // serially under the counting allocator. Each run builds a fresh
    // system, so the count includes construction and ring growth to
    // working occupancy; amortized over the ~1 M simulated cycles a
    // zero-alloc steady state shows up as allocs_per_sim_cycle << 1.
    let probe_bytes = *fig3b::SIZES.last().expect("fig3b has sizes");
    let alloc_probe_json = match alloc_count() {
        Some(before) => {
            let (_, mean) = fig3b::access_stats(Design::HyperConnect, probe_bytes, 1);
            let probe_cycles = mean.max(1.0) as u64;
            let allocs = alloc_count().expect("counter armed") - before;
            let per_cycle = allocs as f64 / probe_cycles as f64;
            println!(
                "alloc probe (fig3b HyperConnect_{probe_bytes}B): {allocs} allocs over \
                 {probe_cycles} cycles = {per_cycle:.4} allocs/sim-cycle"
            );
            format!(
                "{{\"enabled\":true,\"scenario\":\"fig3b HyperConnect_{probe_bytes}B, serial\",\
                 \"allocs\":{allocs},\"sim_cycles\":{probe_cycles},\
                 \"allocs_per_sim_cycle\":{per_cycle:.6}}}"
            )
        }
        None => "{\"enabled\":false}".to_string(),
    };

    // 3c. QoS regulation probe: the mixed-criticality scenario bare vs
    // with per-port credit regulators armed, reporting the host-side
    // cost of the regulation hot path and the tightened-bound verdict.
    let qos_window: Cycle = match mode {
        "quick" => 60_000,
        "full" => 400_000,
        _ => 200_000,
    };
    let (qos_bare_ms, qos_bare_jobs, _, _, _, qos_bare_violations) = qos_probe(false, qos_window);
    let (qos_reg_ms, qos_reg_jobs, qos_throttle, qos_global, qos_bound, qos_violations) =
        qos_probe(true, qos_window);
    let qos_overhead = qos_reg_ms / qos_bare_ms.max(1e-9);
    let qos_cps = qos_window as f64 / (qos_reg_ms / 1e3).max(1e-9);
    println!(
        "qos ({qos_window} cycles): bare {qos_bare_ms:.1} ms vs regulated {qos_reg_ms:.1} ms \
         ({qos_overhead:.2}x, {qos_cps:.2e} c/s), victim bound {qos_global} -> {qos_bound}, \
         {qos_throttle} throttle events, {qos_violations} violations"
    );

    // 3d. Snapshot probe: freeze the stress topology mid-run, time the
    // hcsim-snapshot/v1 save and the restore into a fresh build, and
    // verify the round-trip is canonical.
    let snap_window = qos_window;
    let (snap_save_ms, snap_restore_ms, snap_bytes, snap_roundtrip) = snapshot_probe(snap_window);
    println!(
        "snapshot (stress @ {snap_window} cycles): {snap_bytes} B, save {snap_save_ms:.2} ms, \
         restore {snap_restore_ms:.2} ms{}",
        if snap_roundtrip {
            ""
        } else {
            " — ROUND-TRIP DIVERGED"
        }
    );

    // 4. Figure sweeps on the parallel runner.
    let mut fig3b_points: Vec<Point> = Vec::new();
    for design in Design::BOTH {
        for bytes in fig3b::SIZES {
            fig3b_points.push(Point {
                name: format!("{}_{}B", design.name(), bytes),
                run: Box::new(move || {
                    let (_, mean) = fig3b::access_stats(design, bytes, repeats);
                    (mean * repeats as f64) as u64
                }),
            });
        }
    }
    let fig3b_report = run_parallel("fig3b", "default", pool_workers, fig3b_points);

    let mut fig4_points: Vec<Point> = Vec::new();
    for design in Design::BOTH {
        fig4_points.push(Point {
            name: format!("chaidnn_{}", design.name()),
            run: Box::new(move || {
                fig4::chaidnn_isolation(design, window);
                window
            }),
        });
        fig4_points.push(Point {
            name: format!("dma_{}", design.name()),
            run: Box::new(move || {
                fig4::dma_isolation(design, window);
                window
            }),
        });
    }
    let fig4_report = run_parallel("fig4", "default", pool_workers, fig4_points);

    let mut fig5_points: Vec<Point> = vec![
        Point {
            name: "isolation".into(),
            run: Box::new(move || {
                fig5::isolation(window);
                2 * window
            }),
        },
        Point {
            name: "sc_contention".into(),
            run: Box::new(move || {
                fig5::smartconnect_contention(window);
                window
            }),
        },
    ];
    for share in fig5::SHARES {
        fig5_points.push(Point {
            name: format!("hc_{share}_{}", 100 - share),
            run: Box::new(move || {
                fig5::hyperconnect_contention(share, window);
                window
            }),
        });
    }
    let fig5_report = run_parallel("fig5", "default", pool_workers, fig5_points);

    for report in [&fig3b_report, &fig4_report, &fig5_report] {
        println!(
            "{}: {} points on {} workers ({}), {:.1} ms parallel ({:.1} ms serial-sum, {:.2}x), \
             {:.2e} cycles/s",
            report.figure,
            report.points.len(),
            report.workers,
            report.scheduler,
            report.wall_ms_parallel,
            report.wall_ms_serial_sum(),
            report.wall_ms_serial_sum() / report.wall_ms_parallel.max(1e-9),
            report.cycles_per_sec()
        );
    }

    // 5. The 100-node tree: naive oracle, then activity-driven
    // fast-forward, byte-identity enforced.
    let tree_naive = tree100::run(SchedulerMode::Naive, tree_cycles);
    let tree_seq = tree100::run(SchedulerMode::FastForward, tree_cycles);
    let naive_cps = tree_cycles as f64 / (tree_naive.wall_ms / 1e3).max(1e-9);
    let seq_cps = tree_cycles as f64 / (tree_seq.wall_ms / 1e3).max(1e-9);
    let tree_speedup = tree_naive.wall_ms / tree_seq.wall_ms.max(1e-9);
    let tree_identical = tree_seq.fingerprint == tree_naive.fingerprint;
    println!(
        "tree100 ({} nodes, {tree_cycles} cycles): fast-forward {:.1} ms ({seq_cps:.2e} c/s, \
         {} skipped), naive {:.1} ms ({naive_cps:.2e} c/s), {tree_speedup:.2}x{}",
        tree100::node_count(),
        tree_seq.wall_ms,
        tree_seq.skipped,
        tree_naive.wall_ms,
        if tree_identical { "" } else { " — DIVERGED" }
    );

    // 6. Emit BENCH_simulator.json.
    let figures_json = [&fig3b_report, &fig4_report, &fig5_report]
        .iter()
        .map(|r| {
            format!(
                "{{\"figure\":\"{}\",\"scheduler\":\"{}\",\"workers\":{},\
                 \"wall_ms_parallel\":{:.3},\"wall_ms_serial_sum\":{:.3},\
                 \"parallel_speedup\":{:.3},\"sim_cycles\":{},\"cycles_per_sec\":{:.0},\
                 \"peak_rss_kb_after\":{},\"points\":[{}]}}",
                r.figure,
                r.scheduler,
                r.workers,
                r.wall_ms_parallel,
                r.wall_ms_serial_sum(),
                r.wall_ms_serial_sum() / r.wall_ms_parallel.max(1e-9),
                r.sim_cycles(),
                r.cycles_per_sec(),
                r.peak_rss_kb_after,
                json_points(&r.points)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let obs_report = report.to_json();
    let json = format!(
        "{{\n\
         \"schema\":\"axi-hyperconnect/bench-simulator/v1\",\n\
         \"mode\":\"{mode}\",\n\
         \"workers\":{pool_workers},\n\
         \"fig3a\":{{\"wall_ms\":{fig3a_wall_ms:.3},\"goldens_ok\":{goldens_ok}}},\n\
         \"idle_heavy\":{{\"scenario\":\"single 256 KiB x4 DMA reader vs zcu102, {idle_window}-cycle window\",\
         \"sim_cycles\":{idle_window},\
         \"naive_wall_ms\":{naive_ms:.3},\"naive_cycles_per_sec\":{naive_cps:.0},\
         \"fast_forward_wall_ms\":{ff_ms:.3},\"fast_forward_cycles_per_sec\":{ff_cps:.0},\
         \"skipped_cycles\":{skipped},\"speedup\":{speedup:.2}}},\n\
         \"observability\":{{\"scenario\":\"quickstart 2x8 64 KiB DMA jobs vs zcu102, run to completion\",\
         \"sim_cycles\":{obs_cycles},\"pairs\":{OBS_PAIRS},\
         \"bare_wall_ms\":{base_ms:.3},\"observed_wall_ms\":{obs_ms:.3},\
         \"overhead\":{obs_overhead:.3},\"bound_monitor\":{obs_report}}},\n\
         \"alloc_probe\":{alloc_probe_json},\n\
         \"qos\":{{\"scenario\":\"hard-RT victim + 3 greedy DMA readers on 4 ports, \
         {qos_window}-cycle window, swarm regulated to 2 credits / 256 cycles, 2 outstanding\",\
         \"sim_cycles\":{qos_window},\
         \"bare_wall_ms\":{qos_bare_ms:.3},\"regulated_wall_ms\":{qos_reg_ms:.3},\
         \"regulated_cycles_per_sec\":{qos_cps:.0},\"overhead\":{qos_overhead:.3},\
         \"victim_jobs_bare\":{qos_bare_jobs},\"victim_jobs_regulated\":{qos_reg_jobs},\
         \"throttle_events\":{qos_throttle},\
         \"victim_bound_unregulated\":{qos_global},\"victim_bound_tightened\":{qos_bound},\
         \"bound_violations\":{qos_violations}}},\n\
         \"snapshot\":{{\"scenario\":\"stress 4-master topology frozen after {snap_window} \
         cycles, saved + restored into a fresh build\",\
         \"bytes\":{snap_bytes},\"save_wall_ms\":{snap_save_ms:.3},\
         \"restore_wall_ms\":{snap_restore_ms:.3},\
         \"roundtrip_byte_identical\":{snap_roundtrip}}},\n\
         \"figures\":[{figures_json}],\n\
         \"tree100\":{{\"scenario\":\"{} nodes: 1 busy + 6 periodic clusters behind latency-{} \
         bridges, {tree_cycles}-cycle window\",\
         \"nodes\":{},\"sim_cycles\":{tree_cycles},\
         \"sequential_wall_ms\":{:.3},\"sequential_cycles_per_sec\":{seq_cps:.0},\
         \"sequential_skipped\":{},\
         \"naive_wall_ms\":{:.3},\"naive_cycles_per_sec\":{naive_cps:.0},\
         \"speedup\":{tree_speedup:.3},\"byte_identical\":{tree_identical},\
         \"speedup_basis\":\"naive oracle wall time over activity-driven fast-forward wall \
         time, one thread\"}},\n\
         \"peak_rss_kb\":{}\n\
         }}\n",
        tree100::node_count(),
        tree100::BRIDGE_LATENCY,
        tree100::node_count(),
        tree_seq.wall_ms,
        tree_seq.skipped,
        tree_naive.wall_ms,
        peak_rss_kb()
    );
    std::fs::write(&out_path, json).expect("write BENCH_simulator.json");
    println!("wrote {out_path}");

    // 7. Gates.
    if !goldens_ok {
        eprintln!("FAIL: Fig. 3(a) channel-latency goldens regressed");
        std::process::exit(1);
    }
    if !tree_identical {
        eprintln!("FAIL: the fast-forward tree100 run diverged from the naive oracle");
        std::process::exit(1);
    }
    if report.violations > 0 {
        eprintln!(
            "FAIL: runtime bound monitor recorded {} violations (worst read {} vs bound {}, \
             worst write {} vs bound {})",
            report.violations,
            report.worst_read,
            report.read_bound,
            report.worst_write,
            report.write_bound
        );
        std::process::exit(1);
    }
    if qos_bare_violations + qos_violations > 0 || qos_bound >= qos_global || qos_throttle == 0 {
        eprintln!(
            "FAIL: QoS probe regressed — {qos_bare_violations}+{qos_violations} bound \
             violations, victim bound {qos_global} -> {qos_bound}, {qos_throttle} throttle events"
        );
        std::process::exit(1);
    }
    if !snap_roundtrip {
        eprintln!("FAIL: snapshot probe round-trip was not byte-identical");
        std::process::exit(1);
    }
    if floor > 0.0 && ff_cps < floor {
        eprintln!(
            "FAIL: fast-forward idle-heavy throughput {ff_cps:.0} c/s below floor {floor:.0}"
        );
        std::process::exit(1);
    }
}
