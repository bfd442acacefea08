//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed-loop batch on one process and one
//! simulation thread: it builds its inputs from `--seed`, runs one
//! untimed warm-up repetition, then repeats the same seeded work for
//! `--seconds` and reports each timing from the fastest repetition (see
//! [`min_of`]). `--trace 0` prints the end-to-end metrics of untraced
//! runs; `--trace 1` spends half the time on untraced repetitions and
//! half on traced ones (see [`trace`]) and prints the per-layer metrics. Every repetition's
//! simulated outcome is digested and checked against the warm-up's, the
//! traced digests against the untraced ones, and the default and
//! held-out seeds' against the digests pinned in `digests.txt`.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod fig5;
mod fork;
mod trace;
mod tree;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bench::Design;

/// Metrics `--trace 0` reports, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Metrics `--trace 1` reports, with their units. A layer a workload
/// never reaches reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("ha.ticks", "count"),
    ("ha.progress_ratio", "ratio"),
    ("ha.horizon_queries", "count"),
    ("ha.self_ms", "ms"),
    ("ha.jobs", "count"),
    ("hyperconnect.ticks", "count"),
    ("hyperconnect.progress_ratio", "ratio"),
    ("hyperconnect.horizon_queries", "count"),
    ("hyperconnect.self_ms", "ms"),
    ("mem.reads", "count"),
    ("mem.writes", "count"),
    ("mem.beats", "count"),
    ("mem.busy_ratio", "ratio"),
    ("topology.horizon_calls", "count"),
    ("topology.skipped_ratio", "ratio"),
    ("topology.skip_yield", "cycles"),
    ("topology.residual_ms", "ms"),
    ("axi.bridge_beats", "count"),
    ("observe.bare_mcycles_per_s", "Mcycles/s"),
    ("observe.observed_mcycles_per_s", "Mcycles/s"),
    ("observe.overhead_ratio", "ratio"),
    ("observe.ms_per_mcycle", "ms"),
    ("observe.checked_txns", "count"),
    ("observe.worst_read_cycles", "cycles"),
    ("persist.image_bytes", "bytes"),
    ("persist.save_ms", "ms"),
    ("persist.restore_ms", "ms"),
    ("campaign.variants_per_s", "1/s"),
    ("campaign.warm_ms", "ms"),
    ("campaign.fork_ms_p50", "ms"),
    ("campaign.fork_ms_p90", "ms"),
    ("campaign.bisections", "count"),
    ("campaign.victim_worst_cycles", "cycles"),
    ("hypervisor.transitions", "count"),
    ("hypervisor.resets", "count"),
    ("hypervisor.dropped_subs", "count"),
    ("trace.total_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.instant_pair_ns", "ns"),
];

/// The seed figures are quoted at. It and the held-out seed 7, which a
/// later claim must also hold on, have their digests pinned in
/// `digests.txt`.
const DEFAULT_SEED: u64 = 1;

/// `workload seed digest` lines.
const DIGESTS: &str = include_str!("../digests.txt");

/// Fewest measured repetitions, even when `--seconds` runs out first.
const MIN_REPS: usize = 3;

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name (units come from the tables above).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Digest of the simulated outcome of one repetition.
    pub digest: u64,
    /// Failed output checks.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Runs `rep` once untimed, then for `seconds` (and at least
/// [`MIN_REPS`] times); returns the warm-up result and the measured ones.
pub fn repeat<R>(seconds: f64, mut rep: impl FnMut() -> R) -> (R, Vec<R>) {
    let warm = rep();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || Instant::now() < deadline {
        reps.push(rep());
    }
    (warm, reps)
}

/// The `q`-quantile (nearest rank) of `values`.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// The smallest `f` over `reps`. Noise on a shared host only ever slows
/// a repetition down, so every host timing is its fastest repetition's.
pub fn min_of<R>(reps: &[R], f: impl Fn(&R) -> f64) -> f64 {
    reps.iter().map(f).fold(f64::INFINITY, f64::min)
}

/// FNV-1a, to pin long simulated digests as one number.
pub fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pinned_digest(workload: &str, seed: u64) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        if w != workload || s.parse() != Ok(seed) {
            return None;
        }
        u64::from_str_radix(d, 16).ok()
    })
}

/// Peak resident memory of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
}

/// The benchmark's accuracy statement: the HyperConnect model's Fig. 3(a)
/// per-channel latencies against the paper's published ones.
fn fig3a_error() -> [u64; 5] {
    const PAPER: [u64; 5] = [4, 4, 2, 2, 2];
    let m = bench::fig3a::measure(Design::HyperConnect);
    let model = [m.d_ar, m.d_aw, m.d_r, m.d_w, m.d_b];
    std::array::from_fn(|i| model[i].abs_diff(PAPER[i]))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <fig5_contention|tree100_sparse|fork_campaign> --seed <n> \
     --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let mut out = match args.workload.as_str() {
        "fig5_contention" => fig5::run(seed, seconds, trace),
        "tree100_sparse" => tree::run(seed, seconds, trace),
        "fork_campaign" => fork::run(seed, seconds, trace),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let error = fig3a_error();
    println!("fig3a HyperConnect |model - paper| cycles (AR AW R W B): {error:?}");
    out.check(error == [0; 5], || {
        format!("Fig. 3(a) model error {error:?}")
    });
    println!("digest {} {seed} {:016x}", args.workload, out.digest);
    if let Some(pinned) = pinned_digest(&args.workload, seed) {
        let digest = out.digest;
        out.check(digest == pinned, || {
            format!("digest {digest:016x} != pinned {pinned:016x}")
        });
    }
    if let (false, Some(mb)) = (trace, peak_rss_mb()) {
        out.set("peak_rss_mb", mb);
    }

    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            None if trace => 0.0,
            _ => {
                out.problems.push(format!("{name} was not measured"));
                0.0
            }
        };
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.problems.is_empty(),
        out.attempted,
        out.failed,
        fields.join(",")
    );
    ExitCode::SUCCESS
}
