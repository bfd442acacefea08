//! Transaction-level observability: hop events, a metrics registry and
//! bound-violation records.
//!
//! The paper's central claim is *predictability* — fixed per-channel
//! propagation latencies (Fig. 3a) and an analyzable worst-case service
//! bound (§V-B). This module supplies the vocabulary that turns the
//! claim into a continuously checked runtime property:
//!
//! * every transaction accepted by an observed interconnect gets a
//!   unique `uid` (stamped on its address beat and propagated by burst
//!   splitting and by the memory controller onto R/B responses);
//! * the pipeline stages emit [`ObsEvent`]s as the transaction crosses
//!   each hop (ingest, staging, crossbar grant, master port, delivery);
//! * a [`MetricsRegistry`] folds the event stream into per-port,
//!   per-channel latency/histogram/bandwidth aggregates plus
//!   queue-occupancy gauges, and keeps per-transaction hop histories;
//! * a bound monitor (in the `hyperconnect` crate, where the analytical
//!   model lives) cross-checks the same stream against the closed-form
//!   bounds and files [`BoundViolation`]s with full hop history.
//!
//! Everything here is plain data: the event producers buffer events
//! internally and the interconnect drains them once per cycle, so the
//! whole system stays `Send` and works unchanged under both the naive
//! and the fast-forward scheduler (events only occur on progress cycles,
//! which the fast-forward scheduler never skips).

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use sim::stats::{BandwidthMeter, Gauge, Histogram, LatencyStat};
use sim::Cycle;

/// Latency-histogram bucket width (cycles) used by [`ChannelMetrics`].
pub const HIST_BUCKET_WIDTH: u64 = 8;
/// Latency-histogram bucket count used by [`ChannelMetrics`]; samples at
/// or above `HIST_BUCKET_WIDTH * HIST_BUCKETS` land in the explicit
/// overflow bucket.
pub const HIST_BUCKETS: usize = 64;
/// How many completed per-transaction hop histories the registry
/// retains (a ring of the most recent completions).
pub const COMPLETED_RING: usize = 32;

/// The five AXI channels, as seen by the observability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsChannel {
    /// Read-address channel.
    Ar,
    /// Write-address channel.
    Aw,
    /// Write-data channel.
    W,
    /// Read-data channel.
    R,
    /// Write-response channel.
    B,
}

impl ObsChannel {
    /// Lower-case channel name (JSON key).
    pub fn name(self) -> &'static str {
        match self {
            ObsChannel::Ar => "ar",
            ObsChannel::Aw => "aw",
            ObsChannel::W => "w",
            ObsChannel::R => "r",
            ObsChannel::B => "b",
        }
    }
}

/// A pipeline hop a transaction (or one of its sub-transactions) can
/// cross. Hops are emitted in this order for the request path and in
/// reverse for responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hop {
    /// The originating master pushed the beat into the slave port
    /// (reconstructed from the beat's `issued_at` stamp).
    Issued,
    /// The Transaction Supervisor popped the request from the slave
    /// eFIFO (uid assignment point).
    TsAccepted,
    /// A sub-transaction entered the TS issue stage (reservation and
    /// outstanding checks passed — the reference point for the service
    /// bound).
    TsStaged,
    /// The EXBAR arbiter granted the sub-transaction.
    ExbarGranted,
    /// The beat was pushed into the master eFIFO toward memory.
    MemVisible,
    /// The memory controller emitted the response beat (reconstructed
    /// from the response's `hopped_at` stamp).
    MemResponded,
    /// The response was delivered back into the slave port.
    Delivered,
    /// The sub-transaction was force-flushed by a blown quiescent-drain
    /// deadline and will never complete (dropped-transaction
    /// accounting; `sub_end` marks drops that had already been staged).
    Dropped,
}

impl Hop {
    /// Short hop name for rendering violations and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Hop::Issued => "issued",
            Hop::TsAccepted => "ts_accepted",
            Hop::TsStaged => "ts_staged",
            Hop::ExbarGranted => "exbar_granted",
            Hop::MemVisible => "mem_visible",
            Hop::MemResponded => "mem_responded",
            Hop::Delivered => "delivered",
            Hop::Dropped => "dropped",
        }
    }
}

/// One timestamped hop in a transaction's history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopStamp {
    /// Which hop was crossed.
    pub hop: Hop,
    /// On which channel.
    pub channel: ObsChannel,
    /// Cycle of the crossing.
    pub cycle: Cycle,
}

/// One observability event, emitted by a pipeline stage when a beat
/// crosses a hop. Producers buffer these internally; the owning
/// interconnect drains them once per tick into its [`MetricsRegistry`]
/// and bound monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsEvent {
    /// Observability transaction ID (0 only for W-data events, whose
    /// beats carry no uid; those events carry an explicit `port`).
    pub uid: u64,
    /// Slave port the transaction entered through, when the emitting
    /// stage knows it (`None` at the shared master port, where the
    /// registry resolves the port via `uid`).
    pub port: Option<usize>,
    /// Channel the beat travelled on.
    pub channel: ObsChannel,
    /// Hop that was crossed.
    pub hop: Hop,
    /// Cycle the beat was pushed at this hop (it becomes visible at the
    /// hop's output one queue-latency later).
    pub cycle: Cycle,
    /// The measurement reference carried by the beat: `issued_at` for
    /// request channels, `hopped_at` for response channels.
    pub ref_cycle: Cycle,
    /// Payload bytes moved by this beat (0 for pure control hops).
    pub bytes: u64,
    /// Whether this event completes one sub-transaction.
    pub sub_end: bool,
    /// Whether this event completes the whole (pre-split) transaction.
    pub txn_end: bool,
}

/// Per-transaction record: identity, totals and the hop history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnRecord {
    /// Observability transaction ID.
    pub uid: u64,
    /// Slave port of origin.
    pub port: usize,
    /// Write (AW/W/B) or read (AR/R) transaction.
    pub is_write: bool,
    /// Cycle the master issued the address beat.
    pub issued_at: Cycle,
    /// Cycle the response completed at the slave port (output-visible),
    /// `None` while in flight.
    pub completed_at: Option<Cycle>,
    /// Total payload bytes of the burst.
    pub bytes: u64,
    /// Timestamped hops crossed so far, in order.
    pub hops: Vec<HopStamp>,
}

/// Latency + distribution + bandwidth aggregate for one channel of one
/// port.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelMetrics {
    /// Min/max/mean of the channel's observed latency.
    pub latency: LatencyStat,
    /// Latency distribution (bucket width [`HIST_BUCKET_WIDTH`]).
    pub histogram: Histogram,
    /// Payload bytes moved over the channel.
    pub bandwidth: BandwidthMeter,
}

impl Default for ChannelMetrics {
    fn default() -> Self {
        Self {
            latency: LatencyStat::new(),
            histogram: Histogram::new(HIST_BUCKET_WIDTH, HIST_BUCKETS),
            bandwidth: BandwidthMeter::new(),
        }
    }
}

impl ChannelMetrics {
    /// Records one channel traversal: `latency` cycles, moving `bytes`
    /// payload bytes, completing at cycle `now`.
    pub fn record(&mut self, now: Cycle, latency: u64, bytes: u64) {
        self.latency.record(latency);
        self.histogram.record(latency);
        if bytes > 0 {
            self.bandwidth.record(now, bytes);
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"count\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"overflow\":{},\"bytes\":{}}}",
            self.latency.count(),
            json_opt_u64(self.latency.min()),
            json_opt_u64(self.latency.max()),
            json_opt_f64(self.latency.mean()),
            json_opt_u64(self.histogram.quantile(0.5)),
            json_opt_u64(self.histogram.quantile(0.99)),
            self.histogram.overflow(),
            self.bandwidth.bytes(),
        )
    }
}

/// Metrics of one port's credit regulator (QoS traffic regulation).
/// Present only on ports with an active regulator so the flat schema
/// stays byte-identical when regulation is disabled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegulatorMetrics {
    /// Throttle events: rising edges of the regulator's blocked state
    /// (credit exhaustion or outstanding-transaction cap).
    pub throttle_events: u64,
    /// Stored (banked) read-lane credits. Stored — not effective —
    /// credits keep the gauge scheduler-invariant: stored state only
    /// changes at cycles every scheduler executes.
    pub read_credits: Gauge,
    /// Stored write-lane credits.
    pub write_credits: Gauge,
}

impl RegulatorMetrics {
    fn json(&self) -> String {
        format!(
            "{{\"throttle_events\":{},\
             \"read_credits\":{{\"current\":{},\"peak\":{}}},\
             \"write_credits\":{{\"current\":{},\"peak\":{}}}}}",
            self.throttle_events,
            self.read_credits.current(),
            self.read_credits.peak(),
            self.write_credits.current(),
            self.write_credits.peak(),
        )
    }
}

/// All metrics of one slave port.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PortMetrics {
    /// Read-address channel (issue to master-port-visible).
    pub ar: ChannelMetrics,
    /// Write-address channel (issue to master-port-visible).
    pub aw: ChannelMetrics,
    /// Write-data channel (issue to master-port-visible).
    pub w: ChannelMetrics,
    /// Read-data channel (memory emit to slave-port-visible).
    pub r: ChannelMetrics,
    /// Write-response channel (memory emit to slave-port-visible).
    pub b: ChannelMetrics,
    /// End-to-end read transactions: issue to last data visible.
    pub read_txns: LatencyStat,
    /// End-to-end write transactions: issue to response visible.
    pub write_txns: LatencyStat,
    /// Slave eFIFO occupancy (sum over the five channel queues).
    pub efifo_occupancy: Gauge,
    /// Credit-regulator metrics; `None` while the port is unregulated
    /// (the JSON snapshot then omits the section entirely).
    pub regulator: Option<RegulatorMetrics>,
}

impl PortMetrics {
    fn channel_mut(&mut self, c: ObsChannel) -> &mut ChannelMetrics {
        match c {
            ObsChannel::Ar => &mut self.ar,
            ObsChannel::Aw => &mut self.aw,
            ObsChannel::W => &mut self.w,
            ObsChannel::R => &mut self.r,
            ObsChannel::B => &mut self.b,
        }
    }

    /// Read-only access to one channel's metrics.
    pub fn channel(&self, c: ObsChannel) -> &ChannelMetrics {
        match c {
            ObsChannel::Ar => &self.ar,
            ObsChannel::Aw => &self.aw,
            ObsChannel::W => &self.w,
            ObsChannel::R => &self.r,
            ObsChannel::B => &self.b,
        }
    }
}

/// Multiply-shift hasher for the in-flight table's uid keys. uids
/// (`(seq << 10) | (port + 1)`) are unique already; the multiply mixes
/// every key bit into the high half of the product and the fold brings
/// that down into the low bits the table indexes by.
#[derive(Debug, Clone, Copy, Default)]
struct UidHasher(u64);

impl Hasher for UidHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, uid: u64) {
        self.0 = uid.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// An in-flight transaction: its record plus the cycle of its most
/// recent `MemResponded` stamp, so the per-beat dedupe is one compare.
#[derive(Debug, Clone, PartialEq)]
struct Inflight {
    rec: TxnRecord,
    last_mem_responded: Option<Cycle>,
}

impl Inflight {
    fn new(rec: TxnRecord) -> Self {
        let last_mem_responded = rec
            .hops
            .iter()
            .rev()
            .find(|h| h.hop == Hop::MemResponded)
            .map(|h| h.cycle);
        Self {
            rec,
            last_mem_responded,
        }
    }

    fn push(&mut self, ev: &ObsEvent) {
        self.rec.hops.push(HopStamp {
            hop: ev.hop,
            channel: ev.channel,
            cycle: ev.cycle,
        });
    }

    /// Reconstructs the memory-emit hop from the response beat's
    /// `hopped_at` stamp the first time a beat with that stamp shows
    /// up. A transaction's response `ref_cycle`s never decrease, so a
    /// stamp seen before is always the most recent one.
    fn push_mem_responded(&mut self, ev: &ObsEvent) {
        if self.last_mem_responded != Some(ev.ref_cycle) {
            self.last_mem_responded = Some(ev.ref_cycle);
            self.rec.hops.push(HopStamp {
                hop: Hop::MemResponded,
                channel: ev.channel,
                cycle: ev.ref_cycle,
            });
        }
    }
}

/// Aggregates the [`ObsEvent`] stream of one interconnect into per-port
/// metrics and per-transaction hop histories.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    ports: Vec<PortMetrics>,
    master_efifo_occupancy: Gauge,
    /// In-flight transactions by uid; every event does one lookup.
    inflight: HashMap<u64, Inflight, BuildHasherDefault<UidHasher>>,
    completed: VecDeque<TxnRecord>,
    /// Sub-transactions force-flushed by blown drain deadlines.
    dropped_subs: u64,
    /// Transactions abandoned by a force-flush (tracked in flight when
    /// their first sub was dropped).
    dropped_txns: u64,
    /// Namespace label distinguishing this registry from other
    /// interconnect instances of the same model in one topology (empty
    /// until assigned, e.g. by `TopologyBuilder::build`).
    instance: String,
}

impl MetricsRegistry {
    /// Creates an empty registry for `num_ports` slave ports.
    pub fn new(num_ports: usize) -> Self {
        Self {
            ports: (0..num_ports).map(|_| PortMetrics::default()).collect(),
            ..Self::default()
        }
    }

    /// Assigns the instance namespace label (see
    /// [`MetricsRegistry::instance`]).
    pub fn set_instance(&mut self, label: impl Into<String>) {
        self.instance = label.into();
    }

    /// The instance namespace label — the topology node label of the
    /// interconnect owning this registry, or `""` when the registry
    /// lives outside a topology. Multi-interconnect snapshots key their
    /// per-instance sections on it so two `"HyperConnect"`s never
    /// collide.
    pub fn instance(&self) -> &str {
        &self.instance
    }

    /// Number of slave ports tracked.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// Metrics of port `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn port(&self, i: usize) -> &PortMetrics {
        &self.ports[i]
    }

    /// Records one channel-latency sample directly, without an event or
    /// per-transaction record — the path used by interconnect models
    /// that do not stamp uids (e.g. the SmartConnect baseline, whose
    /// closed-source internals expose only boundary-visible latencies).
    pub fn record_channel(
        &mut self,
        port: usize,
        channel: ObsChannel,
        now: Cycle,
        latency: u64,
        bytes: u64,
    ) {
        self.ports[port]
            .channel_mut(channel)
            .record(now, latency, bytes);
    }

    /// Updates the slave eFIFO occupancy gauge of port `i` (idempotent,
    /// fast-forward-safe).
    pub fn set_efifo_occupancy(&mut self, i: usize, level: u64) {
        self.ports[i].efifo_occupancy.set(level);
    }

    /// Updates port `i`'s credit-regulator metrics: cumulative throttle
    /// events and the stored per-lane credit levels (idempotent,
    /// fast-forward-safe). Instantiates the optional section on first
    /// call; unregulated ports never allocate it.
    pub fn set_regulator(&mut self, i: usize, events: u64, read: u64, write: u64) {
        let reg = self.ports[i]
            .regulator
            .get_or_insert_with(RegulatorMetrics::default);
        reg.throttle_events = events;
        reg.read_credits.set(read);
        reg.write_credits.set(write);
    }

    /// Updates the master eFIFO occupancy gauge.
    pub fn set_master_occupancy(&mut self, level: u64) {
        self.master_efifo_occupancy.set(level);
    }

    /// The master eFIFO occupancy gauge.
    pub fn master_occupancy(&self) -> Gauge {
        self.master_efifo_occupancy
    }

    /// Transactions currently in flight (accepted, not yet completed).
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// The most recently completed transactions (up to
    /// [`COMPLETED_RING`]), oldest first.
    pub fn completed(&self) -> impl Iterator<Item = &TxnRecord> {
        self.completed.iter()
    }

    /// The hop history of transaction `uid`, in flight or recently
    /// completed; empty if unknown.
    pub fn hops_of(&self, uid: u64) -> Vec<HopStamp> {
        if let Some(t) = self.inflight.get(&uid) {
            return t.rec.hops.clone();
        }
        self.completed
            .iter()
            .rev()
            .find(|r| r.uid == uid)
            .map(|r| r.hops.clone())
            .unwrap_or_default()
    }

    /// Folds one event into the aggregates and hop histories.
    ///
    /// Channel-latency convention: a beat pushed at cycle `c` becomes
    /// visible at the hop's output at `c + 1` (every eFIFO boundary is a
    /// one-cycle register), so the recorded latency is
    /// `(c + 1) - ref_cycle` — exactly the quantity the paper reports in
    /// Fig. 3(a).
    pub fn on_event(&mut self, ev: &ObsEvent) {
        match ev.hop {
            Hop::TsAccepted => {
                let port = ev.port.unwrap_or(0);
                let rec = TxnRecord {
                    uid: ev.uid,
                    port,
                    is_write: ev.channel == ObsChannel::Aw,
                    issued_at: ev.ref_cycle,
                    completed_at: None,
                    bytes: ev.bytes,
                    hops: vec![
                        HopStamp {
                            hop: Hop::Issued,
                            channel: ev.channel,
                            cycle: ev.ref_cycle,
                        },
                        HopStamp {
                            hop: Hop::TsAccepted,
                            channel: ev.channel,
                            cycle: ev.cycle,
                        },
                    ],
                };
                self.inflight.insert(ev.uid, Inflight::new(rec));
            }
            Hop::TsStaged | Hop::ExbarGranted => {
                if let Some(t) = self.inflight.get_mut(&ev.uid) {
                    t.push(ev);
                }
            }
            Hop::MemVisible => {
                let visible = ev.cycle + 1;
                match ev.channel {
                    ObsChannel::W => {
                        // W beats carry no uid; the emitting stage knows
                        // the port from its write route instead.
                        if let Some(p) = ev.port {
                            self.ports[p].channel_mut(ObsChannel::W).record(
                                visible,
                                visible.saturating_sub(ev.ref_cycle),
                                ev.bytes,
                            );
                        }
                    }
                    ch => {
                        if let Some(t) = self.inflight.get_mut(&ev.uid) {
                            t.push(ev);
                            self.ports[t.rec.port].channel_mut(ch).record(
                                visible,
                                visible.saturating_sub(ev.ref_cycle),
                                ev.bytes,
                            );
                        }
                    }
                }
            }
            Hop::Delivered => {
                let visible = ev.cycle + 1;
                let rec_port = self.inflight.get_mut(&ev.uid).map(|t| {
                    t.push_mem_responded(ev);
                    t.push(ev);
                    t.rec.port
                });
                if let Some(p) = ev.port.or(rec_port) {
                    // Merged (non-final) B responses never reach the
                    // slave port; only delivered beats count as channel
                    // traffic.
                    let reaches_port = ev.channel != ObsChannel::B || ev.txn_end;
                    if reaches_port {
                        self.ports[p].channel_mut(ev.channel).record(
                            visible,
                            visible.saturating_sub(ev.ref_cycle),
                            ev.bytes,
                        );
                    }
                }
                if ev.txn_end {
                    self.complete(ev, visible);
                }
            }
            Hop::Dropped => {
                self.dropped_subs += 1;
                if self.inflight.remove(&ev.uid).is_some() {
                    self.dropped_txns += 1;
                }
            }
            Hop::Issued | Hop::MemResponded => {}
        }
    }

    /// Sub-transactions force-flushed by blown drain deadlines.
    pub fn dropped_subs(&self) -> u64 {
        self.dropped_subs
    }

    /// Transactions abandoned by a force-flush (their remaining subs
    /// never complete; the record is removed from the in-flight table).
    pub fn dropped_txns(&self) -> u64 {
        self.dropped_txns
    }

    fn complete(&mut self, ev: &ObsEvent, visible: Cycle) {
        if let Some(Inflight { mut rec, .. }) = self.inflight.remove(&ev.uid) {
            rec.completed_at = Some(visible);
            let latency = visible.saturating_sub(rec.issued_at);
            let stat = if rec.is_write {
                &mut self.ports[rec.port].write_txns
            } else {
                &mut self.ports[rec.port].read_txns
            };
            stat.record(latency);
            if self.completed.len() == COMPLETED_RING {
                self.completed.pop_front();
            }
            self.completed.push_back(rec);
        }
    }

    /// Renders the per-port metrics as a deterministic JSON fragment
    /// (an object, `BENCH_simulator.json` style). The `SocSystem`
    /// snapshot wraps this with memory-side and bound-monitor sections.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"ports\":[");
        for (i, p) in self.ports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"port\":{},\"ar\":{},\"aw\":{},\"w\":{},\"r\":{},\"b\":{},\
                 \"read_txns\":{},\"write_txns\":{},\
                 \"efifo_occupancy\":{{\"current\":{},\"peak\":{}}}",
                i,
                p.ar.json(),
                p.aw.json(),
                p.w.json(),
                p.r.json(),
                p.b.json(),
                json_latency(&p.read_txns),
                json_latency(&p.write_txns),
                p.efifo_occupancy.current(),
                p.efifo_occupancy.peak(),
            ));
            if let Some(reg) = &p.regulator {
                out.push_str(&format!(",\"regulator\":{}", reg.json()));
            }
            out.push('}');
        }
        out.push_str(&format!(
            "],\"master_efifo_occupancy\":{{\"current\":{},\"peak\":{}}},\"inflight\":{}}}",
            self.master_efifo_occupancy.current(),
            self.master_efifo_occupancy.peak(),
            self.inflight.len(),
        ));
        out
    }
}

fn json_opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_owned(), |v| v.to_string())
}

fn json_opt_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_owned(), |v| format!("{v:.3}"))
}

/// Formats a [`LatencyStat`] as a JSON object.
pub fn json_latency(l: &LatencyStat) -> String {
    format!(
        "{{\"count\":{},\"min\":{},\"max\":{},\"mean\":{}}}",
        l.count(),
        json_opt_u64(l.min()),
        json_opt_u64(l.max()),
        json_opt_f64(l.mean()),
    )
}

/// Which closed-form bound a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// A read sub-transaction exceeded the staged worst-case service
    /// bound.
    ReadService,
    /// A write sub-transaction exceeded the staged worst-case service
    /// bound.
    WriteService,
    /// An AR beat crossed the fabric faster than its pipeline depth —
    /// the fixed-latency model itself is broken.
    ArPropagation,
    /// AW analogue of [`BoundKind::ArPropagation`].
    AwPropagation,
    /// W analogue of [`BoundKind::ArPropagation`].
    WPropagation,
    /// R analogue of [`BoundKind::ArPropagation`].
    RPropagation,
    /// B analogue of [`BoundKind::ArPropagation`].
    BPropagation,
}

impl BoundKind {
    /// Short kind name for rendering.
    pub fn name(self) -> &'static str {
        match self {
            BoundKind::ReadService => "read_service",
            BoundKind::WriteService => "write_service",
            BoundKind::ArPropagation => "ar_propagation",
            BoundKind::AwPropagation => "aw_propagation",
            BoundKind::WPropagation => "w_propagation",
            BoundKind::RPropagation => "r_propagation",
            BoundKind::BPropagation => "b_propagation",
        }
    }
}

/// One recorded breach of a closed-form bound, with the transaction's
/// full hop history at detection time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundViolation {
    /// Which bound was broken.
    pub kind: BoundKind,
    /// Slave port of the offending transaction.
    pub port: usize,
    /// Observability transaction ID (0 for W-data events).
    pub uid: u64,
    /// Observed latency, in cycles.
    pub observed: u64,
    /// The bound it was checked against. For service bounds `observed`
    /// exceeded it; for propagation bounds `observed` undercut it.
    pub bound: u64,
    /// Detection cycle.
    pub cycle: Cycle,
    /// Hop history of the transaction at detection time.
    pub hops: Vec<HopStamp>,
}

impl std::fmt::Display for BoundViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} port {} uid {}: observed {} vs bound {} ({} hops)",
            self.cycle,
            self.kind.name(),
            self.port,
            self.uid,
            self.observed,
            self.bound,
            self.hops.len()
        )
    }
}

/// Summary of a bound monitor's activity, for JSON snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundReport {
    /// Read sub-transactions checked against the service bound.
    pub checked_reads: u64,
    /// Write sub-transactions checked against the service bound.
    pub checked_writes: u64,
    /// Violations recorded (service and propagation combined).
    pub violations: u64,
    /// The read service bound being enforced, in cycles.
    pub read_bound: u64,
    /// The write service bound being enforced, in cycles.
    pub write_bound: u64,
    /// Worst observed staged-to-complete read latency.
    pub worst_read: u64,
    /// Worst observed staged-to-complete write latency.
    pub worst_write: u64,
}

impl BoundReport {
    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"enabled\":true,\"checked_reads\":{},\"checked_writes\":{},\
             \"violations\":{},\"read_bound\":{},\"write_bound\":{},\
             \"worst_read\":{},\"worst_write\":{}}}",
            self.checked_reads,
            self.checked_writes,
            self.violations,
            self.read_bound,
            self.write_bound,
            self.worst_read,
            self.worst_write,
        )
    }
}

mod persist_impls {
    use super::{
        BoundKind, BoundReport, BoundViolation, ChannelMetrics, Hop, HopStamp, Inflight,
        MetricsRegistry, ObsChannel, PortMetrics, RegulatorMetrics, TxnRecord,
    };
    use sim::persist::{PersistError, PersistValue, SnapshotReader, SnapshotWriter};
    use std::collections::{HashMap, VecDeque};

    /// Discriminant tables: index in the array is the wire encoding, so
    /// the byte stream stays stable as long as new variants are only
    /// appended.
    const CHANNELS: [ObsChannel; 5] = [
        ObsChannel::Ar,
        ObsChannel::Aw,
        ObsChannel::W,
        ObsChannel::R,
        ObsChannel::B,
    ];
    const HOPS: [Hop; 8] = [
        Hop::Issued,
        Hop::TsAccepted,
        Hop::TsStaged,
        Hop::ExbarGranted,
        Hop::MemVisible,
        Hop::MemResponded,
        Hop::Delivered,
        Hop::Dropped,
    ];
    const BOUND_KINDS: [BoundKind; 7] = [
        BoundKind::ReadService,
        BoundKind::WriteService,
        BoundKind::ArPropagation,
        BoundKind::AwPropagation,
        BoundKind::WPropagation,
        BoundKind::RPropagation,
        BoundKind::BPropagation,
    ];

    impl PersistValue for ObsChannel {
        fn save_value(&self, w: &mut SnapshotWriter) {
            let idx = CHANNELS.iter().position(|c| c == self).expect("in table");
            w.put_u8(idx as u8);
        }
        fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
            let idx = r.take_u8()? as usize;
            CHANNELS
                .get(idx)
                .copied()
                .ok_or(PersistError::Corrupt("obs channel discriminant"))
        }
    }

    impl PersistValue for Hop {
        fn save_value(&self, w: &mut SnapshotWriter) {
            let idx = HOPS.iter().position(|h| h == self).expect("in table");
            w.put_u8(idx as u8);
        }
        fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
            let idx = r.take_u8()? as usize;
            HOPS.get(idx)
                .copied()
                .ok_or(PersistError::Corrupt("hop discriminant"))
        }
    }

    impl PersistValue for BoundKind {
        fn save_value(&self, w: &mut SnapshotWriter) {
            let idx = BOUND_KINDS
                .iter()
                .position(|k| k == self)
                .expect("in table");
            w.put_u8(idx as u8);
        }
        fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
            let idx = r.take_u8()? as usize;
            BOUND_KINDS
                .get(idx)
                .copied()
                .ok_or(PersistError::Corrupt("bound kind discriminant"))
        }
    }

    impl PersistValue for HopStamp {
        fn save_value(&self, w: &mut SnapshotWriter) {
            self.hop.save_value(w);
            self.channel.save_value(w);
            w.put_u64(self.cycle);
        }
        fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
            Ok(Self {
                hop: Hop::load_value(r)?,
                channel: ObsChannel::load_value(r)?,
                cycle: r.take_u64()?,
            })
        }
    }

    impl PersistValue for super::ObsEvent {
        fn save_value(&self, w: &mut SnapshotWriter) {
            w.put_u64(self.uid);
            self.port.save_value(w);
            self.channel.save_value(w);
            self.hop.save_value(w);
            w.put_u64(self.cycle);
            w.put_u64(self.ref_cycle);
            w.put_u64(self.bytes);
            w.put_bool(self.sub_end);
            w.put_bool(self.txn_end);
        }
        fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
            Ok(Self {
                uid: r.take_u64()?,
                port: Option::load_value(r)?,
                channel: ObsChannel::load_value(r)?,
                hop: Hop::load_value(r)?,
                cycle: r.take_u64()?,
                ref_cycle: r.take_u64()?,
                bytes: r.take_u64()?,
                sub_end: r.take_bool()?,
                txn_end: r.take_bool()?,
            })
        }
    }

    impl PersistValue for TxnRecord {
        fn save_value(&self, w: &mut SnapshotWriter) {
            w.put_u64(self.uid);
            w.put_usize(self.port);
            w.put_bool(self.is_write);
            w.put_u64(self.issued_at);
            self.completed_at.save_value(w);
            w.put_u64(self.bytes);
            self.hops.save_value(w);
        }
        fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
            Ok(Self {
                uid: r.take_u64()?,
                port: r.take_usize()?,
                is_write: r.take_bool()?,
                issued_at: r.take_u64()?,
                completed_at: Option::load_value(r)?,
                bytes: r.take_u64()?,
                hops: Vec::load_value(r)?,
            })
        }
    }

    impl PersistValue for ChannelMetrics {
        fn save_value(&self, w: &mut SnapshotWriter) {
            self.latency.save_value(w);
            self.histogram.save_value(w);
            self.bandwidth.save_value(w);
        }
        fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
            Ok(Self {
                latency: PersistValue::load_value(r)?,
                histogram: PersistValue::load_value(r)?,
                bandwidth: PersistValue::load_value(r)?,
            })
        }
    }

    impl PersistValue for RegulatorMetrics {
        fn save_value(&self, w: &mut SnapshotWriter) {
            w.put_u64(self.throttle_events);
            self.read_credits.save_value(w);
            self.write_credits.save_value(w);
        }
        fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
            Ok(Self {
                throttle_events: r.take_u64()?,
                read_credits: PersistValue::load_value(r)?,
                write_credits: PersistValue::load_value(r)?,
            })
        }
    }

    impl PersistValue for PortMetrics {
        fn save_value(&self, w: &mut SnapshotWriter) {
            self.ar.save_value(w);
            self.aw.save_value(w);
            self.w.save_value(w);
            self.r.save_value(w);
            self.b.save_value(w);
            self.read_txns.save_value(w);
            self.write_txns.save_value(w);
            self.efifo_occupancy.save_value(w);
            self.regulator.save_value(w);
        }
        fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
            Ok(Self {
                ar: PersistValue::load_value(r)?,
                aw: PersistValue::load_value(r)?,
                w: PersistValue::load_value(r)?,
                r: PersistValue::load_value(r)?,
                b: PersistValue::load_value(r)?,
                read_txns: PersistValue::load_value(r)?,
                write_txns: PersistValue::load_value(r)?,
                efifo_occupancy: PersistValue::load_value(r)?,
                regulator: Option::load_value(r)?,
            })
        }
    }

    impl PersistValue for BoundViolation {
        fn save_value(&self, w: &mut SnapshotWriter) {
            self.kind.save_value(w);
            w.put_usize(self.port);
            w.put_u64(self.uid);
            w.put_u64(self.observed);
            w.put_u64(self.bound);
            w.put_u64(self.cycle);
            self.hops.save_value(w);
        }
        fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
            Ok(Self {
                kind: BoundKind::load_value(r)?,
                port: r.take_usize()?,
                uid: r.take_u64()?,
                observed: r.take_u64()?,
                bound: r.take_u64()?,
                cycle: r.take_u64()?,
                hops: Vec::load_value(r)?,
            })
        }
    }

    impl PersistValue for BoundReport {
        fn save_value(&self, w: &mut SnapshotWriter) {
            w.put_u64(self.checked_reads);
            w.put_u64(self.checked_writes);
            w.put_u64(self.violations);
            w.put_u64(self.read_bound);
            w.put_u64(self.write_bound);
            w.put_u64(self.worst_read);
            w.put_u64(self.worst_write);
        }
        fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
            Ok(Self {
                checked_reads: r.take_u64()?,
                checked_writes: r.take_u64()?,
                violations: r.take_u64()?,
                read_bound: r.take_u64()?,
                write_bound: r.take_u64()?,
                worst_read: r.take_u64()?,
                worst_write: r.take_u64()?,
            })
        }
    }

    impl PersistValue for MetricsRegistry {
        /// In-flight records are written sorted by uid, so the byte
        /// stream does not depend on the hash table's iteration order
        /// and is deterministic across schedulers.
        fn save_value(&self, w: &mut SnapshotWriter) {
            self.ports.save_value(w);
            self.master_efifo_occupancy.save_value(w);
            let mut inflight: Vec<&TxnRecord> = self.inflight.values().map(|t| &t.rec).collect();
            inflight.sort_unstable_by_key(|rec| rec.uid);
            w.put_usize(inflight.len());
            for rec in inflight {
                rec.save_value(w);
            }
            w.put_usize(self.completed.len());
            for rec in &self.completed {
                rec.save_value(w);
            }
            w.put_u64(self.dropped_subs);
            w.put_u64(self.dropped_txns);
            w.put_str(&self.instance);
        }
        fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
            let ports: Vec<PortMetrics> = Vec::load_value(r)?;
            let load_record = |r: &mut SnapshotReader<'_>| {
                let rec = TxnRecord::load_value(r)?;
                if rec.port >= ports.len() {
                    return Err(PersistError::Corrupt(
                        "transaction record port out of range",
                    ));
                }
                Ok(rec)
            };
            let master_efifo_occupancy = PersistValue::load_value(r)?;
            let n_inflight = r.take_usize()?;
            let mut inflight = HashMap::default();
            let mut last_uid = None;
            for _ in 0..n_inflight {
                let rec = load_record(r)?;
                // Saved strictly ascending, which also rules out a
                // duplicate uid silently replacing an earlier record.
                if last_uid.is_some_and(|last| rec.uid <= last) {
                    return Err(PersistError::Corrupt(
                        "in-flight uids not strictly ascending",
                    ));
                }
                last_uid = Some(rec.uid);
                inflight.insert(rec.uid, Inflight::new(rec));
            }
            let n_completed = r.take_usize()?;
            if n_completed > super::COMPLETED_RING {
                return Err(PersistError::Corrupt("completed ring over capacity"));
            }
            let mut completed = VecDeque::with_capacity(super::COMPLETED_RING);
            for _ in 0..n_completed {
                completed.push_back(load_record(r)?);
            }
            Ok(Self {
                ports,
                master_efifo_occupancy,
                inflight,
                completed,
                dropped_subs: r.take_u64()?,
                dropped_txns: r.take_u64()?,
                instance: r.take_str()?,
            })
        }
    }

    #[cfg(test)]
    mod tests {
        use super::super::*;
        use sim::persist::{PersistError, PersistValue, SnapshotReader, SnapshotWriter};

        #[test]
        fn registry_roundtrip_preserves_json_and_hop_histories() {
            let mut reg = MetricsRegistry::new(2);
            reg.set_instance("root");
            let accept = ObsEvent {
                uid: 7,
                port: Some(1),
                channel: ObsChannel::Ar,
                hop: Hop::TsAccepted,
                cycle: 1,
                ref_cycle: 0,
                bytes: 64,
                sub_end: false,
                txn_end: false,
            };
            reg.on_event(&accept);
            reg.set_efifo_occupancy(1, 3);
            reg.set_regulator(0, 2, 10, 20);
            let mut w = SnapshotWriter::new();
            reg.save_value(&mut w);
            let bytes = w.into_bytes();
            let restored =
                MetricsRegistry::load_value(&mut SnapshotReader::new(&bytes)).expect("roundtrip");
            assert_eq!(restored, reg);
            assert_eq!(restored.to_json(), reg.to_json());
            assert_eq!(restored.hops_of(7), reg.hops_of(7));
            assert_eq!(restored.instance(), "root");
        }

        fn record(uid: u64, port: usize) -> TxnRecord {
            TxnRecord {
                uid,
                port,
                is_write: false,
                issued_at: 0,
                completed_at: None,
                bytes: 64,
                hops: Vec::new(),
            }
        }

        /// A two-port registry image with the given in-flight records,
        /// written field by field in the registry's save layout.
        fn image(inflight: &[TxnRecord]) -> Vec<u8> {
            let mut w = SnapshotWriter::new();
            vec![PortMetrics::default(); 2].save_value(&mut w);
            sim::stats::Gauge::default().save_value(&mut w);
            inflight.to_vec().save_value(&mut w);
            w.put_usize(0);
            w.put_u64(0);
            w.put_u64(0);
            w.put_str("");
            w.into_bytes()
        }

        fn load(bytes: &[u8]) -> Result<MetricsRegistry, PersistError> {
            MetricsRegistry::load_value(&mut SnapshotReader::new(bytes))
        }

        #[test]
        fn image_helper_matches_the_save_layout() {
            let mut reg = MetricsRegistry::new(2);
            for (uid, port) in [(0x802, 1), (0x401, 0)] {
                reg.inflight.insert(uid, Inflight::new(record(uid, port)));
            }
            let mut w = SnapshotWriter::new();
            reg.save_value(&mut w);
            let bytes = image(&[record(0x401, 0), record(0x802, 1)]);
            assert_eq!(w.into_bytes(), bytes);
            assert_eq!(load(&bytes).expect("valid image"), reg);
        }

        #[test]
        fn load_rejects_a_record_port_out_of_range() {
            let err = load(&image(&[record(0x401, 0), record(0x803, 2)]));
            assert!(matches!(err, Err(PersistError::Corrupt(_))), "{err:?}");
        }

        #[test]
        fn load_rejects_a_duplicate_inflight_uid() {
            let err = load(&image(&[record(0x401, 0), record(0x401, 0)]));
            assert!(matches!(err, Err(PersistError::Corrupt(_))), "{err:?}");
        }

        #[test]
        fn load_rejects_inflight_uids_out_of_order() {
            let err = load(&image(&[record(0x802, 1), record(0x401, 0)]));
            assert!(matches!(err, Err(PersistError::Corrupt(_))), "{err:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(uid: u64, ch: ObsChannel, hop: Hop, cycle: Cycle, ref_cycle: Cycle) -> ObsEvent {
        ObsEvent {
            uid,
            port: None,
            channel: ch,
            hop,
            cycle,
            ref_cycle,
            bytes: 0,
            sub_end: false,
            txn_end: false,
        }
    }

    #[test]
    fn registry_tracks_a_read_end_to_end() {
        let mut reg = MetricsRegistry::new(2);
        let accept = ObsEvent {
            port: Some(1),
            bytes: 64,
            ..ev(7, ObsChannel::Ar, Hop::TsAccepted, 1, 0)
        };
        reg.on_event(&accept);
        assert_eq!(reg.inflight_len(), 1);
        reg.on_event(&ev(7, ObsChannel::Ar, Hop::TsStaged, 1, 0));
        reg.on_event(&ev(7, ObsChannel::Ar, Hop::ExbarGranted, 2, 0));
        let mem = ObsEvent {
            bytes: 64,
            ..ev(7, ObsChannel::Ar, Hop::MemVisible, 3, 0)
        };
        reg.on_event(&mem);
        // AR channel latency = (3 + 1) - 0 = 4, the Fig. 3(a) golden.
        assert_eq!(reg.port(1).ar.latency.min(), Some(4));
        assert_eq!(reg.port(1).ar.bandwidth.bytes(), 64);
        // Memory responds at 30, delivery at 31, visible at 32.
        let deliver = ObsEvent {
            port: Some(1),
            bytes: 64,
            sub_end: true,
            txn_end: true,
            ..ev(7, ObsChannel::R, Hop::Delivered, 31, 30)
        };
        reg.on_event(&deliver);
        assert_eq!(reg.port(1).r.latency.min(), Some(2));
        assert_eq!(reg.inflight_len(), 0);
        assert_eq!(reg.port(1).read_txns.count(), 1);
        // issued at 0, last data visible at 32.
        assert_eq!(reg.port(1).read_txns.max(), Some(32));
        let rec = reg.completed().next().unwrap();
        assert_eq!(rec.uid, 7);
        assert_eq!(rec.completed_at, Some(32));
        let hops: Vec<Hop> = rec.hops.iter().map(|h| h.hop).collect();
        assert_eq!(
            hops,
            vec![
                Hop::Issued,
                Hop::TsAccepted,
                Hop::TsStaged,
                Hop::ExbarGranted,
                Hop::MemVisible,
                Hop::MemResponded,
                Hop::Delivered,
            ]
        );
    }

    #[test]
    fn merged_write_responses_do_not_count_as_channel_traffic() {
        let mut reg = MetricsRegistry::new(1);
        let accept = ObsEvent {
            port: Some(0),
            bytes: 128,
            ..ev(3, ObsChannel::Aw, Hop::TsAccepted, 0, 0)
        };
        reg.on_event(&accept);
        // First sub's B is merged (not final): no B channel sample.
        let merged = ObsEvent {
            port: Some(0),
            sub_end: true,
            ..ev(3, ObsChannel::B, Hop::Delivered, 40, 38)
        };
        reg.on_event(&merged);
        assert_eq!(reg.port(0).b.latency.count(), 0);
        // Final sub's B is delivered: one sample, txn completes.
        let fin = ObsEvent {
            port: Some(0),
            sub_end: true,
            txn_end: true,
            ..ev(3, ObsChannel::B, Hop::Delivered, 60, 58)
        };
        reg.on_event(&fin);
        assert_eq!(reg.port(0).b.latency.count(), 1);
        assert_eq!(reg.port(0).b.latency.min(), Some(3));
        assert_eq!(reg.port(0).write_txns.count(), 1);
    }

    #[test]
    fn w_events_record_by_explicit_port() {
        let mut reg = MetricsRegistry::new(2);
        let w = ObsEvent {
            port: Some(0),
            bytes: 4,
            ..ev(0, ObsChannel::W, Hop::MemVisible, 5, 4)
        };
        reg.on_event(&w);
        assert_eq!(reg.port(0).w.latency.min(), Some(2));
        assert_eq!(reg.port(0).w.bandwidth.bytes(), 4);
        assert_eq!(reg.port(1).w.latency.count(), 0);
    }

    #[test]
    fn completed_ring_is_bounded() {
        let mut reg = MetricsRegistry::new(1);
        for uid in 1..=(COMPLETED_RING as u64 + 5) {
            let accept = ObsEvent {
                port: Some(0),
                ..ev(uid, ObsChannel::Ar, Hop::TsAccepted, uid, uid)
            };
            reg.on_event(&accept);
            let done = ObsEvent {
                port: Some(0),
                sub_end: true,
                txn_end: true,
                ..ev(uid, ObsChannel::R, Hop::Delivered, uid + 10, uid + 9)
            };
            reg.on_event(&done);
        }
        assert_eq!(reg.completed().count(), COMPLETED_RING);
        // Oldest entries were evicted; hop lookup still works for recent.
        assert!(reg.hops_of(1).is_empty());
        assert!(!reg.hops_of(COMPLETED_RING as u64 + 5).is_empty());
    }

    #[test]
    fn occupancy_gauges_are_idempotent() {
        let mut reg = MetricsRegistry::new(1);
        reg.set_efifo_occupancy(0, 4);
        let snap = reg.clone();
        reg.set_efifo_occupancy(0, 4); // re-set: no observable change
        assert_eq!(reg, snap);
        reg.set_master_occupancy(9);
        reg.set_master_occupancy(2);
        assert_eq!(reg.master_occupancy().current(), 2);
        assert_eq!(reg.master_occupancy().peak(), 9);
    }

    #[test]
    fn json_snapshot_shape() {
        let mut reg = MetricsRegistry::new(1);
        let accept = ObsEvent {
            port: Some(0),
            bytes: 64,
            ..ev(1, ObsChannel::Ar, Hop::TsAccepted, 0, 0)
        };
        reg.on_event(&accept);
        let js = reg.to_json();
        for key in [
            "\"ports\":[",
            "\"ar\":{",
            "\"read_txns\":{",
            "\"efifo_occupancy\":{",
            "\"master_efifo_occupancy\":{",
            "\"inflight\":1",
        ] {
            assert!(js.contains(key), "missing {key} in {js}");
        }
        // Deterministic: rendering twice gives identical bytes.
        assert_eq!(js, reg.to_json());
    }

    #[test]
    fn violation_display_is_informative() {
        let v = BoundViolation {
            kind: BoundKind::ReadService,
            port: 2,
            uid: 9,
            observed: 700,
            bound: 540,
            cycle: 1234,
            hops: vec![],
        };
        let s = v.to_string();
        assert!(s.contains("read_service"));
        assert!(s.contains("port 2"));
        assert!(s.contains("700"));
        assert_eq!(BoundKind::WPropagation.name(), "w_propagation");
    }

    #[test]
    fn bound_report_json() {
        let r = BoundReport {
            checked_reads: 10,
            checked_writes: 5,
            violations: 0,
            read_bound: 540,
            write_bound: 600,
            worst_read: 120,
            worst_write: 150,
        };
        let js = r.to_json();
        assert!(js.contains("\"enabled\":true"));
        assert!(js.contains("\"violations\":0"));
        assert!(js.contains("\"read_bound\":540"));
    }
}
