//! Runs one generated [`Workload`] end to end through `RtpbClient` and
//! collects its wall-clock costs, virtual-time outcomes, check results and
//! the layer counts the per-layer replay needs.

use crate::checks::{self, Checks};
use crate::gen::{Op, Workload};
use crate::span::Tracer;
use rtpb_core::metrics::InjectedFault;
use rtpb_core::RtpbClient;
use rtpb_obs::MetricsRegistry;
use rtpb_sim::Trace;
use rtpb_types::{NodeId, ObjectId, ReadConsistency, Time, TimeDelta};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Measured phases are split into this many equal virtual-time chunks;
/// wall-clock rates are reported as the median over chunks.
const CHUNKS: u64 = 20;

/// The harness's trace line for a broadcast the protocol stack refused.
const P2B_REJECTED: &str = "p2b send rejected";

/// Layer counts observed in the end-to-end run.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Objects registered.
    pub objects: u64,
    /// Backups configured.
    pub backups: u64,
    /// Frames handed to a link (`cluster.frames_sent`).
    pub frames_sent: u64,
    /// Update transmissions, counted per destination host.
    pub updates_sent: u64,
    /// Update transmissions the link lost.
    pub updates_lost: u64,
    /// Batch frames sent (`cluster.batch_occupancy` count).
    pub batches: u64,
    /// Mean updates per batch frame (1 when unbatched).
    pub batch_occupancy: f64,
    /// Writes applied at the primary.
    pub primary_writes: u64,
    /// Update messages the primary built (batched or not).
    pub updates_produced: u64,
    /// Retransmission requests backups sent.
    pub retransmit_requests: u64,
    /// Updates applied at the metrics backup over the whole run.
    pub applies: u64,
    /// Send-pool `(outstanding, leases, reuses)`.
    pub pool: (u64, u64, u64),
    /// Encoded size of every planned catch-up reply.
    pub catch_up_bytes: Vec<u64>,
    /// Broadcasts the protocol stack refused (traced runs only).
    pub rejected_broadcasts: Option<u64>,
    /// Whether the trace ring wrapped between scans, making
    /// `rejected_broadcasts` a lower bound.
    pub rejections_overflowed: bool,
}

/// Everything one end-to-end run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Wall seconds of each set-up (construction to `register_many`),
    /// half of them before the measured phase and half after it.
    pub setup_s: Vec<f64>,
    /// Wall seconds inside `register_many` of the kept cluster.
    pub register_s: f64,
    /// Wall seconds inside `run_for` during the measured phase.
    pub run_for_s: f64,
    /// Wall seconds inside client calls during the measured phase.
    pub client_s: f64,
    /// Updates applied at the backup during the measured phase.
    pub measured_applies: u64,
    /// Applies per `run_for` wall second, one per chunk.
    pub update_rates: Vec<f64>,
    /// Virtual ms advanced per wall second of `run_for` and client calls,
    /// one per chunk.
    pub virtual_rates: Vec<f64>,
    /// Reads per read-phase wall second, one per chunk.
    pub read_rates: Vec<f64>,
    /// True age of every served read.
    pub read_ages: Histogram,
    /// Each object's maximum primary–backup distance, in virtual ms.
    pub staleness_ms: Vec<f64>,
    /// Total object-time spent beyond `δ_i`, in virtual ms.
    pub out_of_window_ms: f64,
    /// Client write response times, in virtual ms.
    pub response_ms: Vec<f64>,
    /// Crash-to-whole time of each closed rejoin, in virtual ms.
    pub recovery_ms: Vec<f64>,
    /// Wall nanoseconds of each client read call.
    pub read_call_ns: Vec<u64>,
    /// Wall nanoseconds of each client write call.
    pub write_call_ns: Vec<u64>,
    /// Check results.
    pub checks: Checks,
    /// Layer counts.
    pub counts: Counts,
    /// Peak resident memory of the process, in MB.
    pub peak_rss_mb: f64,
}

/// Exact-to-the-microsecond histogram of virtual durations: the read
/// path serves millions of reads per run, too many to keep one sample
/// each without the samples outweighing the cluster.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    micros: BTreeMap<u64, u64>,
    count: u64,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, d: TimeDelta) {
        *self.micros.entry(d.as_micros()).or_default() += 1;
        self.count += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank percentile `p` (0–100), in ms.
    pub fn percentile_ms(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (((p / 100.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        self.micros.iter().find_map(|(&us, &n)| {
            seen += n;
            (seen >= rank).then_some(us as f64 / 1_000.0)
        })
    }
}

/// Counts new trace lines containing [`P2B_REJECTED`] across `run_for`
/// slices. The trace is a ring, so lines are attributed by timestamp: a
/// watermark `(time, lines at that time)` marks what was already seen.
#[derive(Debug, Default)]
struct RejectionCounter {
    last: Time,
    at_last: usize,
    total: u64,
    overflowed: bool,
}

impl RejectionCounter {
    fn update(&mut self, trace: &Trace, capacity: usize) {
        let mut seen_at_last = 0usize;
        let mut new_last = self.last;
        let mut at_new_last = 0usize;
        let mut first = true;
        for r in trace.records() {
            if first && trace.len() == capacity && r.time > self.last {
                self.overflowed = true;
            }
            first = false;
            if r.time < self.last {
                continue;
            }
            let fresh = if r.time == self.last {
                seen_at_last += 1;
                seen_at_last > self.at_last
            } else {
                true
            };
            if fresh && r.message.contains(P2B_REJECTED) {
                self.total += 1;
            }
            if r.time > new_last {
                new_last = r.time;
                at_new_last = 0;
            }
            if r.time == new_last {
                at_new_last += 1;
            }
        }
        self.last = new_last;
        self.at_last = at_new_last;
    }
}

fn applies(client: &RtpbClient, ids: &[ObjectId]) -> u64 {
    let m = client.metrics();
    ids.iter()
        .filter_map(|&id| m.object_report(id))
        .map(|r| r.applies)
        .sum()
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Rejoin bookkeeping for workloads that restart backup host 0.
#[derive(Debug, Default)]
struct Rejoins {
    scanned: usize,
    open: Vec<usize>,
}

impl Rejoins {
    /// Judges every rejoin whose fault record closed since the last call.
    fn poll(&mut self, client: &RtpbClient, ids: &[ObjectId], out: &mut Outcome) {
        let report = client.fault_report();
        for (i, rec) in report.iter().enumerate().skip(self.scanned) {
            if rec.kind == InjectedFault::BackupRecovery {
                self.open.push(i);
            }
        }
        self.scanned = report.len();
        let mut k = 0;
        while k < self.open.len() {
            let idx = self.open[k];
            let Some(closed) = report[idx].recovered_at else {
                k += 1;
                continue;
            };
            self.open.swap_remove(k);
            let crashed = report[..idx]
                .iter()
                .rev()
                .find(|r| r.kind == InjectedFault::BackupCrash)
                .map_or(report[idx].injected_at, |r| r.injected_at);
            out.recovery_ms
                .push(closed.saturating_since(crashed).as_millis_f64());
            out.checks.rejoins += 1;
            // Backup host 0 is node 1 (the primary is node 0).
            let backups = client.backups();
            let rejoined = backups.iter().find(|b| b.node() == NodeId::new(1));
            match rejoined {
                Some(b) => {
                    if checks::missing_objects(b.store(), ids.iter().copied()) > 0 {
                        out.checks.incomplete_rejoins += 1;
                    }
                    out.checks
                        .audit_backup(b.store(), client.primary().map(|p| p.store()));
                }
                None => out.checks.incomplete_rejoins += 1,
            }
        }
    }
}

/// Runs `w` end to end. With `tracer` enabled, every benchmark-side call
/// into the harness is wrapped in a span and refused broadcasts are
/// counted from the harness trace.
pub fn run(w: &Workload, tracer: &mut Tracer, setup_repeats: usize) -> Outcome {
    let traced = tracer.enabled();
    // Large enough to hold one chunk's trace lines between scans.
    let trace_capacity = if traced { 1 << 19 } else { 0 };
    let mut out = Outcome::default();

    // Set-up, repeated: the first half before the measured phase (the last
    // of those clusters is the one measured), the rest after it, so the
    // samples span the whole run.
    let repeats = setup_repeats.max(1);
    let before = repeats.div_ceil(2);
    let mut kept = None;
    for _ in 0..before {
        drop(kept.take());
        kept = Some(setup(w, tracer, trace_capacity, &mut out));
    }
    let (mut client, ids, register_s) = kept.expect("at least one set-up");
    out.register_s = register_s;

    let mut rejections = RejectionCounter::default();
    let span = tracer.enter("harness.warmup", 0);
    client.run_for(w.warmup);
    tracer.exit(span);
    if traced {
        rejections.update(client.cluster().trace(), trace_capacity);
    }

    let consistency = ReadConsistency::Bounded(w.read_bound());
    let mut rejoins = Rejoins::default();
    let slices = w.slices();
    let per_chunk = (slices / CHUNKS).max(1);
    let mut chunk_applies = applies(&client, &ids);
    let mut chunk_run = Duration::ZERO;
    let mut chunk_client = Duration::ZERO;
    let mut chunk_reads = 0u64;
    let mut chunk_slices = 0u64;
    let mut run_for = Duration::ZERO;
    let mut client_time = Duration::ZERO;
    let mut ops = w.ops.clone();
    let mut request = 1u32;

    for s in 0..slices {
        let span = tracer.enter("harness.run_for", 0);
        let start = Instant::now();
        client.run_for(w.slice);
        let dt = start.elapsed();
        tracer.exit(span);
        chunk_run += dt;
        run_for += dt;
        chunk_slices += 1;

        for op in ops.by_ref().take(w.ops_per_slice) {
            request = request.wrapping_add(1);
            match op {
                Op::Read(id) => {
                    let now = client.now();
                    let span = tracer.enter("client.read", request);
                    let start = Instant::now();
                    let result = client.read(id, consistency);
                    let dt = start.elapsed();
                    tracer.exit(span);
                    chunk_client += dt;
                    chunk_reads += 1;
                    out.checks.reads += 1;
                    match result {
                        Ok(outcome) => {
                            let cert = outcome.certificate();
                            let missed = client.metrics().earliest_write_after(id, cert.version);
                            let age = checks::true_age(now, missed);
                            let sound = checks::certificate_sound(cert.age_bound, age);
                            if !sound {
                                out.checks.unsound_certificates += 1;
                            }
                            let primary_tag = client
                                .primary()
                                .and_then(|p| p.store().get(id))
                                .map(|e| (e.write_epoch(), e.version()));
                            let written = primary_tag.is_some_and(|t| {
                                checks::written_by_primary((cert.write_epoch, cert.version), t)
                            });
                            if !written {
                                out.checks.unwritten_reads += 1;
                            }
                            if !(sound && written) {
                                out.checks.failed_reads += 1;
                            }
                            out.read_ages.record(age);
                        }
                        Err(_) => {
                            out.checks.read_errors += 1;
                            out.checks.failed_reads += 1;
                        }
                    }
                }
                Op::Write(id, fill) => {
                    let payload = vec![fill; w.size_bytes()];
                    let span = tracer.enter("client.write", request);
                    let start = Instant::now();
                    let result = client.write(id, payload);
                    let dt = start.elapsed();
                    tracer.exit(span);
                    chunk_client += dt;
                    out.checks.client_writes += 1;
                    if result.is_err() {
                        out.checks.refused_writes += 1;
                    }
                }
            }
        }

        if w.has_faults() {
            rejoins.poll(&client, &ids, &mut out);
        }
        if (s + 1) % per_chunk == 0 || s + 1 == slices {
            if traced {
                rejections.update(client.cluster().trace(), trace_capacity);
            }
            let now_applies = applies(&client, &ids);
            let delta = now_applies - chunk_applies;
            out.measured_applies += delta;
            out.update_rates
                .push(delta as f64 / secs(chunk_run).max(1e-9));
            let wall = secs(chunk_run + chunk_client).max(1e-9);
            out.virtual_rates
                .push((w.slice * chunk_slices).as_millis_f64() / wall);
            if w.ops_per_slice > 0 {
                out.read_rates.push(chunk_reads as f64 / wall);
            }
            client_time += chunk_client;
            chunk_applies = now_applies;
            chunk_run = Duration::ZERO;
            chunk_client = Duration::ZERO;
            chunk_reads = 0;
            chunk_slices = 0;
        }
    }
    // Read before the report below clones the metrics: the high-water
    // mark should be the cluster's, not the benchmark's bookkeeping.
    out.peak_rss_mb = peak_rss_mb();
    out.run_for_s = secs(run_for);
    out.client_s = secs(client_time);
    out.checks.unclosed_rejoins = rejoins.open.len() as u64;
    out.read_call_ns = tracer.durations("client.read");
    out.write_call_ns = tracer.durations("client.write");

    // Virtual-time outcomes and end-of-run image audit.
    let report = client.report();
    for &id in &ids {
        let r = report.object_report(id).expect("registered object");
        out.staleness_ms.push(r.max_distance.as_millis_f64());
        out.out_of_window_ms += r.total_window_violation.as_millis_f64();
        out.checks.writes += r.writes;
        out.counts.applies += r.applies;
    }
    out.response_ms = report
        .response_times()
        .samples()
        .iter()
        .map(|d| d.as_millis_f64())
        .collect();
    for b in client.backups() {
        out.checks
            .audit_backup(b.store(), client.primary().map(|p| p.store()));
    }

    let snap = client.registry().snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let occupancy = snap.histogram("cluster.batch_occupancy");
    out.counts = Counts {
        objects: ids.len() as u64,
        backups: w.config.num_backups as u64,
        frames_sent: counter("cluster.frames_sent"),
        updates_sent: counter("cluster.updates_sent"),
        updates_lost: counter("cluster.updates_lost"),
        batches: occupancy.map_or(0, |h| h.count),
        batch_occupancy: occupancy
            .and_then(|h| h.mean)
            .map_or(1.0, |m| m.as_nanos() as f64),
        primary_writes: out.checks.writes,
        updates_produced: client.primary().map_or(0, |p| p.updates_produced()),
        retransmit_requests: counter("cluster.retransmit_requests"),
        applies: out.counts.applies,
        pool: client.cluster().send_pool_stats(),
        catch_up_bytes: client
            .cluster()
            .catch_up_plans()
            .iter()
            .map(|p| p.bytes)
            .collect(),
        rejected_broadcasts: traced.then_some(rejections.total),
        rejections_overflowed: rejections.overflowed,
    };

    drop(client);
    for _ in before..repeats {
        drop(setup(w, tracer, trace_capacity, &mut out));
    }
    out
}

/// Builds a cluster for `w` and registers its objects, recording the
/// set-up time in `out`. Returns the client, the object ids and the wall
/// seconds inside `register_many`.
fn setup(
    w: &Workload,
    tracer: &mut Tracer,
    trace_capacity: usize,
    out: &mut Outcome,
) -> (RtpbClient, Vec<ObjectId>, f64) {
    let mut config = w.config.clone();
    config.registry = MetricsRegistry::new();
    config.trace_capacity = trace_capacity;
    let specs = w.specs.clone();
    let span = tracer.enter("harness.setup", 0);
    let start = Instant::now();
    let mut client = RtpbClient::new(config);
    let reg = tracer.enter("harness.register_many", 0);
    let reg_start = Instant::now();
    let ids = client
        .register_many(specs)
        .expect("admission is disabled, so every object registers");
    let reg_s = secs(reg_start.elapsed());
    tracer.exit(reg);
    out.setup_s.push(secs(start.elapsed()));
    tracer.exit(span);
    (client, ids, reg_s)
}
