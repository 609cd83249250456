//! Per-layer replay and reconciliation (traced runs only).
//!
//! Each layer is timed from outside, by calling its public functions on
//! inputs shaped like the workload: the workload's payload size and
//! object count, and the batch occupancy its end-to-end run produced.
//! Call counts come from that run's registry, `ClusterMetrics`,
//! `catch_up_plans()` and `send_pool_stats()`. Every timed loop runs
//! inside a span named after the layer.
//!
//! The reconciliation multiplies each layer's cost per call by its calls
//! per applied update and subtracts the sum from the measured `run_for`
//! cost per update; what is left is `harness.unexplained_ns_per_update`.

use crate::gen::Workload;
use crate::report::{median, Metric};
use crate::run::Outcome;
use crate::span::Tracer;
use rtpb_core::backup::{Backup, BackupRead};
use rtpb_core::log::UpdateLog;
use rtpb_core::primary::Primary;
use rtpb_core::store::ObjectStore;
use rtpb_core::wire::{WireFrame, WireMessage};
use rtpb_net::{LossyLink, Message, ProtocolGraph, UdpLike};
use rtpb_obs::MetricsRegistry;
use rtpb_sim::{Context, Simulation, World};
use rtpb_types::{BufPool, Epoch, NodeId, ObjectId, ObjectSpec, Time, TimeDelta, Version};
use std::hint::black_box;
use std::time::Instant;

/// Timed repeats per layer; the median is reported.
const REPEATS: usize = 5;

/// The largest datagram the simulator's `UdpLike` layer carries.
const MAX_DATAGRAM: u64 = 65_535;

/// Epoch stamped on replayed frames (any epoch a fresh backup accepts).
const EPOCH: Epoch = Epoch::new(3);

/// What the replay measured.
pub struct LayerReport {
    /// Per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// How the reconciliation adds up, one line per term.
    pub notes: Vec<String>,
}

/// Median ns per call of `op` over [`REPEATS`] loops of `iters` calls,
/// each loop on fresh state from `setup` and inside a span `name`.
fn time_per_call<S>(
    tracer: &mut Tracer,
    name: &'static str,
    iters: u64,
    mut setup: impl FnMut() -> S,
    mut op: impl FnMut(&mut S),
) -> f64 {
    let mut samples = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let mut state = setup();
        let span = tracer.enter(name, 0);
        let start = Instant::now();
        for _ in 0..iters {
            op(&mut state);
        }
        let ns = start.elapsed().as_nanos() as f64 / iters.max(1) as f64;
        tracer.exit(span);
        black_box(&state);
        samples.push(ns);
    }
    median(&samples).expect("REPEATS > 0")
}

fn update(object: u32, version: u64, payload: &[u8]) -> WireMessage {
    WireMessage::Update {
        epoch: EPOCH,
        object: ObjectId::new(object),
        version: Version::new(version),
        // Timestamps must not run ahead of the receiver's clock, or its
        // temporal monitor degrades and the replay measures refusals.
        timestamp: Time::ZERO,
        seq: version,
        payload: payload.to_vec(),
    }
}

/// The `frame`-th of a stream of frames carrying `k` updates each, over
/// `n` objects round-robin, every object's version strictly growing.
fn frame(index: u64, k: u64, n: u64, payload: &[u8]) -> WireMessage {
    let updates: Vec<WireMessage> = (0..k)
        .map(|j| {
            let slot = index * k + j;
            update((slot % n) as u32, 1 + slot / n, payload)
        })
        .collect();
    if k == 1 {
        updates.into_iter().next().expect("one update")
    } else {
        WireMessage::Batch {
            epoch: EPOCH,
            messages: updates,
        }
    }
}

fn backup_with(n: u64, spec: &ObjectSpec, w: &Workload) -> Backup {
    let mut backup = Backup::new(NodeId::new(1), w.config.protocol.clone());
    for id in 0..n {
        backup.sync_registration(
            ObjectId::new(id as u32),
            spec.clone(),
            spec.update_period(),
            Time::ZERO,
        );
    }
    backup
}

/// Times `Primary::register` over `n` objects (one pass: registration
/// cost grows with the registry, so repeats would time a different
/// input), then writes each object once. Returns the ns per object and
/// the primary.
fn register_primary(
    n: u64,
    spec: &ObjectSpec,
    w: &Workload,
    tracer: &mut Tracer,
) -> (f64, Primary) {
    let mut primary = Primary::new(NodeId::new(0), w.config.protocol.clone());
    let span = tracer.enter("primary.register", 0);
    let start = Instant::now();
    let ids: Vec<ObjectId> = (0..n)
        .map(|_| {
            primary
                .register(spec.clone(), Time::ZERO)
                .expect("admission is disabled")
        })
        .collect();
    let ns = start.elapsed().as_nanos() as f64 / n as f64;
    tracer.exit(span);
    let payload = vec![0xA5u8; spec.size_bytes()];
    for id in ids {
        // The replay drives the state machine directly, as the hot-path
        // microbenchmarks do; the session facade needs a whole cluster.
        #[allow(deprecated)]
        primary
            .apply_client_write(id, payload.clone(), Time::from_millis(1))
            .expect("a fresh primary accepts writes");
    }
    (ns, primary)
}

/// A world whose handler only counts: what the simulator charges per
/// event, without any protocol work.
struct CountingWorld(u64);

impl World for CountingWorld {
    type Event = ();

    fn handle(&mut self, _ctx: &mut Context<'_, ()>, _event: ()) {
        self.0 += 1;
    }
}

fn percentile_ns(samples: &[u64], p: f64) -> f64 {
    let v: Vec<f64> = samples.iter().map(|&ns| ns as f64).collect();
    crate::report::percentile(&v, p).unwrap_or(0.0)
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric::new(name, Some(value), unit, note.into())
}

/// Replays every layer on inputs shaped like `w` and reconciles the
/// layer costs against the `run_for` cost of `plain` (the untraced run).
/// `traced` supplies the counts only a traced run observes.
pub fn measure(
    w: &Workload,
    traced: &Outcome,
    plain: &Outcome,
    tracer: &mut Tracer,
) -> LayerReport {
    let c = &traced.counts;
    let n = c.objects.max(1);
    let spec = w
        .specs
        .first()
        .expect("every workload registers objects")
        .clone();
    let payload = vec![0xA5u8; w.size_bytes()];
    let rejected = c.rejected_broadcasts.unwrap_or(0);
    // Updates per batch the primary built. Refused broadcasts never reach
    // the occupancy histogram, so count them from the primary's side:
    // every produced update outside a retransmission rode in a batch.
    let batch_frames = c.batches / c.backups.max(1) + rejected;
    let k = c
        .updates_produced
        .saturating_sub(c.retransmit_requests)
        .checked_div(batch_frames)
        .map_or(1, |k| k.clamp(1, n));
    let applies = c.applies.max(1) as f64;
    let delivered = c.updates_sent.saturating_sub(c.updates_lost) as f64;

    // Set-up.
    let register_ns_per_object = traced.register_s * 1e9 / n as f64;
    let (primary_register, primary) = register_primary(n, &spec, w, tracer);

    // Simulator and metrics sink.
    let event_ns = time_per_call(
        tracer,
        "sim.event",
        200_000,
        || Simulation::new(CountingWorld(0), 1),
        |sim| {
            sim.schedule_in(TimeDelta::from_nanos(1), ());
            sim.step();
        },
    );
    let counter_ns = time_per_call(
        tracer,
        "obs.counter_inc",
        1_000_000,
        || MetricsRegistry::new().counter("perfbench.counter"),
        |counter| counter.inc(),
    );
    let histogram_ns = time_per_call(
        tracer,
        "obs.histogram_record",
        1_000_000,
        || {
            (
                MetricsRegistry::new().histogram("perfbench.histogram"),
                0u64,
            )
        },
        |(h, i)| {
            *i += 1;
            h.record_nanos(*i % 4096);
        },
    );

    // Wire and checksum, on the workload's frame shape.
    let sample = frame(0, k, n, &payload);
    let bytes = sample.encode();
    let frame_iters = (200_000 / k).max(20);
    let encode_ns = time_per_call(tracer, "wire.encode", frame_iters, BufPool::new, |pool| {
        let mut buf = pool.lease();
        sample.encode_into(&mut buf);
        black_box(buf.as_slice().len());
    }) / k as f64;
    let parse_ns = time_per_call(
        tracer,
        "wire.parse",
        frame_iters,
        || (),
        |()| {
            let f = WireFrame::parse(&bytes).expect("valid frame");
            black_box(f.update_count());
        },
    ) / k as f64;
    let crc_ns_per_kib = time_per_call(
        tracer,
        "types.crc32c",
        frame_iters,
        || (),
        |()| {
            black_box(rtpb_types::crc32c(&bytes));
        },
    ) * 1024.0
        / bytes.len() as f64;

    // Network model, at the workload's mean frame size on the wire.
    let batched_updates = (c.batches as f64 * c.batch_occupancy).min(c.updates_sent as f64);
    let single_len = frame(0, 1, n, &payload).encoded_len() as f64;
    let sent_k = c.batch_occupancy.round().max(1.0) as u64;
    let batch_len = frame(0, sent_k, n, &payload).encoded_len() as f64;
    let bytes_on_wire = batched_updates * batch_len / sent_k as f64
        + (c.updates_sent as f64 - batched_updates) * single_len;
    // Mean size of the update-carrying frames the links actually carried:
    // the shape the network layers are replayed at.
    let update_frames = c.batches as f64 + (c.updates_sent as f64 - batched_updates);
    let link_frame = if update_frames > 0.0 {
        (bytes_on_wire / update_frames).round() as usize
    } else {
        single_len as usize
    };
    let link_bytes = vec![0x5Au8; link_frame];

    let link_ns = time_per_call(
        tracer,
        "net.link_transmit",
        200_000,
        || (LossyLink::new(w.config.link, 7), Time::ZERO),
        |(link, now)| {
            *now += TimeDelta::from_micros(10);
            black_box(link.transmit(*now, link_frame));
        },
    );
    let graph_ns = time_per_call(
        tracer,
        "net.graph_roundtrip",
        (20_000_000 / link_frame as u64).clamp(100, 200_000),
        || {
            (
                ProtocolGraph::builder().layer(UdpLike::new()).build(),
                ProtocolGraph::builder().layer(UdpLike::new()).build(),
            )
        },
        |(tx, rx)| {
            // The harness copies each pooled frame into a message, pushes
            // it down the sending graph and up the receiving one.
            if let Ok(wire) = tx.send(Message::from_payload(link_bytes.as_slice())) {
                black_box(rx.receive(wire).ok());
            }
        },
    );

    // Backup receive path and stores.
    let handle_frames = (100_000 / k).max(8);
    let encoded: Vec<Vec<u8>> = (0..handle_frames)
        .map(|i| frame(i, k, n, &payload).encode())
        .collect();
    let parsed: Vec<WireFrame<'_>> = encoded
        .iter()
        .map(|b| WireFrame::parse(b).expect("valid frame"))
        .collect();
    {
        let mut backup = backup_with(n, &spec, w);
        let out = backup.handle_frame(&parsed[0], Time::from_millis(1));
        assert_eq!(
            out.applied.len() as u64,
            k,
            "the replayed frames must take the install path"
        );
    }
    let handle_ns = time_per_call(
        tracer,
        "backup.handle_frame",
        handle_frames,
        || (backup_with(n, &spec, w), 0usize),
        |(backup, next)| {
            // A frozen receive clock reads as a stalled clock to the
            // backup's temporal monitor: advance it per frame.
            let now = Time::from_micros(1 + *next as u64);
            let out = backup.handle_frame(&parsed[*next], now);
            black_box(out.applied.len());
            *next += 1;
        },
    ) / k as f64;
    drop(parsed);
    drop(encoded);
    let store_apply_ns = time_per_call(
        tracer,
        "store.apply",
        200_000,
        || {
            let mut store = ObjectStore::new();
            for _ in 0..n {
                store.register(spec.clone(), Time::ZERO);
            }
            (store, 0u64)
        },
        |(store, i)| {
            let id = ObjectId::new((*i % n) as u32);
            let version = Version::new(1 + *i / n);
            black_box(store.apply_from_parts(id, version, Time::ZERO, &payload, EPOCH));
            *i += 1;
        },
    );
    let log_append_ns = time_per_call(
        tracer,
        "log.append",
        200_000,
        || (UpdateLog::new(EPOCH, &w.config.protocol), 0u64),
        |(log, i)| {
            *i += 1;
            let id = ObjectId::new((*i % n) as u32);
            black_box(log.append(id, Version::new(*i), Time::ZERO, payload.clone()));
        },
    );
    let serve_read_ns = {
        let mut backup = backup_with(n, &spec, w);
        let mut i = 0;
        while i * k < n {
            let f = frame(i, k, n, &payload).encode();
            let parsed = WireFrame::parse(&f).expect("valid frame");
            backup.handle_frame(&parsed, Time::from_micros(1 + i));
            i += 1;
        }
        assert!(
            matches!(
                backup.serve_read(ObjectId::new(0), None, Time::from_secs(1)),
                BackupRead::Served { .. }
            ),
            "the replayed backup must serve reads"
        );
        time_per_call(
            tracer,
            "backup.serve_read",
            200_000,
            || 0u64,
            |i| {
                *i += 1;
                let id = ObjectId::new((*i % n) as u32);
                let read = backup.serve_read(id, None, Time::from_secs(1));
                black_box(matches!(read, BackupRead::Served { .. }));
            },
        )
    };

    // Log, snapshot and integrity paths of catch-up and scrubbing.
    let retention = w.config.protocol.log_retention as u64;
    let suffix_ns_per_record = {
        let mut log = UpdateLog::new(EPOCH, &w.config.protocol);
        for i in 1..=retention {
            let id = ObjectId::new((i % n) as u32);
            log.append(id, Version::new(i), Time::ZERO, payload.clone());
        }
        let from = log.head().saturating_sub(retention / 2);
        let records = log.suffix_after(from).map_or(0, Iterator::count).max(1);
        time_per_call(
            tracer,
            "log.suffix",
            2_000,
            || (),
            |()| {
                black_box(
                    log.suffix_after(from)
                        .map(|s| s.map(|r| r.seq).sum::<u64>()),
                );
            },
        ) / records as f64
    };
    let snapshot_ns = time_per_call(
        tracer,
        "primary.snapshot",
        20,
        || (),
        |()| {
            black_box(primary.snapshot());
        },
    );
    // A rejoiner that reports half the store one version behind.
    let versions: Vec<(ObjectId, Epoch, Version)> = primary
        .store()
        .iter()
        .map(|(id, e)| {
            let behind = id.index() % 2 == 0;
            let v = if behind {
                Version::INITIAL
            } else {
                e.version()
            };
            (id, e.write_epoch(), v)
        })
        .collect();
    let resync_ns = time_per_call(
        tracer,
        "primary.resync_diff",
        20,
        || (),
        |()| {
            black_box(primary.resync_diff(&versions));
        },
    );
    let mut store = primary.store().clone();
    let audit_ns_per_object = time_per_call(
        tracer,
        "store.audit",
        20,
        || (),
        |()| {
            black_box(store.audit());
        },
    ) / n as f64;
    let ranges = w.config.protocol.scrub_ranges.max(1);
    let digest_ns = time_per_call(
        tracer,
        "store.range_digest",
        200,
        || 0u32,
        |r| {
            *r = (*r + 1) % ranges;
            black_box(primary.store().range_digest(*r, ranges));
        },
    );

    // Counts and ratios from the end-to-end run.
    let oversize_plans = c
        .catch_up_bytes
        .iter()
        .filter(|&&b| b > MAX_DATAGRAM)
        .count() as u64;
    let oversize = rejected + oversize_plans;
    let per_sent = |x: f64| {
        if c.updates_sent == 0 {
            0.0
        } else {
            x / c.updates_sent as f64
        }
    };
    let (_, leases, reuses) = c.pool;
    let recoveries = c.catch_up_bytes.len() as u64;
    let recovery_bytes = if recoveries == 0 {
        0.0
    } else {
        c.catch_up_bytes.iter().sum::<u64>() as f64 / recoveries as f64
    };
    let run_for_ns_per_update = plain.run_for_s * 1e9 / plain.measured_applies.max(1) as f64;

    // Reconciliation: layer ns per call × calls per applied update.
    let events_est = 2.0 * c.primary_writes as f64
        + c.frames_sent as f64
        + 2.0 * c.retransmit_requests as f64
        + batch_frames as f64;
    let terms = [
        ("wire.encode", encode_ns, c.updates_produced as f64),
        ("wire.parse", parse_ns, delivered),
        ("backup.handle_frame", handle_ns, delivered),
        ("net.link_transmit", link_ns, c.frames_sent as f64),
        ("net.graph_roundtrip", graph_ns, c.frames_sent as f64),
        (
            "store.apply (primary)",
            store_apply_ns,
            c.primary_writes as f64,
        ),
        ("log.append", log_append_ns, c.primary_writes as f64),
        (
            "obs.counter_inc",
            counter_ns,
            (c.frames_sent + c.updates_sent + c.updates_lost + c.primary_writes) as f64,
        ),
        (
            "obs.histogram_record",
            histogram_ns,
            (c.batches + c.primary_writes) as f64,
        ),
        ("sim.event (estimated count)", event_ns, events_est),
    ];
    let mut notes = vec![format!(
        "replay shape: {n} objects, {} B payload, {k} updates per frame built \
         ({} per batch sent), {} B frames built, {link_frame} B mean frame on the wire",
        w.size_bytes(),
        c.batch_occupancy,
        bytes.len()
    )];
    let mut explained = 0.0;
    for (name, ns, calls) in terms {
        let per_update = ns * calls / applies;
        explained += per_update;
        notes.push(format!(
            "reconcile {name:<28} {ns:>12.1} ns/call x {:>9.3} calls/update = {per_update:>10.1} ns/update",
            calls / applies
        ));
    }
    let unexplained = run_for_ns_per_update - explained;
    notes.push(format!(
        "reconcile run_for {run_for_ns_per_update:.1} ns/update = layers {explained:.1} + unexplained {unexplained:.1}"
    ));

    let trace_overhead_s =
        (traced.run_for_s + traced.client_s) - (plain.run_for_s + plain.client_s);
    let metrics = vec![
        metric(
            "harness.register_ns_per_object",
            register_ns_per_object,
            "ns",
            format!("register_many wall over {n} objects"),
        ),
        metric("primary.register_ns", primary_register, "ns", "Primary::register alone"),
        metric(
            "harness.run_for_ns_per_update",
            run_for_ns_per_update,
            "ns",
            format!("untraced run_for wall over {} applies", plain.measured_applies),
        ),
        metric("sim.event_ns", event_ns, "ns", "schedule + step, trivial world"),
        metric("obs.counter_inc_ns", counter_ns, "ns", "registry counter"),
        metric("obs.histogram_record_ns", histogram_ns, "ns", "registry histogram"),
        metric(
            "harness.unexplained_ns_per_update",
            unexplained,
            "ns",
            "run_for ns/update minus the layer sum",
        ),
        metric("wire.encode_ns_per_update", encode_ns, "ns", format!("{k} per frame")),
        metric("wire.parse_ns_per_update", parse_ns, "ns", format!("{k} per frame")),
        metric(
            "types.crc32c_ns_per_kib",
            crc_ns_per_kib,
            "ns/KiB",
            format!("over {} B frames", bytes.len()),
        ),
        metric(
            "wire.frames_per_update",
            per_sent(c.frames_sent as f64),
            "ratio",
            format!("{} frames for {} update sends", c.frames_sent, c.updates_sent),
        ),
        metric(
            "wire.bytes_per_update",
            per_sent(bytes_on_wire),
            "B",
            "encoded bytes of update-carrying frames",
        ),
        metric(
            "types.bufpool_reuse_ratio",
            if leases == 0 { 0.0 } else { reuses as f64 / leases as f64 },
            "ratio",
            format!("{reuses} reuses of {leases} leases"),
        ),
        metric("net.link_transmit_ns", link_ns, "ns", format!("{link_frame} B frames")),
        metric(
            "net.graph_roundtrip_ns",
            graph_ns,
            "ns",
            format!("ProtocolGraph+UdpLike, {link_frame} B frames"),
        ),
        metric(
            "net.oversize_frames",
            oversize as f64,
            "count",
            format!(
                "{rejected} refused broadcasts{} + {oversize_plans} catch-up replies over {MAX_DATAGRAM} B",
                if c.rejections_overflowed {
                    " (lower bound: the trace ring wrapped)"
                } else {
                    ""
                }
            ),
        ),
        metric(
            "backup.handle_frame_ns_per_update",
            handle_ns,
            "ns",
            format!("{k} per frame"),
        ),
        metric("store.apply_ns", store_apply_ns, "ns", "ObjectStore::apply_from_parts"),
        metric("log.append_ns", log_append_ns, "ns", "UpdateLog::append"),
        metric(
            "backup.applied_per_sent",
            if c.updates_sent == 0 {
                0.0
            } else {
                c.applies as f64 / (c.updates_sent as f64 / c.backups.max(1) as f64)
            },
            "ratio",
            "applies at one backup over update sends to it",
        ),
        metric(
            "client.read_ns_p50",
            percentile_ns(&traced.read_call_ns, 50.0),
            "ns",
            format!("n={} read calls", traced.read_call_ns.len()),
        ),
        metric(
            "client.read_ns_p99",
            percentile_ns(&traced.read_call_ns, 99.0),
            "ns",
            format!("n={} read calls", traced.read_call_ns.len()),
        ),
        metric(
            "client.write_ns_p50",
            percentile_ns(&traced.write_call_ns, 50.0),
            "ns",
            format!("n={} write calls", traced.write_call_ns.len()),
        ),
        metric(
            "client.write_ns_p99",
            percentile_ns(&traced.write_call_ns, 99.0),
            "ns",
            format!("n={} write calls", traced.write_call_ns.len()),
        ),
        metric("backup.serve_read_ns", serve_read_ns, "ns", "Backup::serve_read"),
        metric(
            "log.suffix_ns_per_record",
            suffix_ns_per_record,
            "ns",
            format!("half of a {retention}-record ring"),
        ),
        metric("primary.snapshot_ns", snapshot_ns, "ns", format!("{n} objects")),
        metric(
            "primary.resync_diff_ns",
            resync_ns,
            "ns",
            format!("{n} objects, half behind"),
        ),
        metric(
            "recovery.bytes_per_recovery",
            recovery_bytes,
            "B",
            format!("{recoveries} catch-up plans"),
        ),
        metric(
            "store.audit_ns_per_object",
            audit_ns_per_object,
            "ns",
            format!("{n} objects"),
        ),
        metric(
            "store.range_digest_ns",
            digest_ns,
            "ns",
            format!("one of {ranges} ranges"),
        ),
        metric(
            "trace.overhead_s",
            trace_overhead_s,
            "s",
            "traced minus untraced wall in run_for and client calls",
        ),
    ];
    LayerReport { metrics, notes }
}
