//! The thread-based cluster runtime.

use crate::chan::{unbounded, Receiver, RecvTimeoutError, Sender};
use crate::link::spawn_link;
use rtpb_core::backup::Backup;
use rtpb_core::config::ProtocolConfig;
use rtpb_core::integrity::IntegrityEvent;
use rtpb_core::metrics::ClusterMetrics;
use rtpb_core::monitor::MonitorEvent;
use rtpb_core::primary::Primary;
use rtpb_core::wire::{ReadStatus, WireMessage};
use rtpb_net::LinkConfig;
use rtpb_obs::{ClockDomain, EventBus, EventKind, EventWriter, Role};
use rtpb_types::{AdmissionError, Epoch, NodeId, ObjectId, ObjectSpec, Time, TimeDelta, Version};
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration for a real-clock run.
#[derive(Debug, Clone)]
pub struct RtConfig {
    /// RTPB protocol parameters.
    pub protocol: ProtocolConfig,
    /// Link behaviour in both directions.
    pub link: LinkConfig,
    /// Random seed for link loss/delay.
    pub seed: u64,
    /// Objects to register before the run starts.
    pub objects: Vec<ObjectSpec>,
    /// If set, the primary thread exits this long into the run, and the
    /// backup is expected to detect the failure and take over.
    pub crash_primary_after: Option<Duration>,
    /// If set, the backup crashes this long into the run: it loses its
    /// volatile state and stops acking heartbeats until (and unless)
    /// [`RtConfig::recover_backup_after`] fires.
    pub crash_backup_after: Option<Duration>,
    /// If set (with [`RtConfig::crash_backup_after`]), the backup restarts
    /// this long into the run and re-integrates through the bounded-retry
    /// join / catch-up path.
    pub recover_backup_after: Option<Duration>,
    /// Whether the backup's storage survives a scheduled crash. When
    /// `true` the restarted backup keeps its object store and last
    /// applied log position and advertises that position in its
    /// `JoinRequest`, so the primary can reply with just the update-log
    /// suffix it missed (DESIGN.md §11). When `false` the restart is
    /// cold — fresh state machine, full state transfer.
    pub durable_restart: bool,
    /// Structured-event bus; each runtime thread takes its own writer
    /// (rings never contend) and stamps events with the monotonic
    /// real clock ([`ClockDomain::Real`]).
    pub bus: EventBus,
    /// If set, a reader thread issues one replica read per period
    /// (round-robin over the objects) as wire-level
    /// [`WireMessage::ReadRequest`] frames: first to the backup, and —
    /// when the backup answers `Behind`/`Unknown` or not at all — again
    /// to the primary (counted as a redirect).
    pub read_period: Option<Duration>,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig {
            protocol: ProtocolConfig::default(),
            link: LinkConfig {
                delay_min: TimeDelta::from_micros(200),
                delay_max: TimeDelta::from_millis(5),
                ..LinkConfig::default()
            },
            seed: 0,
            objects: Vec::new(),
            crash_primary_after: None,
            crash_backup_after: None,
            recover_backup_after: None,
            durable_restart: false,
            bus: EventBus::disabled(),
            read_period: None,
        }
    }
}

/// The outcome of a real-clock run.
#[derive(Debug, Clone)]
pub struct RtReport {
    /// Client writes applied by a serving primary.
    pub writes: u64,
    /// Updates transmitted toward the backup.
    pub updates_sent: u64,
    /// Updates installed at the backup.
    pub updates_applied: u64,
    /// Backup-initiated retransmission requests observed.
    pub retransmit_requests: u64,
    /// Mean client response time (channel + apply latency).
    pub mean_response: Option<TimeDelta>,
    /// Average per-object maximum primary–backup distance.
    pub average_max_distance: Option<TimeDelta>,
    /// Out-of-window episodes across all objects.
    pub inconsistency_episodes: u64,
    /// Whether the backup promoted itself during the run.
    pub failed_over: bool,
    /// Catch-up frames (state transfer or log suffix) completing a backup
    /// re-integration after a scheduled crash/recovery.
    pub backup_rejoins: u64,
    /// The subset of [`RtReport::backup_rejoins`] completed by a log
    /// suffix instead of a full state transfer (durable restarts whose
    /// gap the primary's update log still covered).
    pub suffix_rejoins: u64,
    /// Replica reads answered locally by the backup (with a staleness
    /// certificate); 0 unless [`RtConfig::read_period`] is set.
    pub reads_served: u64,
    /// Reads the backup could not serve that were redirected to (and
    /// answered by) the primary.
    pub read_redirects: u64,
    /// Timing-assumption violations raised by the runtime temporal
    /// monitors (DESIGN.md §14). Zero on a healthy host: the real clock
    /// is monotone and the default envelope absorbs scheduler jitter.
    pub timing_violations: u64,
    /// Checksum verification failures detected by either node — wire
    /// frames, retained log records, log snapshots, or stored object
    /// images (DESIGN.md §15). Zero on healthy hardware: in-process
    /// channels do not flip bits.
    pub integrity_violations: u64,
}

/// Why a real-clock run could not start.
#[derive(Debug, Clone, PartialEq)]
pub enum RtError {
    /// No objects were configured.
    NoObjects,
    /// An object failed admission control.
    Rejected(AdmissionError),
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::NoObjects => write!(f, "no objects configured"),
            RtError::Rejected(e) => write!(f, "object rejected by admission control: {e}"),
        }
    }
}

impl Error for RtError {}

impl From<AdmissionError> for RtError {
    fn from(e: AdmissionError) -> Self {
        RtError::Rejected(e)
    }
}

/// The real-clock cluster. Use [`RtCluster::run`] to execute a complete
/// run; threads are joined before it returns.
#[derive(Debug)]
pub struct RtCluster;

#[derive(Debug)]
struct Deadline {
    due: Instant,
    object: Option<ObjectId>, // None = heartbeat
}

impl PartialEq for Deadline {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.object == other.object
    }
}
impl Eq for Deadline {}
impl PartialOrd for Deadline {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Deadline {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.due.cmp(&self.due) // min-heap
    }
}

struct Shared {
    metrics: Mutex<ClusterMetrics>,
    stop: AtomicBool,
    failed_over: AtomicBool,
    rejoins: AtomicU64,
    suffix_rejoins: AtomicU64,
    reads_served: AtomicU64,
    read_redirects: AtomicU64,
    timing_violations: AtomicU64,
    integrity_violations: AtomicU64,
    epoch: Instant,
}

impl Shared {
    fn now(&self) -> Time {
        Time::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }
}

impl RtCluster {
    /// Runs a cluster for `duration` of wall-clock time and reports.
    ///
    /// # Errors
    ///
    /// Returns [`RtError`] if no objects are configured or admission
    /// control rejects one of them.
    pub fn run(config: RtConfig, duration: Duration) -> Result<RtReport, RtError> {
        if config.objects.is_empty() {
            return Err(RtError::NoObjects);
        }
        let shared = Arc::new(Shared {
            metrics: Mutex::new(ClusterMetrics::new()),
            stop: AtomicBool::new(false),
            failed_over: AtomicBool::new(false),
            rejoins: AtomicU64::new(0),
            suffix_rejoins: AtomicU64::new(0),
            reads_served: AtomicU64::new(0),
            read_redirects: AtomicU64::new(0),
            timing_violations: AtomicU64::new(0),
            integrity_violations: AtomicU64::new(0),
            epoch: Instant::now(),
        });

        // Build and populate the primary (one backup peer: node#1).
        let mut primary = Primary::new(NodeId::new(0), config.protocol.clone());
        primary.add_backup(NodeId::new(1), shared.now());
        let registration = primary.register_many(&config.objects, shared.now());
        if let Some(e) = registration.rejected {
            return Err(e.into());
        }
        let mut ids = Vec::new();
        for (&id, spec) in registration.ids.iter().zip(&config.objects) {
            shared.metrics.lock().unwrap().track_object(
                id,
                spec.window(),
                spec.primary_bound(),
                spec.backup_bound(),
            );
            ids.push((id, spec.clone()));
        }
        let primary_registry = primary.registry();
        let mut backup = Backup::new(NodeId::new(1), config.protocol.clone());
        for (id, spec, period) in primary_registry.clone() {
            backup.sync_registration(id, spec, period, shared.now());
            shared.metrics.lock().unwrap().set_refresh_allowance(
                id,
                period
                    + config.protocol.coalesce_window
                    + config.protocol.link_delay_bound
                    + config.protocol.retransmit_slack,
            );
        }

        // Channels: client→primary (MPMC so the promoted backup can take
        // over), and one lossy link thread per direction.
        let (client_tx, client_rx) = unbounded::<(ObjectId, Vec<u8>, Instant)>();
        let (to_backup_tx, backup_in) = unbounded::<Vec<u8>>();
        let (to_primary_tx, primary_in) = unbounded::<Vec<u8>>();
        // Updates ride the lossy data path; control traffic (heartbeats,
        // retransmission requests) rides a physically-redundant path with
        // the same delays but no loss — matching the paper's §4.1
        // assumptions and the simulation harness.
        let lossless = LinkConfig {
            loss_probability: 0.0,
            ..config.link
        };
        // The reader's request paths (reliable, delayed like control
        // traffic) and the reply path the serving loops route
        // `ReadReply` frames onto.
        let (read_reply_tx, read_reply_rx) = unbounded::<Vec<u8>>();
        let read_to_backup =
            spawn_link(lossless, config.seed.wrapping_add(5), to_backup_tx.clone());
        let read_to_primary =
            spawn_link(lossless, config.seed.wrapping_add(6), to_primary_tx.clone());
        let read_replies = spawn_link(lossless, config.seed.wrapping_add(7), read_reply_tx);
        let p2b = Links {
            data: spawn_link(
                config.link,
                config.seed.wrapping_add(1),
                to_backup_tx.clone(),
            ),
            control: spawn_link(lossless, config.seed.wrapping_add(3), to_backup_tx),
        };
        let b2p = Links {
            data: spawn_link(
                config.link,
                config.seed.wrapping_add(2),
                to_primary_tx.clone(),
            ),
            control: spawn_link(lossless, config.seed.wrapping_add(4), to_primary_tx),
        };

        // Client thread.
        let client = {
            let shared = Arc::clone(&shared);
            let objects = ids.clone();
            let tx = client_tx.clone();
            std::thread::Builder::new()
                .name("rtpb-client".into())
                .spawn(move || client_loop(&shared, &objects, &tx))
                .expect("spawn client")
        };

        // Primary thread.
        let primary_thread = {
            let shared = Arc::clone(&shared);
            let client_rx = client_rx.clone();
            let p2b = p2b.clone();
            let crash_after = config.crash_primary_after;
            let obs = config.bus.writer();
            let read_replies = read_replies.clone();
            std::thread::Builder::new()
                .name("rtpb-primary".into())
                .spawn(move || {
                    primary_loop(
                        &shared,
                        primary,
                        &client_rx,
                        &primary_in,
                        &p2b,
                        &read_replies,
                        crash_after,
                        &obs,
                    );
                })
                .expect("spawn primary")
        };

        // Backup thread (may become the primary).
        let backup_thread = {
            let shared = Arc::clone(&shared);
            let client_rx = client_rx.clone();
            let protocol = config.protocol.clone();
            let registry: Vec<(ObjectId, ObjectSpec, TimeDelta)> = primary_registry;
            let crash = BackupCrashSchedule {
                crash_after: config.crash_backup_after,
                recover_after: config.recover_backup_after,
                durable: config.durable_restart,
            };
            let obs = config.bus.writer();
            let read_replies = read_replies.clone();
            std::thread::Builder::new()
                .name("rtpb-backup".into())
                .spawn(move || {
                    backup_loop(
                        &shared,
                        backup,
                        &client_rx,
                        &backup_in,
                        &b2p,
                        &read_replies,
                        &protocol,
                        &registry,
                        crash,
                        &obs,
                    );
                })
                .expect("spawn backup")
        };

        // Reader thread (only when a read cadence is configured).
        let reader_thread = config.read_period.map(|period| {
            let shared = Arc::clone(&shared);
            let object_ids: Vec<ObjectId> = ids.iter().map(|(id, _)| *id).collect();
            let obs = config.bus.writer();
            std::thread::Builder::new()
                .name("rtpb-reader".into())
                .spawn(move || {
                    reader_loop(
                        &shared,
                        &object_ids,
                        &read_to_backup,
                        &read_to_primary,
                        &read_reply_rx,
                        period,
                        &obs,
                    );
                })
                .expect("spawn reader")
        });

        std::thread::sleep(duration);
        shared.stop.store(true, Ordering::SeqCst);
        drop(client_tx);
        client.join().expect("client thread");
        primary_thread.join().expect("primary thread");
        backup_thread.join().expect("backup thread");
        if let Some(reader) = reader_thread {
            reader.join().expect("reader thread");
        }

        let mut metrics = shared.metrics.lock().unwrap().clone();
        metrics.finalize(shared.now());
        let episodes: u64 = metrics
            .object_ids()
            .filter_map(|id| metrics.object_report(id))
            .map(|r| r.inconsistency_episodes)
            .sum();
        let writes: u64 = metrics
            .object_ids()
            .filter_map(|id| metrics.object_report(id))
            .map(|r| r.writes)
            .sum();
        let applies: u64 = metrics
            .object_ids()
            .filter_map(|id| metrics.object_report(id))
            .map(|r| r.applies)
            .sum();
        Ok(RtReport {
            writes,
            updates_sent: metrics.updates_sent(),
            updates_applied: applies,
            retransmit_requests: metrics.retransmit_requests(),
            mean_response: metrics.response_times().mean(),
            average_max_distance: metrics.average_max_distance(),
            inconsistency_episodes: episodes,
            failed_over: shared.failed_over.load(Ordering::SeqCst),
            backup_rejoins: shared.rejoins.load(Ordering::SeqCst),
            suffix_rejoins: shared.suffix_rejoins.load(Ordering::SeqCst),
            reads_served: shared.reads_served.load(Ordering::SeqCst),
            read_redirects: shared.read_redirects.load(Ordering::SeqCst),
            timing_violations: shared.timing_violations.load(Ordering::SeqCst),
            integrity_violations: shared.integrity_violations.load(Ordering::SeqCst),
        })
    }
}

fn client_loop(
    shared: &Shared,
    objects: &[(ObjectId, ObjectSpec)],
    tx: &Sender<(ObjectId, Vec<u8>, Instant)>,
) {
    let mut heap: BinaryHeap<Deadline> = BinaryHeap::new();
    let start = Instant::now();
    for (i, (id, _)) in objects.iter().enumerate() {
        heap.push(Deadline {
            due: start + Duration::from_micros(997 * (i as u64 + 1)),
            object: Some(*id),
        });
    }
    let mut counter: u64 = 0;
    while !shared.stop.load(Ordering::SeqCst) {
        let Some(next) = heap.peek() else { return };
        let wait = next.due.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait.min(Duration::from_millis(20)));
            continue;
        }
        let d = heap.pop().expect("peeked");
        let id = d.object.expect("client deadlines carry objects");
        let spec = &objects
            .iter()
            .find(|(oid, _)| *oid == id)
            .expect("registered")
            .1;
        counter += 1;
        let mut payload = vec![0u8; spec.size_bytes()];
        let stamp = counter.to_be_bytes();
        let n = stamp.len().min(payload.len());
        payload[..n].copy_from_slice(&stamp[..n]);
        if tx.send((id, payload, Instant::now())).is_err() {
            return;
        }
        heap.push(Deadline {
            due: d.due + Duration::from(spec.update_period()),
            object: Some(id),
        });
    }
}

/// The reader thread: one replica read per `period`, round-robin over
/// the objects. Reads go to the backup first; a backup that answers
/// `Behind`/`Unknown` (or not at all within the reply deadline) costs a
/// redirect to the primary — the wire-level twin of the simulation
/// facade's routing.
fn reader_loop(
    shared: &Shared,
    objects: &[ObjectId],
    to_backup: &Sender<Vec<u8>>,
    to_primary: &Sender<Vec<u8>>,
    replies: &Receiver<Vec<u8>>,
    period: Duration,
    obs: &EventWriter,
) {
    let emit = |kind: EventKind| obs.emit(ClockDomain::Real, shared.now(), kind);
    let reader_node = NodeId::new(2);
    let reply_deadline = Duration::from_millis(50);
    let mut index = 0usize;
    // Wait for a `ReadReply` (discarding stale leftovers is unnecessary:
    // requests are strictly sequential, one outstanding at a time).
    let await_reply = |deadline: Duration| -> Option<WireMessage> {
        let due = Instant::now() + deadline;
        loop {
            let left = due.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            match replies.recv_timeout(left.min(Duration::from_millis(5))) {
                Ok(bytes) => {
                    if let Ok(msg @ WireMessage::ReadReply { .. }) = WireMessage::decode(&bytes) {
                        return Some(msg);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
    };
    while !shared.stop.load(Ordering::SeqCst) {
        let object = objects[index % objects.len()];
        index += 1;
        let request = WireMessage::ReadRequest {
            epoch: Epoch::INITIAL,
            from: reader_node,
            object,
            floor: None,
        };
        let _ = to_backup.send(request.encode());
        let served = await_reply(reply_deadline);
        match served {
            Some(WireMessage::ReadReply {
                status: ReadStatus::Served,
                version,
                age_bound,
                ..
            }) => {
                shared.reads_served.fetch_add(1, Ordering::SeqCst);
                emit(EventKind::ReadServed {
                    object,
                    served_by: NodeId::new(1),
                    version,
                    age_bound,
                    consistency: "bounded".to_string(),
                });
            }
            other => {
                // Redirect: ask the primary (the authoritative copy). An
                // `Unsound` refusal means the backup's monitor disowned
                // its certificates (DESIGN.md §14) — distinguish it from
                // an ordinary miss in the redirect reason.
                let reason = match &other {
                    Some(WireMessage::ReadReply {
                        status: ReadStatus::Unsound,
                        ..
                    }) => "replica_unsound",
                    _ => "replica_unavailable",
                };
                let _ = to_primary.send(request.encode());
                if let Some(WireMessage::ReadReply {
                    status: ReadStatus::Served,
                    ..
                }) = await_reply(reply_deadline)
                {
                    shared.read_redirects.fetch_add(1, Ordering::SeqCst);
                    emit(EventKind::ReadRedirected {
                        object,
                        primary: NodeId::new(0),
                        consistency: "bounded".to_string(),
                        reason: reason.to_string(),
                    });
                }
            }
        }
        std::thread::sleep(period);
    }
}

/// One direction of the network: a lossy data path plus a reliable
/// control path.
#[derive(Clone)]
struct Links {
    data: Sender<Vec<u8>>,
    control: Sender<Vec<u8>>,
}

fn send_wire(link: &Links, msg: &WireMessage) {
    let chosen = if matches!(msg, WireMessage::Update { .. } | WireMessage::Batch { .. }) {
        &link.data
    } else {
        &link.control
    };
    let _ = chosen.send(msg.encode());
}

/// Surfaces a node's drained temporal-monitor events: counts violations
/// into the run report and mirrors each onto the event bus.
fn forward_monitor(shared: &Shared, obs: &EventWriter, node: NodeId, events: Vec<MonitorEvent>) {
    for event in events {
        let kind = match event {
            MonitorEvent::Violation(v) => {
                shared.timing_violations.fetch_add(1, Ordering::SeqCst);
                EventKind::TimingViolation {
                    node,
                    evidence: v.name().to_string(),
                    observed_ns: v.observed_ns(),
                    bound_ns: v.bound_ns(),
                }
            }
            MonitorEvent::Degraded => EventKind::MonitorDegraded { node },
            MonitorEvent::Recovered => EventKind::MonitorRecovered { node },
        };
        obs.emit(ClockDomain::Real, shared.now(), kind);
    }
}

/// Surfaces a node's drained integrity incidents: counts them into the
/// run report and mirrors each onto the event bus (DESIGN.md §15).
fn forward_integrity(
    shared: &Shared,
    obs: &EventWriter,
    node: NodeId,
    events: Vec<IntegrityEvent>,
) {
    for event in events {
        let kind = match event {
            IntegrityEvent::Violation { source, object, .. } => {
                shared.integrity_violations.fetch_add(1, Ordering::SeqCst);
                EventKind::IntegrityViolation {
                    node,
                    source: source.name(),
                    object: object.map_or(u64::MAX, |id| u64::from(id.index())),
                }
            }
            IntegrityEvent::ScrubDivergence { range, ranges } => EventKind::ScrubDivergence {
                node,
                range: u64::from(range),
                ranges: u64::from(ranges),
            },
            // `IntegrityEvent` is non-exhaustive; future kinds are
            // counted nowhere rather than crashing the runtime.
            _ => continue,
        };
        obs.emit(ClockDomain::Real, shared.now(), kind);
    }
}

/// The `(object, version)` pairs of every update a frame carries.
fn frame_updates(msg: &WireMessage) -> Vec<(ObjectId, Version)> {
    match msg {
        WireMessage::Update {
            object, version, ..
        } => vec![(*object, *version)],
        WireMessage::Batch { messages, .. } => messages.iter().flat_map(frame_updates).collect(),
        _ => Vec::new(),
    }
}

#[allow(clippy::needless_pass_by_value, clippy::too_many_arguments)]
fn primary_loop(
    shared: &Shared,
    mut primary: Primary,
    client_rx: &Receiver<(ObjectId, Vec<u8>, Instant)>,
    network: &Receiver<Vec<u8>>,
    link: &Links,
    read_replies: &Sender<Vec<u8>>,
    crash_after: Option<Duration>,
    obs: &EventWriter,
) {
    let emit = |kind: EventKind| obs.emit(ClockDomain::Real, shared.now(), kind);
    let start = Instant::now();
    let batching = primary.config().batching_enabled();
    let coalesce_window = Duration::from(primary.config().coalesce_window);
    let mut pending: Vec<ObjectId> = Vec::new();
    let mut flush_at: Option<Instant> = None;
    let mut timers: BinaryHeap<Deadline> = BinaryHeap::new();
    for (id, _, period) in primary.registry() {
        timers.push(Deadline {
            due: start + Duration::from(period),
            object: Some(id),
        });
    }
    timers.push(Deadline {
        due: start,
        object: None,
    });

    while !shared.stop.load(Ordering::SeqCst) {
        if crash_after.is_some_and(|c| start.elapsed() >= c) {
            return; // crash: silently stop serving
        }
        // Fire due timers.
        let now_i = Instant::now();
        while timers.peek().is_some_and(|d| d.due <= now_i) {
            let d = timers.pop().expect("peeked");
            match d.object {
                Some(id) => {
                    if batching {
                        // Coalesce: park the object, flush one window out.
                        if !pending.contains(&id) {
                            pending.push(id);
                        }
                        if flush_at.is_none() {
                            flush_at = Some(Instant::now() + coalesce_window);
                        }
                    } else if let Some(update) = primary.make_update(id, shared.now()) {
                        shared.metrics.lock().unwrap().record_update_sent(false);
                        if let WireMessage::Update {
                            object, version, ..
                        } = &update
                        {
                            // Loss is decided downstream in the link
                            // thread; the sender always reports `false`.
                            emit(EventKind::UpdateSent {
                                object: *object,
                                version: *version,
                                to: NodeId::new(1),
                                lost: false,
                            });
                        }
                        send_wire(link, &update);
                    }
                    if let Some(period) = primary.send_period(id) {
                        timers.push(Deadline {
                            due: d.due + Duration::from(period),
                            object: Some(id),
                        });
                    }
                }
                None => {
                    let round = primary.tick_heartbeat(shared.now());
                    forward_monitor(shared, obs, primary.node(), primary.drain_monitor_events());
                    forward_integrity(
                        shared,
                        obs,
                        primary.node(),
                        primary.drain_integrity_events(),
                    );
                    for (dest, ping) in round.pings {
                        emit(EventKind::HeartbeatSent {
                            from: primary.node(),
                            to: dest,
                        });
                        send_wire(link, &ping);
                    }
                    timers.push(Deadline {
                        due: d.due + Duration::from(primary.config().heartbeat_period / 2),
                        object: None,
                    });
                }
            }
        }
        // Flush an expired coalescing window as one batch frame.
        if flush_at.is_some_and(|f| f <= Instant::now()) {
            flush_at = None;
            let ids = std::mem::take(&mut pending);
            if let Some(batch) = primary.make_batch(&ids, shared.now()) {
                let carried = frame_updates(&batch);
                {
                    let mut m = shared.metrics.lock().unwrap();
                    for _ in &carried {
                        m.record_update_sent(false);
                    }
                }
                emit(EventKind::BatchSent {
                    to: NodeId::new(1),
                    size: carried.len() as u64,
                    lost: false,
                });
                for (object, version) in carried {
                    emit(EventKind::UpdateSent {
                        object,
                        version,
                        to: NodeId::new(1),
                        lost: false,
                    });
                }
                send_wire(link, &batch);
            }
        }
        let mut until_next = timers.peek().map_or(Duration::from_millis(10), |d| {
            d.due.saturating_duration_since(Instant::now())
        });
        if let Some(f) = flush_at {
            until_next = until_next.min(f.saturating_duration_since(Instant::now()));
        }
        let timeout = until_next.min(Duration::from_millis(10));

        // Poll both inputs until the next timer is due: client writes
        // first (latency-sensitive), then the network, then a short sleep.
        let deadline = Instant::now() + timeout;
        loop {
            let mut progressed = false;
            while let Ok((id, payload, sent_at)) = client_rx.try_recv() {
                progressed = true;
                let now = shared.now();
                // The runtime is a harness-level driver of the sans-io
                // core; clients go through `RtpbClient`.
                #[allow(deprecated)]
                let applied = primary.apply_client_write(id, payload, now);
                if let Some(version) = applied {
                    let response = TimeDelta::from(sent_at.elapsed());
                    let mut m = shared.metrics.lock().unwrap();
                    m.record_response(response);
                    m.on_primary_write(id, version, now);
                    drop(m);
                    emit(EventKind::ClientWrite {
                        object: id,
                        version,
                        response,
                    });
                }
            }
            while let Ok(bytes) = network.try_recv() {
                progressed = true;
                if let Ok(msg) = WireMessage::decode(&bytes) {
                    if let WireMessage::RetransmitRequest { object, .. } = &msg {
                        shared.metrics.lock().unwrap().record_retransmit_request();
                        emit(EventKind::RetransmitRequested {
                            object: *object,
                            node: NodeId::new(1),
                        });
                    }
                    let out = primary.handle_message(&msg, shared.now());
                    forward_monitor(shared, obs, primary.node(), primary.drain_monitor_events());
                    forward_integrity(
                        shared,
                        obs,
                        primary.node(),
                        primary.drain_integrity_events(),
                    );
                    if let Some(plan) = &out.catch_up {
                        emit(EventKind::CatchUpPlan {
                            node: plan.node,
                            path: plan.path.name().to_string(),
                            gap: plan.gap,
                            records: plan.records,
                            bytes: plan.bytes,
                        });
                    }
                    for reply in &out.replies {
                        if matches!(reply, WireMessage::ReadReply { .. }) {
                            let _ = read_replies.send(reply.encode());
                            continue;
                        }
                        if matches!(reply, WireMessage::Update { .. }) {
                            shared.metrics.lock().unwrap().record_update_sent(false);
                        }
                        send_wire(link, reply);
                    }
                }
            }
            if progressed || Instant::now() >= deadline {
                break;
            }
            let nap = deadline
                .saturating_duration_since(Instant::now())
                .min(Duration::from_micros(500));
            std::thread::sleep(nap);
        }
    }
}

/// The backup thread's crash/recovery schedule (mirrors the simulation's
/// `FaultPlan` crash knobs under a real clock).
#[derive(Debug, Clone, Copy)]
struct BackupCrashSchedule {
    crash_after: Option<Duration>,
    recover_after: Option<Duration>,
    durable: bool,
}

#[allow(clippy::needless_pass_by_value, clippy::too_many_arguments)]
fn backup_loop(
    shared: &Shared,
    mut backup: Backup,
    client_rx: &Receiver<(ObjectId, Vec<u8>, Instant)>,
    network: &Receiver<Vec<u8>>,
    link: &Links,
    read_replies: &Sender<Vec<u8>>,
    protocol: &ProtocolConfig,
    registry: &[(ObjectId, ObjectSpec, TimeDelta)],
    crash: BackupCrashSchedule,
    obs: &EventWriter,
) {
    let emit = |kind: EventKind| obs.emit(ClockDomain::Real, shared.now(), kind);
    let start = Instant::now();
    let node = backup.node();
    let mut timers: BinaryHeap<Deadline> = BinaryHeap::new();
    let watchdog_ids: Vec<ObjectId> = backup.store().ids().collect();
    for id in &watchdog_ids {
        timers.push(Deadline {
            due: start + Duration::from_millis(50),
            object: Some(*id),
        });
    }
    timers.push(Deadline {
        due: start,
        object: None,
    });
    let hb_half = Duration::from(ProtocolConfig::default().heartbeat_period / 2);

    // Phase 1: act as the backup until promotion or stop.
    let mut promoted: Option<Primary> = None;
    let mut down = false;
    let mut crash_pending = crash.crash_after;
    let mut rejoining = false;
    while !shared.stop.load(Ordering::SeqCst) && promoted.is_none() {
        // Scheduled crash: drop all volatile state and go silent.
        if crash_pending.is_some_and(|c| start.elapsed() >= c) {
            crash_pending = None;
            down = true;
            emit(EventKind::RoleTransition {
                node,
                from: Role::Backup,
                to: Role::Down,
            });
        }
        if down {
            let recovered = crash.recover_after.is_some_and(|r| start.elapsed() >= r);
            if !recovered {
                // A dead host neither speaks nor listens.
                while network.try_recv().is_ok() {}
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            // Restart: registry re-synced out of band, object state
            // recovered via join + catch-up (bounded retries with
            // exponential backoff). A durable restart keeps the store
            // and log position so the join advertises where it stopped;
            // a cold restart builds a fresh state machine and will need
            // a full state transfer.
            down = false;
            rejoining = true;
            emit(EventKind::RoleTransition {
                node,
                from: Role::Down,
                to: Role::Joining,
            });
            let now = shared.now();
            if crash.durable {
                backup.rearm(now);
            } else {
                backup = Backup::new(node, protocol.clone());
                for (id, spec, period) in registry {
                    backup.sync_registration(*id, spec.clone(), *period, now);
                }
            }
            let join = backup.begin_join(now);
            send_wire(link, &join);
            timers.clear();
            let restart = Instant::now();
            for id in &watchdog_ids {
                timers.push(Deadline {
                    due: restart + Duration::from_millis(50),
                    object: Some(*id),
                });
            }
            timers.push(Deadline {
                due: restart,
                object: None,
            });
        }
        if rejoining {
            if let Some(join) = backup.tick_join(shared.now()) {
                send_wire(link, &join);
            }
            if backup.join_abandoned() {
                rejoining = false;
            }
        }
        let now_i = Instant::now();
        while timers.peek().is_some_and(|d| d.due <= now_i) {
            let d = timers.pop().expect("peeked");
            match d.object {
                Some(id) => {
                    if let Some(req) = backup.tick_watchdog(id, shared.now()) {
                        send_wire(link, &req);
                    }
                    timers.push(Deadline {
                        due: d.due + Duration::from_millis(50),
                        object: Some(id),
                    });
                }
                None => {
                    let (ping, primary_died) = backup.tick_heartbeat(shared.now());
                    forward_monitor(shared, obs, node, backup.drain_monitor_events());
                    forward_integrity(shared, obs, node, backup.drain_integrity_events());
                    if let Some(ping) = ping {
                        emit(EventKind::HeartbeatSent {
                            from: node,
                            to: NodeId::new(0),
                        });
                        send_wire(link, &ping);
                    }
                    if primary_died {
                        let now = shared.now();
                        emit(EventKind::HeartbeatMissed {
                            from: node,
                            peer: NodeId::new(0),
                        });
                        let mut m = shared.metrics.lock().unwrap();
                        m.record_failover_started(now);
                        m.record_failover_complete(now);
                        drop(m);
                        shared.failed_over.store(true, Ordering::SeqCst);
                        break;
                    }
                    timers.push(Deadline {
                        due: d.due + hb_half,
                        object: None,
                    });
                }
            }
        }
        if !backup.is_primary_alive() {
            emit(EventKind::RoleTransition {
                node,
                from: Role::Backup,
                to: Role::Primary,
            });
            promoted = Some(backup.promote(shared.now()));
            break;
        }
        match network.recv_timeout(Duration::from_millis(5)) {
            Ok(bytes) => {
                if let Ok(msg) = WireMessage::decode(&bytes) {
                    {
                        // A batch refreshes every update it carries.
                        let mut m = shared.metrics.lock().unwrap();
                        for (object, _) in frame_updates(&msg) {
                            m.on_backup_refresh(object, shared.now());
                        }
                    }
                    if rejoining
                        && matches!(
                            msg,
                            WireMessage::StateTransfer { .. }
                                | WireMessage::LogSuffix { .. }
                                | WireMessage::ResyncDiff { .. }
                        )
                    {
                        rejoining = false;
                        shared.rejoins.fetch_add(1, Ordering::SeqCst);
                        if matches!(msg, WireMessage::LogSuffix { .. }) {
                            shared.suffix_rejoins.fetch_add(1, Ordering::SeqCst);
                        }
                        emit(EventKind::RoleTransition {
                            node,
                            from: Role::Joining,
                            to: Role::Backup,
                        });
                    }
                    let out = backup.handle_message(&msg, shared.now());
                    forward_monitor(shared, obs, node, backup.drain_monitor_events());
                    forward_integrity(shared, obs, node, backup.drain_integrity_events());
                    let mut m = shared.metrics.lock().unwrap();
                    for (id, version, ts) in &out.applied {
                        m.on_backup_apply(*id, *version, *ts, shared.now());
                    }
                    drop(m);
                    for (id, version, _) in &out.applied {
                        emit(EventKind::UpdateApplied {
                            object: *id,
                            version: *version,
                            node,
                        });
                    }
                    for reply in &out.replies {
                        if matches!(reply, WireMessage::ReadReply { .. }) {
                            let _ = read_replies.send(reply.encode());
                        } else {
                            send_wire(link, reply);
                        }
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }

    // Phase 2: serve client writes as the new primary.
    let Some(mut new_primary) = promoted else {
        return;
    };
    while !shared.stop.load(Ordering::SeqCst) {
        match client_rx.recv_timeout(Duration::from_millis(5)) {
            Ok((id, payload, sent_at)) => {
                let now = shared.now();
                #[allow(deprecated)]
                let applied = new_primary.apply_client_write(id, payload, now);
                if let Some(version) = applied {
                    let mut m = shared.metrics.lock().unwrap();
                    m.record_response(TimeDelta::from(sent_at.elapsed()));
                    m.on_primary_write(id, version, now);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(period_ms: u64) -> ObjectSpec {
        ObjectSpec::builder("rt-obj")
            .update_period(TimeDelta::from_millis(period_ms))
            .primary_bound(TimeDelta::from_millis(period_ms + 50))
            .backup_bound(TimeDelta::from_millis(period_ms + 450))
            .build()
            .unwrap()
    }

    #[test]
    fn replicates_in_real_time() {
        let mut config = RtConfig::default();
        config.objects.push(spec(20));
        config.objects.push(spec(30));
        let report = RtCluster::run(config, Duration::from_millis(1200)).unwrap();
        assert!(report.writes >= 40, "writes: {}", report.writes);
        assert!(report.updates_applied > 0, "backup must receive updates");
        assert!(!report.failed_over);
        let mean = report.mean_response.unwrap();
        assert!(
            mean < TimeDelta::from_millis(50),
            "in-process response time should be small, got {mean}"
        );
    }

    #[test]
    fn batched_pipeline_replicates_in_real_time() {
        let mut config = RtConfig::default();
        config.protocol.coalesce_window = TimeDelta::from_millis(5);
        config.objects.push(spec(20));
        config.objects.push(spec(30));
        config.bus = EventBus::with_capacity(16_384);
        let bus = config.bus.clone();
        let report = RtCluster::run(config, Duration::from_millis(1200)).unwrap();
        assert!(report.writes > 0);
        assert!(
            report.updates_applied > 0,
            "backup must apply batched updates"
        );
        assert!(!report.failed_over);
        let events = bus.collect();
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::BatchSent { .. })),
            "batched run must emit batch frames"
        );
    }

    #[test]
    fn rejects_empty_object_list() {
        assert_eq!(
            RtCluster::run(RtConfig::default(), Duration::from_millis(10)).unwrap_err(),
            RtError::NoObjects
        );
    }

    #[test]
    fn rejects_inadmissible_objects() {
        let mut config = RtConfig::default();
        config.objects.push(
            ObjectSpec::builder("bad")
                .update_period(TimeDelta::from_millis(100))
                .primary_bound(TimeDelta::from_millis(50)) // p > δP
                .backup_bound(TimeDelta::from_millis(500))
                .build()
                .unwrap(),
        );
        assert!(matches!(
            RtCluster::run(config, Duration::from_millis(10)),
            Err(RtError::Rejected(_))
        ));
    }

    #[test]
    fn failover_promotes_backup_under_real_clock() {
        let mut config = RtConfig::default();
        config.objects.push(spec(20));
        config.crash_primary_after = Some(Duration::from_millis(300));
        let report = RtCluster::run(config, Duration::from_millis(1500)).unwrap();
        assert!(
            report.failed_over,
            "backup must detect the crash and promote"
        );
        assert!(report.writes > 0);
    }

    #[test]
    fn backup_crash_and_recovery_reintegrates() {
        let mut config = RtConfig::default();
        config.objects.push(spec(20));
        config.crash_backup_after = Some(Duration::from_millis(300));
        config.recover_backup_after = Some(Duration::from_millis(700));
        let report = RtCluster::run(config, Duration::from_millis(2000)).unwrap();
        assert!(!report.failed_over, "primary stays up");
        assert_eq!(
            report.backup_rejoins, 1,
            "recovered backup must re-integrate via state transfer"
        );
        assert_eq!(
            report.suffix_rejoins, 0,
            "a cold restart has no position and cannot use the log"
        );
        assert!(report.updates_applied > 0);
    }

    #[test]
    fn durable_restart_catches_up_from_the_log() {
        let mut config = RtConfig::default();
        config.objects.push(spec(20));
        config.crash_backup_after = Some(Duration::from_millis(300));
        config.recover_backup_after = Some(Duration::from_millis(700));
        config.durable_restart = true;
        config.bus = EventBus::with_capacity(16_384);
        let bus = config.bus.clone();
        let report = RtCluster::run(config, Duration::from_millis(2000)).unwrap();
        assert!(!report.failed_over, "primary stays up");
        assert_eq!(report.backup_rejoins, 1, "restarted backup re-integrates");
        assert_eq!(
            report.suffix_rejoins, 1,
            "a durable restart within retention must catch up via log suffix"
        );
        let events = bus.collect();
        let plan = events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::CatchUpPlan { path, .. } => Some(path.clone()),
                _ => None,
            })
            .expect("the rejoin must emit a catch_up_plan event");
        assert_eq!(plan, "log_suffix");
    }

    #[test]
    fn lease_expiry_silences_updates_without_acks() {
        let mut config = RtConfig::default();
        config.objects.push(spec(20));
        // The backup dies and never comes back: with nobody acking, the
        // primary's lease lapses, so under the real clock both the update
        // stream and client writes stop — a primary that once replicated
        // must assume a silent peer may have promoted past it, and keeps
        // refusing writes until a backup re-joins and re-arms the lease.
        config.crash_backup_after = Some(Duration::from_millis(300));
        let report = RtCluster::run(config, Duration::from_millis(1500)).unwrap();
        assert!(!report.failed_over, "a dead backup cannot promote");
        // ~27 writes (20 ms cadence) fit before the crash plus one lease
        // of grace; an ungated run would serve ~75.
        assert!(report.writes > 10);
        assert!(
            report.writes < 40,
            "lapsed lease must gate client writes: {}",
            report.writes
        );
        // Updates are gated the same way: ~15 fit, a full run sends ~75.
        assert!(report.updates_sent > 0);
        assert!(
            report.updates_sent < 50,
            "lapsed lease must gate updates: {}",
            report.updates_sent
        );
    }

    #[test]
    fn event_bus_captures_real_clock_run() {
        let mut config = RtConfig::default();
        config.objects.push(spec(20));
        config.bus = EventBus::with_capacity(16_384);
        let bus = config.bus.clone();
        let report = RtCluster::run(config, Duration::from_millis(800)).unwrap();
        assert!(report.writes > 0);
        let events = bus.collect();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.clock == ClockDomain::Real));
        let kinds: std::collections::BTreeSet<&str> =
            events.iter().map(|e| e.kind.name()).collect();
        for required in [
            "update_sent",
            "update_applied",
            "heartbeat_sent",
            "client_write",
        ] {
            assert!(kinds.contains(required), "missing {required}: {kinds:?}");
        }
        for line in bus.export_jsonl().lines() {
            rtpb_obs::validate_line(line).expect("schema-valid line");
        }
    }

    #[test]
    fn replica_reads_serve_with_certificates() {
        let mut config = RtConfig::default();
        config.objects.push(spec(20));
        config.read_period = Some(Duration::from_millis(10));
        config.bus = EventBus::with_capacity(16_384);
        let bus = config.bus.clone();
        let report = RtCluster::run(config, Duration::from_millis(1500)).unwrap();
        assert!(report.writes > 0);
        assert!(
            report.reads_served > 0,
            "the backup must answer reads locally: {report:?}"
        );
        let events = bus.collect();
        let served = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::ReadServed {
                    served_by,
                    age_bound,
                    ..
                } => Some((*served_by, *age_bound)),
                _ => None,
            })
            .collect::<Vec<_>>();
        assert!(!served.is_empty(), "read_served events must be emitted");
        assert!(
            served.iter().all(|&(node, _)| node == NodeId::new(1)),
            "replica reads are served by the backup"
        );
        // Every certificate's age bound stays within the replication
        // machinery's promise: send period + link delay bound + slack.
        let bound = TimeDelta::from_millis(20 + 450);
        assert!(
            served.iter().all(|&(_, age)| age <= bound),
            "age bounds must stay within the object's backup window"
        );
        for line in bus.export_jsonl().lines() {
            rtpb_obs::validate_line(line).expect("schema-valid line");
        }
    }

    #[test]
    fn healthy_real_clock_run_raises_no_timing_violations() {
        let mut config = RtConfig::default();
        config.objects.push(spec(20));
        let report = RtCluster::run(config, Duration::from_millis(800)).unwrap();
        assert_eq!(
            report.timing_violations, 0,
            "a monotone real clock must stay inside the envelope"
        );
    }

    #[test]
    fn renewal_from_a_skewed_clock_does_not_extend_the_lease() {
        // The guard-start-before-send renewal anchors the lease at the
        // probe's send time. If the local clock steps backward between
        // probe and ack, the recorded send time lies in the observer's
        // future — extending the lease from it would outrun the monotone
        // bound the declaration inequality was sized against. The monitor
        // must refuse the renewal, degrade, and fence the lease instead.
        let mut p = Primary::new(NodeId::new(0), ProtocolConfig::default());
        p.add_backup(NodeId::new(1), Time::ZERO);
        let round = p.tick_heartbeat(Time::from_millis(200));
        let Some(&(_, WireMessage::Ping { seq, .. })) = round.pings.first() else {
            panic!("expected a probe, got {round:?}");
        };
        assert!(p.lease_valid(Time::from_millis(200)));
        // The ack arrives after the clock regressed to t=150: the probe's
        // send time (t=200) is now "from the future".
        p.handle_message(
            &WireMessage::PingAck {
                epoch: Epoch::INITIAL,
                from: NodeId::new(1),
                seq,
            },
            Time::from_millis(150),
        );
        assert!(p.monitor().violations() > 0, "the skew must be detected");
        assert!(p.monitor().is_degraded());
        // Not renewed from t=200 (which would hold until t=450) — the
        // degraded primary fenced the lease it already held.
        assert!(!p.lease_valid(Time::from_millis(200)));
        assert_eq!(p.lease().expires_at(), None);
    }

    #[test]
    fn loss_triggers_retransmission_requests() {
        let mut config = RtConfig::default();
        config.link.loss_probability = 0.6;
        config.objects.push(spec(20));
        let report = RtCluster::run(config, Duration::from_millis(1500)).unwrap();
        assert!(
            report.retransmit_requests > 0,
            "watchdogs must request retransmissions under heavy loss"
        );
    }
}
