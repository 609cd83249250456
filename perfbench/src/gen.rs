//! Workload generators.
//!
//! Each generator turns `(workload, seed, seconds)` into a [`Workload`]:
//! the object specs, the cluster configuration (fault plan included) and
//! the client read/write sequence. The runner receives only this value;
//! nothing it does draws from the seed again, so one seed always gives
//! one input.
//!
//! The measured phase is a fixed stretch of virtual time: `--seconds`
//! times a per-workload rate of virtual milliseconds per wall second,
//! calibrated on a 2-vCPU x86-64 machine so that the phase takes roughly
//! `--seconds` of wall time there. The horizon never depends on how fast
//! a run actually goes, so the simulator's virtual-time outcomes repeat
//! exactly for a given seed and `--seconds`.

use rtpb_core::config::{ProtocolConfig, SchedulingMode};
use rtpb_core::harness::{ClusterConfig, FaultEvent, FaultPlan};
use rtpb_obs::MetricsRegistry;
use rtpb_sim::SimRng;
use rtpb_types::{ObjectId, ObjectSpec, Time, TimeDelta};

/// The workloads this benchmark knows, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["write_fanout", "read_mostly", "churn_recovery"];

/// One client call of the read/write sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A certified read under `ReadConsistency::Bounded(δ)`.
    Read(ObjectId),
    /// A client write of a payload filled with the given byte.
    Write(ObjectId, u8),
}

/// The client read/write sequence, drawn from the seed as it is consumed
/// (a materialized list would outweigh the cluster it drives). Each run
/// consumes its own clone, so every run sees the same sequence.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: SimRng,
    objects: usize,
    next: u64,
    len: u64,
}

impl OpStream {
    fn empty() -> Self {
        OpStream {
            rng: SimRng::seed_from(0),
            objects: 1,
            next: 0,
            len: 0,
        }
    }

    /// Whether the sequence has no calls.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.next == self.len {
            return None;
        }
        self.next += 1;
        let id = ObjectId::new(self.rng.index(self.objects) as u32);
        // 99 reads to each write.
        Some(if self.next.is_multiple_of(100) {
            Op::Write(id, self.rng.index(256) as u8)
        } else {
            Op::Read(id)
        })
    }
}

/// Everything one run needs, generated up front from the seed.
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Cluster configuration, fault plan included.
    pub config: ClusterConfig,
    /// Objects to register, in order.
    pub specs: Vec<ObjectSpec>,
    /// Virtual warm-up before measurement starts.
    pub warmup: TimeDelta,
    /// Virtual length of the measured phase.
    pub horizon: TimeDelta,
    /// Virtual length of one `run_for` slice.
    pub slice: TimeDelta,
    /// Client calls issued after each measured slice, in order; empty for
    /// workloads without client traffic.
    pub ops: OpStream,
    /// How many of `ops` run after each measured slice.
    pub ops_per_slice: usize,
    /// How many times set-up is repeated to take its median.
    pub setup_repeats: usize,
}

impl Workload {
    /// Number of measured slices.
    pub fn slices(&self) -> u64 {
        self.horizon.as_nanos() / self.slice.as_nanos()
    }

    /// Payload size of every object and client write.
    pub fn size_bytes(&self) -> usize {
        self.specs[0].size_bytes()
    }

    /// Consistency window `δ` every read asks for: the objects' backup
    /// bound.
    pub fn read_bound(&self) -> TimeDelta {
        self.specs[0].backup_bound()
    }

    /// Whether the fault plan crashes and rejoins backups.
    pub fn has_faults(&self) -> bool {
        !self.config.fault_plan.is_empty()
    }
}

/// Size factor: 1 for the benchmark, smaller for the self-test.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Divides object counts and read volumes.
    pub divisor: usize,
}

impl Scale {
    /// The benchmark's own sizes.
    pub const FULL: Scale = Scale { divisor: 1 };

    fn objects(self, n: usize) -> usize {
        (n / self.divisor).max(8)
    }
}

/// Builds workload `name` from `seed`, sized for a measured phase of about
/// `seconds` of wall time.
pub fn generate(name: &str, seed: u64, seconds: u64, scale: Scale) -> Option<Workload> {
    let seconds = seconds.max(1);
    match name {
        "write_fanout" => Some(write_fanout(seed, seconds, scale)),
        "read_mostly" => Some(read_mostly(seed, seconds, scale)),
        "churn_recovery" => Some(churn_recovery(seed, seconds, scale)),
        _ => None,
    }
}

fn spec(name: &str, period_ms: u64, primary_ms: u64, backup_ms: u64, size: usize) -> ObjectSpec {
    ObjectSpec::builder(name)
        .update_period(TimeDelta::from_millis(period_ms))
        .exec_time(TimeDelta::from_micros(1))
        .primary_bound(TimeDelta::from_millis(primary_ms))
        .backup_bound(TimeDelta::from_millis(backup_ms))
        .size_bytes(size)
        .build()
        .expect("workload specs are valid")
}

/// Cluster configuration shared by every workload: admission off (the
/// offered set must register fully), a 1µs per-send CPU cost so the
/// simulated CPU does not saturate at these object counts, and the
/// default link (1–10 ms simulated delay).
fn base_config(seed: u64, backups: usize, protocol: ProtocolConfig) -> ClusterConfig {
    ClusterConfig {
        protocol: ProtocolConfig {
            admission_enabled: false,
            send_cost_base: TimeDelta::from_micros(1),
            ..protocol
        },
        num_backups: backups,
        seed,
        registry: MetricsRegistry::new(),
        ..ClusterConfig::default()
    }
}

/// The measured horizon for `seconds` at `virtual_ms_per_wall_s`, in
/// whole slices.
fn horizon(virtual_ms_per_wall_s: u64, seconds: u64, slice: TimeDelta) -> TimeDelta {
    let ms = virtual_ms_per_wall_s * seconds;
    let slice_ms = slice.as_nanos() / 1_000_000;
    TimeDelta::from_millis((ms / slice_ms).max(1) * slice_ms)
}

fn write_fanout(seed: u64, seconds: u64, scale: Scale) -> Workload {
    let objects = scale.objects(10_000);
    let config = base_config(
        seed,
        2,
        ProtocolConfig {
            coalesce_window: TimeDelta::from_millis(10),
            ..ProtocolConfig::default()
        },
    );
    let slice = TimeDelta::from_millis(10);
    Workload {
        name: "write_fanout",
        config,
        specs: vec![spec("wf-obj", 50, 150, 400, 64); objects],
        warmup: TimeDelta::from_millis(500),
        horizon: horizon(360, seconds, slice),
        slice,
        ops: OpStream::empty(),
        ops_per_slice: 0,
        setup_repeats: 4,
    }
}

fn read_mostly(seed: u64, seconds: u64, scale: Scale) -> Workload {
    let objects = scale.objects(2_000);
    let config = base_config(
        seed,
        4,
        ProtocolConfig {
            coalesce_window: TimeDelta::ZERO,
            scheduling_mode: SchedulingMode::Normal,
            ..ProtocolConfig::default()
        },
    );
    let slice = TimeDelta::from_millis(10);
    let horizon = horizon(1_000, seconds, slice);
    let ops_per_slice = 6_000 / scale.divisor;
    let slices = horizon / slice;
    let ops = OpStream {
        rng: SimRng::seed_from(seed ^ 0x5EED_0000_0000_0002),
        objects,
        next: 0,
        len: slices * ops_per_slice as u64,
    };
    Workload {
        name: "read_mostly",
        config,
        specs: vec![spec("rm-obj", 50, 150, 400, 64); objects],
        warmup: TimeDelta::from_millis(500),
        horizon,
        slice,
        ops,
        ops_per_slice,
        setup_repeats: 21,
    }
}

fn churn_recovery(seed: u64, seconds: u64, scale: Scale) -> Workload {
    let objects = scale.objects(2_000);
    let mut config = base_config(
        seed,
        2,
        ProtocolConfig {
            scrub_interval: TimeDelta::from_millis(100),
            ..ProtocolConfig::default()
        },
    );
    config.link.loss_probability = 0.01;
    // Keep the primary's lease alive through backup 0's outages: backup 1
    // keeps acking, and nobody fails over.
    config.auto_failover = false;

    let slice = TimeDelta::from_millis(1);
    let warmup = TimeDelta::from_secs(1);
    let horizon = horizon(12_000, seconds, TimeDelta::from_millis(10));
    // One crash/restart cycle every 1.1 s of virtual time; the outage
    // length is drawn from the seed. Restarts alternate between durable
    // (store and log position kept) and cold (empty store).
    let cycle = TimeDelta::from_millis(1_100);
    let restarts = (horizon.as_nanos() / cycle.as_nanos()) as usize;
    let mut rng = SimRng::seed_from(seed ^ 0x5EED_0000_0000_0003);
    let mut plan = FaultPlan::new();
    for i in 0..restarts {
        let crash = Time::ZERO + warmup + cycle * i as u64 + TimeDelta::from_millis(100);
        let outage = rng.delay_between(TimeDelta::from_millis(50), TimeDelta::from_millis(300));
        let restart = if i % 2 == 0 {
            FaultEvent::RestartBackup { host: 0 }
        } else {
            FaultEvent::RecoverBackup { host: 0 }
        };
        plan = plan
            .at(crash, FaultEvent::CrashBackup { host: 0 })
            .at(crash + outage, restart);
        if i % 4 == 3 {
            // A corrupting window on every data path, away from the
            // restart, so the CRC and retransmit repair paths run.
            plan = plan.at(
                crash + TimeDelta::from_millis(700),
                FaultEvent::CorruptFrame {
                    host: None,
                    duration: TimeDelta::from_millis(200),
                    probability: 0.05,
                },
            );
        }
    }
    config.fault_plan = plan;
    Workload {
        name: "churn_recovery",
        config,
        specs: vec![spec("cr-obj", 400, 600, 1_500, 64); objects],
        warmup,
        horizon,
        slice,
        ops: OpStream::empty(),
        ops_per_slice: 0,
        setup_repeats: 21,
    }
}
