//! The gap-proportional recovery suite.
//!
//! Crashes a backup under a steady 10k-object write load, restarts it
//! after a swept outage length, and measures what the primary ships to
//! re-integrate it — once with durable storage (the restart advertises
//! its last applied log position, so the primary can reply with just the
//! update-log suffix) and once cold (no position, full state transfer).
//! The headline is the byte ratio between the two: a short outage costs
//! a sliver of the store, and the cost grows with the outage length, not
//! the store size (DESIGN.md §11).
//!
//! The `recovery` binary renders the suite as a table and writes
//! `BENCH_recovery.json`; [`validate_report_json`] is the schema gate CI
//! runs against that file.

use crate::table::Table;
use rtpb_core::config::ProtocolConfig;
use rtpb_core::harness::{ClusterConfig, FaultEvent, FaultPlan, SimCluster};
use rtpb_obs::json::{parse_flat, JsonObject, JsonValue};
use rtpb_obs::MetricsRegistry;
use rtpb_types::{ObjectSpec, TimeDelta};
use std::fmt::Write as _;

/// The outage lengths the full suite sweeps, in milliseconds.
pub const DEFAULT_OUTAGES_MS: [u64; 3] = [10, 100, 400];

/// Parameters shared by every run of the suite.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Objects registered at the primary (the store size the full
    /// transfer pays and the suffix does not).
    pub objects: usize,
    /// Outage lengths to sweep (crash → restart), in milliseconds.
    pub outages_ms: Vec<u64>,
    /// Client write period `p_i`. Outages shorter than this touch only a
    /// fraction of the store, which is what makes the suffix cheap.
    pub write_period: TimeDelta,
    /// Primary external bound `δ_i^P`.
    pub primary_bound: TimeDelta,
    /// Backup consistency window `δ_i`.
    pub backup_bound: TimeDelta,
    /// Payload size in bytes.
    pub size_bytes: usize,
    /// When the backup crashes.
    pub crash_at: TimeDelta,
    /// How long the run continues after the restart (must cover the
    /// bounded-retry join cycle).
    pub settle: TimeDelta,
    /// Update-log ring capacity — sized to cover the longest swept
    /// outage at the offered write rate.
    pub log_retention: usize,
    /// Appends between store snapshots.
    pub snapshot_interval: u64,
    /// Seed shared by the durable and cold runs of every tier.
    pub seed: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            objects: 10_000,
            outages_ms: DEFAULT_OUTAGES_MS.to_vec(),
            write_period: TimeDelta::from_millis(400),
            primary_bound: TimeDelta::from_millis(600),
            backup_bound: TimeDelta::from_millis(1_500),
            size_bytes: 64,
            crash_at: TimeDelta::from_secs(1),
            settle: TimeDelta::from_millis(1_500),
            log_retention: 65_536,
            snapshot_interval: 16_384,
            seed: 42,
        }
    }
}

impl RecoveryConfig {
    /// Quick variant for smoke tests and CI: a smaller store, fewer
    /// tiers.
    #[must_use]
    pub fn quick() -> Self {
        RecoveryConfig {
            objects: 500,
            outages_ms: vec![25, 100],
            log_retention: 8_192,
            snapshot_interval: 2_048,
            ..RecoveryConfig::default()
        }
    }

    fn spec(&self) -> ObjectSpec {
        ObjectSpec::builder("rec-obj")
            .update_period(self.write_period)
            .exec_time(TimeDelta::from_micros(1))
            .primary_bound(self.primary_bound)
            .backup_bound(self.backup_bound)
            .size_bytes(self.size_bytes)
            .build()
            .expect("valid recovery spec")
    }

    fn cluster(&self, outage: TimeDelta, durable: bool) -> SimCluster {
        let restart = if durable {
            FaultEvent::RestartBackup { host: 0 }
        } else {
            FaultEvent::RecoverBackup { host: 0 }
        };
        let config = ClusterConfig {
            protocol: ProtocolConfig {
                // The suite measures catch-up cost at scale, so the load
                // must reach the store instead of being shed at the
                // admission gate, and the CPU must not saturate (10k
                // objects at the default per-send cost would swamp it,
                // measuring queueing rather than catch-up).
                admission_enabled: false,
                send_cost_base: TimeDelta::from_micros(1),
                send_cost_per_byte: TimeDelta::ZERO,
                log_retention: self.log_retention,
                snapshot_interval: self.snapshot_interval,
                ..ProtocolConfig::default()
            },
            seed: self.seed,
            // A second backup keeps acking through the outage so the
            // primary's lease never lapses and the write load stays on.
            num_backups: 2,
            auto_failover: false,
            registry: MetricsRegistry::new(),
            fault_plan: FaultPlan::new()
                .at(
                    rtpb_types::Time::ZERO + self.crash_at,
                    FaultEvent::CrashBackup { host: 0 },
                )
                .at(rtpb_types::Time::ZERO + self.crash_at + outage, restart),
            ..ClusterConfig::default()
        };
        SimCluster::new(config)
    }
}

/// What one run (one tier, durable or cold) measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeOutcome {
    /// The catch-up path the primary chose (`log_suffix`,
    /// `snapshot_diff`, or `full_transfer`).
    pub path: String,
    /// Log records between the rejoiner's position and the head.
    pub gap: u64,
    /// Entries shipped in the catch-up reply.
    pub records: u64,
    /// Encoded size of the catch-up reply.
    pub reply_bytes: u64,
    /// Crash-to-reintegrated time for the restart fault record (0 when
    /// the rejoin never completed — see [`ModeOutcome::completed`]).
    pub recovery_ms: f64,
    /// Whether the rejoin completed within the run.
    pub completed: bool,
    /// Whether the rejoiner's store matched the primary's when the
    /// restart's fault record closed: every object the primary holds is
    /// installed there, no more than its consistency window `δ_i` older
    /// than the primary's image. A catch-up that skips base images
    /// closes the record with this `false`.
    pub complete: bool,
}

/// Both restart flavors of one outage tier.
#[derive(Debug, Clone, PartialEq)]
pub struct TierOutcome {
    /// The swept outage length.
    pub outage_ms: u64,
    /// The durable restart (position advertised, suffix eligible).
    pub durable: ModeOutcome,
    /// The cold restart (no position, full state transfer).
    pub cold: ModeOutcome,
}

impl TierOutcome {
    /// Durable catch-up bytes over cold (full-transfer) bytes — the
    /// headline "sliver of the store" ratio.
    #[must_use]
    pub fn bytes_ratio(&self) -> f64 {
        if self.cold.reply_bytes > 0 {
            self.durable.reply_bytes as f64 / self.cold.reply_bytes as f64
        } else {
            f64::INFINITY
        }
    }
}

/// The whole suite: one [`TierOutcome`] per swept outage.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The configuration the suite ran with.
    pub config: RecoveryConfig,
    /// One outcome per entry in `config.outages_ms`.
    pub tiers: Vec<TierOutcome>,
}

/// How finely a run is stepped after the restart, so the rejoiner's
/// store is judged within this much of its fault record closing.
const STEP: TimeDelta = TimeDelta::from_millis(1);

/// Whether the first live backup (the rejoiner, host 0) holds every
/// object the primary holds, written no more than `window` before the
/// primary's image.
fn matches_primary(cluster: &SimCluster, window: TimeDelta) -> bool {
    let (Some(primary), Some(rejoiner)) = (cluster.primary(), cluster.backup()) else {
        return false;
    };
    primary.store().iter().all(|(id, entry)| {
        let Some(image) = entry.value() else {
            return true;
        };
        rejoiner
            .store()
            .get(id)
            .and_then(|e| e.value())
            .is_some_and(|held| image.timestamp().saturating_since(held.timestamp()) <= window)
    })
}

fn run_mode(config: &RecoveryConfig, outage_ms: u64, durable: bool) -> ModeOutcome {
    let outage = TimeDelta::from_millis(outage_ms);
    let mut cluster = config.cluster(outage, durable);
    let specs = (0..config.objects).map(|_| config.spec()).collect();
    cluster.register_many(specs).expect("admission disabled");
    cluster.run_for(config.crash_at + outage);
    // Fault records land in injection order: [0] the crash, [1] the
    // restart; the restart's recovery time spans join → catch-up landed.
    let closed = |c: &SimCluster| c.fault_report().get(1).and_then(|r| r.recovery_time());
    let mut left = config.settle;
    while !left.is_zero() && closed(&cluster).is_none() {
        let step = left.min(STEP);
        cluster.run_for(step);
        left -= step;
    }
    let recovery = closed(&cluster);

    let (path, gap, records, reply_bytes) = cluster.catch_up_plans().first().map_or_else(
        || ("none".to_string(), 0, 0, 0),
        |p| (p.path.name().to_string(), p.gap, p.records, p.bytes),
    );
    ModeOutcome {
        path,
        gap,
        records,
        reply_bytes,
        recovery_ms: recovery.map_or(0.0, |t| t.as_millis_f64()),
        completed: recovery.is_some(),
        complete: recovery.is_some() && matches_primary(&cluster, config.backup_bound),
    }
}

/// Runs one outage tier in both restart flavors under identical config
/// and seed.
#[must_use]
pub fn run_tier(config: &RecoveryConfig, outage_ms: u64) -> TierOutcome {
    TierOutcome {
        outage_ms,
        durable: run_mode(config, outage_ms, true),
        cold: run_mode(config, outage_ms, false),
    }
}

/// Runs every configured outage tier.
#[must_use]
pub fn run_suite(config: &RecoveryConfig) -> RecoveryReport {
    let tiers = config
        .outages_ms
        .iter()
        .map(|&ms| run_tier(config, ms))
        .collect();
    RecoveryReport {
        config: config.clone(),
        tiers,
    }
}

impl ModeOutcome {
    fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str_field("path", &self.path)
            .uint_field("gap", self.gap)
            .uint_field("records", self.records)
            .uint_field("reply_bytes", self.reply_bytes)
            .float_field("recovery_ms", round2(self.recovery_ms))
            .bool_field("completed", self.completed)
            .bool_field("complete", self.complete);
        o.finish()
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

fn json_float(v: f64) -> String {
    if v.is_finite() {
        format!("{}", round2(v))
    } else {
        "null".to_string()
    }
}

impl RecoveryReport {
    /// Renders the report as the `BENCH_recovery.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"rtpb.recovery.v1\",");
        let _ = writeln!(out, "  \"objects\": {},", self.config.objects);
        let _ = writeln!(
            out,
            "  \"write_period_ms\": {},",
            self.config.write_period.as_millis_f64() as u64
        );
        let _ = writeln!(
            out,
            "  \"crash_at_ms\": {},",
            self.config.crash_at.as_millis_f64() as u64
        );
        let _ = writeln!(out, "  \"log_retention\": {},", self.config.log_retention);
        let _ = writeln!(out, "  \"seed\": {},", self.config.seed);
        out.push_str("  \"tiers\": [\n");
        for (i, tier) in self.tiers.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"outage_ms\": {},", tier.outage_ms);
            let _ = writeln!(
                out,
                "      \"bytes_ratio\": {},",
                json_float(tier.bytes_ratio())
            );
            let _ = writeln!(out, "      \"durable\": {},", tier.durable.to_json());
            let _ = writeln!(out, "      \"cold\": {}", tier.cold.to_json());
            out.push_str(if i + 1 == self.tiers.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the report as a figure-style text table.
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            "Recovery: durable (log-suffix) vs cold (full-transfer) restart",
            "outage (ms)",
            vec![
                "suffix bytes".into(),
                "full bytes".into(),
                "bytes ratio".into(),
                "suffix records".into(),
                "durable recovery (ms)".into(),
                "cold recovery (ms)".into(),
            ],
        );
        for tier in &self.tiers {
            table.push_row(
                tier.outage_ms.to_string(),
                vec![
                    Some(tier.durable.reply_bytes as f64),
                    Some(tier.cold.reply_bytes as f64),
                    Some(round2(tier.bytes_ratio())),
                    Some(tier.durable.records as f64),
                    Some(round2(tier.durable.recovery_ms)),
                    Some(round2(tier.cold.recovery_ms)),
                ],
            );
        }
        table.note(format!(
            "{} objects, write period {}, log retention {}, durable paths: {}, \
             every rejoiner complete: {}",
            self.config.objects,
            self.config.write_period,
            self.config.log_retention,
            self.tiers
                .iter()
                .map(|t| t.durable.path.as_str())
                .collect::<Vec<_>>()
                .join(", "),
            self.tiers
                .iter()
                .all(|t| t.durable.complete && t.cold.complete),
        ));
        table
    }
}

const MODE_FIELDS: [&str; 7] = [
    "path",
    "gap",
    "records",
    "reply_bytes",
    "recovery_ms",
    "completed",
    "complete",
];

fn check_mode_object(text: &str, key: &str, at: usize) -> Result<usize, String> {
    let marker = format!("\"{key}\": ");
    let start = text[at..]
        .find(&marker)
        .map(|p| at + p + marker.len())
        .ok_or_else(|| format!("missing \"{key}\" object"))?;
    let end = text[start..]
        .find('}')
        .map(|p| start + p + 1)
        .ok_or_else(|| format!("unterminated \"{key}\" object"))?;
    let flat = parse_flat(&text[start..end]).map_err(|e| format!("bad \"{key}\" object: {e}"))?;
    for field in MODE_FIELDS {
        let v = flat
            .get(field)
            .ok_or_else(|| format!("\"{key}\" object missing field \"{field}\""))?;
        let ok = match field {
            "path" => matches!(v, JsonValue::Str(_)),
            "completed" | "complete" => v.as_bool().is_some(),
            "recovery_ms" => matches!(v, JsonValue::UInt(_) | JsonValue::Float(_)),
            _ => matches!(v, JsonValue::UInt(_)),
        };
        if !ok {
            return Err(format!("\"{key}\".\"{field}\" has the wrong type"));
        }
    }
    if flat.get("complete").and_then(JsonValue::as_bool) != Some(true) {
        return Err(format!(
            "\"{key}\" rejoiner store incomplete when its fault record closed"
        ));
    }
    Ok(end)
}

/// Validates a `BENCH_recovery.json` document against the v1 schema:
/// the header fields, at least one tier, and both per-mode leaf objects
/// carrying all seven fields with the right types — and, because a
/// recovery number means nothing for a replica that never caught up,
/// `complete: true` in every mode.
///
/// # Errors
///
/// Returns a description of the first problem found.
pub fn validate_report_json(text: &str) -> Result<(), String> {
    if !text.contains("\"schema\": \"rtpb.recovery.v1\"") {
        return Err("missing or unknown \"schema\" header".into());
    }
    for key in [
        "objects",
        "write_period_ms",
        "crash_at_ms",
        "log_retention",
        "seed",
    ] {
        if !text.contains(&format!("\"{key}\": ")) {
            return Err(format!("missing header field \"{key}\""));
        }
    }
    if !text.contains("\"tiers\": [") {
        return Err("missing \"tiers\" array".into());
    }
    let mut at = 0;
    let mut tiers = 0;
    while let Some(p) = text[at..].find("\"outage_ms\": ") {
        at += p + 1;
        if !text[at..].contains("\"bytes_ratio\":") {
            return Err("tier missing \"bytes_ratio\"".into());
        }
        at = check_mode_object(text, "durable", at)?;
        at = check_mode_object(text, "cold", at)?;
        tiers += 1;
    }
    if tiers == 0 {
        return Err("no tiers in report".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> RecoveryReport {
        let mode = |path: &str, bytes: u64| ModeOutcome {
            path: path.to_string(),
            gap: 40,
            records: 40,
            reply_bytes: bytes,
            recovery_ms: 12.5,
            completed: true,
            complete: true,
        };
        RecoveryReport {
            config: RecoveryConfig {
                outages_ms: vec![25, 100],
                ..RecoveryConfig::quick()
            },
            tiers: vec![
                TierOutcome {
                    outage_ms: 25,
                    durable: mode("log_suffix", 500),
                    cold: mode("full_transfer", 10_000),
                },
                TierOutcome {
                    outage_ms: 100,
                    durable: mode("log_suffix", 2_000),
                    cold: mode("full_transfer", 10_000),
                },
            ],
        }
    }

    #[test]
    fn json_passes_its_own_schema_gate() {
        let text = synthetic().to_json();
        validate_report_json(&text).expect("schema-valid");
        assert!(text.contains("\"bytes_ratio\": 0.05"));
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_report_json("{}").is_err());
        let text = synthetic().to_json();
        assert!(validate_report_json(&text.replace("rtpb.recovery.v1", "v0")).is_err());
        assert!(validate_report_json(&text.replace("\"reply_bytes\"", "\"bytes\"")).is_err());
        assert!(
            validate_report_json(&text.replace("\"completed\":true", "\"completed\":3")).is_err()
        );
        let incomplete = text.replacen("\"complete\":true", "\"complete\":false", 1);
        let err = validate_report_json(&incomplete).unwrap_err();
        assert!(err.contains("incomplete"), "{err}");
    }

    #[test]
    fn table_has_one_row_per_tier() {
        let t = synthetic().to_table();
        assert_eq!(t.rows().len(), 2);
        assert_eq!(t.rows()[0].1[2], Some(0.05), "bytes ratio column");
    }

    #[test]
    fn short_outage_ships_a_sliver_of_the_store() {
        // A scaled-down end-to-end run: a 25 ms outage against a 400 ms
        // write period touches ~6% of the objects, so the suffix must be
        // far cheaper than the full transfer the cold restart needs.
        let config = RecoveryConfig {
            objects: 80,
            outages_ms: vec![25],
            log_retention: 4_096,
            snapshot_interval: 1_024,
            ..RecoveryConfig::quick()
        };
        let tier = run_tier(&config, 25);
        assert_eq!(tier.durable.path, "log_suffix");
        assert_eq!(tier.cold.path, "full_transfer");
        assert!(tier.durable.completed && tier.cold.completed);
        assert!(tier.durable.complete && tier.cold.complete, "{tier:?}");
        assert!(
            tier.bytes_ratio() < 0.5,
            "suffix must undercut the full transfer, ratio {}",
            tier.bytes_ratio()
        );
    }
}
