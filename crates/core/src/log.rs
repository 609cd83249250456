//! The primary's append-only update log and its snapshot/retention model.
//!
//! Every client write the primary applies is also appended to an
//! [`UpdateLog`]: an in-memory ring of [`LogRecord`]s, sequence-numbered
//! from 1 within the fencing epoch the log was minted under. Backups track
//! the last record they have applied as a `LogPosition`; a re-joining
//! backup ships that position and, if the ring still covers the gap, the
//! primary replies with just the missing suffix instead of re-shipping the
//! whole store — recovery cost proportional to outage length, not store
//! size (the "recovery barrier" of passive replication; see Junqueira &
//! Serafini in PAPERS.md).
//!
//! Two mechanisms bound the ring:
//!
//! - A hard retention cap ([`ProtocolConfig::log_retention`]): the oldest
//!   record is dropped once the ring is full.
//! - Periodic snapshots ([`ProtocolConfig::snapshot_interval`] appends
//!   apart): a snapshot is a checksummed *watermark* — the log head at
//!   the instant it was cut, O(1) to take — and records at or before the
//!   oldest retained watermark are truncated. A gap that predates the
//!   ring can still be served as a *snapshot diff*: every object whose
//!   newest log record ([`UpdateLog::latest_seq`]) lies above the
//!   watermark. Within one log epoch an object's freshness tag moves only
//!   through a logged write (promotion starts a fresh log), so "logged
//!   after the watermark" is exactly "tag moved since the snapshot".
//!
//! The per-object last-write index behind [`UpdateLog::latest_seq`]
//! survives truncation and carries its own O(1)-maintained checksum (an
//! XOR-fold of CRC32C over each `(object, seq)` pair), re-verified before
//! a diff is built from it ([`UpdateLog::verify_latest`]).
//!
//! The three catch-up paths a primary can choose are named by
//! [`CatchUpPath`] and surfaced in traces as `catch_up_plan` events.

use crate::config::ProtocolConfig;
use rtpb_types::{Crc32c, Epoch, ObjectId, Time, Version};
use std::collections::{BTreeMap, VecDeque};

/// One appended client write: the object's new image plus its sequence
/// number in the owning epoch's log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// 1-based sequence number within the log's epoch.
    pub seq: u64,
    /// The written object.
    pub object: ObjectId,
    /// Version the write produced.
    pub version: Version,
    /// Write timestamp (the image's temporal-consistency anchor).
    pub timestamp: Time,
    /// The written payload.
    pub payload: Vec<u8>,
    /// CRC32C over every other field, computed at append time
    /// (DESIGN.md §15). A record whose stored bytes no longer match is
    /// never served as catch-up material.
    pub crc: u32,
}

impl LogRecord {
    /// The checksum this record's current fields produce.
    #[must_use]
    pub fn compute_crc(&self) -> u32 {
        let mut c = Crc32c::new();
        c.update_u64(self.seq);
        c.update_u32(self.object.index());
        c.update_u64(self.version.value());
        c.update_u64(self.timestamp.as_nanos());
        c.update(&self.payload);
        c.finalize()
    }

    /// Whether the record still matches the checksum taken at append.
    #[must_use]
    pub fn verify(&self) -> bool {
        self.crc == self.compute_crc()
    }
}

/// A periodic snapshot watermark: the log head at the instant the
/// snapshot was cut, sealed with its own checksum.
///
/// A snapshot copies nothing — the store is its payload and the log's
/// per-object last-write index says what moved since: an object ships in
/// a diff against this snapshot when its newest record lies above
/// [`LogSnapshot::seq`].
#[derive(Debug, Clone)]
pub struct LogSnapshot {
    seq: u64,
    crc: u32,
}

fn watermark_crc(seq: u64) -> u32 {
    let mut c = Crc32c::new();
    c.update_u64(seq);
    c.finalize()
}

/// One `(object, seq)` pair's contribution to the last-write index's
/// XOR-folded checksum.
fn latest_crc(object: ObjectId, seq: u64) -> u32 {
    let mut c = Crc32c::new();
    c.update_u32(object.index());
    c.update_u64(seq);
    c.finalize()
}

impl LogSnapshot {
    /// The log sequence number the snapshot was taken at.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Whether the watermark still matches the checksum taken when it
    /// was cut. A snapshot that fails is unusable as a diff basis — the
    /// catch-up ladder falls through to a full transfer.
    #[must_use]
    pub fn verify(&self) -> bool {
        self.crc == watermark_crc(self.seq)
    }
}

/// Which re-integration path the primary chose for a gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatchUpPath {
    /// The log ring still covered the gap: ship only the missing records.
    LogSuffix,
    /// The ring had truncated, but a retained snapshot predates the gap:
    /// ship only objects whose freshness tag moved since that snapshot.
    SnapshotDiff,
    /// Nothing usable covered the gap (or the requester had no position /
    /// a position from another epoch): ship the full store.
    FullTransfer,
}

impl CatchUpPath {
    /// The schema name used in `catch_up_plan` trace events.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            CatchUpPath::LogSuffix => "log_suffix",
            CatchUpPath::SnapshotDiff => "snapshot_diff",
            CatchUpPath::FullTransfer => "full_transfer",
        }
    }
}

/// The per-group append-only update log held by the serving primary.
///
/// Records are contiguous: `seq` runs from `front().seq` to [`UpdateLog::head`]
/// without holes, so "does the ring cover a gap after position `p`"
/// reduces to `front().seq <= p + 1`.
///
/// # Examples
///
/// ```
/// use rtpb_core::config::ProtocolConfig;
/// use rtpb_core::log::UpdateLog;
/// use rtpb_types::{Epoch, ObjectId, Time, Version};
///
/// let mut log = UpdateLog::new(Epoch::INITIAL, &ProtocolConfig::default());
/// let seq = log.append(ObjectId::new(0), Version::new(1), Time::ZERO, vec![1]);
/// assert_eq!(seq, 1);
/// assert_eq!(log.head(), 1);
/// // A backup already at the head needs an empty suffix…
/// assert_eq!(log.suffix_after(1).map(Iterator::count), Some(0));
/// // …one a record behind needs exactly that record.
/// assert_eq!(log.suffix_after(0).map(Iterator::count), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct UpdateLog {
    epoch: Epoch,
    retention: usize,
    snapshot_interval: u64,
    snapshots_retained: usize,
    records: VecDeque<LogRecord>,
    next_seq: u64,
    /// Highest appended seq per object — survives truncation, so updates
    /// can always be stamped with the object's latest log coordinate, and
    /// a snapshot diff can tell which objects moved past a watermark.
    latest: BTreeMap<ObjectId, u64>,
    /// XOR-fold of [`latest_crc`] over every entry of `latest`, updated
    /// on each append (DESIGN.md §15).
    latest_crc: u32,
    snapshots: VecDeque<LogSnapshot>,
    appends_since_snapshot: u64,
    truncated: u64,
}

impl UpdateLog {
    /// Creates an empty log owned by `epoch`, sized from the config's
    /// retention/snapshot knobs.
    #[must_use]
    pub fn new(epoch: Epoch, config: &ProtocolConfig) -> Self {
        UpdateLog {
            epoch,
            retention: config.log_retention.max(1),
            snapshot_interval: config.snapshot_interval.max(1),
            snapshots_retained: config.snapshots_retained.max(1),
            records: VecDeque::new(),
            next_seq: 1,
            latest: BTreeMap::new(),
            latest_crc: 0,
            snapshots: VecDeque::new(),
            appends_since_snapshot: 0,
            truncated: 0,
        }
    }

    /// The fencing epoch whose writes this log records.
    #[must_use]
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The sequence number of the newest record (0 when nothing has been
    /// appended yet).
    #[must_use]
    pub fn head(&self) -> u64 {
        self.next_seq - 1
    }

    /// Records currently retained in the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the ring holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total records dropped by the retention cap or snapshot truncation.
    #[must_use]
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// The newest appended seq for `object`, if it was ever logged.
    #[must_use]
    pub fn latest_seq(&self, object: ObjectId) -> Option<u64> {
        self.latest.get(&object).copied()
    }

    /// Appends a write, returning its sequence number. Drops the oldest
    /// record if the ring is at its retention cap.
    pub fn append(
        &mut self,
        object: ObjectId,
        version: Version,
        timestamp: Time,
        payload: Vec<u8>,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut record = LogRecord {
            seq,
            object,
            version,
            timestamp,
            payload,
            crc: 0,
        };
        record.crc = record.compute_crc();
        self.records.push_back(record);
        if let Some(old) = self.latest.insert(object, seq) {
            self.latest_crc ^= latest_crc(object, old);
        }
        self.latest_crc ^= latest_crc(object, seq);
        while self.records.len() > self.retention {
            self.records.pop_front();
            self.truncated += 1;
        }
        self.appends_since_snapshot += 1;
        seq
    }

    /// Whether the last-write index still matches the checksum folded in
    /// as it was maintained. O(objects ever logged): callers check it once
    /// per snapshot diff, the only consumer that trusts the whole index.
    #[must_use]
    pub fn verify_latest(&self) -> bool {
        let folded = self
            .latest
            .iter()
            .fold(0, |acc, (&object, &seq)| acc ^ latest_crc(object, seq));
        folded == self.latest_crc
    }

    /// Whether enough appends have accumulated that the owner should take
    /// a snapshot.
    #[must_use]
    pub fn snapshot_due(&self) -> bool {
        self.appends_since_snapshot >= self.snapshot_interval
    }

    /// Cuts a snapshot watermark at the log head — O(1), nothing is
    /// copied — retires watermarks beyond the retained count, and
    /// truncates records the oldest retained watermark makes redundant.
    ///
    /// Returns `(head_seq, records_retained_after_truncation)`.
    pub fn take_snapshot(&mut self) -> (u64, u64) {
        let seq = self.head();
        self.snapshots.push_back(LogSnapshot {
            seq,
            crc: watermark_crc(seq),
        });
        while self.snapshots.len() > self.snapshots_retained {
            self.snapshots.pop_front();
        }
        // Records at or before the oldest retained snapshot can never be
        // needed: any gap reaching that far back is served from the
        // snapshot (or a newer one) as a diff.
        let floor = self.snapshots.front().map_or(0, LogSnapshot::seq);
        while self.records.front().is_some_and(|r| r.seq <= floor) {
            self.records.pop_front();
            self.truncated += 1;
        }
        self.appends_since_snapshot = 0;
        (seq, self.records.len() as u64)
    }

    /// The records strictly after `seq`, oldest first, if the ring still
    /// covers them all. `Some` with an empty iterator when `seq` is at (or
    /// past) the head; `None` when the gap predates retention.
    #[must_use]
    pub fn suffix_after(&self, seq: u64) -> Option<impl Iterator<Item = &LogRecord>> {
        let front = self.records.front().map_or(self.next_seq, |r| r.seq);
        let skip = if seq >= self.head() {
            self.records.len()
        } else if seq + 1 >= front {
            (seq + 1 - front) as usize
        } else {
            return None;
        };
        Some(self.records.iter().skip(skip))
    }

    /// The newest retained snapshot taken at or before `seq`, if any — the
    /// basis for a snapshot diff when the ring no longer covers the gap.
    #[must_use]
    pub fn snapshot_at_or_before(&self, seq: u64) -> Option<&LogSnapshot> {
        self.snapshots.iter().rev().find(|s| s.seq <= seq)
    }

    /// Fault-injection hook: flips `mask` into one byte of the retained
    /// record at `seq` (into its stored checksum when the payload is
    /// empty), *without* refreshing the checksum — modelling silent
    /// in-memory corruption of "durable" log state. Returns `false` when
    /// the ring no longer retains `seq`.
    pub fn corrupt_record(&mut self, seq: u64, byte: usize, mask: u8) -> bool {
        let Some(record) = self.records.iter_mut().find(|r| r.seq == seq) else {
            return false;
        };
        if record.payload.is_empty() {
            record.crc ^= u32::from(mask.max(1));
        } else {
            let at = byte % record.payload.len();
            record.payload[at] ^= mask.max(1);
        }
        true
    }

    /// Test hook: flips `mask` into the last-write index entry for
    /// `object` *without* refreshing the folded checksum. Returns `false`
    /// when the object was never logged.
    #[cfg(test)]
    pub(crate) fn corrupt_latest(&mut self, object: ObjectId, mask: u64) -> bool {
        let Some(seq) = self.latest.get_mut(&object) else {
            return false;
        };
        *seq ^= mask.max(1);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(retention: usize, interval: u64, retained: usize) -> ProtocolConfig {
        ProtocolConfig {
            log_retention: retention,
            snapshot_interval: interval,
            snapshots_retained: retained,
            ..ProtocolConfig::default()
        }
    }

    fn append_n(log: &mut UpdateLog, n: u64) {
        for i in 0..n {
            log.append(
                ObjectId::new((i % 3) as u32),
                Version::new(i + 1),
                Time::from_millis(i),
                vec![i as u8],
            );
        }
    }

    #[test]
    fn seqs_are_contiguous_from_one() {
        let mut log = UpdateLog::new(Epoch::INITIAL, &cfg(16, 8, 2));
        append_n(&mut log, 5);
        assert_eq!(log.head(), 5);
        let seqs: Vec<u64> = log.suffix_after(0).unwrap().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        assert_eq!(log.suffix_after(3).unwrap().count(), 2);
        assert_eq!(log.suffix_after(5).unwrap().count(), 0);
        assert_eq!(log.suffix_after(99).unwrap().count(), 0);
    }

    #[test]
    fn retention_cap_drops_oldest_and_gap_becomes_unservable() {
        let mut log = UpdateLog::new(Epoch::INITIAL, &cfg(4, 1_000, 2));
        append_n(&mut log, 10);
        assert_eq!(log.len(), 4);
        assert_eq!(log.truncated(), 6);
        // Ring holds 7..=10: a backup at 6 is served, one at 5 is not.
        assert_eq!(log.suffix_after(6).unwrap().count(), 4);
        assert!(log.suffix_after(5).is_none());
    }

    #[test]
    fn latest_seq_survives_truncation() {
        let mut log = UpdateLog::new(Epoch::INITIAL, &cfg(2, 1_000, 2));
        append_n(&mut log, 9);
        // Object 0 was last written at seq 7 (i = 6), long since evicted.
        assert_eq!(log.latest_seq(ObjectId::new(0)), Some(7));
        assert_eq!(log.latest_seq(ObjectId::new(9)), None);
    }

    #[test]
    fn snapshots_truncate_up_to_the_oldest_retained() {
        let mut log = UpdateLog::new(Epoch::INITIAL, &cfg(1_000, 4, 2));
        append_n(&mut log, 4);
        assert!(log.snapshot_due());
        let (s1, _) = log.take_snapshot();
        assert_eq!(s1, 4);
        assert!(!log.snapshot_due());
        append_n(&mut log, 4);
        let (s2, _) = log.take_snapshot();
        assert_eq!(s2, 8);
        // Two snapshots retained (at 4 and 8): records ≤ 4 truncated.
        assert_eq!(log.len(), 4);
        assert!(log.suffix_after(4).is_some());
        assert!(log.suffix_after(3).is_none());
        // A third snapshot retires the one at 4; floor moves to 8.
        append_n(&mut log, 4);
        log.take_snapshot();
        assert!(log.suffix_after(8).is_some());
        assert!(log.suffix_after(7).is_none());
        assert_eq!(log.snapshot_at_or_before(9).unwrap().seq(), 8);
        assert_eq!(log.snapshot_at_or_before(7).map(LogSnapshot::seq), None);
    }

    #[test]
    fn snapshot_is_a_watermark_the_latest_index_is_compared_against() {
        let mut log = UpdateLog::new(Epoch::INITIAL, &cfg(8, 3, 2));
        append_n(&mut log, 3);
        let (seq, _) = log.take_snapshot();
        assert_eq!(seq, 3);
        // One more write to object 1: only it moved past the watermark.
        log.append(ObjectId::new(1), Version::new(9), Time::ZERO, vec![]);
        let snap = log.snapshot_at_or_before(seq).unwrap();
        let moved: Vec<u32> = (0..3)
            .filter(|&i| {
                log.latest_seq(ObjectId::new(i))
                    .is_some_and(|s| s > snap.seq())
            })
            .collect();
        assert_eq!(moved, vec![1]);
    }

    #[test]
    fn empty_log_serves_empty_suffix_at_origin() {
        let log = UpdateLog::new(Epoch::INITIAL, &cfg(8, 8, 2));
        assert_eq!(log.head(), 0);
        assert!(log.is_empty());
        assert_eq!(log.suffix_after(0).unwrap().count(), 0);
    }

    #[test]
    fn appended_records_verify_and_corruption_is_detected() {
        let mut log = UpdateLog::new(Epoch::INITIAL, &cfg(16, 100, 2));
        append_n(&mut log, 5);
        assert!(log.suffix_after(0).unwrap().all(LogRecord::verify));
        assert!(log.corrupt_record(3, 0, 0x40));
        let bad: Vec<u64> = log
            .suffix_after(0)
            .unwrap()
            .filter(|r| !r.verify())
            .map(|r| r.seq)
            .collect();
        assert_eq!(bad, vec![3]);
        // A seq the ring no longer retains cannot be corrupted.
        assert!(!log.corrupt_record(99, 0, 0x40));
    }

    #[test]
    fn empty_payload_records_are_still_corruptible() {
        let mut log = UpdateLog::new(Epoch::INITIAL, &cfg(16, 100, 2));
        log.append(ObjectId::new(0), Version::new(1), Time::ZERO, Vec::new());
        assert!(log.corrupt_record(1, 7, 0x01));
        assert!(!log.suffix_after(0).unwrap().all(LogRecord::verify));
    }

    #[test]
    fn snapshots_verify_their_watermark() {
        let mut log = UpdateLog::new(Epoch::INITIAL, &cfg(8, 2, 2));
        append_n(&mut log, 2);
        let (seq, _) = log.take_snapshot();
        assert!(log.snapshot_at_or_before(seq).unwrap().verify());
    }

    #[test]
    fn latest_index_checksum_tracks_appends_and_catches_corruption() {
        let mut log = UpdateLog::new(Epoch::INITIAL, &cfg(2, 4, 2));
        assert!(log.verify_latest());
        // Overwrites and truncation keep the fold in step with the index.
        append_n(&mut log, 11);
        log.take_snapshot();
        assert!(log.verify_latest());
        assert!(!log.corrupt_latest(ObjectId::new(7), 1));
        assert!(log.corrupt_latest(ObjectId::new(2), 0x10));
        assert!(!log.verify_latest());
    }
}
