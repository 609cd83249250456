//! Output checks run on every workload.
//!
//! - Every certified read is audited against ground truth: its
//!   certificate's `age_bound` must cover the read's true age, derived
//!   from the primary's write history with the read path's
//!   `earliest_write_after` rule.
//! - No backup may hold an `(epoch, version)` the primary never wrote.
//! - A backup rejoin is complete only if, when its fault record closes,
//!   the backup holds a value for every object registered before the
//!   crash (a passive replica counts as caught up only once it has
//!   installed a complete prefix). The runner checks at the end of the
//!   1 ms slice in which the record closed.
//!
//! A failed check is counted, never fatal: the run goes on and the count
//! lands in `failed` and `failed_op_ratio`. Only a wrong answer (an
//! unsound certificate, or a value the primary never wrote) also marks the
//! run incorrect; a missing one (a refused write, a read error, an
//! incomplete rejoin) is a failed operation.

use rtpb_core::store::ObjectStore;
use rtpb_types::{Epoch, Time, TimeDelta, Version};

/// Operations judged and failures found, by kind.
///
/// An operation is a client write, a certified read, a rejoin, or one
/// audit pass over a backup's store. Periodic writes the primary applies
/// on its own are counted for the report but are not operations: none of
/// them can fail.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checks {
    /// Writes applied at the primary (periodic load and client writes).
    pub writes: u64,
    /// Client write calls.
    pub client_writes: u64,
    /// Client writes the primary refused.
    pub refused_writes: u64,
    /// Certified reads attempted.
    pub reads: u64,
    /// Reads that returned an error.
    pub read_errors: u64,
    /// Certificates whose `age_bound` was below the read's true age.
    pub unsound_certificates: u64,
    /// Reads tagged with an `(epoch, version)` the primary never wrote.
    pub unwritten_reads: u64,
    /// Reads that failed in any of the ways above, each counted once.
    pub failed_reads: u64,
    /// Audit passes over a backup's store, at rejoins and at the end of
    /// the run.
    pub image_audits: u64,
    /// Backup images those passes examined.
    pub images: u64,
    /// Backup images tagged with an `(epoch, version)` the primary never
    /// wrote, or differing from the primary's image at the same tag.
    pub bad_images: u64,
    /// Audit passes that found a bad image or had no primary to audit
    /// against.
    pub failed_image_audits: u64,
    /// Rejoins whose fault record closed.
    pub rejoins: u64,
    /// Rejoins that closed while the backup still lacked an object
    /// registered before the crash.
    pub incomplete_rejoins: u64,
    /// Rejoins still open when the run ended.
    pub unclosed_rejoins: u64,
}

impl Checks {
    /// Operations judged.
    pub fn attempted(&self) -> u64 {
        self.client_writes + self.reads + self.image_audits + self.rejoins + self.unclosed_rejoins
    }

    /// Failures that mean a wrong answer rather than a missing one.
    pub fn safety_violations(&self) -> u64 {
        self.unsound_certificates + self.unwritten_reads + self.bad_images
    }

    /// Operations that failed a check.
    pub fn failed(&self) -> u64 {
        self.refused_writes
            + self.failed_reads
            + self.failed_image_audits
            + self.incomplete_rejoins
            + self.unclosed_rejoins
    }

    /// Audits one backup's store against the primary's; with no primary
    /// the pass cannot vouch for any image and fails.
    pub fn audit_backup(&mut self, backup: &ObjectStore, primary: Option<&ObjectStore>) {
        self.image_audits += 1;
        let Some(primary) = primary else {
            self.failed_image_audits += 1;
            return;
        };
        let (audited, bad) = audit_images(backup, primary);
        self.images += audited;
        self.bad_images += bad;
        if bad > 0 {
            self.failed_image_audits += 1;
        }
    }
}

/// True age of a value read at `now`: the age of the earliest write the
/// served version misses, zero when it misses none.
pub fn true_age(now: Time, earliest_missed_write: Option<Time>) -> TimeDelta {
    earliest_missed_write.map_or(TimeDelta::ZERO, |t| now.saturating_since(t))
}

/// Whether a certificate advertising `age_bound` covers `true_age`.
pub fn certificate_sound(age_bound: TimeDelta, true_age: TimeDelta) -> bool {
    age_bound >= true_age
}

/// Whether `tag` is a tag the primary, now at `primary_tag`, can have
/// written: version counters only grow, so every tag up to its current
/// one was minted by it, and none beyond.
pub fn written_by_primary(tag: (Epoch, Version), primary_tag: (Epoch, Version)) -> bool {
    tag <= primary_tag
}

/// Backup images in `backup` whose tag the primary never wrote, or whose
/// payload differs from the primary's image at the same tag. Returns
/// `(images audited, bad images)`.
pub fn audit_images(backup: &ObjectStore, primary: &ObjectStore) -> (u64, u64) {
    let mut audited = 0;
    let mut bad = 0;
    for (id, entry) in backup.iter() {
        let Some(value) = entry.value() else {
            continue;
        };
        audited += 1;
        let Some(truth) = primary.get(id) else {
            bad += 1;
            continue;
        };
        let tag = (entry.write_epoch(), entry.version());
        let primary_tag = (truth.write_epoch(), truth.version());
        let same_image_differs = tag == primary_tag
            && truth
                .value()
                .is_some_and(|v| v.payload() != value.payload());
        if !written_by_primary(tag, primary_tag) || same_image_differs {
            bad += 1;
        }
    }
    (audited, bad)
}

/// Objects of `registered` that `backup` holds no value for.
pub fn missing_objects(
    backup: &ObjectStore,
    registered: impl Iterator<Item = rtpb_types::ObjectId>,
) -> u64 {
    registered
        .filter(|&id| backup.get(id).is_none_or(|e| e.value().is_none()))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpb_types::{ObjectId, ObjectSpec, ObjectValue};

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    #[test]
    fn certificate_below_true_age_is_flagged() {
        let now = Time::ZERO + ms(500);
        let age = true_age(now, Some(Time::ZERO + ms(100)));
        assert_eq!(age, ms(400));
        assert!(!certificate_sound(ms(399), age));
        assert!(certificate_sound(ms(400), age));
        assert_eq!(true_age(now, None), TimeDelta::ZERO);
    }

    fn store_with(versions: &[u64], epoch: Epoch) -> ObjectStore {
        let mut store = ObjectStore::new();
        let spec = ObjectSpec::builder("t")
            .update_period(ms(50))
            .primary_bound(ms(150))
            .backup_bound(ms(400))
            .build()
            .expect("valid spec");
        for (i, &v) in versions.iter().enumerate() {
            let id = store.register(spec.clone(), Time::ZERO);
            if v > 0 {
                let value = ObjectValue::new(Version::new(v), Time::ZERO, vec![i as u8; 4]);
                assert!(store.apply(id, value, epoch));
            }
        }
        store
    }

    #[test]
    fn image_ahead_of_the_primary_is_flagged() {
        let epoch = Epoch::new(1);
        let primary = store_with(&[3, 3], epoch);
        assert_eq!(audit_images(&store_with(&[2, 3], epoch), &primary), (2, 0));
        assert_eq!(audit_images(&store_with(&[4, 3], epoch), &primary), (2, 1));
        assert_eq!(
            audit_images(&store_with(&[3, 0], Epoch::new(2)), &primary),
            (1, 1)
        );
    }

    #[test]
    fn an_audit_pass_is_one_operation() {
        let epoch = Epoch::new(1);
        let primary = store_with(&[3, 3], epoch);
        let mut c = Checks::default();
        c.audit_backup(&store_with(&[4, 4], epoch), Some(&primary));
        c.audit_backup(&store_with(&[3, 3], epoch), Some(&primary));
        c.audit_backup(&store_with(&[3, 3], epoch), None);
        assert_eq!((c.image_audits, c.images, c.bad_images), (3, 4, 2));
        assert_eq!((c.attempted(), c.failed()), (3, 2));
        assert_eq!(c.safety_violations(), 2);
    }

    #[test]
    fn missing_values_count_as_incomplete() {
        let store = store_with(&[1, 0, 2], Epoch::new(1));
        let ids = (0..3).map(ObjectId::new);
        assert_eq!(missing_objects(&store, ids), 1);
    }
}
