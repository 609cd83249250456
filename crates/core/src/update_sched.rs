//! Update-transmission period selection (§4.3, §5.3).
//!
//! The primary sends each admitted object to the backup periodically. The
//! period is derived from the object's primary–backup consistency window
//! `δ_i = δ_i^B - δ_i^P` via Theorem 5 (`r_i ≤ δ_i - ℓ`), divided by the
//! configured slack factor to tolerate message loss — the paper uses
//! `r_i = (δ_i - ℓ)/2`.
//!
//! Under *compressed scheduling* (Mehra et al. \[22\]), all periods are then
//! uniformly shrunk until the update-task set consumes the configured CPU
//! target: "the primary schedules as many updates to backup as the
//! resources allow".

use crate::config::{ProtocolConfig, SchedulingMode};
use rtpb_types::{ObjectId, TimeDelta};
use std::collections::BTreeMap;

/// The per-object send periods currently in force at the primary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateSchedule {
    periods: BTreeMap<ObjectId, TimeDelta>,
}

impl UpdateSchedule {
    /// Creates an empty schedule.
    #[must_use]
    pub fn new() -> Self {
        UpdateSchedule::default()
    }

    /// The send period of `id`, if scheduled.
    #[must_use]
    pub fn period(&self, id: ObjectId) -> Option<TimeDelta> {
        self.periods.get(&id).copied()
    }

    /// Number of scheduled objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.periods.len()
    }

    /// Whether nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.periods.is_empty()
    }

    /// Iterates `(object, period)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, TimeDelta)> + '_ {
        self.periods.iter().map(|(&id, &p)| (id, p))
    }

    /// Whether `next` runs any object below `first_new` at a period other
    /// than the one it has here: the objects registered before
    /// `first_new` whose send timers a schedule change must re-arm.
    /// Linear in the two schedules.
    #[must_use]
    pub fn retimes(&self, next: &UpdateSchedule, first_new: ObjectId) -> bool {
        let mut old = self.periods.iter().peekable();
        next.periods.range(..first_new).any(|(id, period)| {
            while old.next_if(|&(o, _)| o < id).is_some() {}
            old.next_if(|&(o, _)| o == id).map(|(_, p)| p) != Some(period)
        })
    }
}

/// The send period Theorem 5 (plus loss slack) assigns to a window:
/// `r = (δ - ℓ) / slack_factor`, or `None` if the window does not exceed
/// the delay bound (such objects are rejected by admission; with admission
/// disabled the caller clamps instead).
#[must_use]
pub fn normal_period(
    window: TimeDelta,
    link_delay_bound: TimeDelta,
    slack_factor: u64,
) -> Option<TimeDelta> {
    let slack = window.checked_sub(link_delay_bound)?;
    if slack.is_zero() {
        return None;
    }
    let period = slack / slack_factor.max(1);
    (!period.is_zero()).then_some(period)
}

/// Builds the schedule for a set of objects with the given *effective*
/// windows (each object's own window, possibly tightened by inter-object
/// constraints) and per-object send costs.
///
/// Periods are floored at the send cost (a task cannot run faster than
/// its execution time) and at 1 ms (pathological windows under disabled
/// admission). Under [`SchedulingMode::Compressed`] the normal periods
/// are then uniformly scaled so total utilization reaches the configured
/// target (never scaling periods *up*).
#[must_use]
pub fn build_schedule(
    objects: &[(ObjectId, TimeDelta, TimeDelta)],
    config: &ProtocolConfig,
) -> UpdateSchedule {
    let floor = TimeDelta::from_millis(1);
    let mut periods: BTreeMap<ObjectId, TimeDelta> = objects
        .iter()
        .map(|&(id, window, cost)| {
            let normal = normal_period(window, config.link_delay_bound, config.slack_factor)
                .unwrap_or(floor);
            (id, normal.max(cost).max(floor))
        })
        .collect();

    if config.scheduling_mode == SchedulingMode::Compressed && !periods.is_empty() {
        let costs: BTreeMap<ObjectId, TimeDelta> =
            objects.iter().map(|&(id, _, cost)| (id, cost)).collect();
        let cost_of = |id: ObjectId| costs[&id];
        let utilization: f64 = periods
            .iter()
            .map(|(&id, &p)| cost_of(id).as_nanos() as f64 / p.as_nanos() as f64)
            .sum();
        let target = config.compressed_target_utilization;
        if utilization > 0.0 && utilization < target {
            // Shrinking every period by utilization/target raises total
            // utilization to exactly the target.
            let num = (utilization * 1_000_000.0) as u64;
            let den = (target * 1_000_000.0) as u64;
            for (&id, p) in periods.iter_mut() {
                let compressed = p.mul_ratio(num, den.max(1));
                *p = compressed.max(cost_of(id)).max(floor);
            }
        }
    }

    UpdateSchedule { periods }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::default()
    }

    #[test]
    fn normal_period_matches_paper_formula() {
        // (400 - 10) / 2 = 195 ms.
        assert_eq!(normal_period(ms(400), ms(10), 2), Some(ms(195)));
        // Slack factor 1: the full Theorem 5 bound.
        assert_eq!(normal_period(ms(400), ms(10), 1), Some(ms(390)));
    }

    #[test]
    fn normal_period_rejects_window_at_or_below_delay() {
        assert_eq!(normal_period(ms(10), ms(10), 2), None);
        assert_eq!(normal_period(ms(5), ms(10), 2), None);
    }

    #[test]
    fn schedule_uses_normal_periods() {
        let objects = vec![
            (ObjectId::new(0), ms(400), TimeDelta::from_micros(200)),
            (ObjectId::new(1), ms(210), TimeDelta::from_micros(200)),
        ];
        let s = build_schedule(&objects, &cfg());
        assert_eq!(s.period(ObjectId::new(0)), Some(ms(195)));
        assert_eq!(s.period(ObjectId::new(1)), Some(ms(100)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn degenerate_windows_are_floored() {
        let objects = vec![(ObjectId::new(0), ms(5), TimeDelta::from_micros(100))];
        let s = build_schedule(&objects, &cfg());
        assert_eq!(s.period(ObjectId::new(0)), Some(ms(1)));
    }

    #[test]
    fn period_never_below_send_cost() {
        let objects = vec![(ObjectId::new(0), ms(12), ms(3))];
        let s = build_schedule(&objects, &cfg());
        // Normal period would be 1 ms; floored at the 3 ms cost.
        assert_eq!(s.period(ObjectId::new(0)), Some(ms(3)));
    }

    #[test]
    fn compression_raises_frequency_to_target() {
        let config = ProtocolConfig {
            scheduling_mode: SchedulingMode::Compressed,
            compressed_target_utilization: 0.9,
            ..ProtocolConfig::default()
        };
        // Costs large enough that the compressed periods stay above the
        // 1 ms floor (which would otherwise cap the achieved target).
        let cost = TimeDelta::from_millis(2);
        let objects = vec![
            (ObjectId::new(0), ms(400), cost),
            (ObjectId::new(1), ms(400), cost),
        ];
        let normal = build_schedule(&objects, &cfg());
        let compressed = build_schedule(&objects, &config);
        for (id, p) in compressed.iter() {
            assert!(p < normal.period(id).unwrap());
        }
        // Utilization after compression ≈ target.
        let u: f64 = compressed
            .iter()
            .map(|(_, p)| cost.as_nanos() as f64 / p.as_nanos() as f64)
            .sum();
        assert!((u - 0.9).abs() < 0.05, "compressed utilization {u}");
    }

    #[test]
    fn compression_never_lengthens_periods() {
        // Already above target: periods unchanged.
        let config = ProtocolConfig {
            scheduling_mode: SchedulingMode::Compressed,
            compressed_target_utilization: 0.5,
            ..ProtocolConfig::default()
        };
        // Two objects with 12 ms windows → 1 ms normal periods and high cost.
        let objects = vec![
            (ObjectId::new(0), ms(12), TimeDelta::from_micros(400)),
            (ObjectId::new(1), ms(12), TimeDelta::from_micros(400)),
        ];
        let normal = build_schedule(&objects, &cfg());
        let compressed = build_schedule(&objects, &config);
        for (id, p) in compressed.iter() {
            assert!(p >= normal.period(id).unwrap());
        }
    }

    #[test]
    fn empty_schedule() {
        let s = build_schedule(&[], &cfg());
        assert!(s.is_empty());
        assert_eq!(s.period(ObjectId::new(0)), None);
    }

    #[test]
    fn larger_windows_mean_longer_normal_periods() {
        let cost = TimeDelta::from_micros(200);
        let objects = vec![
            (ObjectId::new(0), ms(200), cost),
            (ObjectId::new(1), ms(800), cost),
        ];
        let s = build_schedule(&objects, &cfg());
        assert!(s.period(ObjectId::new(0)).unwrap() < s.period(ObjectId::new(1)).unwrap());
    }
}
