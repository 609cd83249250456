//! Admission control (paper §4.2).
//!
//! Before an object joins the service the primary checks, in order:
//!
//! 1. `p_i ≤ δ_i^P` — the client's own update rate can keep the primary
//!    image within its external bound (Theorem 1 with `v_i = 0`).
//! 2. `δ_i = δ_i^B - δ_i^P > ℓ` — the consistency window exceeds the
//!    communication-delay bound, otherwise backup consistency is
//!    unattainable.
//! 3. Every inter-object constraint `δ_ij` named in the request admits
//!    both members' client periods (Theorem 6 with zero variance:
//!    `p ≤ δ_ij`).
//! 4. The update-transmission task set — every existing object plus the
//!    newcomers, each with period `r_i` derived from its *effective* window
//!    (its own window, tightened by any inter-object constraint) — passes
//!    the configured schedulability test.
//!
//! On rejection the error carries [`QosNegotiation`] hints so the client
//! can renegotiate (§4.2: "The primary can provide feedback so that the
//! client can negotiate for an alternative quality of service").
//!
//! A batch of requests is judged as if admitted one at a time, stopping
//! at the first rejection, but in linear time; see [`evaluate`].

use crate::config::{ProtocolConfig, SchedulabilityTest, SchedulingMode};
use crate::store::ObjectStore;
use crate::update_sched::{build_schedule, UpdateSchedule};
use rtpb_sched::analysis::response_time::rta_schedulable;
use rtpb_sched::analysis::utilization::{
    edf_schedulable, hyperbolic_schedulable, liu_layland_bound, rm_schedulable,
};
use rtpb_sched::task::{PeriodicTask, TaskSet};
use rtpb_types::{
    AdmissionError, InterObjectConstraint, ObjectId, ObjectSpec, QosNegotiation, TimeDelta,
};
use std::collections::HashMap;

/// The decision on a batch of registration requests.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionOutcome {
    /// How many leading specs of the batch are admitted.
    pub admitted: usize,
    /// The send schedule covering every stored object plus the admitted
    /// prefix; `None` when nothing was admitted (the schedule in force
    /// stands).
    pub schedule: Option<UpdateSchedule>,
    /// Update-task utilization of that set under *normal* periods (what
    /// the schedulability test saw), in thousandths.
    pub utilization_millis: u32,
    /// The inter-object constraints the admitted specs bring.
    pub constraints: Vec<InterObjectConstraint>,
    /// The error of the first rejected spec, which ends the batch.
    pub rejected: Option<AdmissionError>,
}

/// Evaluates a batch of admission requests.
///
/// `store` holds the already-admitted objects and `constraints` the
/// inter-object constraints already in force. The newcomers in `batch`
/// receive consecutive ids from [`ObjectStore::peek_next_id`], and each
/// may constrain itself against stored objects or against *earlier*
/// members of the batch.
///
/// The result is exactly that of admitting the specs one at a time and
/// stopping at the first rejection, at linear cost. Gates 1–3 judge one
/// spec each and run in one pass. The coalescing and schedulability gates
/// are monotone in the admitted prefix: constraints only tighten windows,
/// and tasks and shorter periods only add utilization and interference.
/// So one evaluation of the whole batch decides the common case, and a
/// rejection is located by binary search over prefixes. Each evaluation
/// is O(n + c) for n objects and c constraints (O(n²) under
/// [`SchedulabilityTest::ResponseTime`], whose analysis scans every
/// higher-priority task).
///
/// With `config.admission_enabled == false`, all gates are skipped and a
/// schedule is computed unconditionally (the paper's Figures 7 and 10).
#[must_use]
pub fn evaluate(
    store: &ObjectStore,
    constraints: &[InterObjectConstraint],
    batch: &[ObjectSpec],
    config: &ProtocolConfig,
) -> AdmissionOutcome {
    let first_id = store.peek_next_id().index();
    let id_of = |k: usize| ObjectId::new(first_id + k as u32);
    // Every newcomer's constraints, flattened; `ends[k]` marks where the
    // constraints of specs `0..k` stop.
    let mut batch_constraints = Vec::new();
    let mut ends = Vec::with_capacity(batch.len() + 1);
    ends.push(0);
    for (k, spec) in batch.iter().enumerate() {
        let id = id_of(k);
        batch_constraints.extend(
            spec.constraints()
                .iter()
                .map(|&(partner, bound)| InterObjectConstraint::new(id, partner, bound)),
        );
        ends.push(batch_constraints.len());
    }

    // Gates 1–3: the first spec failing on its own ends the candidate
    // prefix.
    let mut limit = batch.len();
    let mut gate_error = None;
    if config.admission_enabled {
        let partner_spec = |k: usize, partner: ObjectId| {
            let index = partner.index().checked_sub(first_id);
            match index {
                Some(j) if (j as usize) < k => Some(&batch[j as usize]),
                Some(_) => None,
                None => store.get(partner).map(|e| e.spec()),
            }
        };
        for (k, spec) in batch.iter().enumerate() {
            let checked = check_primary_bound(spec)
                .and_then(|()| check_window(spec, config))
                .and_then(|()| {
                    check_inter_object(
                        id_of(k),
                        spec,
                        &batch_constraints[ends[k]..ends[k + 1]],
                        |partner| partner_spec(k, partner),
                    )
                });
            if let Err(e) = checked {
                limit = k;
                gate_error = Some(e);
                break;
            }
        }
    }

    // The constraint index: each object's tightest constrained bound,
    // over the constraints in force before the batch.
    let mut tightest: HashMap<ObjectId, TimeDelta> = HashMap::new();
    for c in constraints {
        tighten(&mut tightest, c);
    }
    let candidate = |m: usize| {
        let mut tightest = tightest.clone();
        for c in &batch_constraints[..ends[m]] {
            tighten(&mut tightest, c);
        }
        let entry = |id: ObjectId, spec: &ObjectSpec| {
            let own = spec.window();
            let window = tightest.get(&id).map_or(own, |&bound| own.min(bound));
            (id, window, config.send_cost(spec.size_bytes()))
        };
        let objects: Vec<(ObjectId, TimeDelta, TimeDelta)> = store
            .iter()
            .map(|(id, e)| entry(id, e.spec()))
            .chain(
                batch[..m]
                    .iter()
                    .enumerate()
                    .map(|(k, spec)| entry(id_of(k), spec)),
            )
            .collect();
        Candidate::judge(objects, config)
    };

    // The largest passing prefix, and the error of the one after it.
    let (admitted, passed, rejected) = if limit == 0 {
        (0, None, gate_error)
    } else {
        match candidate(limit) {
            Ok(set) => (limit, Some(set), gate_error),
            Err(e) => {
                let (mut lo, mut hi, mut passed, mut error) = (0, limit, None, e);
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    match candidate(mid) {
                        Ok(set) => (lo, passed) = (mid, Some(set)),
                        Err(e) => (hi, error) = (mid, e),
                    }
                }
                (lo, passed, Some(error))
            }
        }
    };

    let (schedule, utilization_millis) = passed.map_or((None, 0), |set| {
        let utilization_millis = (set.utilization * 1000.0).round() as u32;
        (Some(set.into_schedule(config)), utilization_millis)
    });
    batch_constraints.truncate(ends[admitted]);
    AdmissionOutcome {
        admitted,
        schedule,
        utilization_millis,
        constraints: batch_constraints,
        rejected,
    }
}

/// One candidate object set that passed the coalescing and
/// schedulability gates.
struct Candidate {
    /// `(id, effective window, send cost)` in id order.
    objects: Vec<(ObjectId, TimeDelta, TimeDelta)>,
    /// The normal-mode schedule the gates judged.
    normal: UpdateSchedule,
    utilization: f64,
}

impl Candidate {
    /// Runs the set-wide gates over `objects` (skipped with admission
    /// disabled).
    fn judge(
        objects: Vec<(ObjectId, TimeDelta, TimeDelta)>,
        config: &ProtocolConfig,
    ) -> Result<Candidate, AdmissionError> {
        // The schedulability gate always judges the guarantee-bearing
        // *normal* periods (Theorem 5 + loss slack); compressed scheduling
        // only packs extra sends into admitted capacity afterwards.
        let normal_config = ProtocolConfig {
            scheduling_mode: SchedulingMode::Normal,
            ..config.clone()
        };
        let normal = build_schedule(&objects, &normal_config);
        let utilization: f64 = objects
            .iter()
            .zip(normal.iter())
            .map(|(&(_, _, cost), (_, period))| cost.as_nanos() as f64 / period.as_nanos() as f64)
            .sum();
        if config.admission_enabled {
            check_coalescing_window(&objects, &normal, config)?;
            check_schedulability(&objects, &normal, utilization, config)?;
        }
        Ok(Candidate {
            objects,
            normal,
            utilization,
        })
    }

    /// The schedule to install: the judged one in normal mode, rebuilt
    /// under the configured mode otherwise.
    fn into_schedule(self, config: &ProtocolConfig) -> UpdateSchedule {
        match config.scheduling_mode {
            SchedulingMode::Normal => self.normal,
            SchedulingMode::Compressed => build_schedule(&self.objects, config),
        }
    }
}

/// Records constraint `c` in the per-object index of tightest bounds.
fn tighten(tightest: &mut HashMap<ObjectId, TimeDelta>, c: &InterObjectConstraint) {
    for id in [c.first(), c.second()] {
        tightest
            .entry(id)
            .and_modify(|bound| *bound = (*bound).min(c.bound()))
            .or_insert(c.bound());
    }
}

/// Gate 1: `p_i ≤ δ_i^P`.
fn check_primary_bound(spec: &ObjectSpec) -> Result<(), AdmissionError> {
    if spec.update_period() > spec.primary_bound() {
        return Err(AdmissionError::PeriodExceedsPrimaryBound {
            period: spec.update_period(),
            primary_bound: spec.primary_bound(),
            negotiation: QosNegotiation {
                min_primary_bound: Some(spec.update_period()),
                ..QosNegotiation::default()
            },
        });
    }
    Ok(())
}

/// Gate 2: `δ_i > ℓ`.
fn check_window(spec: &ObjectSpec, config: &ProtocolConfig) -> Result<(), AdmissionError> {
    let window = spec.window();
    if window <= config.link_delay_bound {
        return Err(AdmissionError::WindowTooSmall {
            window,
            delay_bound: config.link_delay_bound,
            negotiation: QosNegotiation {
                min_window: Some(config.link_delay_bound + TimeDelta::from_millis(1)),
                ..QosNegotiation::default()
            },
        });
    }
    Ok(())
}

/// Gate 3: Theorem 6 (zero-variance form) for every constraint the
/// newcomer `new_id` brings; `partner_spec` looks up the objects already
/// admitted when it is evaluated.
fn check_inter_object<'a>(
    new_id: ObjectId,
    new_spec: &ObjectSpec,
    new_constraints: &[InterObjectConstraint],
    partner_spec: impl Fn(ObjectId) -> Option<&'a ObjectSpec>,
) -> Result<(), AdmissionError> {
    for c in new_constraints {
        let partner = c
            .partner_of(new_id)
            .ok_or(AdmissionError::UnknownObject(new_id))?;
        let partner_spec = partner_spec(partner).ok_or(AdmissionError::UnknownObject(partner))?;
        if new_spec.update_period() > c.bound() {
            return Err(AdmissionError::InterObjectTooTight {
                bound: c.bound(),
                period: new_spec.update_period(),
                object: new_id,
            });
        }
        if partner_spec.update_period() > c.bound() {
            return Err(AdmissionError::InterObjectTooTight {
                bound: c.bound(),
                period: partner_spec.update_period(),
                object: partner,
            });
        }
    }
    Ok(())
}

/// Batching gate: with a coalescing window `W`, an update produced at the
/// start of a send period can sit in the coalescing buffer for up to `W`
/// before its frame leaves, so Theorem 5 tightens to `r_i + W + ℓ ≤ δ_i`
/// for every admitted object (each judged against its *effective* window).
fn check_coalescing_window(
    objects: &[(ObjectId, TimeDelta, TimeDelta)],
    schedule: &UpdateSchedule,
    config: &ProtocolConfig,
) -> Result<(), AdmissionError> {
    let w = config.coalesce_window;
    if w.is_zero() {
        return Ok(());
    }
    for &(id, window, _) in objects {
        let period = schedule.period(id).expect("scheduled above");
        if period + w + config.link_delay_bound > window {
            // The smallest window that fits: r = (δ - ℓ)/k, so the
            // condition (δ - ℓ)/k + W + ℓ ≤ δ solves to
            // δ ≥ ℓ + W·k/(k − 1) — unattainable when k = 1.
            let k = config.slack_factor;
            let min_window = (k > 1).then(|| {
                let extra = w.as_nanos().saturating_mul(k) / (k - 1);
                config.link_delay_bound + TimeDelta::from_nanos(extra)
            });
            return Err(AdmissionError::CoalescingWindowTooWide {
                object: id,
                period,
                coalesce_window: w,
                window,
                negotiation: QosNegotiation {
                    min_window,
                    ..QosNegotiation::default()
                },
            });
        }
    }
    Ok(())
}

/// Gate 4: the update-task set is schedulable under the configured test.
fn check_schedulability(
    objects: &[(ObjectId, TimeDelta, TimeDelta)],
    schedule: &UpdateSchedule,
    utilization: f64,
    config: &ProtocolConfig,
) -> Result<(), AdmissionError> {
    let n = objects.len();
    let reject = |bound: f64| AdmissionError::Unschedulable {
        utilization,
        bound,
        negotiation: QosNegotiation {
            max_admissible_utilization: Some(bound),
            ..QosNegotiation::default()
        },
    };

    let tasks: Result<TaskSet, _> =
        TaskSet::try_from_iter(objects.iter().map(|&(id, _, cost)| {
            PeriodicTask::new(schedule.period(id).expect("scheduled"), cost)
        }));
    let Ok(tasks) = tasks else {
        // Utilization above 1: unschedulable under every test.
        return Err(reject(1.0));
    };

    let ok = match config.schedulability_test {
        SchedulabilityTest::LiuLayland => rm_schedulable(&tasks),
        SchedulabilityTest::Hyperbolic => hyperbolic_schedulable(&tasks),
        SchedulabilityTest::ResponseTime => rta_schedulable(&tasks),
        SchedulabilityTest::EdfUtilization => edf_schedulable(&tasks),
    };
    if ok {
        Ok(())
    } else {
        let bound = match config.schedulability_test {
            SchedulabilityTest::LiuLayland => liu_layland_bound(n),
            SchedulabilityTest::Hyperbolic | SchedulabilityTest::ResponseTime => {
                liu_layland_bound(n)
            }
            SchedulabilityTest::EdfUtilization => 1.0,
        };
        Err(reject(bound))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primary::Primary;
    use rtpb_sim::propcheck::{run_cases, Gen};
    use rtpb_types::{NodeId, Time};

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    fn spec(period: u64, dp: u64, db: u64) -> ObjectSpec {
        ObjectSpec::builder("t")
            .update_period(ms(period))
            .primary_bound(ms(dp))
            .backup_bound(ms(db))
            .build()
            .unwrap()
    }

    fn admit_one(
        store: &mut ObjectStore,
        spec: &ObjectSpec,
        config: &ProtocolConfig,
    ) -> Result<ObjectId, AdmissionError> {
        evaluate_one(store, spec, config)?;
        Ok(store.register(spec.clone(), Time::ZERO))
    }

    #[derive(Debug)]
    struct Admitted {
        schedule: UpdateSchedule,
        utilization_millis: u32,
    }

    /// A one-spec batch through [`evaluate`].
    fn evaluate_one(
        store: &ObjectStore,
        spec: &ObjectSpec,
        config: &ProtocolConfig,
    ) -> Result<Admitted, AdmissionError> {
        let out = evaluate(store, &[], std::slice::from_ref(spec), config);
        match out.rejected {
            Some(e) => Err(e),
            None => Ok(Admitted {
                schedule: out.schedule.expect("one spec admitted"),
                utilization_millis: out.utilization_millis,
            }),
        }
    }

    #[test]
    fn admits_a_reasonable_object() {
        let store = ObjectStore::new();
        let s = spec(100, 150, 550);
        let out = evaluate_one(&store, &s, &ProtocolConfig::default()).unwrap();
        assert_eq!(out.schedule.period(ObjectId::new(0)), Some(ms(195)));
        assert!(out.utilization_millis < 100);
    }

    #[test]
    fn gate1_period_exceeding_primary_bound() {
        let store = ObjectStore::new();
        let s = spec(200, 150, 550);
        let err = evaluate_one(&store, &s, &ProtocolConfig::default()).unwrap_err();
        match err {
            AdmissionError::PeriodExceedsPrimaryBound { negotiation, .. } => {
                assert_eq!(negotiation.min_primary_bound, Some(ms(200)));
            }
            other => panic!("wrong gate: {other}"),
        }
    }

    #[test]
    fn gate2_window_not_exceeding_delay_bound() {
        let store = ObjectStore::new();
        // Window = 8 ms ≤ ℓ = 10 ms.
        let s = spec(100, 150, 158);
        let err = evaluate_one(&store, &s, &ProtocolConfig::default()).unwrap_err();
        match err {
            AdmissionError::WindowTooSmall {
                window,
                delay_bound,
                negotiation,
            } => {
                assert_eq!(window, ms(8));
                assert_eq!(delay_bound, ms(10));
                assert_eq!(negotiation.min_window, Some(ms(11)));
            }
            other => panic!("wrong gate: {other}"),
        }
    }

    #[test]
    fn gate3_inter_object_constraint_too_tight() {
        let mut store = ObjectStore::new();
        let existing =
            admit_one(&mut store, &spec(100, 150, 550), &ProtocolConfig::default()).unwrap();
        // δ_ij = 80 ms < the newcomer's 100 ms period.
        let c = (existing, ms(80));
        let err = evaluate_one(
            &store,
            &spec(100, 150, 550).with_constraints(&[c]),
            &ProtocolConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, AdmissionError::InterObjectTooTight { .. }));
    }

    #[test]
    fn gate3_partner_period_checked_too() {
        let mut store = ObjectStore::new();
        // Existing object writes every 300 ms.
        let existing =
            admit_one(&mut store, &spec(300, 400, 900), &ProtocolConfig::default()).unwrap();
        // Constraint 250 ms: newcomer (100 ms) fine, partner (300 ms) violates.
        let c = (existing, ms(250));
        let err = evaluate_one(
            &store,
            &spec(100, 150, 550).with_constraints(&[c]),
            &ProtocolConfig::default(),
        )
        .unwrap_err();
        match err {
            AdmissionError::InterObjectTooTight { object, period, .. } => {
                assert_eq!(object, existing);
                assert_eq!(period, ms(300));
            }
            other => panic!("wrong gate: {other}"),
        }
    }

    #[test]
    fn gate3_unknown_partner() {
        let store = ObjectStore::new();
        let ghost = ObjectId::new(77);
        let c = (ghost, ms(500));
        let err = evaluate_one(
            &store,
            &spec(100, 150, 550).with_constraints(&[c]),
            &ProtocolConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, AdmissionError::UnknownObject(ghost));
    }

    #[test]
    fn gate4_rejects_when_task_set_saturates() {
        // 20 ms windows → 5 ms send periods; at 200 µs per send the
        // utilization climbs 4% per object, so the LL bound trips after a
        // handful of admissions.
        let config = ProtocolConfig {
            send_cost_base: TimeDelta::from_micros(200),
            ..ProtocolConfig::default()
        };
        let mut store = ObjectStore::new();
        let s = ObjectSpec::builder("t")
            .update_period(ms(15))
            .primary_bound(ms(20))
            .backup_bound(ms(40)) // window 20 → period (20-10)/2 = 5 ms
            .exec_time(TimeDelta::from_micros(50))
            .build()
            .unwrap();
        let mut admitted = 0;
        let mut rejected = None;
        for _ in 0..64 {
            match admit_one(&mut store, &s, &config) {
                Ok(_) => admitted += 1,
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        let err = rejected.expect("admission must eventually reject");
        assert!(matches!(err, AdmissionError::Unschedulable { .. }));
        assert!(admitted > 2, "admitted only {admitted}");
        if let AdmissionError::Unschedulable {
            utilization, bound, ..
        } = err
        {
            assert!(utilization > bound);
        }
    }

    #[test]
    fn capacity_grows_with_window_size() {
        // Expensive sends keep the admitted counts small so this test
        // stays fast: each one-spec evaluation re-judges the whole
        // admitted set, so admitting one object at a time is quadratic.
        let config = ProtocolConfig {
            send_cost_base: TimeDelta::from_millis(4),
            ..ProtocolConfig::default()
        };
        let capacity = |window_ms: u64| {
            let mut store = ObjectStore::new();
            let s = spec(100, 150, 150 + window_ms);
            let mut n = 0;
            while admit_one(&mut store, &s, &config).is_ok() {
                n += 1;
                if n > 512 {
                    break;
                }
            }
            n
        };
        let small = capacity(60);
        let large = capacity(400);
        assert!(
            large > small,
            "larger windows must admit more objects ({small} vs {large})"
        );
    }

    #[test]
    fn coalescing_window_within_slack_admits() {
        // Window 400 ms → period 195 ms; 195 + 150 + 10 ≤ 400 holds.
        let config = ProtocolConfig {
            coalesce_window: ms(150),
            ..ProtocolConfig::default()
        };
        let store = ObjectStore::new();
        let out = evaluate_one(&store, &spec(100, 150, 550), &config).unwrap();
        assert_eq!(out.schedule.period(ObjectId::new(0)), Some(ms(195)));
    }

    #[test]
    fn coalescing_window_violating_theorem5_rejected() {
        // Window 400 ms → period 195 ms; 195 + 200 + 10 > 400 violates.
        let config = ProtocolConfig {
            coalesce_window: ms(200),
            ..ProtocolConfig::default()
        };
        let store = ObjectStore::new();
        let err = evaluate_one(&store, &spec(100, 150, 550), &config).unwrap_err();
        match err {
            AdmissionError::CoalescingWindowTooWide {
                period,
                coalesce_window,
                window,
                negotiation,
                ..
            } => {
                assert_eq!(period, ms(195));
                assert_eq!(coalesce_window, ms(200));
                assert_eq!(window, ms(400));
                // δ ≥ ℓ + W·k/(k−1) = 10 + 200·2 = 410 ms.
                assert_eq!(negotiation.min_window, Some(ms(410)));
            }
            other => panic!("wrong gate: {other}"),
        }
    }

    #[test]
    fn coalescing_gate_guards_existing_objects_too() {
        // An already-admitted tight-window object must also survive the
        // newcomer's evaluation under the configured coalescing window.
        let config = ProtocolConfig {
            coalesce_window: ms(60),
            ..ProtocolConfig::default()
        };
        let mut store = ObjectStore::new();
        // Window 150 ms → period 70 ms; 70 + 60 + 10 ≤ 150 (just fits).
        let tight = admit_one(&mut store, &spec(100, 150, 300), &config).unwrap();
        // A roomy newcomer is fine and must not dislodge the tight object.
        let out = evaluate_one(&store, &spec(100, 150, 550), &config).unwrap();
        assert_eq!(out.schedule.period(tight), Some(ms(70)));

        // But an inter-object constraint that tightens the pair below the
        // coalescing headroom is rejected.
        // Effective window 120 ms → period 55 ms; 55 + 60 + 10 > 120.
        let c = (tight, ms(120));
        let err =
            evaluate_one(&store, &spec(100, 150, 550).with_constraints(&[c]), &config).unwrap_err();
        assert!(matches!(
            err,
            AdmissionError::CoalescingWindowTooWide { .. }
        ));
    }

    #[test]
    fn disabled_admission_skips_all_gates() {
        let config = ProtocolConfig {
            admission_enabled: false,
            ..ProtocolConfig::default()
        };
        let store = ObjectStore::new();
        // Violates gates 1 and 2; admitted anyway.
        let s = spec(200, 150, 155);
        let out = evaluate_one(&store, &s, &config).unwrap();
        assert!(out.schedule.period(ObjectId::new(0)).is_some());
    }

    #[test]
    fn inter_object_constraint_tightens_send_periods() {
        let mut store = ObjectStore::new();
        let a = admit_one(&mut store, &spec(100, 150, 550), &ProtocolConfig::default()).unwrap();
        let b_id = ObjectId::new(1);
        let c = (a, ms(200));
        let out = evaluate_one(
            &store,
            &spec(100, 150, 550).with_constraints(&[c]),
            &ProtocolConfig::default(),
        )
        .unwrap();
        // Both members' effective window is min(400, 200) = 200 →
        // period (200 - 10)/2 = 95 ms.
        assert_eq!(out.schedule.period(a), Some(ms(95)));
        assert_eq!(out.schedule.period(b_id), Some(ms(95)));
    }

    #[test]
    fn response_time_test_admits_more_than_liu_layland() {
        // Harmonic-ish windows where RTA is exact: find a configuration
        // the LL bound rejects but RTA admits.
        let base = ProtocolConfig {
            send_cost_base: TimeDelta::from_millis(2),
            send_cost_per_byte: TimeDelta::ZERO,
            slack_factor: 1,
            ..ProtocolConfig::default()
        };
        let ll = ProtocolConfig {
            schedulability_test: SchedulabilityTest::LiuLayland,
            ..base.clone()
        };
        let rta = ProtocolConfig {
            schedulability_test: SchedulabilityTest::ResponseTime,
            ..base
        };
        let count_admitted = |config: &ProtocolConfig| {
            let mut store = ObjectStore::new();
            let s = ObjectSpec::builder("t")
                .update_period(ms(8))
                .exec_time(TimeDelta::from_micros(10))
                .primary_bound(ms(8))
                .backup_bound(ms(18)) // window 10 → period (10-10)... no
                .build();
            let s = s.unwrap_or_else(|_| unreachable!());
            let _ = s;
            // Use window 14 → normal period (14-10)/1 = 4ms, cost 2ms → U 0.5 each.
            let s = ObjectSpec::builder("t")
                .update_period(ms(8))
                .exec_time(TimeDelta::from_micros(10))
                .primary_bound(ms(8))
                .backup_bound(ms(22))
                .build()
                .unwrap();
            let mut n = 0;
            while admit_one(&mut store, &s, config).is_ok() {
                n += 1;
                if n > 10 {
                    break;
                }
            }
            n
        };
        let n_ll = count_admitted(&ll);
        let n_rta = count_admitted(&rta);
        assert!(
            n_rta >= n_ll,
            "RTA ({n_rta}) must admit at least LL ({n_ll})"
        );
    }

    /// The per-spec admission the batch path must reproduce: each
    /// newcomer judged alone against everything admitted before it,
    /// rebuilding the whole object set, with a linear constraint scan per
    /// object. A test-only oracle.
    mod reference {
        use super::*;

        fn effective_window(
            id: ObjectId,
            own_window: TimeDelta,
            constraints: &[InterObjectConstraint],
        ) -> TimeDelta {
            constraints
                .iter()
                .filter(|c| c.involves(id))
                .map(InterObjectConstraint::bound)
                .fold(own_window, TimeDelta::min)
        }

        fn evaluate(
            store: &ObjectStore,
            constraints: &[InterObjectConstraint],
            new_id: ObjectId,
            new_spec: &ObjectSpec,
            new_constraints: &[InterObjectConstraint],
            config: &ProtocolConfig,
        ) -> Result<UpdateSchedule, AdmissionError> {
            if config.admission_enabled {
                check_primary_bound(new_spec)?;
                check_window(new_spec, config)?;
                check_inter_object(new_id, new_spec, new_constraints, |partner| {
                    store.get(partner).map(|e| e.spec())
                })?;
            }
            let mut all_constraints: Vec<InterObjectConstraint> = constraints.to_vec();
            all_constraints.extend_from_slice(new_constraints);
            let mut objects: Vec<(ObjectId, TimeDelta, TimeDelta)> = store
                .iter()
                .map(|(id, e)| {
                    (
                        id,
                        effective_window(id, e.spec().window(), &all_constraints),
                        config.send_cost(e.spec().size_bytes()),
                    )
                })
                .collect();
            objects.push((
                new_id,
                effective_window(new_id, new_spec.window(), &all_constraints),
                config.send_cost(new_spec.size_bytes()),
            ));
            let normal_config = ProtocolConfig {
                scheduling_mode: SchedulingMode::Normal,
                ..config.clone()
            };
            let test_schedule = build_schedule(&objects, &normal_config);
            let utilization: f64 = objects
                .iter()
                .map(|&(id, _, cost)| {
                    let period = test_schedule.period(id).expect("scheduled above");
                    cost.as_nanos() as f64 / period.as_nanos() as f64
                })
                .sum();
            if config.admission_enabled {
                check_coalescing_window(&objects, &test_schedule, config)?;
                check_schedulability(&objects, &test_schedule, utilization, config)?;
            }
            Ok(build_schedule(&objects, config))
        }

        /// A primary's admission state, registering one spec at a time.
        pub struct SequentialPrimary {
            pub store: ObjectStore,
            pub constraints: Vec<InterObjectConstraint>,
            pub schedule: UpdateSchedule,
            pub config: ProtocolConfig,
        }

        impl SequentialPrimary {
            pub fn new(config: ProtocolConfig) -> Self {
                SequentialPrimary {
                    store: ObjectStore::new(),
                    constraints: Vec::new(),
                    schedule: UpdateSchedule::new(),
                    config,
                }
            }

            /// Registers `specs` in order until one is rejected: the
            /// admitted ids, the rejection, and whether an object
            /// registered before the call changed send period.
            pub fn register_each(
                &mut self,
                specs: &[ObjectSpec],
            ) -> (Vec<ObjectId>, Option<AdmissionError>, bool) {
                let before: Vec<(ObjectId, Option<TimeDelta>)> = self
                    .store
                    .ids()
                    .map(|id| (id, self.schedule.period(id)))
                    .collect();
                let mut ids = Vec::new();
                let mut rejected = None;
                for spec in specs {
                    let new_id = self.store.peek_next_id();
                    let new_constraints: Vec<InterObjectConstraint> = spec
                        .constraints()
                        .iter()
                        .map(|&(partner, bound)| InterObjectConstraint::new(new_id, partner, bound))
                        .collect();
                    match evaluate(
                        &self.store,
                        &self.constraints,
                        new_id,
                        spec,
                        &new_constraints,
                        &self.config,
                    ) {
                        Ok(schedule) => {
                            ids.push(self.store.register(spec.clone(), Time::ZERO));
                            self.constraints.extend(new_constraints);
                            self.schedule = schedule;
                        }
                        Err(e) => {
                            rejected = Some(e);
                            break;
                        }
                    }
                }
                let retimed = before
                    .iter()
                    .any(|&(id, period)| self.schedule.period(id) != period);
                (ids, rejected, retimed)
            }

            pub fn deregister(&mut self, id: ObjectId) {
                if self.store.deregister(id).is_some() {
                    self.constraints.retain(|c| !c.involves(id));
                }
            }

            /// `(id, send period)` of every registered object.
            pub fn registry(&self) -> Vec<(ObjectId, TimeDelta)> {
                self.store
                    .ids()
                    .filter_map(|id| self.schedule.period(id).map(|p| (id, p)))
                    .collect()
            }
        }
    }

    fn random_config(g: &mut Gen) -> ProtocolConfig {
        let tests = [
            SchedulabilityTest::LiuLayland,
            SchedulabilityTest::Hyperbolic,
            SchedulabilityTest::ResponseTime,
            SchedulabilityTest::EdfUtilization,
        ];
        ProtocolConfig {
            schedulability_test: tests[g.usize_in(0, tests.len())],
            scheduling_mode: if g.chance(0.5) {
                SchedulingMode::Normal
            } else {
                SchedulingMode::Compressed
            },
            admission_enabled: g.chance(0.8),
            coalesce_window: if g.chance(0.5) {
                TimeDelta::ZERO
            } else {
                ms(g.u64_in(1, 30))
            },
            slack_factor: g.u64_in(1, 4),
            send_cost_base: TimeDelta::from_micros(g.u64_in(100, 8_000)),
            ..ProtocolConfig::default()
        }
    }

    /// A spec that fails gates 1 and 2 now and then, constrained against
    /// ids up to `next_id` (stored objects, earlier batch members, and
    /// the odd deregistered or unknown id).
    fn random_spec(g: &mut Gen, next_id: u32) -> ObjectSpec {
        let period = g.u64_in(2, 200);
        let primary_bound = period + g.u64_in(0, 60) - g.u64_in(0, 2).min(period - 1);
        let mut builder = ObjectSpec::builder("p")
            .update_period(ms(period))
            .exec_time(TimeDelta::from_micros(10))
            .primary_bound(ms(primary_bound))
            .backup_bound(ms(primary_bound + g.u64_in(5, 400)))
            .size_bytes(g.usize_in(1, 2_048));
        for _ in 0..g.usize_in(0, 3) {
            let partner = if g.chance(0.05) {
                next_id + g.u64_in(0, 3) as u32
            } else if next_id > 0 && g.chance(0.5) {
                g.u64_in(0, u64::from(next_id)) as u32
            } else {
                continue;
            };
            builder = builder.constraint(ObjectId::new(partner), ms(g.u64_in(5, 400)));
        }
        builder.build().unwrap()
    }

    #[test]
    fn batch_admission_matches_the_sequential_loop() {
        run_cases("batch_admission_matches_the_sequential_loop", 300, |g| {
            let config = random_config(g);
            let mut primary = Primary::new(NodeId::new(0), config.clone());
            let mut reference = reference::SequentialPrimary::new(config);
            for _ in 0..3 {
                if g.chance(0.3) {
                    let victim = primary.store().ids().nth(g.usize_in(0, 4));
                    if let Some(victim) = victim {
                        primary.deregister(victim);
                        reference.deregister(victim);
                    }
                }
                let first = primary.store().peek_next_id().index();
                let batch: Vec<ObjectSpec> = (0..g.usize_in(0, 16))
                    .map(|k| random_spec(g, first + k as u32))
                    .collect();
                let got = primary.register_many(&batch, Time::ZERO);
                let (ids, rejected, retimed) = reference.register_each(&batch);
                assert_eq!(got.ids, ids);
                assert_eq!(got.rejected, rejected);
                assert_eq!(got.retimed, retimed);
                let registry: Vec<(ObjectId, TimeDelta)> = primary
                    .registry()
                    .into_iter()
                    .map(|(id, _, period)| (id, period))
                    .collect();
                assert_eq!(registry, reference.registry());
                assert_eq!(primary.constraints(), reference.constraints.as_slice());
            }
        });
    }
}
