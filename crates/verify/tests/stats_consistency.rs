//! `TranStats` counter invariants, enforced across the whole reference
//! catalog and every integration method:
//!
//! * `steps_attempted == steps_accepted + steps_rejected` — every loop
//!   iteration either accepts or rejects, nothing is double-counted;
//! * `newton_iterations >= steps_accepted` — each accepted step converged
//!   through at least one Newton iteration;
//! * the recorded waveform has `steps_accepted + 1` samples (the DC point
//!   plus one per accepted step);
//! * `ptm_transitions` equals the number of recorded PTM events, those
//!   fired at `t = 0` included.

use sfet_numeric::integrate::Method;
use sfet_verify::analytic::catalog;

#[test]
fn stats_counters_are_consistent_across_the_catalog() {
    for reference in catalog().unwrap() {
        for method in [Method::Trapezoidal, Method::BackwardEuler, Method::Gear2] {
            let divisions = reference.divisions[0];
            let result = reference
                .run(&reference.options(divisions, method))
                .unwrap();
            let stats = result.stats();
            assert_eq!(
                stats.steps_attempted,
                stats.steps_accepted + stats.steps_rejected,
                "{} ({method:?}): attempted != accepted + rejected: {stats:?}",
                reference.name
            );
            assert!(
                stats.newton_iterations >= stats.steps_accepted,
                "{} ({method:?}): fewer Newton iterations than accepted steps: {stats:?}",
                reference.name
            );
            assert_eq!(
                result.times().len(),
                stats.steps_accepted + 1,
                "{} ({method:?}): sample count != accepted steps + 1",
                reference.name
            );
            assert!(
                stats.steps_attempted > 0,
                "{} ({method:?}): no steps attempted",
                reference.name
            );
            let events: usize = result
                .ptm_names()
                .map(|name| result.ptm_events(name).unwrap().len())
                .sum();
            assert_eq!(
                stats.ptm_transitions, events,
                "{} ({method:?}): ptm_transitions != recorded PTM events",
                reference.name
            );
        }
    }
}

#[test]
fn event_refinement_shows_up_as_rejections_not_lost_attempts() {
    // The staircase reference fires two PTM transitions; localising them
    // costs rejected attempts, which must stay inside the attempted total.
    let refs = catalog().unwrap();
    let st = refs.iter().find(|r| r.name == "ptm_staircase").unwrap();
    let result = st
        .run(&st.options(st.divisions[0], Method::Trapezoidal))
        .unwrap();
    let stats = result.stats();
    assert_eq!(stats.ptm_transitions, 2, "IMT + MIT expected: {stats:?}");
    assert!(
        stats.steps_rejected > 0,
        "event refinement rejects: {stats:?}"
    );
    assert_eq!(
        stats.steps_attempted,
        stats.steps_accepted + stats.steps_rejected
    );
}
