//! Integration test reproducing the paper's Fig. 1 claim: with the proposed
//! protocol a latency-sensitive consumer (τ₂) becomes ready strictly earlier
//! than under the Giotto ordering, because its small communication is
//! scheduled ahead of the bulky unrelated ones.

use letdma::model::{SystemBuilder, TimeNs};
use letdma::opt::{Objective, OptConfig, Optimizer};
use letdma::sim::{simulate, Approach, SimConfig};
use std::time::Duration;

#[test]
fn tau2_ready_much_earlier_than_giotto() {
    // τ1, τ3, τ5 on P1; τ2, τ4, τ6 on P2 — the shape of Fig. 1.
    let mut b = SystemBuilder::new(2);
    let t1 = b.task("tau1").period_ms(5).core_index(0).add().unwrap();
    let t3 = b.task("tau3").period_ms(10).core_index(0).add().unwrap();
    let t5 = b.task("tau5").period_ms(10).core_index(0).add().unwrap();
    let t2 = b.task("tau2").period_ms(5).core_index(1).add().unwrap();
    let t4 = b.task("tau4").period_ms(10).core_index(1).add().unwrap();
    let t6 = b.task("tau6").period_ms(10).core_index(1).add().unwrap();
    b.label("l1").size(256).writer(t1).reader(t2).add().unwrap();
    b.label("l2")
        .size(48 * 1024)
        .writer(t3)
        .reader(t4)
        .add()
        .unwrap();
    b.label("l3")
        .size(48 * 1024)
        .writer(t5)
        .reader(t6)
        .add()
        .unwrap();
    let system = b.build().unwrap();

    let solution = Optimizer::new(&system)
        .config(
            OptConfig::new()
                .with_objective(Objective::MinDelayRatio)
                .with_time_limit(Duration::from_secs(20)),
        )
        .run()
        .unwrap();

    let proposed = simulate(
        &system,
        Some(&solution.schedule),
        &SimConfig::for_approach(Approach::ProposedDma),
    )
    .unwrap();
    let giotto = simulate(
        &system,
        None,
        &SimConfig::for_approach(Approach::GiottoDmaA),
    )
    .unwrap();

    // τ2 must be at least 3× faster to data than under Giotto (in the
    // paper the improvement for such tasks reaches ~98 %).
    let p = proposed.latency(t2);
    let g = giotto.latency(t2);
    assert!(p > TimeNs::ZERO && g > TimeNs::ZERO);
    assert!(
        p.as_ns() * 3 <= g.as_ns(),
        "τ2: proposed {p} vs giotto {g} — expected ≥3× improvement"
    );

    // And nobody is ever *worse* off.
    for task in system.tasks() {
        assert!(
            proposed.latency(task.id()) <= giotto.latency(task.id()),
            "{} worse under proposed",
            task.name()
        );
    }
}
