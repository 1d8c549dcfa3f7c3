//! Pinned regression tests for the paper-facing numbers and for the
//! determinism guarantees of the hermetic substrate.
//!
//! These assertions are intentionally coarse: they pin the *claims* the
//! reproduction makes (transfer counts in the Table I ballpark, the Fig. 1
//! latency win, bit-identical reruns) rather than exact solver trajectories
//! that legitimate improvements may change.

use std::time::Duration;

use std::fmt::Write as _;

use letdma::core::{Cases, Counter, Fnv64, Rng, SolverStats, Xoshiro256};
use letdma::model::{System, SystemBuilder, TimeNs};
use letdma::opt::{heuristic_solution, Objective, OptConfig, Optimizer};
use letdma::sim::{simulate, Approach, SimConfig};
use letdma::waters::gen::{generate, GenConfig};
use letdma::waters::waters_system;

/// The constructive heuristic on the WATERS 2019 case study stays within
/// the paper's OBJ-DMAT ballpark: at most 15 DMA transfers (Table I reports
/// 15 for α = 0.2; the heuristic groups by (memory, direction, instant
/// class) and must not regress past that).
#[test]
fn waters_heuristic_transfer_count_pinned() {
    let (system, _) = waters_system().expect("case study builds");
    let solution = heuristic_solution(&system, false).expect("heuristic feasible");
    assert!(
        solution.num_transfers() <= 15,
        "WATERS heuristic now needs {} transfers (> 15): grouping regressed",
        solution.num_transfers()
    );
}

/// The Fig. 1 claim as a pinned ratio: under OBJ-DEL the latency-sensitive
/// consumer τ₂ becomes ready at least 3× earlier than under the Giotto
/// ordering, which schedules the two bulky 48 KiB transfers first.
#[test]
fn fig1_tau2_latency_improvement_pinned() {
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
        .expect("Fig. 1 example solves");
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

    let p = proposed.latency(t2);
    let g = giotto.latency(t2);
    assert!(p > TimeNs::ZERO, "τ₂ must actually communicate");
    assert!(
        g.as_ns() >= 3 * p.as_ns(),
        "τ₂ improvement regressed: proposed {p} vs Giotto {g}"
    );
}

/// Same seed ⇒ byte-identical generated workload, across independent
/// generator invocations (the whole point of the in-tree PRNG: no
/// platform- or version-dependent streams).
#[test]
fn workload_generation_is_deterministic() {
    let cfg = GenConfig {
        cores: 3,
        tasks: 9,
        labels: 12,
        seed: 0x5EED_CAFE,
        ..GenConfig::default()
    };
    let a = generate(&cfg);
    let b = generate(&cfg);
    assert_eq!(a, b, "same seed must yield identical systems");
    let different = generate(&GenConfig {
        seed: cfg.seed + 1,
        ..cfg
    });
    assert_ne!(a, different, "seed must actually matter");
}

/// Same model, same options ⇒ identical solver trajectory: pivot counts,
/// node counts and the incumbent timeline all match between two runs. This
/// is what makes `--stats` output (and any bug report built on it)
/// reproducible.
#[test]
fn solver_trajectory_is_deterministic() {
    let cfg = GenConfig {
        cores: 2,
        tasks: 6,
        labels: 4,
        seed: 77,
        ..GenConfig::default()
    };
    let run = || {
        let system = generate(&cfg);
        let mut stats = SolverStats::default();
        // No time limit: wall-clock cutoffs are the one legitimate source
        // of run-to-run divergence, so the trajectory comparison must be
        // bounded by nodes only.
        let config = OptConfig::new()
            .with_objective(Objective::MinTransfers)
            .without_time_limit()
            .with_node_limit(100);
        let solution = Optimizer::new(&system)
            .config(config)
            .instrument(&mut stats)
            .run()
            .expect("feasible");
        (solution.num_transfers(), stats)
    };
    let (transfers_a, stats_a) = run();
    let (transfers_b, stats_b) = run();
    assert_eq!(transfers_a, transfers_b);
    for counter in [
        Counter::SimplexIterations,
        Counter::Pivots,
        Counter::BoundFlips,
        Counter::Refactorizations,
        Counter::LpSolves,
        Counter::Nodes,
        Counter::Incumbents,
    ] {
        assert_eq!(
            stats_a.counter(counter),
            stats_b.counter(counter),
            "{} diverged between identical runs",
            counter.name()
        );
    }
    let timeline = |s: &SolverStats| -> Vec<(u64, String)> {
        s.incumbents()
            .iter()
            .map(|r| (r.nodes, format!("{:.9}", r.objective)))
            .collect()
    };
    assert_eq!(
        timeline(&stats_a),
        timeline(&stats_b),
        "incumbent timeline diverged between identical runs"
    );
}

/// Runs one node-limited solve and hashes everything the trajectory pin
/// covers: layout, schedule, exact objective bits, node count and the
/// incumbent timeline. Deliberately *excluded*: iteration/LP-solve work
/// counters, which measure how each node LP was solved, not what the
/// search found.
fn trajectory_hash(system: &System, objective: Objective, node_limit: u64) -> u64 {
    let mut stats = SolverStats::default();
    let config = OptConfig::new()
        .with_objective(objective)
        .without_time_limit()
        .with_node_limit(node_limit);
    let solution = Optimizer::new(system)
        .config(config)
        .instrument(&mut stats)
        .run()
        .expect("feasible");
    let mut h = Fnv64::new();
    write!(
        h,
        "{:?}|{:?}|{:?}|{}",
        solution.layout,
        solution.schedule,
        solution.objective_value.map(f64::to_bits),
        stats.counter(Counter::Nodes),
    )
    .expect("hashing never fails");
    for r in stats.incumbents() {
        h.write_u64(r.nodes);
        h.write_u64(r.objective.to_bits());
    }
    h.finish()
}

/// The WATERS search trajectory under `MinTransfers` at 8 nodes, pinned
/// by hash. The constant was captured when node re-solves still ran a
/// value-free dual-simplex certificate before the cold primal solve; the
/// certificate never changed a search answer, and this pin proves its
/// removal did not either.
#[test]
fn waters_trajectory_matches_golden_hash() {
    let (system, _) = waters_system().expect("case study builds");
    let got = trajectory_hash(&system, Objective::MinTransfers, 8);
    assert_eq!(
        got, 0x7CE5_F85A_D9AE_C283,
        "WATERS trajectory hash {got:#018x}"
    );
}

/// The same pin over a fixed six-case seeded corpus at 60 nodes. Case
/// seeds come from `Cases::case_seed`, so `LETDMA_CASES` does not resize
/// the set and every case has its own constant.
#[test]
fn generated_corpus_trajectories_match_golden_hashes() {
    const GOLDEN: [u64; 6] = [
        0x59FF_AA7F_6B4F_E344,
        0x93BC_3FB7_FEB2_6333,
        0xCCBE_14AA_3EDB_5089,
        0x525C_91DA_0EFE_C0D0,
        0x5FD8_7633_B1BB_CDCF,
        0x90FD_88D5_A75E_BF33,
    ];
    let cases = Cases::new("warm_cold_identity", GOLDEN.len());
    let got: Vec<u64> = (0..GOLDEN.len())
        .map(|index| {
            let mut rng = Xoshiro256::seed_from_u64(cases.case_seed(index));
            let cfg = GenConfig {
                cores: 2,
                tasks: 5 + (rng.next_u64() % 3) as usize,
                labels: 3 + (rng.next_u64() % 4) as usize,
                seed: rng.next_u64(),
                ..GenConfig::default()
            };
            trajectory_hash(&generate(&cfg), Objective::MinTransfers, 60)
        })
        .collect();
    let rendered: Vec<String> = got.iter().map(|h| format!("{h:#018x}")).collect();
    assert_eq!(got, GOLDEN, "corpus trajectory hashes {rendered:?}");
}
