//! `explore`: design-space exploration without the MILP. Each design point
//! derives its acquisition deadlines, builds the constructive heuristic,
//! reorders its transfers, verifies Properties 1–3 and simulates all five
//! protocols. The points are a WATERS α sweep plus seeded corpus scenarios
//! over the three DMA topologies and three period menus.
//!
//! `sim` and `opt`'s reordering dominate here and `milp` is never called,
//! so this is the "no change" control for every `milp` change.

use std::collections::BTreeMap;

use letdma::analysis::{apply_gammas, derive_gammas, let_task_segments, SporadicInterferer};
use letdma::core::{Rng, Xoshiro256};
use letdma::model::conformance::{verify, VerifyOptions, Violation};
use letdma::model::{System, TransferSchedule};
use letdma::opt::heuristic::construct;
use letdma::opt::Reorder;
use letdma::sim::{simulate, Approach, SimConfig, SimReport};
use letdma::waters::corpus::corpus;
use letdma::waters::gen::try_generate;
use letdma::waters::waters_system;

use crate::harness::{det_geomean, Pass, Traced, Workload};
use crate::trace::Tracer;

/// α values of the WATERS sweep, in percent.
const SWEEP: [u32; 5] = [10, 20, 30, 40, 50];
/// α values of the warm-up sweep, disjoint from [`SWEEP`].
const WARM_UP_SWEEP: [u32; 2] = [15, 25];
/// Corpus scenarios per pass: one full cycle of the corpus's topology,
/// period-menu, size and core-count classes.
const SCENARIOS: usize = 180;
/// Corpus scenarios of the warm-up pass.
const WARM_UP_SCENARIOS: usize = 30;
/// Master seeds of the timed and the warm-up corpus. The scenario
/// population is the same in every run, so runs with different seeds
/// measure the same cost distribution; the run seed draws each scenario's
/// α and the order of the points.
const CORPUS_SEED: u64 = 0xDAC2_2021;
const WARM_UP_CORPUS_SEED: u64 = 0x5741_524D_5550;
/// α values a corpus scenario's deadlines are derived with, in percent.
/// With smaller α the heuristic misses the derived deadlines of some
/// sensor-buffer scenarios, which the workload would report as infeasible
/// points rather than exercise.
const CORPUS_ALPHAS: [u32; 3] = [40, 50, 60];

/// The five protocols, with the span each simulation is recorded under.
const APPROACHES: [(Approach, &str); 5] = [
    (Approach::ProposedDma, "sim.proposed"),
    (Approach::GiottoCpu, "sim.giotto_cpu"),
    (Approach::GiottoDmaA, "sim.giotto_dma_a"),
    (Approach::GiottoDmaB, "sim.giotto_dma_b"),
    (Approach::TripleBuffered, "sim.triple_buffered"),
];

/// One design point: a system without deadlines, the interference its
/// deadlines are derived against, and α.
pub struct Point {
    /// Scenario name.
    pub name: String,
    /// The system, before γ derivation.
    pub system: System,
    /// DMA interference segments of the system's heuristic schedule.
    pub segments: Vec<SporadicInterferer>,
    /// α in percent.
    pub alpha_pct: u32,
}

/// The exploration workload.
pub struct Explore {
    points: Vec<Point>,
}

/// Everything one design point computes.
struct Evaluated {
    schedulable: bool,
    schedule: TransferSchedule,
    delay_ratio: f64,
    /// Conformance violations other than missed acquisition deadlines.
    violations: usize,
    /// Whether the heuristic's schedule meets every derived deadline.
    meets_deadlines: bool,
    reports: Vec<SimReport>,
}

/// Builds the design points of `seed` (or the warm-up points).
pub fn points(seed: u64, warm_up: bool, tracer: &mut Tracer) -> Result<Vec<Point>, String> {
    let (sweep, scenarios, corpus_seed): (&[u32], usize, u64) = if warm_up {
        (&WARM_UP_SWEEP, WARM_UP_SCENARIOS, WARM_UP_CORPUS_SEED)
    } else {
        (&SWEEP, SCENARIOS, CORPUS_SEED)
    };
    let (mut bases, specs) = tracer.span("waters.gen", |_| {
        let (waters, _) = waters_system().map_err(|e| format!("WATERS case study: {e}"))?;
        let specs = corpus(scenarios, corpus_seed);
        let mut bases = vec![("waters".to_owned(), waters)];
        for spec in &specs {
            let system = try_generate(&spec.config).map_err(|e| format!("{}: {e}", spec.name))?;
            bases.push((spec.name.clone(), system));
        }
        Ok::<_, String>((bases, specs))
    })?;
    let mut rng = Xoshiro256::seed_from_u64(seed);
    tracer.span("analysis.gammas", |_| {
        let segments = bases
            .iter()
            .map(|(name, system)| {
                construct(system, false)
                    .map(|h| let_task_segments(system, &h.schedule))
                    .ok_or_else(|| format!("{name}: no inter-core communication"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut segments = segments.into_iter();
        let (name, waters) = bases.remove(0);
        let waters_segments = segments.next().expect("one per base");
        let mut points: Vec<Point> = sweep
            .iter()
            .map(|&alpha_pct| Point {
                name: format!("{name}-a{alpha_pct}"),
                system: waters.clone(),
                segments: waters_segments.clone(),
                alpha_pct,
            })
            .collect();
        debug_assert_eq!(bases.len(), specs.len());
        for ((name, system), segments) in bases.into_iter().zip(segments) {
            let alpha_pct = CORPUS_ALPHAS[rng.u64_below(CORPUS_ALPHAS.len() as u64) as usize];
            points.push(Point {
                name,
                system,
                segments,
                alpha_pct,
            });
        }
        rng.shuffle(&mut points);
        Ok(points)
    })
}

impl Workload for Explore {
    fn setup(seed: u64, warm_up: bool, tracer: &mut Tracer) -> Result<Self, String> {
        Ok(Self {
            points: points(seed, warm_up, tracer)?,
        })
    }

    fn pass(&mut self, tracer: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let (mut transfers, mut events, mut stalls, mut infeasible) = (0, 0, 0, 0);
        let mut delay_ratios = Vec::with_capacity(self.points.len());
        let mut latency_ratios = Vec::with_capacity(self.points.len());
        for point in &self.points {
            let (result, elapsed) = tracer.op("explore.point", |t| evaluate(point, t));
            let failure = match &result {
                Err(e) => Some(format!("{}: {e}", point.name)),
                Ok(ev) => check(ev).err().map(|e| format!("{}: {e}", point.name)),
            };
            if let Ok(ev) = &result {
                transfers += ev.schedule.len() as u64;
                delay_ratios.push(ev.delay_ratio);
                latency_ratios
                    .push(worst(&ev.reports[0]) as f64 / worst(&ev.reports[1]).max(1) as f64);
                events += ev.reports.iter().map(|r| r.events_processed).sum::<u64>();
                stalls += ev.reports[4].rotation_stalls;
                infeasible += u64::from(!ev.meets_deadlines);
            }
            pass.record(elapsed, failure);
        }
        pass.det.insert("transfers", transfers);
        pass.det.insert("delay_ratio", det_geomean(&delay_ratios));
        pass.det
            .insert("latency_ratio", det_geomean(&latency_ratios));
        pass.det.insert("sim.events", events);
        pass.det.insert("explore.infeasible_points", infeasible);
        pass.add("sim.events", events as f64);
        pass.add("sim.rotation_stalls", stalls as f64);
        pass.add("model.verify_calls", self.points.len() as f64);
        pass
    }

    fn layers(&self, traced: &Traced<'_>, out: &mut BTreeMap<&'static str, f64>) {
        let sim_ms: f64 = APPROACHES
            .iter()
            .map(|(_, span)| traced.span_ms(span))
            .sum();
        let events_per_op = traced.per_op("sim.events");
        out.extend([
            ("analysis.gammas_ms", traced.span_ms("analysis.gammas")),
            ("opt.heuristic_ms", traced.span_ms("opt.heuristic")),
            ("opt.reorder_ms", traced.span_ms("opt.reorder")),
            ("model.verify_ms", traced.span_ms("model.verify")),
            ("model.verify_calls", traced.per_pass("model.verify_calls")),
            ("sim.proposed_ms", traced.span_ms("sim.proposed")),
            ("sim.giotto_cpu_ms", traced.span_ms("sim.giotto_cpu")),
            ("sim.giotto_dma_a_ms", traced.span_ms("sim.giotto_dma_a")),
            ("sim.giotto_dma_b_ms", traced.span_ms("sim.giotto_dma_b")),
            (
                "sim.triple_buffered_ms",
                traced.span_ms("sim.triple_buffered"),
            ),
            ("sim.events", traced.per_pass("sim.events")),
            ("sim.ns_per_event", sim_ms * 1e6 / events_per_op.max(1.0)),
            (
                "sim.rotation_stalls",
                traced.per_pass("sim.rotation_stalls"),
            ),
            (
                "sim.latency_ratio",
                f64::from_bits(traced.pass.det.get("latency_ratio").copied().unwrap_or(0)),
            ),
        ]);
    }
}

/// One design point, in the order a designer's tool would make the calls.
fn evaluate(point: &Point, t: &mut Tracer) -> Result<Evaluated, String> {
    let (system, schedulable) = t.span("analysis.gammas", |_| {
        let mut system = point.system.clone();
        let sens =
            derive_gammas(&system, point.alpha_pct, &point.segments).map_err(|e| e.to_string())?;
        apply_gammas(&mut system, &sens);
        Ok::<_, String>((system, sens.schedulable))
    })?;
    let heuristic = t
        .span("opt.heuristic", |_| construct(&system, false))
        .ok_or("no inter-core communication")?;
    let schedule = t.span("opt.reorder", |_| {
        Reorder::new(&system, &heuristic.schedule).run()
    });
    let violations = t.span("model.verify", |_| {
        verify(
            &system,
            &heuristic.layout,
            &schedule,
            VerifyOptions::default(),
        )
    });
    // The heuristic guarantees Constraints 1–8 and contiguity, not the
    // deadlines: a missed deadline is the point's verdict (infeasible for
    // the heuristic at this α), any other violation is a defect.
    let misses = violations
        .iter()
        .filter(|v| matches!(v, Violation::AcquisitionDeadlineMiss { .. }))
        .count();
    let mut reports = Vec::with_capacity(APPROACHES.len());
    for (approach, span) in APPROACHES {
        let report = t
            .span(span, |_| {
                simulate(&system, Some(&schedule), &SimConfig::for_approach(approach))
            })
            .map_err(|e| format!("{approach:?}: {e}"))?;
        reports.push(report);
    }
    let latencies = schedule.worst_case_latencies(&system);
    let delay_ratio = latencies
        .iter()
        .map(|(&task, l)| l.as_ns() as f64 / system.task(task).period().as_ns() as f64)
        .fold(0.0, f64::max);
    Ok(Evaluated {
        schedulable,
        schedule,
        delay_ratio,
        violations: violations.len() - misses,
        meets_deadlines: misses == 0,
        reports,
    })
}

/// Worst simulated data-acquisition latency over all tasks, in ns.
fn worst(report: &SimReport) -> u64 {
    report
        .latencies
        .values()
        .map(|l| l.as_ns())
        .max()
        .unwrap_or(0)
}

/// The output checks of one design point.
fn check(ev: &Evaluated) -> Result<(), String> {
    if !ev.schedulable {
        return Err("derived deadlines are not schedulable".to_owned());
    }
    if ev.violations > 0 {
        return Err(format!("{} conformance violations", ev.violations));
    }
    for (report, (approach, _)) in ev.reports.iter().zip(APPROACHES) {
        if matches!(approach, Approach::ProposedDma | Approach::TripleBuffered)
            && (report.buffer_hazards > 0 || report.property3_overruns > 0)
        {
            return Err(format!(
                "{approach:?}: {} buffer hazards, {} Property-3 overruns",
                report.buffer_hazards, report.property3_overruns
            ));
        }
    }
    if worst(&ev.reports[1]) == 0 {
        return Err("Giotto-CPU reports no acquisition latency".to_owned());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn another_seed_gives_other_valid_points() {
        let mut t = Tracer::new(false);
        let a = points(1, false, &mut t).expect("seed 1 builds");
        let b = points(2, false, &mut t).expect("seed 2 builds");
        assert_eq!(a.len(), SWEEP.len() + SCENARIOS);
        assert_eq!(a.len(), b.len());
        let differs = a
            .iter()
            .zip(&b)
            .any(|(x, y)| x.name != y.name || x.alpha_pct != y.alpha_pct);
        assert!(differs, "different seeds must give different design points");
        let again = points(1, false, &mut t).expect("seed 1 again");
        assert!(a
            .iter()
            .zip(&again)
            .all(|(x, y)| x.name == y.name && x.alpha_pct == y.alpha_pct));
        // Every point of both seeds passes the workload's own checks.
        for p in a.iter().chain(&b).step_by(7) {
            let ev = evaluate(p, &mut t).expect("evaluates");
            check(&ev).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }
}
