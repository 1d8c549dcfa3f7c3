//! The scenario-corpus campaign behind `repro corpus` and the committed
//! `BENCH_corpus.json` artifact.
//!
//! [`run`] expands the seeded scenario corpus
//! ([`letdma::waters::corpus::corpus`]) and solves every scenario
//! end-to-end: the constructive heuristic, the MILP under a node budget,
//! the independent Properties-1–3 conformance checker on
//! *both* solutions, and a simulation of every protocol variant
//! ([`crate::simulate_all`]) — the four §VII approaches plus the
//! triple-buffered pipeline, whose buffer-rotation counters
//! (`buffer_hazards`, `rotation_stalls`) the report carries per scenario.
//!
//! The report is deliberately timing-free: scenario generation, the
//! node-limited MILP and the simulator are all deterministic, so the
//! rendered `BENCH_corpus.json` is byte-identical across reruns and
//! thread counts. Latencies are simulated worst cases (nanoseconds of
//! model time), not wall clock.

use letdma::core::Json;
use letdma::model::conformance::{verify, VerifyOptions};
use letdma::model::System;
use letdma::opt::{heuristic_solution, Objective, OptConfig, Optimizer};
use letdma::waters::corpus::{corpus, ScenarioSpec};
use letdma::waters::gen::{system_fingerprint, try_generate};

use crate::{simulate_all, ApproachReports};

/// Schema identifier of `BENCH_corpus.json`; bump on breaking layout
/// change.
pub const SCHEMA: &str = "letdma-bench-corpus/1";

/// Simulated worst-case acquisition latency (ns, max over tasks) of each
/// protocol variant on one scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct ApproachLatencies {
    /// The proposed LET-DMA protocol on the MILP schedule.
    pub proposed: u64,
    /// Giotto with CPU copies.
    pub giotto_cpu: u64,
    /// Giotto with one DMA transfer per label.
    pub giotto_dma_a: u64,
    /// Giotto with grouped DMA transfers.
    pub giotto_dma_b: u64,
    /// The triple-buffered work/pre-fetch/commit pipeline.
    pub triple_buffered: u64,
}

impl ApproachLatencies {
    fn from_reports(system: &System, reports: &ApproachReports) -> Self {
        let max = |report: &letdma::sim::SimReport| {
            system
                .tasks()
                .iter()
                .map(|t| report.latency(t.id()).as_ns())
                .max()
                .unwrap_or(0)
        };
        Self {
            proposed: max(&reports.proposed),
            giotto_cpu: max(&reports.giotto_cpu),
            giotto_dma_a: max(&reports.giotto_dma_a),
            giotto_dma_b: max(&reports.giotto_dma_b),
            triple_buffered: max(&reports.triple_buffered),
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("proposed", Json::Int(self.proposed as i64)),
            ("giotto_cpu", Json::Int(self.giotto_cpu as i64)),
            ("giotto_dma_a", Json::Int(self.giotto_dma_a as i64)),
            ("giotto_dma_b", Json::Int(self.giotto_dma_b as i64)),
            ("triple_buffered", Json::Int(self.triple_buffered as i64)),
        ])
    }
}

/// One corpus scenario solved end-to-end.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Stable scenario name (`s012-shared-dma-co-prime-command-words`).
    pub name: String,
    /// Topology class tag.
    pub topology_class: &'static str,
    /// Period-menu class tag.
    pub period_class: &'static str,
    /// Size-distribution class tag.
    pub size_class: &'static str,
    /// Core count of the generated platform.
    pub cores: u16,
    /// Task count.
    pub tasks: usize,
    /// Inter-core label count.
    pub labels: usize,
    /// Hyperperiod divided by the longest menu period (1 for harmonic
    /// menus; larger ratios mean denser, less aligned comm instants).
    pub hyperperiod_ratio: u64,
    /// FNV-1a fingerprint of the generated system (the determinism pin).
    pub fingerprint: u64,
    /// Transfer count of the constructive heuristic.
    pub heuristic_transfers: usize,
    /// Transfer count of the node-limited MILP solution.
    pub milp_transfers: usize,
    /// Conformance violations of the heuristic solution (must be 0).
    pub heuristic_violations: usize,
    /// Conformance violations of the MILP solution (must be 0).
    pub milp_violations: usize,
    /// Simulated worst-case latency per protocol variant.
    pub latency_ns: ApproachLatencies,
    /// Buffer-rotation hazards of the triple-buffered run (must be 0).
    pub buffer_hazards: u64,
    /// Rotation back-pressure stalls of the triple-buffered run
    /// (informational).
    pub rotation_stalls: u64,
    /// Property-3 overruns of the proposed-protocol run (must be 0).
    pub property3_overruns: u64,
}

impl ScenarioReport {
    /// MILP objective never worse than the heuristic's (guaranteed by the
    /// heuristic warm start; recorded so the artifact proves it).
    #[must_use]
    pub fn milp_not_worse(&self) -> bool {
        self.milp_transfers <= self.heuristic_transfers
    }

    /// Both solutions conformance-clean and the simulations hazard- and
    /// overrun-free: the Properties-1–3 verdict of this scenario.
    #[must_use]
    pub fn properties_pass(&self) -> bool {
        self.heuristic_violations == 0
            && self.milp_violations == 0
            && self.buffer_hazards == 0
            && self.property3_overruns == 0
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(self.name.clone())),
            ("topology_class", Json::str(self.topology_class)),
            ("period_class", Json::str(self.period_class)),
            ("size_class", Json::str(self.size_class)),
            ("cores", Json::Int(i64::from(self.cores))),
            ("tasks", Json::Int(self.tasks as i64)),
            ("labels", Json::Int(self.labels as i64)),
            (
                "hyperperiod_ratio",
                Json::Int(self.hyperperiod_ratio as i64),
            ),
            (
                "fingerprint",
                Json::str(format!("{:016x}", self.fingerprint)),
            ),
            (
                "heuristic_transfers",
                Json::Int(self.heuristic_transfers as i64),
            ),
            ("milp_transfers", Json::Int(self.milp_transfers as i64)),
            ("milp_not_worse", Json::Bool(self.milp_not_worse())),
            (
                "heuristic_violations",
                Json::Int(self.heuristic_violations as i64),
            ),
            ("milp_violations", Json::Int(self.milp_violations as i64)),
            ("properties_pass", Json::Bool(self.properties_pass())),
            ("latency_ns", self.latency_ns.to_json()),
            ("buffer_hazards", Json::Int(self.buffer_hazards as i64)),
            ("rotation_stalls", Json::Int(self.rotation_stalls as i64)),
            (
                "property3_overruns",
                Json::Int(self.property3_overruns as i64),
            ),
        ])
    }
}

/// The full corpus campaign.
#[derive(Debug, Clone)]
pub struct CorpusBench {
    /// Master seed the corpus was expanded from.
    pub seed: u64,
    /// Node budget of each MILP solve (the deterministic stopping rule).
    pub node_limit: u64,
    /// Per-scenario reports, in corpus order.
    pub scenarios: Vec<ScenarioReport>,
}

impl CorpusBench {
    /// Number of distinct topology classes covered.
    #[must_use]
    pub fn topology_classes(&self) -> usize {
        let mut classes: Vec<&str> = self.scenarios.iter().map(|s| s.topology_class).collect();
        classes.sort_unstable();
        classes.dedup();
        classes.len()
    }

    /// Every scenario passes Properties 1–3 (conformance on both
    /// solutions, no rotation hazard, no Property-3 overrun).
    #[must_use]
    pub fn all_properties_pass(&self) -> bool {
        self.scenarios.iter().all(ScenarioReport::properties_pass)
    }

    /// The MILP objective is never worse than the heuristic's, on every
    /// scenario.
    #[must_use]
    pub fn milp_never_worse(&self) -> bool {
        self.scenarios.iter().all(ScenarioReport::milp_not_worse)
    }

    /// Scenarios where the node-limited MILP strictly beat the heuristic.
    #[must_use]
    pub fn milp_improved(&self) -> usize {
        self.scenarios
            .iter()
            .filter(|s| s.milp_transfers < s.heuristic_transfers)
            .count()
    }

    /// Scenarios where the triple-buffered pipeline's worst latency beats
    /// the Giotto-CPU copy baseline. Not asserted — on command-word-sized
    /// labels the per-transfer ISR cost can outweigh the CPU copy loop, so
    /// this is a measurement, not an invariant (the WATERS-scale win *is*
    /// asserted, in `crates/sim/tests/triple_buffer.rs`).
    #[must_use]
    pub fn tb_latency_wins(&self) -> usize {
        self.scenarios
            .iter()
            .filter(|s| s.latency_ns.triple_buffered < s.latency_ns.giotto_cpu)
            .count()
    }

    /// The `BENCH_corpus.json` value (schema documented in DESIGN.md
    /// §"Workload generator & protocol variants").
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("generated_by", Json::str("repro corpus")),
            ("seed", Json::str(format!("{:016x}", self.seed))),
            ("node_limit", Json::Int(self.node_limit as i64)),
            (
                "scenarios",
                Json::Arr(self.scenarios.iter().map(ScenarioReport::to_json).collect()),
            ),
            (
                "totals",
                Json::obj(vec![
                    ("scenarios", Json::Int(self.scenarios.len() as i64)),
                    (
                        "topology_classes",
                        Json::Int(self.topology_classes() as i64),
                    ),
                    (
                        "all_properties_pass",
                        Json::Bool(self.all_properties_pass()),
                    ),
                    ("milp_never_worse", Json::Bool(self.milp_never_worse())),
                    ("milp_improved", Json::Int(self.milp_improved() as i64)),
                    ("tb_latency_wins", Json::Int(self.tb_latency_wins() as i64)),
                ]),
            ),
        ])
    }

    /// Human-readable summary table for the terminal.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Scenario corpus — {} scenarios, seed {:016x}, node budget {}\n",
            self.scenarios.len(),
            self.seed,
            self.node_limit
        ));
        out.push_str(
            "scenario                                          transfers h→m   λ proposed      λ triple-buf    λ Giotto-CPU    hazards stalls P1–3\n",
        );
        for s in &self.scenarios {
            out.push_str(&format!(
                "{:<49} {:>6} → {:<5} {:>13}ns {:>13}ns {:>13}ns {:>7} {:>6} {}\n",
                s.name,
                s.heuristic_transfers,
                s.milp_transfers,
                s.latency_ns.proposed,
                s.latency_ns.triple_buffered,
                s.latency_ns.giotto_cpu,
                s.buffer_hazards,
                s.rotation_stalls,
                if s.properties_pass() { "pass" } else { "FAIL" },
            ));
        }
        out.push_str(&format!(
            "total: {} scenarios over {} topology classes — properties pass: {}, MILP never worse: {} ({} strictly improved), triple-buffer latency wins vs CPU copies: {}\n",
            self.scenarios.len(),
            self.topology_classes(),
            self.all_properties_pass(),
            self.milp_never_worse(),
            self.milp_improved(),
            self.tb_latency_wins(),
        ));
        out
    }
}

/// Runs the campaign: expands `scenarios` specs from `seed`, solves each
/// in turn with the heuristic and the node-limited MILP (`threads` sizes
/// each solve's node pool; the artifact is thread-count-invariant),
/// conformance-checks both solutions and simulates every protocol variant.
///
/// # Panics
///
/// Panics when a scenario fails to generate, the heuristic is infeasible,
/// or the MILP disagrees with the heuristic on feasibility — the corpus is
/// constructed to be feasible end-to-end, so any of these is a bug.
#[must_use]
pub fn run(scenarios: usize, seed: u64, node_limit: u64, threads: Option<usize>) -> CorpusBench {
    let mut config = OptConfig::new()
        .with_objective(Objective::MinTransfers)
        .with_node_limit(node_limit)
        .without_time_limit();
    if let Some(n) = threads {
        config = config.with_threads(n);
    }
    let reports = corpus(scenarios, seed)
        .iter()
        .map(|spec| {
            let system = try_generate(&spec.config)
                .unwrap_or_else(|e| panic!("{}: generator: {e}", spec.name));
            let milp = Optimizer::new(&system).config(config.clone()).run();
            scenario_report(spec, &system, milp.as_ref())
        })
        .collect();
    CorpusBench {
        seed,
        node_limit,
        scenarios: reports,
    }
}

fn scenario_report(
    spec: &ScenarioSpec,
    system: &System,
    milp: Result<&letdma::opt::LetDmaSolution, impl std::fmt::Display>,
) -> ScenarioReport {
    let heuristic = heuristic_solution(system, false)
        .unwrap_or_else(|e| panic!("{}: heuristic infeasible: {e}", spec.name));
    let milp = milp.unwrap_or_else(|e| panic!("{}: MILP failed: {e}", spec.name));
    let violations = |solution: &letdma::opt::LetDmaSolution| {
        verify(
            system,
            &solution.layout,
            &solution.schedule,
            VerifyOptions::default(),
        )
        .len()
    };
    let reports = simulate_all(system, milp);
    ScenarioReport {
        name: spec.name.clone(),
        topology_class: spec.topology_class,
        period_class: spec.period_class,
        size_class: spec.size_class,
        cores: spec.config.cores,
        tasks: spec.config.tasks,
        labels: spec.config.labels,
        hyperperiod_ratio: spec.config.periods.hyperperiod_ratio(),
        fingerprint: system_fingerprint(system),
        heuristic_transfers: heuristic.num_transfers(),
        milp_transfers: milp.num_transfers(),
        heuristic_violations: violations(&heuristic),
        milp_violations: violations(milp),
        latency_ns: ApproachLatencies::from_reports(system, &reports),
        buffer_hazards: reports.triple_buffered.buffer_hazards,
        rotation_stalls: reports.triple_buffered.rotation_stalls,
        property3_overruns: reports.proposed.property3_overruns
            + reports.triple_buffered.property3_overruns,
    }
}

/// Checks that a rendered campaign value matches the [`SCHEMA`] layout;
/// returns the first problem found.
///
/// This runs on every `repro corpus` invocation before the file is
/// written (and in the CI smoke run), so a drifting emitter fails loudly
/// instead of silently producing an unparseable artifact.
///
/// # Errors
///
/// A description of the first missing/ill-typed field.
pub fn validate(value: &Json) -> Result<(), String> {
    let need = |v: &Json, key: &str| -> Result<Json, String> {
        v.get(key).cloned().ok_or(format!("missing key `{key}`"))
    };
    match need(value, "schema")? {
        Json::Str(s) if s == SCHEMA => {}
        other => return Err(format!("bad schema tag {other:?}")),
    }
    if !matches!(need(value, "seed")?, Json::Str(_)) {
        return Err("seed must be a hex string".into());
    }
    if !matches!(need(value, "node_limit")?, Json::Int(n) if n > 0) {
        return Err("node_limit must be a positive integer".into());
    }
    let Json::Arr(scenarios) = need(value, "scenarios")? else {
        return Err("scenarios must be an array".into());
    };
    if scenarios.is_empty() {
        return Err("scenarios must be non-empty".into());
    }
    for s in &scenarios {
        for key in [
            "name",
            "topology_class",
            "period_class",
            "size_class",
            "fingerprint",
        ] {
            if !matches!(need(s, key)?, Json::Str(_)) {
                return Err(format!("scenario `{key}` must be a string"));
            }
        }
        for key in [
            "cores",
            "tasks",
            "labels",
            "hyperperiod_ratio",
            "heuristic_transfers",
            "milp_transfers",
            "heuristic_violations",
            "milp_violations",
            "buffer_hazards",
            "rotation_stalls",
            "property3_overruns",
        ] {
            if !matches!(need(s, key)?, Json::Int(_)) {
                return Err(format!("scenario `{key}` must be an integer"));
            }
        }
        for key in ["milp_not_worse", "properties_pass"] {
            if !matches!(need(s, key)?, Json::Bool(_)) {
                return Err(format!("scenario `{key}` must be a boolean"));
            }
        }
        let lat = need(s, "latency_ns")?;
        for key in [
            "proposed",
            "giotto_cpu",
            "giotto_dma_a",
            "giotto_dma_b",
            "triple_buffered",
        ] {
            if !matches!(need(&lat, key)?, Json::Int(_)) {
                return Err(format!("latency_ns.{key} must be an integer"));
            }
        }
    }
    let totals = need(value, "totals")?;
    for key in [
        "scenarios",
        "topology_classes",
        "milp_improved",
        "tb_latency_wins",
    ] {
        if !matches!(need(&totals, key)?, Json::Int(_)) {
            return Err(format!("totals.{key} must be an integer"));
        }
    }
    for key in ["all_properties_pass", "milp_never_worse"] {
        if !matches!(need(&totals, key)?, Json::Bool(_)) {
            return Err(format!("totals.{key} must be a boolean"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CorpusBench {
        CorpusBench {
            seed: 0xDAC2_2021,
            node_limit: 200,
            scenarios: vec![
                ScenarioReport {
                    name: "s000-shared-dma-harmonic-command-words".into(),
                    topology_class: "shared-dma",
                    period_class: "harmonic",
                    size_class: "command-words",
                    cores: 2,
                    tasks: 4,
                    labels: 3,
                    hyperperiod_ratio: 1,
                    fingerprint: 0xFBF4_1080_0A2C_1C76,
                    heuristic_transfers: 6,
                    milp_transfers: 4,
                    heuristic_violations: 0,
                    milp_violations: 0,
                    latency_ns: ApproachLatencies {
                        proposed: 11_000,
                        giotto_cpu: 9_000,
                        giotto_dma_a: 14_000,
                        giotto_dma_b: 12_000,
                        triple_buffered: 10_500,
                    },
                    buffer_hazards: 0,
                    rotation_stalls: 2,
                    property3_overruns: 0,
                },
                ScenarioReport {
                    name: "s001-clustered-harmonic-sensor-buffers".into(),
                    topology_class: "clustered",
                    period_class: "harmonic",
                    size_class: "sensor-buffers",
                    cores: 3,
                    tasks: 6,
                    labels: 4,
                    hyperperiod_ratio: 1,
                    fingerprint: 0x6A8D_AD57_18E5_D906,
                    heuristic_transfers: 5,
                    milp_transfers: 5,
                    heuristic_violations: 0,
                    milp_violations: 0,
                    latency_ns: ApproachLatencies {
                        proposed: 400_000,
                        giotto_cpu: 900_000,
                        giotto_dma_a: 700_000,
                        giotto_dma_b: 600_000,
                        triple_buffered: 380_000,
                    },
                    buffer_hazards: 0,
                    rotation_stalls: 0,
                    property3_overruns: 0,
                },
            ],
        }
    }

    #[test]
    fn totals_math() {
        let b = sample();
        assert_eq!(b.topology_classes(), 2);
        assert!(b.all_properties_pass());
        assert!(b.milp_never_worse());
        assert_eq!(b.milp_improved(), 1);
        assert_eq!(b.tb_latency_wins(), 1);
    }

    #[test]
    fn properties_fail_on_any_nonzero_counter() {
        let mut b = sample();
        assert!(b.scenarios[0].properties_pass());
        b.scenarios[0].buffer_hazards = 1;
        assert!(!b.scenarios[0].properties_pass());
        assert!(!b.all_properties_pass());
        b.scenarios[0].buffer_hazards = 0;
        b.scenarios[0].milp_violations = 2;
        assert!(!b.scenarios[0].properties_pass());
    }

    #[test]
    fn sample_json_validates() {
        let v = sample().to_json();
        validate(&v).expect("sample must be schema-valid");
    }

    #[test]
    fn json_round_trips_through_parse() {
        let rendered = sample().to_json().render();
        let parsed = Json::parse(&rendered).expect("rendered JSON parses");
        validate(&parsed).expect("parsed JSON stays schema-valid");
        let Json::Arr(scenarios) = parsed.get("scenarios").cloned().unwrap() else {
            panic!("scenarios must be an array");
        };
        assert!(matches!(
            scenarios[0].get("fingerprint"),
            Some(Json::Str(s)) if s == "fbf410800a2c1c76"
        ));
        assert!(matches!(
            scenarios[0].get("milp_not_worse"),
            Some(Json::Bool(true))
        ));
    }

    #[test]
    fn validate_rejects_missing_fields() {
        let mut v = sample().to_json();
        if let Json::Obj(fields) = &mut v {
            fields.retain(|(k, _)| k != "totals");
        }
        assert!(validate(&v).unwrap_err().contains("totals"));
        assert!(validate(&Json::Null).is_err());
        let mut bad = sample();
        bad.scenarios.clear();
        assert!(validate(&bad.to_json()).unwrap_err().contains("non-empty"));
    }
}
