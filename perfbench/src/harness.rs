//! The workload-independent part of a run: argument parsing, repeated
//! set-up, warm-up, the timed closed loop, the exact-repeat check of the
//! deterministic counts, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use letdma::core::{Counter, Json, SolverStats};

use crate::stats::{geomean, median, peak_rss_mb, percentile};
use crate::trace::{SpanTotal, Tracer};

/// Fewest set-ups per run; `setup_s` is their median.
const MIN_SETUPS: usize = 5;
/// Set-ups repeat until they have taken this long in total (or
/// [`MAX_SETUPS`] ran), so a cheap set-up is still timed steadily.
const SETUP_SECONDS: f64 = 1.0;
/// Most set-ups per run.
const MAX_SETUPS: usize = 200;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured wall clock.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => {
                    seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?);
                }
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|e| format!("--seconds {value}: {e}"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(format!("--seconds {value}: expected 0 < s <= 3600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {value}: expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
        })
    }
}

/// What one pass over a workload's fixed inputs produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Latency of every operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Sum of the operation latencies: the closed loop's busy wall clock
    /// (output checks run between operations and are excluded).
    pub busy: Duration,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// Quantities that must repeat exactly on every pass over the same
    /// inputs (floating-point values as their bit patterns).
    pub det: BTreeMap<&'static str, u64>,
    /// Per-layer totals of this pass, finished into metrics by the workload.
    pub sums: BTreeMap<&'static str, f64>,
    /// Solver statistics of every solve in the pass.
    pub stats: SolverStats,
}

impl Pass {
    /// Records one operation's latency and verdict.
    pub fn record(&mut self, elapsed: Duration, failure: Option<String>) {
        self.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
        self.busy += elapsed;
        self.failures.extend(failure);
    }

    /// Adds `value` to the per-layer total `key`.
    pub fn add(&mut self, key: &'static str, value: f64) {
        *self.sums.entry(key).or_insert(0.0) += value;
    }

    /// Operations recorded.
    pub fn ops(&self) -> usize {
        self.latencies_ms.len()
    }

    fn absorb(&mut self, other: Pass) {
        self.latencies_ms.extend(other.latencies_ms);
        self.busy += other.busy;
        self.failures.extend(other.failures);
        for (k, v) in other.sums {
            *self.sums.entry(k).or_insert(0.0) += v;
        }
        self.stats.absorb(&other.stats);
    }
}

/// The traced passes of a run, handed to a workload to finish its
/// per-layer metrics.
pub struct Traced<'a> {
    /// The merged passes.
    pub pass: &'a Pass,
    /// How many passes were merged.
    pub passes: usize,
    /// Span totals of those passes, by name.
    pub spans: BTreeMap<&'static str, SpanTotal>,
}

impl Traced<'_> {
    /// Mean milliseconds per operation spent in spans named `name`.
    pub fn span_ms(&self, name: &str) -> f64 {
        let ns = self.spans.get(name).map_or(0, |t| t.total_ns);
        ns as f64 / 1e6 / self.pass.ops().max(1) as f64
    }

    /// Per-pass value of the total `key`.
    pub fn per_pass(&self, key: &str) -> f64 {
        self.pass.sums.get(key).copied().unwrap_or(0.0) / self.passes as f64
    }

    /// Per-operation value of the total `key`.
    pub fn per_op(&self, key: &str) -> f64 {
        self.pass.sums.get(key).copied().unwrap_or(0.0) / self.pass.ops().max(1) as f64
    }

    /// Mean milliseconds per operation of the optimizer phase `phase`.
    pub fn phase_ms(&self, phase: &str) -> f64 {
        let d: Duration = self
            .pass
            .stats
            .phases()
            .iter()
            .filter(|(n, _, _)| *n == phase)
            .map(|(_, d, _)| *d)
            .sum();
        d.as_secs_f64() * 1e3 / self.pass.ops().max(1) as f64
    }

    /// Per-pass value of a solver counter.
    pub fn counter(&self, counter: Counter) -> f64 {
        self.pass.stats.counter(counter) as f64 / self.passes as f64
    }

    /// The `milp` and `opt` metrics every solving workload reports, from the
    /// solver statistics of its solves (ms per operation, counts per pass).
    pub fn solver_layers(&self, out: &mut BTreeMap<&'static str, f64>) {
        let search = self.phase_ms("milp-search") + self.phase_ms("milp-retry");
        let factorize = self.phase_ms("simplex-factorize");
        let solve = self.phase_ms("simplex-solve");
        let pricing = self.phase_ms("simplex-pricing");
        let iterations = self.counter(Counter::SimplexIterations);
        let attempts = self.counter(Counter::WarmAttempts);
        out.extend([
            ("milp.search_ms", search),
            ("milp.factorize_ms", factorize),
            ("milp.solve_ms", solve),
            ("milp.pricing_ms", pricing),
            ("milp.untimed_ms", search - factorize - solve - pricing),
            ("milp.nodes", self.counter(Counter::Nodes)),
            ("milp.simplex_iterations", iterations),
            (
                "milp.phase1_iterations",
                self.counter(Counter::Phase1Iterations),
            ),
            (
                "milp.refactorizations",
                self.counter(Counter::Refactorizations),
            ),
            ("milp.ftran_calls", self.counter(Counter::FtranCalls)),
            ("milp.btran_calls", self.counter(Counter::BtranCalls)),
            (
                "milp.pricing_candidates",
                self.counter(Counter::PricingCandidates),
            ),
            (
                "milp.us_per_iteration",
                if iterations > 0.0 {
                    search * 1e3 * self.pass.ops() as f64 / self.passes as f64 / iterations
                } else {
                    0.0
                },
            ),
            (
                "milp.warm_fathom_ratio",
                if attempts > 0.0 {
                    self.counter(Counter::WarmFathoms) / attempts
                } else {
                    0.0
                },
            ),
            (
                "milp.cross_scenario_warm_starts",
                self.counter(Counter::CrossScenarioWarmStarts),
            ),
            (
                "milp.phase1_iterations_saved",
                self.counter(Counter::Phase1IterationsSaved),
            ),
            ("opt.heuristic_ms", self.phase_ms("heuristic")),
            (
                "opt.prepare_ms",
                self.phase_ms("formulation") + self.phase_ms("presolve"),
            ),
            ("opt.validate_ms", self.phase_ms("validate")),
        ]);
    }
}

/// A benchmark workload: seeded inputs and one pass over them.
pub trait Workload: Sized {
    /// Builds the inputs from `seed` — the work `setup_s` times. With
    /// `warm_up`, builds inputs disjoint from the timed ones instead.
    fn setup(seed: u64, warm_up: bool, tracer: &mut Tracer) -> Result<Self, String>;

    /// Runs every operation once, in the seeded order, checking each output.
    fn pass(&mut self, tracer: &mut Tracer) -> Pass;

    /// Per-layer metrics this workload measures (the rest read zero).
    fn layers(&self, traced: &Traced<'_>, out: &mut BTreeMap<&'static str, f64>);
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("milp.search_ms", "ms"),
    ("milp.factorize_ms", "ms"),
    ("milp.solve_ms", "ms"),
    ("milp.pricing_ms", "ms"),
    ("milp.untimed_ms", "ms"),
    ("milp.nodes", "count"),
    ("milp.simplex_iterations", "count"),
    ("milp.phase1_iterations", "count"),
    ("milp.refactorizations", "count"),
    ("milp.ftran_calls", "count"),
    ("milp.btran_calls", "count"),
    ("milp.pricing_candidates", "count"),
    ("milp.us_per_iteration", "us"),
    ("milp.warm_fathom_ratio", "ratio"),
    ("milp.cross_scenario_warm_starts", "count"),
    ("milp.phase1_iterations_saved", "count"),
    ("opt.heuristic_ms", "ms"),
    ("opt.reorder_ms", "ms"),
    ("opt.prepare_ms", "ms"),
    ("opt.validate_ms", "ms"),
    ("model.verify_ms", "ms"),
    ("model.verify_calls", "count"),
    ("sim.proposed_ms", "ms"),
    ("sim.giotto_cpu_ms", "ms"),
    ("sim.giotto_dma_a_ms", "ms"),
    ("sim.giotto_dma_b_ms", "ms"),
    ("sim.triple_buffered_ms", "ms"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.rotation_stalls", "count"),
    ("sim.latency_ratio", "ratio"),
    ("analysis.gammas_ms", "ms"),
    ("waters.gen_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.request_bytes", "B"),
    ("serve.response_bytes", "B"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.hit_ms", "ms"),
    ("serve.miss_ms", "ms"),
    ("serve.cache_entries", "count"),
    ("serve.retries", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Runs the closed loop for `seconds` of wall clock (at least one pass) and
/// merges the passes. Deterministic counts that differ from the first
/// pass's are reported into `errors`.
fn timed_loop<W: Workload>(
    workload: &mut W,
    seconds: f64,
    tracer: &mut Tracer,
    first_det: &mut Option<BTreeMap<&'static str, u64>>,
    errors: &mut Vec<String>,
) -> (Pass, usize) {
    let start = Instant::now();
    let mut merged = Pass::default();
    let mut passes = 0;
    loop {
        let pass = workload.pass(tracer);
        passes += 1;
        match first_det {
            None => *first_det = Some(pass.det.clone()),
            Some(first) => {
                for (key, value) in &pass.det {
                    if first.get(key) != Some(value) {
                        errors.push(format!(
                            "deterministic count {key} changed between passes: {:?} then {value}",
                            first.get(key)
                        ));
                    }
                }
            }
        }
        merged.det = pass.det.clone();
        merged.absorb(pass);
        if start.elapsed().as_secs_f64() >= seconds {
            return (merged, passes);
        }
    }
}

/// Runs `W` as `args` ask and returns the lines to print, the result line
/// last.
pub fn run<W: Workload>(args: &Args) -> Result<Vec<String>, String> {
    let mut setup_times = Vec::new();
    let mut workload = loop {
        let start = Instant::now();
        let workload = W::setup(args.seed, false, &mut Tracer::new(false))?;
        setup_times.push(start.elapsed().as_secs_f64());
        let total: f64 = setup_times.iter().sum();
        if setup_times.len() >= MAX_SETUPS
            || (setup_times.len() >= MIN_SETUPS && total >= SETUP_SECONDS)
        {
            break workload;
        }
    };
    // A traced run traces one more, warm, set-up for the set-up layers.
    let mut setup_tracer = Tracer::new(args.trace);
    if args.trace {
        workload = W::setup(args.seed, false, &mut setup_tracer)?;
    }

    // Warm-up on disjoint inputs: first-call costs (page faults, lazily
    // grown buffers, cold branch predictors) stay out of the timed loop.
    let mut warm = W::setup(args.seed, true, &mut Tracer::new(false))?;
    let warm_pass = warm.pass(&mut Tracer::new(false));
    drop(warm);

    // Errors that make the run incorrect without being a failed timed
    // operation: warm-up failures and deterministic counts that changed.
    let mut errors: Vec<String> = warm_pass
        .failures
        .iter()
        .map(|f| format!("warm-up: {f}"))
        .collect();
    let mut first_det = None;
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (untraced, untraced_passes) = timed_loop(
        &mut workload,
        budget,
        &mut Tracer::new(false),
        &mut first_det,
        &mut errors,
    );
    let mut failures = untraced.failures.clone();
    let setup_s = median(&setup_times);
    let solves_per_s = untraced.ops() as f64 / untraced.busy.as_secs_f64();

    let mut lines = vec![
        format!(
            "workload {} seed {} — {} passes, {} operations, {:.2} s busy, set-up median {:.6} s of {} set-ups",
            args.workload,
            args.seed,
            untraced_passes,
            untraced.ops(),
            untraced.busy.as_secs_f64(),
            setup_s,
            setup_times.len()
        ),
        latency_line(&untraced.latencies_ms),
        format!("deterministic counts per pass: {:?}", untraced.det),
    ];

    let mut attempted = untraced.ops();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let mut tracer = Tracer::new(true);
        let (traced, traced_passes) = timed_loop(
            &mut workload,
            budget,
            &mut tracer,
            &mut first_det,
            &mut errors,
        );
        failures.extend(traced.failures.iter().cloned());
        attempted += traced.ops();
        let view = Traced {
            pass: &traced,
            passes: traced_passes,
            spans: tracer.totals(),
        };
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        workload.layers(&view, &mut layers);
        lines.push(ledger_line(&view));
        let setup_totals = setup_tracer.totals();
        let setup_ms = |name: &str| {
            setup_totals
                .get(name)
                .map_or(0.0, |t| t.total_ns as f64 / 1e6)
        };
        layers.insert("waters.gen_ms", setup_ms("waters.gen"));
        if !layers.contains_key("analysis.gammas_ms") {
            layers.insert("analysis.gammas_ms", setup_ms("analysis.gammas"));
        }
        let traced_sps = traced.ops() as f64 / traced.busy.as_secs_f64();
        layers.insert(
            "trace.coverage",
            tracer.layer_ns() as f64 / 1e9 / traced.busy.as_secs_f64(),
        );
        layers.insert("trace.overhead", solves_per_s / traced_sps - 1.0);
        for &(name, unit) in LAYER_METRICS {
            metrics.push((name, layers.get(name).copied().unwrap_or(0.0), unit));
        }
        lines.push(format!(
            "traced: {} passes, {} operations, {} spans, coverage {:.4}, overhead {:+.4}",
            traced_passes,
            traced.ops(),
            tracer.spans().len(),
            layers["trace.coverage"],
            layers["trace.overhead"]
        ));
        lines.push(write_trace(args, &tracer)?);
    } else {
        let det = |key| untraced.det.get(key).copied().unwrap_or(0);
        metrics.extend([
            ("setup_s", setup_s, "s"),
            ("solves_per_s", solves_per_s, "1/s"),
            ("latency_p50_ms", median(&untraced.latencies_ms), "ms"),
            ("transfers", det("transfers") as f64, "count"),
            ("delay_ratio", f64::from_bits(det("delay_ratio")), "ratio"),
            ("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MiB"),
        ]);
    }
    for f in errors.iter().chain(&failures).take(20) {
        lines.push(format!("FAILED: {f}"));
    }
    let failed = failures.len();
    lines.push(result_line(
        failed == 0 && errors.is_empty(),
        attempted,
        failed,
        &metrics,
    ));
    Ok(lines)
}

/// Where the traced time went: milliseconds per operation in each span
/// name, total and self (not covered by its child spans), largest first.
fn ledger_line(traced: &Traced<'_>) -> String {
    let ops = traced.pass.ops().max(1) as f64;
    let mut rows: Vec<_> = traced.spans.iter().collect();
    rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
    let mut line = "ledger (ms per operation, total/self):".to_owned();
    for (name, t) in rows {
        let _ = write!(
            line,
            " {name} {:.3}/{:.3};",
            t.total_ns as f64 / 1e6 / ops,
            t.self_ns as f64 / 1e6 / ops
        );
    }
    line
}

fn latency_line(latencies_ms: &[f64]) -> String {
    let mut line = format!("latency over {} operations:", latencies_ms.len());
    for p in [50.0, 90.0, 99.0] {
        match percentile(latencies_ms, p) {
            Ok(v) => {
                let _ = write!(line, " p{p} {:.3} ms ({} beyond);", v.value, v.beyond);
            }
            Err(e) => {
                let _ = write!(line, " {e};");
            }
        }
    }
    line
}

fn write_trace(args: &Args, tracer: &Tracer) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{}.json", args.workload, args.seed));
    let doc = tracer.chrome_json(vec![
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::str(args.seed.to_string())),
    ]);
    std::fs::write(&path, doc.render()).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(format!("trace written to {}", path.display()))
}

/// The last line of standard output: one JSON object, every number with all
/// its digits.
fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// Geometric mean of the `ratios` as its bit pattern, for [`Pass::det`];
/// summed in sorted order, so the operation order does not round it.
pub fn det_geomean(ratios: &[f64]) -> u64 {
    let mut sorted = ratios.to_vec();
    sorted.sort_by(f64::total_cmp);
    geomean(&sorted).to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_benchmark_command_line() {
        let argv = [
            "--workload",
            "serve",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ];
        let args = Args::parse(argv.iter().map(|s| (*s).to_owned())).expect("valid");
        assert_eq!(args.workload, "serve");
        assert_eq!(args.seed, 7);
        assert!(args.trace);
        assert!(Args::parse(["--seed".to_owned()]).is_err());
        assert!(Args::parse(["--trace", "2"].iter().map(|s| (*s).to_owned())).is_err());
    }

    #[test]
    fn result_line_is_one_json_object_with_full_precision() {
        let line = result_line(true, 3, 0, &[("latency_p50_ms", 1.234_567_891_2, "ms")]);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).expect("valid JSON");
        let metrics = doc.get("metrics").expect("metrics");
        let value = metrics.get("latency_p50_ms").and_then(|m| m.get("value"));
        assert!(matches!(value, Some(Json::Float(v)) if *v == 1.234_567_891_2));
    }
}
