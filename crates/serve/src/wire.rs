//! Wire codec: the typed API ⇄ JSON text, over the workspace's hand-rolled
//! [`Json`] tree (no serde — DESIGN.md §"Dependency policy").
//!
//! Design points:
//!
//! * **Versioned envelope** — every document starts with a `protocol`
//!   field holding [`PROTOCOL`]; a mismatch is rejected before any other
//!   field is read.
//! * **Bit-exact floats** — [`Json::Float`] renders at three decimals (the
//!   report files are for humans), so every `f64` that must survive the
//!   round trip (objective values, incumbent objectives) is shipped as the
//!   16-digit hex string of its [`f64::to_bits`]. Durations travel as
//!   integer nanoseconds.
//! * **Replay-based stats decoding** — [`SolverStats`] keeps `&'static
//!   str` phase names, so a receiver cannot deserialize into it; instead
//!   the decoder replays the shipped events through the collector's
//!   [`Instrument`] impl, resolving phase names against [`KNOWN_PHASES`]
//!   and counter/event names against [`Counter::ALL`] /
//!   [`NodeEvent::ALL`]. Unknown names are skipped, so a reply from a
//!   server that still ships a retired counter decodes to the stats it
//!   would carry without that entry.
//!
//! Decoding is strict (a missing or mistyped field is an error with the
//! field's name in the message); it is a codec for our own output, not a
//! lenient validator. Unknown fields are skipped, so a request from an
//! older client that still sends a retired config knob gets a normal
//! solve.

use std::time::Duration;

use letdma_core::instrument::IncumbentRecord;
use letdma_core::{Counter, Instrument, Json, NodeEvent, SolverStats};
use letdma_model::{CopyCost, CostModel, System, SystemBuilder, TaskId, TimeNs};
use letdma_opt::{Objective, OptConfig, Resolution};

use crate::api::{JobId, ServeError, SolveReport, SolveRequest, SolveResponse, PROTOCOL};

/// Every wall-clock phase name the pipeline can report, used to resolve
/// decoded phase names back to `&'static str`; the decoder skips any
/// other name. `tests/serve.rs` checks every phase of a real in-process
/// solve against this list, so a phase added to the pipeline without
/// extending it fails that test.
pub const KNOWN_PHASES: &[&str] = &[
    "heuristic",
    "formulation",
    "presolve",
    "milp-search",
    "milp-retry",
    "validate",
    "simplex-factorize",
    "simplex-solve",
    "simplex-pricing",
];

// ---------------------------------------------------------------------------
// Field helpers (strict: name the offending field in the error).

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, String> {
    match field(obj, key)? {
        Json::Int(n) if *n >= 0 => Ok(*n as u64),
        other => Err(format!(
            "field `{key}` is not a non-negative integer: {other:?}"
        )),
    }
}

fn usize_field(obj: &Json, key: &str) -> Result<usize, String> {
    usize::try_from(u64_field(obj, key)?).map_err(|_| format!("field `{key}` overflows usize"))
}

fn bool_field(obj: &Json, key: &str) -> Result<bool, String> {
    match field(obj, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("field `{key}` is not a boolean")),
    }
}

fn str_field<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    match field(obj, key)? {
        Json::Str(s) => Ok(s),
        _ => Err(format!("field `{key}` is not a string")),
    }
}

fn arr_field<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match field(obj, key)? {
        Json::Arr(items) => Ok(items),
        _ => Err(format!("field `{key}` is not an array")),
    }
}

fn obj_fields<'a>(obj: &'a Json, key: &str) -> Result<&'a [(String, Json)], String> {
    match field(obj, key)? {
        Json::Obj(fields) => Ok(fields),
        _ => Err(format!("field `{key}` is not an object")),
    }
}

fn opt_u64_field(obj: &Json, key: &str) -> Result<Option<u64>, String> {
    match field(obj, key)? {
        Json::Null => Ok(None),
        Json::Int(n) if *n >= 0 => Ok(Some(*n as u64)),
        _ => Err(format!(
            "field `{key}` is not null or a non-negative integer"
        )),
    }
}

fn opt_u64_json(value: Option<u64>) -> Json {
    value.map_or(Json::Null, |n| Json::Int(n as i64))
}

fn dur_json(d: Duration) -> Json {
    Json::Int(d.as_nanos() as i64)
}

/// A bit-exact `f64`: the 16-digit lowercase hex of `to_bits`.
fn f64_json(v: f64) -> Json {
    Json::Str(format!("{:016x}", v.to_bits()))
}

fn f64_from(value: &Json, key: &str) -> Result<f64, String> {
    match value {
        Json::Str(s) => u64::from_str_radix(s, 16)
            .map(f64::from_bits)
            .map_err(|_| format!("field `{key}` is not a hex-encoded f64")),
        _ => Err(format!("field `{key}` is not a hex-encoded f64")),
    }
}

// ---------------------------------------------------------------------------
// System.

fn system_json(system: &System) -> Json {
    let costs = system.costs();
    let (num, den) = costs.omega_c().as_ratio();
    let tasks = system
        .tasks()
        .iter()
        .map(|t| {
            Json::obj(vec![
                ("name", Json::str(t.name())),
                ("period_ns", Json::Int(t.period().as_ns() as i64)),
                ("core", Json::Int(t.core().index() as i64)),
                ("wcet_ns", Json::Int(t.wcet().as_ns() as i64)),
                ("priority", Json::Int(t.priority() as i64)),
                (
                    "gamma_ns",
                    opt_u64_json(t.acquisition_deadline().map(TimeNs::as_ns)),
                ),
            ])
        })
        .collect();
    let labels = system
        .labels()
        .iter()
        .map(|l| {
            Json::obj(vec![
                ("name", Json::str(l.name())),
                ("size", Json::Int(l.size() as i64)),
                ("writer", Json::Int(l.writer().index() as i64)),
                (
                    "readers",
                    Json::Arr(
                        l.readers()
                            .iter()
                            .map(|r| Json::Int(r.index() as i64))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("cores", Json::Int(system.platform().core_count() as i64)),
        (
            "costs",
            Json::obj(vec![
                ("o_dp_ns", Json::Int(costs.o_dp().as_ns() as i64)),
                ("o_isr_ns", Json::Int(costs.o_isr().as_ns() as i64)),
                (
                    "omega_c",
                    Json::Arr(vec![Json::Int(num as i64), Json::Int(den as i64)]),
                ),
            ]),
        ),
        ("tasks", Json::Arr(tasks)),
        ("labels", Json::Arr(labels)),
    ])
}

fn system_from(value: &Json) -> Result<System, String> {
    let cores = u64_field(value, "cores")?;
    let cores = u16::try_from(cores).map_err(|_| "field `cores` overflows u16".to_owned())?;
    let costs = field(value, "costs")?;
    let ratio = arr_field(costs, "omega_c")?;
    let (num, den) = match ratio {
        [Json::Int(num), Json::Int(den)] if *num >= 0 && *den >= 1 => (*num as u64, *den as u64),
        _ => return Err("field `omega_c` is not a [num, den] pair".to_owned()),
    };
    let omega_c = CopyCost::per_byte(num, den).map_err(|e| format!("bad omega_c: {e}"))?;
    let mut b = SystemBuilder::new(cores);
    b.set_costs(CostModel::new(
        TimeNs::from_ns(u64_field(costs, "o_dp_ns")?),
        TimeNs::from_ns(u64_field(costs, "o_isr_ns")?),
        omega_c,
    ));
    let tasks = arr_field(value, "tasks")?;
    let mut gammas = Vec::with_capacity(tasks.len());
    for task in tasks {
        let core = u64_field(task, "core")?;
        let core = u16::try_from(core).map_err(|_| "field `core` overflows u16".to_owned())?;
        let priority = u64_field(task, "priority")?;
        let priority =
            u32::try_from(priority).map_err(|_| "field `priority` overflows u32".to_owned())?;
        let id = b
            .task(str_field(task, "name")?)
            .period(TimeNs::from_ns(u64_field(task, "period_ns")?))
            .core_index(core)
            .wcet(TimeNs::from_ns(u64_field(task, "wcet_ns")?))
            .priority(priority)
            .add()
            .map_err(|e| format!("bad task: {e}"))?;
        // Acquisition deadlines are applied after `build` (the builder's
        // setter would also work, but the post-build setter keeps the
        // decode independent of builder defaulting rules).
        gammas.push((id, opt_u64_field(task, "gamma_ns")?));
    }
    for label in arr_field(value, "labels")? {
        let writer = usize_field(label, "writer")?;
        let writer =
            u32::try_from(writer).map_err(|_| "field `writer` overflows u32".to_owned())?;
        let mut lb = b
            .label(str_field(label, "name")?)
            .size(u64_field(label, "size")?)
            .writer(TaskId::new(writer));
        for reader in arr_field(label, "readers")? {
            let Json::Int(idx) = reader else {
                return Err("field `readers` holds a non-integer".to_owned());
            };
            let idx = u32::try_from(*idx).map_err(|_| "reader index overflows u32".to_owned())?;
            lb = lb.reader(TaskId::new(idx));
        }
        lb.add().map_err(|e| format!("bad label: {e}"))?;
    }
    let mut system = b.build().map_err(|e| format!("bad system: {e}"))?;
    for (id, gamma) in gammas {
        system.set_acquisition_deadline(id, gamma.map(TimeNs::from_ns));
    }
    Ok(system)
}

// ---------------------------------------------------------------------------
// OptConfig.

fn objective_name(objective: Objective) -> &'static str {
    match objective {
        Objective::None => "none",
        Objective::MinTransfers => "min-transfers",
        Objective::MinDelayRatio => "min-delay-ratio",
    }
}

fn config_json(config: &OptConfig) -> Json {
    Json::obj(vec![
        ("objective", Json::str(objective_name(config.objective))),
        (
            "include_private_labels",
            Json::Bool(config.include_private_labels),
        ),
        (
            "time_limit_ns",
            config
                .time_limit
                .map_or(Json::Null, |d| Json::Int(d.as_nanos() as i64)),
        ),
        ("node_limit", opt_u64_json(config.node_limit)),
        ("warm_start", Json::Bool(config.warm_start)),
        ("threads", opt_u64_json(config.threads.map(|n| n as u64))),
        ("presolve", config.presolve.map_or(Json::Null, Json::Bool)),
    ])
}

fn config_from(value: &Json) -> Result<OptConfig, String> {
    let mut config = OptConfig::default();
    config.objective = match str_field(value, "objective")? {
        "none" => Objective::None,
        "min-transfers" => Objective::MinTransfers,
        "min-delay-ratio" => Objective::MinDelayRatio,
        other => return Err(format!("unknown objective `{other}`")),
    };
    config.include_private_labels = bool_field(value, "include_private_labels")?;
    config.time_limit = opt_u64_field(value, "time_limit_ns")?.map(Duration::from_nanos);
    config.node_limit = opt_u64_field(value, "node_limit")?;
    config.warm_start = bool_field(value, "warm_start")?;
    config.threads = opt_u64_field(value, "threads")?.map(|n| n as usize);
    config.presolve = match field(value, "presolve")? {
        Json::Null => None,
        Json::Bool(b) => Some(*b),
        _ => return Err("field `presolve` is not null or a boolean".to_owned()),
    };
    Ok(config)
}

// ---------------------------------------------------------------------------
// SolverStats.

fn stats_json(stats: &SolverStats) -> Json {
    let counters = stats
        .counters()
        .into_iter()
        .map(|(c, v)| (c.name().to_owned(), Json::Int(v as i64)))
        .collect();
    let node_events = NodeEvent::ALL
        .iter()
        .filter(|&&e| stats.node_events(e) > 0)
        .map(|&e| (e.name().to_owned(), Json::Int(stats.node_events(e) as i64)))
        .collect();
    let phases = stats
        .phases()
        .iter()
        .map(|&(name, elapsed, count)| {
            Json::obj(vec![
                ("name", Json::str(name)),
                ("ns", dur_json(elapsed)),
                ("count", Json::Int(count as i64)),
            ])
        })
        .collect();
    let incumbents = stats
        .incumbents()
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("objective", f64_json(r.objective)),
                ("nodes", Json::Int(r.nodes as i64)),
                ("elapsed_ns", dur_json(r.elapsed)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("counters", Json::Obj(counters)),
        ("node_events", Json::Obj(node_events)),
        ("phases", Json::Arr(phases)),
        ("incumbents", Json::Arr(incumbents)),
    ])
}

fn stats_from(value: &Json) -> Result<SolverStats, String> {
    let mut stats = SolverStats::new();
    // Phases first so the replayed collector discovers them in shipped
    // order (phase order in the collector is discovery order).
    for phase in arr_field(value, "phases")? {
        let shipped = str_field(phase, "name")?;
        let Some(&name) = KNOWN_PHASES.iter().find(|&&known| known == shipped) else {
            continue;
        };
        let elapsed = Duration::from_nanos(u64_field(phase, "ns")?);
        let count = u64_field(phase, "count")?;
        for i in 0..count {
            stats.phase_started(name);
            stats.phase_finished(name, if i == 0 { elapsed } else { Duration::ZERO });
        }
    }
    for (shipped, v) in obj_fields(value, "counters")? {
        let Some(&counter) = Counter::ALL.iter().find(|c| c.name() == shipped) else {
            continue;
        };
        let Json::Int(n) = v else {
            return Err(format!("counter `{shipped}` is not an integer"));
        };
        stats.count(counter, *n as u64);
    }
    for (shipped, v) in obj_fields(value, "node_events")? {
        let Some(&event) = NodeEvent::ALL.iter().find(|e| e.name() == shipped) else {
            continue;
        };
        let Json::Int(n) = v else {
            return Err(format!("node event `{shipped}` is not an integer"));
        };
        for _ in 0..*n {
            stats.node_event(event);
        }
    }
    for record in arr_field(value, "incumbents")? {
        stats.incumbent(IncumbentRecord {
            objective: f64_from(field(record, "objective")?, "objective")?,
            nodes: u64_field(record, "nodes")?,
            elapsed: Duration::from_nanos(u64_field(record, "elapsed_ns")?),
        });
    }
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Requests.

fn request_json(request: &SolveRequest) -> Json {
    Json::obj(vec![
        ("system", system_json(&request.system)),
        ("config", config_json(&request.config)),
        (
            "deadline_ns",
            request
                .deadline
                .map_or(Json::Null, |d| Json::Int(d.as_nanos() as i64)),
        ),
        ("request_key", opt_u64_json(request.request_key)),
    ])
}

fn request_from(value: &Json) -> Result<SolveRequest, String> {
    let mut request = SolveRequest::new(
        system_from(field(value, "system")?)?,
        config_from(field(value, "config")?)?,
    );
    request.deadline = opt_u64_field(value, "deadline_ns")?.map(Duration::from_nanos);
    request.request_key = opt_u64_field(value, "request_key")?;
    Ok(request)
}

fn check_protocol(value: &Json) -> Result<(), String> {
    let shipped = str_field(value, "protocol")?;
    if shipped == PROTOCOL {
        Ok(())
    } else {
        Err(format!(
            "protocol mismatch: got `{shipped}`, expected `{PROTOCOL}`"
        ))
    }
}

/// Encodes a request batch into one wire document.
#[must_use]
pub fn encode_requests(requests: &[SolveRequest]) -> String {
    Json::obj(vec![
        ("protocol", Json::str(PROTOCOL)),
        (
            "requests",
            Json::Arr(requests.iter().map(request_json).collect()),
        ),
    ])
    .render()
}

/// Decodes a request batch.
///
/// # Errors
///
/// A description of the first syntax, protocol or schema problem.
pub fn decode_requests(text: &str) -> Result<Vec<SolveRequest>, String> {
    let value = Json::parse(text)?;
    check_protocol(&value)?;
    arr_field(&value, "requests")?
        .iter()
        .map(request_from)
        .collect()
}

// ---------------------------------------------------------------------------
// Responses.

fn resolution_name(resolution: Resolution) -> &'static str {
    match resolution {
        Resolution::Milp => "milp",
        Resolution::MilpRetry => "milp-retry",
        Resolution::HeuristicFallback => "heuristic-fallback",
        Resolution::Heuristic => "heuristic",
        // `Resolution` is non-exhaustive upstream; an unknown variant would
        // fail decoding loudly rather than masquerade as a known one.
        _ => "unknown",
    }
}

fn error_json(error: &ServeError) -> Json {
    match error {
        ServeError::QueueFull { capacity } => Json::obj(vec![
            ("kind", Json::str("queue-full")),
            ("capacity", Json::Int(*capacity as i64)),
        ]),
        ServeError::DeadlineExpired => Json::obj(vec![("kind", Json::str("deadline-expired"))]),
        ServeError::ShuttingDown => Json::obj(vec![("kind", Json::str("shutting-down"))]),
        ServeError::Solve(message) => Json::obj(vec![
            ("kind", Json::str("solve")),
            ("message", Json::str(message.clone())),
        ]),
        ServeError::Transport(message) => Json::obj(vec![
            ("kind", Json::str("transport")),
            ("message", Json::str(message.clone())),
        ]),
    }
}

fn error_from(value: &Json) -> Result<ServeError, String> {
    Ok(match str_field(value, "kind")? {
        "queue-full" => ServeError::QueueFull {
            capacity: usize_field(value, "capacity")?,
        },
        "deadline-expired" => ServeError::DeadlineExpired,
        "shutting-down" => ServeError::ShuttingDown,
        "solve" => ServeError::Solve(str_field(value, "message")?.to_owned()),
        "transport" => ServeError::Transport(str_field(value, "message")?.to_owned()),
        other => return Err(format!("unknown error kind `{other}`")),
    })
}

fn response_json(response: &SolveResponse) -> Json {
    let mut fields = vec![("job", Json::Int(response.job.0 as i64))];
    match &response.outcome {
        Ok(report) => fields.push((
            "report",
            Json::obj(vec![
                ("resolution", Json::str(resolution_name(report.resolution))),
                ("num_transfers", Json::Int(report.num_transfers as i64)),
                (
                    "objective_value",
                    report.objective_value.map_or(Json::Null, f64_json),
                ),
                ("cache_hit", Json::Bool(report.cache_hit)),
                ("stats", stats_json(&report.stats)),
            ]),
        )),
        Err(error) => fields.push(("error", error_json(error))),
    }
    Json::obj(fields)
}

fn response_from(value: &Json) -> Result<SolveResponse, String> {
    let job = JobId(u64_field(value, "job")?);
    let outcome = match (value.get("report"), value.get("error")) {
        (Some(report), None) => {
            let resolution = match str_field(report, "resolution")? {
                "milp" => Resolution::Milp,
                "milp-retry" => Resolution::MilpRetry,
                "heuristic-fallback" => Resolution::HeuristicFallback,
                "heuristic" => Resolution::Heuristic,
                other => return Err(format!("unknown resolution `{other}`")),
            };
            let objective_value = match field(report, "objective_value")? {
                Json::Null => None,
                other => Some(f64_from(other, "objective_value")?),
            };
            Ok(SolveReport {
                resolution,
                num_transfers: usize_field(report, "num_transfers")?,
                objective_value,
                stats: stats_from(field(report, "stats")?)?,
                cache_hit: bool_field(report, "cache_hit")?,
            })
        }
        (None, Some(error)) => Err(error_from(error)?),
        _ => return Err("response needs exactly one of `report`/`error`".to_owned()),
    };
    Ok(SolveResponse { job, outcome })
}

/// Encodes a response batch into one wire document.
#[must_use]
pub fn encode_responses(responses: &[SolveResponse]) -> String {
    Json::obj(vec![
        ("protocol", Json::str(PROTOCOL)),
        (
            "responses",
            Json::Arr(responses.iter().map(response_json).collect()),
        ),
    ])
    .render()
}

/// Encodes the whole-batch failure document a server answers with when the
/// *request document itself* could not be decoded (syntax error, protocol
/// mismatch, schema drift — possibly a frame corrupted in flight): there
/// are no per-job ids to attach typed errors to, so the server describes
/// the decode failure once for the whole batch. [`decode_responses`] turns
/// it back into an error, which a retrying transport treats like any other
/// bad reply.
#[must_use]
pub fn encode_batch_error(message: &str) -> String {
    Json::obj(vec![
        ("protocol", Json::str(PROTOCOL)),
        ("batch_error", Json::str(message)),
    ])
    .render()
}

/// Decodes a response batch.
///
/// # Errors
///
/// A description of the first syntax, protocol or schema problem; a
/// [`encode_batch_error`] document decodes to an error carrying the
/// server's message.
pub fn decode_responses(text: &str) -> Result<Vec<SolveResponse>, String> {
    let value = Json::parse(text)?;
    check_protocol(&value)?;
    if let Some(Json::Str(message)) = value.get("batch_error") {
        return Err(format!("server rejected the batch: {message}"));
    }
    arr_field(&value, "responses")?
        .iter()
        .map(response_from)
        .collect()
}
