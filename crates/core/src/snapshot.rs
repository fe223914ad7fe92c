//! Lossless persistence for run reports and minimal repro specs.
//!
//! The checkpoint store (PR 4's durable sweep resume) persists each
//! completed `(app, config, seed) → RunReport` and verifies it on load by
//! recomputing the report's fingerprint — a hash of its `Debug`
//! rendering. That only works if serialization is *exactly* lossless:
//! every internal sentinel (`u64::MAX` histogram minima, raw ring-buffer
//! order in timelines) must survive the round trip so the rebuilt report
//! is `Debug`-identical to the original. [`report_to_json`] and
//! [`report_from_json`] are that pair of inverses.
//!
//! [`ReproSpec`] is the companion for failure shrinking: a self-contained
//! description of one failing run (app, workload size, config knobs,
//! chaos plan, budget) that `scalesim repro <file>` can re-execute
//! without the sweep that produced it.

use std::fmt;

use scalesim_gc::{GcEvent, GcKind, GcLog};
use scalesim_heap::HeapStats;
use scalesim_metrics::LogHistogram;
use scalesim_objtrace::{ObjectTracer, Retention, TraceEvent, TracerSnapshot};
use scalesim_sched::StateTimes;
use scalesim_simkit::{AbortReason, ChaosConfig, RunBudget, SimDuration, SimTime};
use scalesim_sync::{LockAlg, LockReport, MonitorStats};
use scalesim_trace::json::JsonValue;
use scalesim_trace::{CounterId, Counters, EventKind, Timeline, TimelineEvent, TraceConfig};
use scalesim_workloads::{
    app_by_name, AppModel, ArrivalProcess, Backoff, ClientPolicy, LockProfile, RequestClass,
    ServerPolicy, ServerSpec, SyntheticApp,
};

use crate::config::JvmConfig;
use crate::error::SimError;
use crate::report::{RunOutcome, RunReport, ServerStats, ThreadReport};

/// A snapshot (de)serialization failure: a missing key, a wrong shape,
/// or an unknown enum tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError(pub String);

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

fn err(message: impl Into<String>) -> SnapshotError {
    SnapshotError(message.into())
}

// ---------------------------------------------------------------------
// JSON building / reading helpers
// ---------------------------------------------------------------------

fn u(n: u64) -> JsonValue {
    JsonValue::U64(n)
}

fn s(text: &str) -> JsonValue {
    JsonValue::Str(text.to_owned())
}

fn get<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, SnapshotError> {
    v.get(key)
        .ok_or_else(|| err(format!("missing key `{key}`")))
}

fn get_u64(v: &JsonValue, key: &str) -> Result<u64, SnapshotError> {
    get(v, key)?
        .as_u64()
        .ok_or_else(|| err(format!("`{key}` is not an integer")))
}

fn get_usize(v: &JsonValue, key: &str) -> Result<usize, SnapshotError> {
    usize::try_from(get_u64(v, key)?).map_err(|_| err(format!("`{key}` exceeds usize")))
}

fn get_bool(v: &JsonValue, key: &str) -> Result<bool, SnapshotError> {
    get(v, key)?
        .as_bool()
        .ok_or_else(|| err(format!("`{key}` is not a boolean")))
}

fn get_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, SnapshotError> {
    get(v, key)?
        .as_str()
        .ok_or_else(|| err(format!("`{key}` is not a string")))
}

fn get_arr<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], SnapshotError> {
    get(v, key)?
        .as_arr()
        .ok_or_else(|| err(format!("`{key}` is not an array")))
}

fn item_u64(items: &[JsonValue], i: usize, what: &str) -> Result<u64, SnapshotError> {
    items
        .get(i)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| err(format!("{what}[{i}] is not an integer")))
}

// ---------------------------------------------------------------------
// Leaf encoders/decoders
// ---------------------------------------------------------------------

fn dur(d: SimDuration) -> JsonValue {
    u(d.as_nanos())
}

fn hist_to_json(h: &LogHistogram) -> JsonValue {
    let buckets: Vec<JsonValue> = h
        .bucket_counts()
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| JsonValue::Arr(vec![u(i as u64), u(c)]))
        .collect();
    JsonValue::obj([
        ("buckets", JsonValue::Arr(buckets)),
        ("count", u(h.count())),
        // u128 exceeds the JSON integer range we guarantee; decimal text.
        ("sum", s(&h.sum().to_string())),
        ("min", u(h.raw_min())),
        ("max", u(h.raw_max())),
    ])
}

fn hist_from_json(v: &JsonValue) -> Result<LogHistogram, SnapshotError> {
    let mut buckets = [0u64; 64];
    for entry in get_arr(v, "buckets")? {
        let pair = entry
            .as_arr()
            .ok_or_else(|| err("histogram bucket is not a pair"))?;
        let idx = usize::try_from(item_u64(pair, 0, "bucket")?)
            .ok()
            .filter(|&i| i < 64)
            .ok_or_else(|| err("histogram bucket index out of range"))?;
        buckets[idx] = item_u64(pair, 1, "bucket")?;
    }
    let sum: u128 = get_str(v, "sum")?
        .parse()
        .map_err(|_| err("histogram sum is not a u128"))?;
    Ok(LogHistogram::from_raw_parts(
        buckets,
        get_u64(v, "count")?,
        sum,
        get_u64(v, "min")?,
        get_u64(v, "max")?,
    ))
}

fn server_stats_to_json(stats: &ServerStats) -> JsonValue {
    JsonValue::obj([
        ("policy", s(&stats.policy)),
        ("arrivals", u(stats.arrivals)),
        ("goodput", u(stats.goodput)),
        ("orphans", u(stats.orphan_completions)),
        ("sheds", u(stats.sheds)),
        ("timeouts", u(stats.timeouts)),
        ("retries", u(stats.retries)),
        ("in_flight", u(stats.in_flight)),
        ("degraded", JsonValue::Bool(stats.degraded)),
        ("latency", hist_to_json(&stats.latency)),
        ("queue_depth", hist_to_json(&stats.queue_depth)),
        ("tail_goodput", u(stats.tail_goodput)),
        ("tail_arrivals", u(stats.tail_arrivals)),
    ])
}

fn server_stats_from_json(v: &JsonValue) -> Result<ServerStats, SnapshotError> {
    Ok(ServerStats {
        policy: get_str(v, "policy")?.to_owned(),
        arrivals: get_u64(v, "arrivals")?,
        goodput: get_u64(v, "goodput")?,
        orphan_completions: get_u64(v, "orphans")?,
        sheds: get_u64(v, "sheds")?,
        timeouts: get_u64(v, "timeouts")?,
        retries: get_u64(v, "retries")?,
        in_flight: get_u64(v, "in_flight")?,
        degraded: get_bool(v, "degraded")?,
        latency: hist_from_json(get(v, "latency")?)?,
        queue_depth: hist_from_json(get(v, "queue_depth")?)?,
        tail_goodput: get_u64(v, "tail_goodput")?,
        tail_arrivals: get_u64(v, "tail_arrivals")?,
    })
}

fn gc_kind_name(kind: GcKind) -> &'static str {
    match kind {
        GcKind::Minor => "minor",
        GcKind::LocalMinor => "local",
        GcKind::Full => "full",
        GcKind::ConcurrentOld => "conc",
    }
}

fn gc_kind_from_name(name: &str) -> Result<GcKind, SnapshotError> {
    match name {
        "minor" => Ok(GcKind::Minor),
        "local" => Ok(GcKind::LocalMinor),
        "full" => Ok(GcKind::Full),
        "conc" => Ok(GcKind::ConcurrentOld),
        other => Err(err(format!("unknown gc kind `{other}`"))),
    }
}

fn gc_log_to_json(log: &GcLog) -> JsonValue {
    JsonValue::Arr(
        log.events()
            .iter()
            .map(|e| {
                JsonValue::Arr(vec![
                    s(gc_kind_name(e.kind)),
                    u(e.at.as_nanos()),
                    dur(e.pause),
                    u(e.region as u64),
                    u(e.collected_bytes),
                    u(e.survived_bytes),
                    u(e.promoted_bytes),
                ])
            })
            .collect(),
    )
}

fn gc_log_from_json(v: &JsonValue) -> Result<GcLog, SnapshotError> {
    let mut log = GcLog::new();
    for entry in v.as_arr().ok_or_else(|| err("`gc` is not an array"))? {
        let row = entry
            .as_arr()
            .filter(|r| r.len() == 7)
            .ok_or_else(|| err("gc event is not a 7-tuple"))?;
        let kind = gc_kind_from_name(
            row[0]
                .as_str()
                .ok_or_else(|| err("gc event kind is not a string"))?,
        )?;
        log.push(GcEvent {
            kind,
            at: SimTime::from_nanos(item_u64(row, 1, "gc")?),
            pause: SimDuration::from_nanos(item_u64(row, 2, "gc")?),
            region: usize::try_from(item_u64(row, 3, "gc")?)
                .map_err(|_| err("gc region exceeds usize"))?,
            collected_bytes: item_u64(row, 4, "gc")?,
            survived_bytes: item_u64(row, 5, "gc")?,
            promoted_bytes: item_u64(row, 6, "gc")?,
        });
    }
    Ok(log)
}

fn stats_to_json(m: &MonitorStats) -> JsonValue {
    JsonValue::Arr(vec![
        u(m.acquisitions),
        u(m.contentions),
        dur(m.total_wait),
        dur(m.max_wait),
        dur(m.total_hold),
        u(m.queued),
    ])
}

fn stats_from_json(v: &JsonValue) -> Result<MonitorStats, SnapshotError> {
    // 5-tuples are accepted for compatibility with snapshots written
    // before truncated-waiter accounting (`queued` defaults to 0).
    let row = v
        .as_arr()
        .filter(|r| r.len() == 5 || r.len() == 6)
        .ok_or_else(|| err("monitor stats is not a 5- or 6-tuple"))?;
    Ok(MonitorStats {
        acquisitions: item_u64(row, 0, "stats")?,
        contentions: item_u64(row, 1, "stats")?,
        total_wait: SimDuration::from_nanos(item_u64(row, 2, "stats")?),
        max_wait: SimDuration::from_nanos(item_u64(row, 3, "stats")?),
        total_hold: SimDuration::from_nanos(item_u64(row, 4, "stats")?),
        queued: if row.len() == 6 {
            item_u64(row, 5, "stats")?
        } else {
            0
        },
    })
}

fn locks_to_json(locks: &LockReport) -> JsonValue {
    let by_class: Vec<JsonValue> = locks
        .by_class
        .iter()
        .map(|(name, stats)| JsonValue::Arr(vec![s(name), stats_to_json(stats)]))
        .collect();
    JsonValue::obj([
        ("total", stats_to_json(&locks.total)),
        ("by_class", JsonValue::Arr(by_class)),
        ("hold_hist", hist_to_json(&locks.hold_hist)),
        ("wait_hist", hist_to_json(&locks.wait_hist)),
    ])
}

fn locks_from_json(v: &JsonValue) -> Result<LockReport, SnapshotError> {
    let mut by_class = std::collections::BTreeMap::new();
    for entry in get_arr(v, "by_class")? {
        let pair = entry
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| err("lock class entry is not a pair"))?;
        let name = pair[0]
            .as_str()
            .ok_or_else(|| err("lock class name is not a string"))?;
        by_class.insert(name.to_owned(), stats_from_json(&pair[1])?);
    }
    Ok(LockReport {
        by_class,
        total: stats_from_json(get(v, "total")?)?,
        hold_hist: hist_from_json(get(v, "hold_hist")?)?,
        wait_hist: hist_from_json(get(v, "wait_hist")?)?,
    })
}

fn retention_name(retention: Retention) -> &'static str {
    match retention {
        Retention::HistogramOnly => "hist",
        Retention::Full => "full",
    }
}

fn retention_from_name(name: &str) -> Result<Retention, SnapshotError> {
    match name {
        "hist" => Ok(Retention::HistogramOnly),
        "full" => Ok(Retention::Full),
        other => Err(err(format!("unknown retention `{other}`"))),
    }
}

fn trace_event_to_json(e: &TraceEvent) -> JsonValue {
    match *e {
        TraceEvent::Alloc {
            obj: o,
            thread,
            size,
            clock,
        } => JsonValue::Arr(vec![s("A"), u(o), u(thread as u64), u(size), u(clock)]),
        TraceEvent::Death {
            obj: o,
            lifespan,
            clock,
        } => JsonValue::Arr(vec![s("D"), u(o), u(lifespan), u(clock)]),
    }
}

fn trace_event_from_json(v: &JsonValue) -> Result<TraceEvent, SnapshotError> {
    let row = v
        .as_arr()
        .ok_or_else(|| err("trace event is not an array"))?;
    match row.first().and_then(JsonValue::as_str) {
        Some("A") if row.len() == 5 => Ok(TraceEvent::Alloc {
            obj: item_u64(row, 1, "trace")?,
            thread: usize::try_from(item_u64(row, 2, "trace")?)
                .map_err(|_| err("trace thread exceeds usize"))?,
            size: item_u64(row, 3, "trace")?,
            clock: item_u64(row, 4, "trace")?,
        }),
        Some("D") if row.len() == 4 => Ok(TraceEvent::Death {
            obj: item_u64(row, 1, "trace")?,
            lifespan: item_u64(row, 2, "trace")?,
            clock: item_u64(row, 3, "trace")?,
        }),
        _ => Err(err("malformed trace event")),
    }
}

fn tracer_to_json(tracer: &ObjectTracer) -> JsonValue {
    let snap = tracer.snapshot();
    JsonValue::obj([
        ("retention", s(retention_name(snap.retention))),
        ("hist", hist_to_json(&snap.hist)),
        (
            "exact",
            JsonValue::Arr(snap.exact.iter().map(|&v| u(v)).collect()),
        ),
        (
            "events",
            JsonValue::Arr(snap.events.iter().map(trace_event_to_json).collect()),
        ),
        ("next_seq", u(snap.next_seq)),
        (
            "owners",
            JsonValue::Arr(snap.owners.iter().map(|&t| u(t as u64)).collect()),
        ),
        (
            "per_thread",
            JsonValue::Arr(snap.per_thread.iter().map(hist_to_json).collect()),
        ),
        ("allocations", u(snap.allocations)),
        ("allocated_bytes", u(snap.allocated_bytes)),
        ("deaths", u(snap.deaths)),
        ("censored", u(snap.censored)),
    ])
}

fn tracer_from_json(v: &JsonValue) -> Result<ObjectTracer, SnapshotError> {
    let exact = get_arr(v, "exact")?
        .iter()
        .map(|e| e.as_u64().ok_or_else(|| err("exact lifespan not integer")))
        .collect::<Result<Vec<u64>, _>>()?;
    let events = get_arr(v, "events")?
        .iter()
        .map(trace_event_from_json)
        .collect::<Result<Vec<TraceEvent>, _>>()?;
    let owners = get_arr(v, "owners")?
        .iter()
        .map(|e| {
            e.as_u64()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| err("owner not a thread index"))
        })
        .collect::<Result<Vec<usize>, _>>()?;
    let per_thread = get_arr(v, "per_thread")?
        .iter()
        .map(hist_from_json)
        .collect::<Result<Vec<LogHistogram>, _>>()?;
    Ok(ObjectTracer::from_snapshot(TracerSnapshot {
        retention: retention_from_name(get_str(v, "retention")?)?,
        hist: hist_from_json(get(v, "hist")?)?,
        exact,
        events,
        next_seq: get_u64(v, "next_seq")?,
        owners,
        per_thread,
        allocations: get_u64(v, "allocations")?,
        allocated_bytes: get_u64(v, "allocated_bytes")?,
        deaths: get_u64(v, "deaths")?,
        censored: get_u64(v, "censored")?,
    }))
}

fn thread_report_to_json(t: &ThreadReport) -> JsonValue {
    JsonValue::Arr(vec![
        u(t.items_done),
        dur(t.times.running),
        dur(t.times.runnable_wait),
        dur(t.times.blocked_monitor),
        dur(t.times.blocked_starved),
        dur(t.times.blocked_sleep),
        dur(t.times.gc_paused),
        u(t.dispatches),
        u(t.preemptions),
    ])
}

fn thread_report_from_json(v: &JsonValue) -> Result<ThreadReport, SnapshotError> {
    let row = v
        .as_arr()
        .filter(|r| r.len() == 9)
        .ok_or_else(|| err("thread report is not a 9-tuple"))?;
    let d = |i: usize| -> Result<SimDuration, SnapshotError> {
        Ok(SimDuration::from_nanos(item_u64(row, i, "thread")?))
    };
    Ok(ThreadReport {
        items_done: item_u64(row, 0, "thread")?,
        times: StateTimes {
            running: d(1)?,
            runnable_wait: d(2)?,
            blocked_monitor: d(3)?,
            blocked_starved: d(4)?,
            blocked_sleep: d(5)?,
            gc_paused: d(6)?,
        },
        dispatches: item_u64(row, 7, "thread")?,
        preemptions: item_u64(row, 8, "thread")?,
    })
}

fn timeline_to_json(timeline: &Timeline) -> JsonValue {
    // Raw ring order + head, so the rebuilt recorder's internal state
    // (and therefore its Debug rendering) matches the original exactly.
    let (enabled, capacity, events, head, dropped) = timeline.raw_parts();
    let rows: Vec<JsonValue> = events
        .iter()
        .map(|e| {
            JsonValue::Arr(vec![
                s(e.kind.name()),
                u(u64::from(e.track)),
                u(e.at.as_nanos()),
                dur(e.dur),
                u(e.arg),
            ])
        })
        .collect();
    JsonValue::obj([
        ("enabled", JsonValue::Bool(enabled)),
        ("capacity", u(capacity as u64)),
        ("head", u(head as u64)),
        ("dropped", u(dropped)),
        ("events", JsonValue::Arr(rows)),
    ])
}

fn timeline_from_json(v: &JsonValue) -> Result<Timeline, SnapshotError> {
    let events = get_arr(v, "events")?
        .iter()
        .map(|entry| {
            let row = entry
                .as_arr()
                .filter(|r| r.len() == 5)
                .ok_or_else(|| err("timeline event is not a 5-tuple"))?;
            let kind_name = row[0]
                .as_str()
                .ok_or_else(|| err("timeline kind is not a string"))?;
            let kind = EventKind::from_name(kind_name)
                .ok_or_else(|| err(format!("unknown timeline kind `{kind_name}`")))?;
            Ok(TimelineEvent {
                kind,
                track: u32::try_from(item_u64(row, 1, "timeline")?)
                    .map_err(|_| err("timeline track exceeds u32"))?,
                at: SimTime::from_nanos(item_u64(row, 2, "timeline")?),
                dur: SimDuration::from_nanos(item_u64(row, 3, "timeline")?),
                arg: item_u64(row, 4, "timeline")?,
            })
        })
        .collect::<Result<Vec<TimelineEvent>, SnapshotError>>()?;
    Ok(Timeline::from_raw_parts(
        get_bool(v, "enabled")?,
        get_usize(v, "capacity")?,
        events,
        get_usize(v, "head")?,
        get_u64(v, "dropped")?,
    ))
}

fn counters_to_json(counters: &Counters) -> JsonValue {
    JsonValue::Arr(
        CounterId::ALL
            .iter()
            .map(|&id| u(counters.get(id)))
            .collect(),
    )
}

fn counters_from_json(v: &JsonValue) -> Result<Counters, SnapshotError> {
    let rows = v
        .as_arr()
        .filter(|r| r.len() == CounterId::ALL.len())
        .ok_or_else(|| err("counters is not a full slot array"))?;
    let mut counters = Counters::new();
    for (i, &id) in CounterId::ALL.iter().enumerate() {
        counters.set(id, item_u64(rows, i, "counters")?);
    }
    Ok(counters)
}

fn outcome_to_json(outcome: &RunOutcome) -> JsonValue {
    match outcome {
        RunOutcome::Ok => s("ok"),
        RunOutcome::Truncated(reason) => {
            let tagged = match reason {
                AbortReason::MaxEvents(n) => JsonValue::Arr(vec![s("events"), u(*n)]),
                AbortReason::MaxSimTime(d) => JsonValue::Arr(vec![s("sim_ns"), dur(*d)]),
                AbortReason::MaxHostMs(ms) => JsonValue::Arr(vec![s("host_ms"), u(*ms)]),
                AbortReason::Watchdog => JsonValue::Arr(vec![s("watchdog")]),
            };
            JsonValue::obj([("trunc", tagged)])
        }
        RunOutcome::Quarantined(why) => JsonValue::obj([("quar", s(why))]),
    }
}

fn outcome_from_json(v: &JsonValue) -> Result<RunOutcome, SnapshotError> {
    if v.as_str() == Some("ok") {
        return Ok(RunOutcome::Ok);
    }
    if let Some(why) = v.get("quar") {
        let why = why
            .as_str()
            .ok_or_else(|| err("quarantine reason is not a string"))?;
        return Ok(RunOutcome::Quarantined(why.to_owned()));
    }
    let tagged = v
        .get("trunc")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| err("malformed outcome"))?;
    let reason = match tagged.first().and_then(JsonValue::as_str) {
        Some("events") => AbortReason::MaxEvents(item_u64(tagged, 1, "trunc")?),
        Some("sim_ns") => {
            AbortReason::MaxSimTime(SimDuration::from_nanos(item_u64(tagged, 1, "trunc")?))
        }
        Some("host_ms") => AbortReason::MaxHostMs(item_u64(tagged, 1, "trunc")?),
        Some("watchdog") => AbortReason::Watchdog,
        _ => return Err(err("unknown truncation reason")),
    };
    Ok(RunOutcome::Truncated(reason))
}

// ---------------------------------------------------------------------
// RunReport
// ---------------------------------------------------------------------

/// Serializes a [`RunReport`] losslessly. [`report_from_json`] inverts
/// this exactly: the rebuilt report is `Debug`-identical to the
/// original, so fingerprints computed over the `Debug` rendering verify
/// checkpointed records byte for byte.
#[must_use]
pub fn report_to_json(report: &RunReport) -> JsonValue {
    let mut pairs = vec![
        ("v", u(1)),
        ("app", s(&report.app)),
        ("threads", u(report.threads as u64)),
        ("cores", u(report.cores as u64)),
        ("wall_ns", dur(report.wall_time)),
        ("gc_ns", dur(report.gc_time)),
        ("mutator_cpu_ns", dur(report.mutator_cpu)),
        ("gc", gc_log_to_json(&report.gc)),
        ("locks", locks_to_json(&report.locks)),
        ("tracer", tracer_to_json(&report.trace)),
        (
            "heap",
            JsonValue::Arr(vec![
                u(report.heap.objects_allocated),
                u(report.heap.bytes_allocated),
                u(report.heap.objects_died),
                u(report.heap.tlab_refills),
            ]),
        ),
        (
            "per_thread",
            JsonValue::Arr(
                report
                    .per_thread
                    .iter()
                    .map(thread_report_to_json)
                    .collect(),
            ),
        ),
        ("events_processed", u(report.events_processed)),
        ("counters", counters_to_json(&report.counters)),
        ("timeline", timeline_to_json(&report.timeline)),
        ("host_ns", u(report.host_ns)),
        ("outcome", outcome_to_json(&report.outcome)),
    ];
    if let Some(stats) = &report.server {
        pairs.push(("server", server_stats_to_json(stats)));
    }
    JsonValue::obj(pairs)
}

/// Rebuilds a [`RunReport`] from [`report_to_json`] output.
///
/// # Errors
///
/// Returns a [`SnapshotError`] naming the first missing or malformed
/// field (including an unknown schema version).
pub fn report_from_json(v: &JsonValue) -> Result<RunReport, SnapshotError> {
    let version = get_u64(v, "v")?;
    if version != 1 {
        return Err(err(format!("unsupported snapshot version {version}")));
    }
    let heap_row = get_arr(v, "heap")?;
    if heap_row.len() != 4 {
        return Err(err("`heap` is not a 4-tuple"));
    }
    Ok(RunReport {
        app: get_str(v, "app")?.to_owned(),
        threads: get_usize(v, "threads")?,
        cores: get_usize(v, "cores")?,
        wall_time: SimDuration::from_nanos(get_u64(v, "wall_ns")?),
        gc_time: SimDuration::from_nanos(get_u64(v, "gc_ns")?),
        mutator_cpu: SimDuration::from_nanos(get_u64(v, "mutator_cpu_ns")?),
        gc: gc_log_from_json(get(v, "gc")?)?,
        locks: locks_from_json(get(v, "locks")?)?,
        trace: tracer_from_json(get(v, "tracer")?)?,
        heap: HeapStats {
            objects_allocated: item_u64(heap_row, 0, "heap")?,
            bytes_allocated: item_u64(heap_row, 1, "heap")?,
            objects_died: item_u64(heap_row, 2, "heap")?,
            tlab_refills: item_u64(heap_row, 3, "heap")?,
        },
        per_thread: get_arr(v, "per_thread")?
            .iter()
            .map(thread_report_from_json)
            .collect::<Result<Vec<ThreadReport>, SnapshotError>>()?,
        events_processed: get_u64(v, "events_processed")?,
        counters: counters_from_json(get(v, "counters")?)?,
        timeline: timeline_from_json(get(v, "timeline")?)?,
        host_ns: get_u64(v, "host_ns")?,
        outcome: outcome_from_json(get(v, "outcome")?)?,
        server: match v.get("server") {
            None => None,
            Some(stats) => Some(server_stats_from_json(stats)?),
        },
    })
}

// ---------------------------------------------------------------------
// ReproSpec
// ---------------------------------------------------------------------

/// A self-contained description of one run — enough to re-execute a
/// failing spec outside the sweep that found it.
///
/// Produced by the failure shrinker (`repro-<key>.json` files), consumed
/// by the `scalesim repro` subcommand. The config is captured as the
/// knobs the sweep drivers actually vary; everything else reconstructs
/// from builder defaults. [`ReproSpec::exact`] records whether the
/// reconstructed spec's memo key matched the original at emit time.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproSpec {
    /// Application name (must resolve via the workload registry).
    pub app: String,
    /// Workload size (the scaled `total_items` of the failing spec).
    pub total_items: u64,
    /// Configured mutator threads.
    pub threads: usize,
    /// Explicit core-count override, if the spec had one.
    pub cores_override: Option<usize>,
    /// Master seed.
    pub seed: u64,
    /// Explicit heap sizing, if the spec had one.
    pub heap_bytes_override: Option<u64>,
    /// Invariant monitors on/off.
    pub monitors: bool,
    /// Object-trace retention mode.
    pub retention: Retention,
    /// Chaos fault plan.
    pub chaos: ChaosConfig,
    /// Run budget (including any watchdog deadline).
    pub budget: RunBudget,
    /// Server-workload spec, when the failing run was a request-serving
    /// run rather than a batch benchmark (the app is then only a memo
    /// carrier).
    pub server: Option<ServerSpec>,
    /// Monitor handoff algorithm of the failing run.
    pub lock_alg: LockAlg,
    /// Memo key of the spec this file reproduces.
    pub spec_key: u64,
    /// Whether reconstruction was verified key-exact at emit time.
    pub exact: bool,
}

fn chaos_to_json(chaos: &ChaosConfig) -> JsonValue {
    JsonValue::obj([
        ("drop_wakeup", u(chaos.drop_wakeup_period)),
        ("spurious", u(chaos.spurious_wakeup_period)),
        ("gc_stall", u(chaos.gc_stall_period)),
        // f64 Display is shortest-round-trip, so the text parses back
        // to the identical bits.
        ("gc_stall_factor", s(&chaos.gc_stall_factor.to_string())),
        ("memo", u(chaos.memo_corrupt_period)),
        ("request_drop", u(chaos.request_drop_period)),
        ("panic_at", u(chaos.panic_at_event)),
    ])
}

fn chaos_from_json(v: &JsonValue) -> Result<ChaosConfig, SnapshotError> {
    Ok(ChaosConfig {
        drop_wakeup_period: get_u64(v, "drop_wakeup")?,
        spurious_wakeup_period: get_u64(v, "spurious")?,
        gc_stall_period: get_u64(v, "gc_stall")?,
        gc_stall_factor: get_str(v, "gc_stall_factor")?
            .parse()
            .map_err(|_| err("gc_stall_factor is not a float"))?,
        memo_corrupt_period: get_u64(v, "memo")?,
        request_drop_period: get_u64(v, "request_drop")?,
        panic_at_event: get_u64(v, "panic_at")?,
    })
}

fn server_spec_to_json(spec: &ServerSpec) -> JsonValue {
    let arrival = match &spec.arrival {
        ArrivalProcess::OpenPoisson { rate_per_sec } => {
            JsonValue::obj([("kind", s("open")), ("rate_per_sec", u(*rate_per_sec))])
        }
        ArrivalProcess::ClosedLoop { clients, think_ns } => JsonValue::obj([
            ("kind", s("closed")),
            ("clients", u(*clients as u64)),
            ("think_lo", u(think_ns.0)),
            ("think_hi", u(think_ns.1)),
        ]),
    };
    let classes: Vec<JsonValue> = spec
        .classes
        .iter()
        .map(|c| {
            let mut pairs = vec![
                ("name", s(&c.name)),
                ("weight", u(u64::from(c.weight))),
                ("priority", u(u64::from(c.priority))),
                ("svc_lo", u(c.service_ns.0)),
                ("svc_hi", u(c.service_ns.1)),
                ("alloc_bytes", u(c.alloc_bytes)),
            ];
            if let Some(lock) = &c.lock {
                pairs.extend([
                    ("lock_class", s(&lock.class)),
                    ("hold_lo", u(lock.held_ns.0)),
                    ("hold_hi", u(lock.held_ns.1)),
                ]);
            }
            JsonValue::obj(pairs)
        })
        .collect();
    let backoff = match spec.client.backoff {
        Backoff::None => JsonValue::obj([("kind", s("none"))]),
        Backoff::Exponential { base_ns, cap_ns } => JsonValue::obj([
            ("kind", s("exp")),
            ("base_ns", u(base_ns)),
            ("cap_ns", u(cap_ns)),
        ]),
    };
    let client = JsonValue::obj([
        ("timeout_ns", u(spec.client.timeout_ns)),
        ("max_retries", u(u64::from(spec.client.max_retries))),
        ("backoff", backoff),
        ("retry_budget", u(spec.client.retry_budget)),
    ]);
    let mut policy = vec![("queue_cap", u(spec.policy.queue_cap as u64))];
    if let Some(cap) = spec.policy.admission_cap {
        policy.push(("admission_cap", u(cap as u64)));
    }
    if let Some(ns) = spec.policy.deadline_shed_ns {
        policy.push(("deadline_shed_ns", u(ns)));
    }
    if let Some(mark) = spec.policy.degrade_above {
        policy.push(("degrade_above", u(mark as u64)));
    }
    let mut pairs = vec![
        ("name", s(&spec.name)),
        ("arrival", arrival),
        ("horizon_ns", u(spec.horizon_ns)),
        ("classes", JsonValue::Arr(classes)),
        ("client", client),
        ("policy", JsonValue::obj(policy)),
        ("measure_from_ns", u(spec.measure_from_ns)),
    ];
    if let Some((start, end)) = spec.fault_window_ns {
        pairs.push(("fault_start", u(start)));
        pairs.push(("fault_end", u(end)));
    }
    JsonValue::obj(pairs)
}

fn opt_u64(v: &JsonValue, key: &str) -> Result<Option<u64>, SnapshotError> {
    match v.get(key) {
        None => Ok(None),
        Some(entry) => entry
            .as_u64()
            .map(Some)
            .ok_or_else(|| err(format!("`{key}` is not an integer"))),
    }
}

fn server_spec_from_json(v: &JsonValue) -> Result<ServerSpec, SnapshotError> {
    let av = get(v, "arrival")?;
    let arrival = match get_str(av, "kind")? {
        "open" => ArrivalProcess::OpenPoisson {
            rate_per_sec: get_u64(av, "rate_per_sec")?,
        },
        "closed" => ArrivalProcess::ClosedLoop {
            clients: get_usize(av, "clients")?,
            think_ns: (get_u64(av, "think_lo")?, get_u64(av, "think_hi")?),
        },
        other => return Err(err(format!("unknown arrival kind `{other}`"))),
    };
    let mut classes = Vec::new();
    for cv in get_arr(v, "classes")? {
        let lock = match cv.get("lock_class") {
            None => None,
            Some(_) => Some(LockProfile {
                class: get_str(cv, "lock_class")?.to_owned(),
                held_ns: (get_u64(cv, "hold_lo")?, get_u64(cv, "hold_hi")?),
            }),
        };
        classes.push(RequestClass {
            name: get_str(cv, "name")?.to_owned(),
            weight: u32::try_from(get_u64(cv, "weight")?)
                .map_err(|_| err("class weight exceeds u32"))?,
            priority: u8::try_from(get_u64(cv, "priority")?)
                .map_err(|_| err("class priority exceeds u8"))?,
            service_ns: (get_u64(cv, "svc_lo")?, get_u64(cv, "svc_hi")?),
            lock,
            alloc_bytes: get_u64(cv, "alloc_bytes")?,
        });
    }
    let clv = get(v, "client")?;
    let bv = get(clv, "backoff")?;
    let backoff = match get_str(bv, "kind")? {
        "none" => Backoff::None,
        "exp" => Backoff::Exponential {
            base_ns: get_u64(bv, "base_ns")?,
            cap_ns: get_u64(bv, "cap_ns")?,
        },
        other => return Err(err(format!("unknown backoff kind `{other}`"))),
    };
    let client = ClientPolicy {
        timeout_ns: get_u64(clv, "timeout_ns")?,
        max_retries: u32::try_from(get_u64(clv, "max_retries")?)
            .map_err(|_| err("max_retries exceeds u32"))?,
        backoff,
        retry_budget: get_u64(clv, "retry_budget")?,
    };
    let pv = get(v, "policy")?;
    let policy = ServerPolicy {
        queue_cap: get_usize(pv, "queue_cap")?,
        admission_cap: opt_u64(pv, "admission_cap")?.map(|n| n as usize),
        deadline_shed_ns: opt_u64(pv, "deadline_shed_ns")?,
        degrade_above: opt_u64(pv, "degrade_above")?.map(|n| n as usize),
    };
    let fault_window_ns = match (opt_u64(v, "fault_start")?, opt_u64(v, "fault_end")?) {
        (Some(start), Some(end)) => Some((start, end)),
        (None, None) => None,
        _ => return Err(err("fault_start/fault_end must appear together")),
    };
    Ok(ServerSpec {
        name: get_str(v, "name")?.to_owned(),
        arrival,
        horizon_ns: get_u64(v, "horizon_ns")?,
        classes,
        client,
        policy,
        fault_window_ns,
        measure_from_ns: get_u64(v, "measure_from_ns")?,
    })
}

fn budget_to_json(budget: &RunBudget) -> JsonValue {
    let mut pairs = vec![("max_events", u(budget.max_events))];
    if let Some(limit) = budget.max_sim_time {
        pairs.push(("max_sim_ns", dur(limit)));
    }
    if let Some(ms) = budget.max_host_ms {
        pairs.push(("max_host_ms", u(ms)));
    }
    if let Some(ms) = budget.watchdog_ms {
        pairs.push(("watchdog_ms", u(ms)));
    }
    JsonValue::obj(pairs)
}

fn budget_from_json(v: &JsonValue) -> Result<RunBudget, SnapshotError> {
    let opt = |key: &str| -> Result<Option<u64>, SnapshotError> {
        match v.get(key) {
            None => Ok(None),
            Some(entry) => entry
                .as_u64()
                .map(Some)
                .ok_or_else(|| err(format!("`{key}` is not an integer"))),
        }
    };
    Ok(RunBudget {
        max_events: get_u64(v, "max_events")?,
        max_sim_time: opt("max_sim_ns")?.map(SimDuration::from_nanos),
        max_host_ms: opt("max_host_ms")?,
        watchdog_ms: opt("watchdog_ms")?,
    })
}

impl ReproSpec {
    /// Captures the reproducible knobs of one `(app, config)` pair.
    /// `spec_key` is the run's memo key; `exact` is set by the caller
    /// once reconstruction has been verified against it.
    #[must_use]
    pub fn capture(app: &SyntheticApp, config: &JvmConfig, spec_key: u64) -> Self {
        ReproSpec {
            app: app.name().to_owned(),
            total_items: app.spec().total_items,
            threads: config.threads,
            cores_override: config.cores_override,
            seed: config.seed,
            heap_bytes_override: config.heap_bytes_override,
            monitors: config.monitors,
            retention: config.retention,
            chaos: config.chaos,
            budget: config.budget,
            server: config.server.clone(),
            lock_alg: config.lock_alg,
            spec_key,
            exact: false,
        }
    }

    /// Serializes the spec; [`ReproSpec::from_json`] inverts this.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let mut pairs = vec![
            ("v", u(1)),
            ("app", s(&self.app)),
            ("total_items", u(self.total_items)),
            ("threads", u(self.threads as u64)),
        ];
        if let Some(cores) = self.cores_override {
            pairs.push(("cores", u(cores as u64)));
        }
        pairs.push(("seed", u(self.seed)));
        if let Some(bytes) = self.heap_bytes_override {
            pairs.push(("heap_bytes", u(bytes)));
        }
        pairs.extend([
            ("monitors", JsonValue::Bool(self.monitors)),
            ("retention", s(retention_name(self.retention))),
            ("chaos", chaos_to_json(&self.chaos)),
            ("budget", budget_to_json(&self.budget)),
        ]);
        if let Some(spec) = &self.server {
            pairs.push(("server", server_spec_to_json(spec)));
        }
        // Written only when non-default, so pre-existing repro files
        // (and their hashes) are unchanged for FIFO runs.
        if self.lock_alg != LockAlg::Fifo {
            pairs.push(("lock_alg", s(self.lock_alg.as_str())));
        }
        pairs.extend([
            ("spec_key", s(&format!("{:016x}", self.spec_key))),
            ("exact", JsonValue::Bool(self.exact)),
        ]);
        JsonValue::obj(pairs)
    }

    /// Rebuilds a spec from [`ReproSpec::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] naming the first missing or malformed
    /// field.
    pub fn from_json(v: &JsonValue) -> Result<Self, SnapshotError> {
        let version = get_u64(v, "v")?;
        if version != 1 {
            return Err(err(format!("unsupported repro version {version}")));
        }
        let opt_usize = |key: &str| -> Result<Option<usize>, SnapshotError> {
            match v.get(key) {
                None => Ok(None),
                Some(entry) => entry
                    .as_u64()
                    .and_then(|n| usize::try_from(n).ok())
                    .map(Some)
                    .ok_or_else(|| err(format!("`{key}` is not an integer"))),
            }
        };
        let spec_key = u64::from_str_radix(get_str(v, "spec_key")?, 16)
            .map_err(|_| err("spec_key is not a hex key"))?;
        Ok(ReproSpec {
            app: get_str(v, "app")?.to_owned(),
            total_items: get_u64(v, "total_items")?,
            threads: get_usize(v, "threads")?,
            cores_override: opt_usize("cores")?,
            seed: get_u64(v, "seed")?,
            heap_bytes_override: v.get("heap_bytes").and_then(JsonValue::as_u64),
            monitors: get_bool(v, "monitors")?,
            retention: retention_from_name(get_str(v, "retention")?)?,
            chaos: chaos_from_json(get(v, "chaos")?)?,
            budget: budget_from_json(get(v, "budget")?)?,
            server: match v.get("server") {
                None => None,
                Some(spec) => Some(server_spec_from_json(spec)?),
            },
            lock_alg: match v.get("lock_alg") {
                None => LockAlg::Fifo,
                Some(name) => name
                    .as_str()
                    .and_then(LockAlg::parse)
                    .ok_or_else(|| err("lock_alg is not a known algorithm"))?,
            },
            spec_key,
            exact: get_bool(v, "exact")?,
        })
    }

    /// Rebuilds the runnable `(app, config)` pair this spec describes.
    ///
    /// The app comes from the workload registry with its `total_items`
    /// overridden; the config is built from defaults plus the captured
    /// knobs, with tracing forced off (a repro run must not depend on
    /// the invoking environment).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownApp`] when the app name no longer resolves,
    /// or [`SimError::Config`] when the captured knobs fail validation.
    pub fn reconstruct(&self) -> Result<(SyntheticApp, JvmConfig), SimError> {
        let proto = app_by_name(&self.app).ok_or_else(|| SimError::UnknownApp(self.app.clone()))?;
        let mut spec = proto.spec().clone();
        spec.total_items = self.total_items;
        let app = SyntheticApp::new(spec);
        let mut builder = JvmConfig::builder();
        builder
            .threads(self.threads)
            .seed(self.seed)
            .monitors(self.monitors)
            .retention(self.retention)
            .chaos(self.chaos)
            .budget(self.budget)
            .lock_alg(self.lock_alg)
            .trace(TraceConfig::off());
        if let Some(spec) = &self.server {
            builder.server(spec.clone());
        }
        if let Some(cores) = self.cores_override {
            builder.cores(cores);
        }
        if let Some(bytes) = self.heap_bytes_override {
            builder.heap_bytes(bytes);
        }
        Ok((app, builder.build()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Jvm;
    use scalesim_workloads::lusearch;

    fn debug_eq(a: &RunReport, b: &RunReport) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    fn small_report(retention: Retention, trace: TraceConfig) -> RunReport {
        let config = JvmConfig::builder()
            .threads(4)
            .seed(42)
            .retention(retention)
            .trace(trace)
            .build()
            .unwrap();
        Jvm::new(config).run(&lusearch().scaled(0.01)).unwrap()
    }

    #[test]
    fn hist_only_report_round_trips_debug_identically() {
        let report = small_report(Retention::HistogramOnly, TraceConfig::off());
        let text = report_to_json(&report).to_string();
        let back = report_from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        debug_eq(&report, &back);
    }

    #[test]
    fn full_retention_traced_report_round_trips() {
        let report = small_report(Retention::Full, TraceConfig::on());
        assert!(report.timeline.is_enabled());
        assert!(report.trace.events().is_some_and(|e| !e.is_empty()));
        let text = report_to_json(&report).to_string();
        let back = report_from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        debug_eq(&report, &back);
    }

    #[test]
    fn truncated_and_quarantined_outcomes_round_trip() {
        for outcome in [
            RunOutcome::Truncated(AbortReason::MaxEvents(7)),
            RunOutcome::Truncated(AbortReason::MaxSimTime(SimDuration::from_millis(3))),
            RunOutcome::Truncated(AbortReason::MaxHostMs(250)),
            RunOutcome::Truncated(AbortReason::Watchdog),
            RunOutcome::Quarantined("panic: \"quoted\"\nline two".to_owned()),
        ] {
            let mut report = RunReport::quarantined("xalan", 8, 8, "placeholder".to_owned());
            report.outcome = outcome;
            let text = report_to_json(&report).to_string();
            let back = report_from_json(&JsonValue::parse(&text).unwrap()).unwrap();
            debug_eq(&report, &back);
        }
    }

    #[test]
    fn report_from_json_rejects_malformed_documents() {
        let report = small_report(Retention::HistogramOnly, TraceConfig::off());
        let good = report_to_json(&report);
        // Unknown version.
        let mut doc = good.clone();
        if let JsonValue::Obj(pairs) = &mut doc {
            pairs[0].1 = u(9);
        }
        assert!(report_from_json(&doc).is_err());
        // Missing field.
        let mut doc = good.clone();
        if let JsonValue::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "counters");
        }
        assert!(report_from_json(&doc).is_err());
    }

    /// `doc` with the value under top-level `key` replaced.
    fn with_field(doc: &JsonValue, key: &str, value: &JsonValue) -> JsonValue {
        let mut doc = doc.clone();
        if let JsonValue::Obj(pairs) = &mut doc {
            let slot = pairs
                .iter_mut()
                .find(|(k, _)| k == key)
                .expect("key present");
            slot.1 = value.clone();
        }
        doc
    }

    #[test]
    fn lossy_numbers_are_rejected_where_a_u64_belongs() {
        // The parser accepts each of these (as `Num` or `Null`); reading
        // one into a u64 field would lose bits, so decoding must refuse.
        let report = report_to_json(&small_report(Retention::HistogramOnly, TraceConfig::off()));
        let repro = ReproSpec {
            app: "xalan".to_owned(),
            total_items: 1,
            threads: 1,
            cores_override: None,
            seed: 1,
            heap_bytes_override: None,
            monitors: false,
            retention: Retention::HistogramOnly,
            chaos: ChaosConfig::default(),
            budget: RunBudget::default(),
            server: None,
            lock_alg: LockAlg::Fifo,
            spec_key: 0,
            exact: false,
        }
        .to_json();
        assert!(report_from_json(&report).is_ok());
        assert!(ReproSpec::from_json(&repro).is_ok());
        for lossy in ["1.5", "-3", "1e3", "null", "18446744073709551616"] {
            let value = JsonValue::parse(lossy).unwrap();
            for key in ["threads", "events_processed"] {
                let doc = with_field(&report, key, &value);
                let doc = JsonValue::parse(&doc.to_string()).unwrap();
                assert!(report_from_json(&doc).is_err(), "report {key} = {lossy}");
            }
            for key in ["total_items", "seed"] {
                let doc = with_field(&repro, key, &value);
                let doc = JsonValue::parse(&doc.to_string()).unwrap();
                assert!(ReproSpec::from_json(&doc).is_err(), "repro {key} = {lossy}");
            }
        }
    }

    #[test]
    fn repro_spec_round_trips_and_reconstructs() {
        let chaos = ChaosConfig {
            panic_at_event: 2000,
            gc_stall_factor: 0.30000000000000004, // non-trivial f64 bits
            ..ChaosConfig::default()
        };
        let spec = ReproSpec {
            app: "xalan".to_owned(),
            total_items: 640,
            threads: 48,
            cores_override: Some(12),
            seed: 42,
            heap_bytes_override: None,
            monitors: false,
            retention: Retention::HistogramOnly,
            chaos,
            budget: RunBudget {
                max_events: 4_000_000,
                max_sim_time: None,
                max_host_ms: None,
                watchdog_ms: Some(500),
            },
            server: Some(scalesim_workloads::ServerSpec::robust(25_000, 64)),
            lock_alg: LockAlg::Malthusian,
            spec_key: 0xdead_beef_0badu64,
            exact: true,
        };
        let text = spec.to_json().to_string();
        let back = ReproSpec::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(spec, back);
        let (app, config) = back.reconstruct().unwrap();
        assert_eq!(app.name(), "xalan");
        assert_eq!(app.spec().total_items, 640);
        assert_eq!(config.threads, 48);
        assert_eq!(config.cores_override, Some(12));
        assert_eq!(config.budget.watchdog_ms, Some(500));
        assert_eq!(config.chaos.panic_at_event, 2000);
        assert_eq!(config.lock_alg, LockAlg::Malthusian);
    }

    #[test]
    fn repro_spec_fifo_emits_no_lock_alg_key() {
        // FIFO runs must serialize exactly as before the pluggable-lock
        // refactor so existing repro files and their hashes are stable.
        let spec = ReproSpec {
            app: "xalan".to_owned(),
            total_items: 1,
            threads: 1,
            cores_override: None,
            seed: 1,
            heap_bytes_override: None,
            monitors: false,
            retention: Retention::HistogramOnly,
            chaos: ChaosConfig::default(),
            budget: RunBudget::default(),
            server: None,
            lock_alg: LockAlg::Fifo,
            spec_key: 0,
            exact: false,
        };
        let text = spec.to_json().to_string();
        assert!(!text.contains("lock_alg"), "{text}");
        let back = ReproSpec::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back.lock_alg, LockAlg::Fifo);
    }

    #[test]
    fn repro_reconstruct_rejects_unknown_app() {
        let spec = ReproSpec {
            app: "no-such-app".to_owned(),
            total_items: 1,
            threads: 1,
            cores_override: None,
            seed: 1,
            heap_bytes_override: None,
            monitors: false,
            retention: Retention::HistogramOnly,
            chaos: ChaosConfig::default(),
            budget: RunBudget::default(),
            server: None,
            lock_alg: LockAlg::Fifo,
            spec_key: 0,
            exact: false,
        };
        assert!(matches!(
            spec.reconstruct(),
            Err(SimError::UnknownApp(name)) if name == "no-such-app"
        ));
    }
}
