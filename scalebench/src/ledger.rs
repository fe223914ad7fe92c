//! The traced run: the per-layer ledger of one workload.
//!
//! 1. One untraced pass, for the traced-vs-untraced comparison.
//! 2. One traced pass: the same work with a span around every call the
//!    benchmark makes into a layer (set-up, each artifact, table and
//!    manifest writes).
//! 3. One span tree per simulated run: every unique run of the grid
//!    re-executed through `Jvm::new` / `Jvm::run` / `report_to_json` /
//!    `to_chrome_json` on `nproc` benchmark workers, and checked to be
//!    identical to the pass's own report.
//! 4. The layer replays ([`crate::replay`]), each in its own span, sized
//!    from every run's counters and run on `nproc` benchmark threads like
//!    the sweep itself, plus a checkpoint-append replay.
//!
//! Counts come from the runs' counters and repeat exactly; ns/op figures
//! come from the replays; a layer's busy time is its replay's total.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use scalesim_core::{report_to_json, Jvm, RunReport};
use scalesim_experiments::checkpoint::SEGMENT_RECORDS;
use scalesim_experiments::RunSpec;
use scalesim_trace::{sync_dir, to_chrome_json, CounterId};

use crate::replay::{replay_run, Replays, RunShape};
use crate::spans::{SpanId, Spans};
use crate::workload::{run_pass, simulated_json, Options, Pass};
use crate::{check_digests, tally, Outcome, TempDir};

/// Per-layer metrics, printed by a traced run: name and unit.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("simkit.queue_ns_per_op", "ns"),
    ("simkit.ops_per_event", "ratio"),
    ("simkit.busy_ms", "ms"),
    ("sched.dispatches", "count"),
    ("sched.preemptions", "count"),
    ("sched.dispatch_ns", "ns"),
    ("sched.busy_ms", "ms"),
    ("sync.acquires", "count"),
    ("sync.contentions", "count"),
    ("sync.contention_ratio", "ratio"),
    ("sync.grant_ns.fifo", "ns"),
    ("sync.grant_ns.mcs", "ns"),
    ("sync.grant_ns.malthusian", "ns"),
    ("sync.busy_ms", "ms"),
    ("heap.allocs", "count"),
    ("heap.alloc_bytes", "bytes"),
    ("heap.alloc_ns", "ns"),
    ("heap.busy_ms", "ms"),
    ("gc.minor", "count"),
    ("gc.full", "count"),
    ("gc.stw_pauses", "count"),
    ("gc.minor_ns", "ns"),
    ("gc.busy_ms", "ms"),
    ("objtrace.deaths", "count"),
    ("objtrace.record_ns", "ns"),
    ("objtrace.busy_ms", "ms"),
    ("trace.events", "count"),
    ("trace.dropped", "count"),
    ("trace.append_ns", "ns"),
    ("trace.export_ms", "ms"),
    ("trace.busy_ms", "ms"),
    ("core.events", "count"),
    ("core.setup_ms", "ms"),
    ("core.run_ms", "ms"),
    ("core.report_json_ms", "ms"),
    ("core.loop_residual_share", "ratio"),
    ("server.arrivals", "count"),
    ("server.retries", "count"),
    ("server.timeouts", "count"),
    ("server.sheds", "count"),
    ("server.goodput_ratio", "ratio"),
    ("workloads.build_ms", "ms"),
    ("experiments.unique_runs", "count"),
    ("experiments.memo_hit_ratio", "ratio"),
    ("experiments.checkpoint_append_ms", "ms"),
    ("experiments.manifest_ms", "ms"),
    ("bench.untraced_wall_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.trace_overhead_share", "ratio"),
];

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Host ns per operation. A layer the workload never called reports its
/// replay's fixed cost (constructing the layer) as one operation, so the
/// figure stays a measurement rather than a constant 0.
fn per_op(ns: u64, ops: u64) -> f64 {
    ns as f64 / ops.max(1) as f64
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Maps `f` over `items` on up to `workers` threads, each taking the next
/// item only when its previous one is done; results come back in order.
fn closed_loop<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers.min(items.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(i, item);
                done.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(r);
            });
        }
    });
    done.into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|r| r.expect("every item was mapped"))
        .collect()
}

/// Re-executes every unique run on `workers` benchmark threads, one span
/// tree per run under `parent`. A run that fails is left out.
fn rerun_all(spans: &Spans, parent: SpanId, specs: &[RunSpec], workers: usize) -> Vec<RunReport> {
    closed_loop(specs, workers, |i, spec| {
        let tree = Some(i as u32);
        spans.span(Some(parent), tree, "run", |run| {
            let jvm = spans.span(Some(run), tree, "core.jvm_new", |_| {
                Jvm::new(spec.config.clone())
            });
            let report = spans.span(Some(run), tree, "core.jvm_run", |_| jvm.run(&spec.app));
            if let Ok(r) = &report {
                spans.span(Some(run), tree, "core.report_json", |_| {
                    std::hint::black_box(report_to_json(r).to_string());
                });
                spans.span(Some(run), tree, "trace.export", |_| {
                    std::hint::black_box(to_chrome_json(&r.timeline));
                });
            }
            report.ok()
        })
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Replays every layer of every run on `workers` threads, one span per
/// layer call, and sums the replays.
fn replay_all(spans: &Spans, parent: SpanId, shapes: &[RunShape], workers: usize) -> Replays {
    let per_run = closed_loop(shapes, workers, |i, shape| {
        replay_run(shape, &mut |layer, f| {
            spans.span(
                Some(parent),
                Some(i as u32),
                &format!("replay.{layer}"),
                |_| f(),
            );
        })
    });
    let mut total = Replays::default();
    for r in &per_run {
        total.accumulate(r);
    }
    total
}

/// Appends every report to a store laid out like the checkpoint store
/// (one JSON line per run, segments sealed with fsync + rename every
/// [`SEGMENT_RECORDS`] records) and returns the host ns it took.
fn replay_checkpoint(dir: &Path, specs: &[RunSpec], reports: &[RunReport]) -> Result<u64, String> {
    let io = |e: std::io::Error| format!("checkpoint replay: {e}");
    std::fs::create_dir_all(dir).map_err(io)?;
    let start = std::time::Instant::now();
    let tail = dir.join("tail.jsonl");
    let mut in_tail = 0;
    let mut sealed = 0;
    for (spec, report) in specs.iter().zip(reports) {
        let line = format!("{:016x} {}\n", spec.memo_key(), report_to_json(report));
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&tail)
            .map_err(io)?;
        f.write_all(line.as_bytes()).map_err(io)?;
        in_tail += 1;
        if in_tail >= SEGMENT_RECORDS {
            f.sync_all().map_err(io)?;
            drop(f);
            std::fs::rename(&tail, dir.join(format!("seg-{sealed:05}.jsonl"))).map_err(io)?;
            sync_dir(dir).map_err(io)?;
            sealed += 1;
            in_tail = 0;
        }
    }
    Ok(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX))
}

/// Checks that each layer replay issued exactly the run counters' counts.
fn replay_problems(shapes: &[RunShape], r: &Replays) -> Vec<String> {
    let sum = |f: &dyn Fn(&RunShape) -> u64| shapes.iter().map(f).sum::<u64>();
    let mut checks = vec![
        ("simkit pops", r.queue.pops, sum(&|s| s.events)),
        (
            "sched dispatches",
            r.sched.dispatches,
            sum(&|s| s.dispatches),
        ),
        (
            "sched preemptions",
            r.sched.preemptions,
            sum(&|s| s.preemptions),
        ),
        ("heap allocs", r.memory.allocs, sum(&|s| s.allocs)),
        ("heap bytes", r.memory.alloc_bytes, sum(&|s| s.alloc_bytes)),
        ("heap kills", r.memory.kills, sum(&|s| s.deaths)),
        ("gc minor", r.memory.minor, sum(&|s| s.minor_gcs)),
        ("gc full", r.memory.full, sum(&|s| s.full_gcs)),
        (
            "objtrace allocs",
            r.objtrace.allocs,
            sum(&|s| s.traced_allocs),
        ),
        (
            "objtrace deaths",
            r.objtrace.deaths,
            sum(&|s| s.traced_deaths),
        ),
        (
            "trace recorded",
            r.timeline.recorded,
            sum(&|s| {
                if s.config.trace.enabled {
                    s.timeline_events + s.timeline_dropped
                } else {
                    0
                }
            }),
        ),
    ];
    for sync in &r.sync {
        checks.push(("sync acquires", sync.acquires, sum(&|s| s.acquires)));
        checks.push((
            "sync contentions",
            sync.contentions,
            sum(&|s| s.contentions),
        ));
    }
    checks
        .into_iter()
        .filter(|(_, replayed, counted)| replayed != counted)
        .map(|(what, replayed, counted)| {
            format!("replay {what}: replayed {replayed}, run counters say {counted}")
        })
        .collect()
}

/// The traced run of `opts.workload`.
///
/// # Errors
///
/// Fails when the workload cannot be set up or a host reading fails.
pub fn run_traced(opts: &Options, argv: &[String]) -> Result<Outcome, String> {
    let tmp = TempDir::new(&opts.out_dir)?;
    let spans = Spans::new();
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let untraced_dir = tmp.path().join("untraced");
    let untraced = run_pass(argv, &untraced_dir, None)?;
    let _ = std::fs::remove_dir_all(&untraced_dir);

    let traced_dir = tmp.path().join("traced");
    let (pass, shapes, reruns, replays, checkpoint_ns) = spans.span(
        None,
        None,
        "bench.traced_run",
        |root| -> Result<_, String> {
            let pass: Pass = spans.span(Some(root), None, "bench.pass", |id| {
                run_pass(argv, &traced_dir, Some((&spans, id)))
            })?;
            let reruns = spans.span(Some(root), None, "bench.runs", |id| {
                rerun_all(&spans, id, &pass.specs, workers)
            });
            let shapes: Vec<RunShape> = pass
                .specs
                .iter()
                .zip(&pass.reports)
                .map(|(spec, r)| RunShape::of(spec, r))
                .collect();
            let replays = spans.span(Some(root), None, "bench.replay", |id| {
                replay_all(&spans, id, &shapes, workers)
            });
            let checkpoint_ns =
                spans.span(Some(root), None, "experiments.checkpoint_append", |_| {
                    replay_checkpoint(&tmp.path().join("checkpoint-replay"), &pass.specs, &reruns)
                })?;
            Ok((pass, shapes, reruns, replays, checkpoint_ns))
        },
    )?;

    let mut passes = vec![untraced, pass];
    check_digests(opts, &mut passes);
    let mut out = Outcome::default();
    let untraced = passes.remove(0);
    let pass = passes.remove(0);
    tally(std::slice::from_ref(&pass), &mut out);
    out.problems.extend(untraced.problems.iter().cloned());
    if reruns.len() != pass.reports.len() {
        out.problems.push("a re-executed run failed".to_owned());
    }
    for (i, (fresh, served)) in reruns.iter().zip(&pass.reports).enumerate() {
        if simulated_json(fresh) != simulated_json(served) {
            out.problems.push(format!(
                "run {i}: re-execution differs from the sweep's report"
            ));
        }
    }
    out.problems.extend(replay_problems(&shapes, &replays));
    out.correct = out.failed == 0 && out.problems.is_empty();

    let totals = spans.totals();
    let span_ns = |name: &str| totals.get(name).map_or(0, |t| t.total_ns);
    let counter =
        |id: CounterId| pass.reports.iter().map(|r| r.counters.get(id)).sum::<u64>() as f64;
    let sum = |f: &dyn Fn(&RunShape) -> u64| shapes.iter().map(f).sum::<u64>() as f64;
    let servers: Vec<_> = pass
        .reports
        .iter()
        .filter_map(|r| r.server.as_ref())
        .collect();
    let server = |f: &dyn Fn(&scalesim_core::ServerStats) -> u64| {
        servers.iter().map(|s| f(s)).sum::<u64>() as f64
    };
    let events = sum(&|s| s.events);
    let q = &replays.queue;
    let m = &replays.memory;
    let run_ns = span_ns("core.jvm_run");
    // A run that records to an export path also serialises its timeline
    // inside `Jvm::run`; that export belongs to the trace layer's busy time.
    let in_run_export_ns = if opts.workload.records_timelines() {
        span_ns("trace.export")
    } else {
        0
    };
    let in_run_busy_ns = replays.busy_ns() + in_run_export_ns;
    let sync_ns: u64 = replays.sync_own.ns;
    let values: BTreeMap<&str, f64> = [
        ("simkit.queue_ns_per_op", per_op(q.ns, q.total())),
        ("simkit.ops_per_event", ratio(q.total() as f64, events)),
        ("simkit.busy_ms", ms(q.ns)),
        ("sched.dispatches", counter(CounterId::Dispatches)),
        ("sched.preemptions", counter(CounterId::Preemptions)),
        (
            "sched.dispatch_ns",
            per_op(replays.sched.ns, replays.sched.dispatches),
        ),
        ("sched.busy_ms", ms(replays.sched.ns)),
        ("sync.acquires", sum(&|s| s.acquires)),
        ("sync.contentions", counter(CounterId::LockContentions)),
        (
            "sync.contention_ratio",
            ratio(sum(&|s| s.contentions), sum(&|s| s.acquires)),
        ),
        (
            "sync.grant_ns.fifo",
            per_op(replays.sync[0].ns, replays.sync[0].acquires),
        ),
        (
            "sync.grant_ns.mcs",
            per_op(replays.sync[1].ns, replays.sync[1].acquires),
        ),
        (
            "sync.grant_ns.malthusian",
            per_op(replays.sync[2].ns, replays.sync[2].acquires),
        ),
        ("sync.busy_ms", ms(sync_ns)),
        ("heap.allocs", sum(&|s| s.allocs)),
        ("heap.alloc_bytes", sum(&|s| s.alloc_bytes)),
        ("heap.alloc_ns", per_op(m.heap_ns, m.allocs)),
        ("heap.busy_ms", ms(m.heap_ns)),
        ("gc.minor", counter(CounterId::MinorGcs)),
        ("gc.full", counter(CounterId::FullGcs)),
        ("gc.stw_pauses", counter(CounterId::StwPauses)),
        ("gc.minor_ns", per_op(m.minor_ns, m.minor)),
        ("gc.busy_ms", ms(m.minor_ns + m.full_ns)),
        ("objtrace.deaths", sum(&|s| s.traced_deaths)),
        (
            "objtrace.record_ns",
            per_op(
                replays.objtrace.ns,
                replays.objtrace.allocs + replays.objtrace.deaths,
            ),
        ),
        ("objtrace.busy_ms", ms(replays.objtrace.ns)),
        ("trace.events", sum(&|s| s.timeline_events)),
        ("trace.dropped", counter(CounterId::TimelineDropped)),
        (
            "trace.append_ns",
            per_op(replays.timeline.ns, replays.timeline.appends),
        ),
        ("trace.export_ms", ms(span_ns("trace.export"))),
        ("trace.busy_ms", ms(replays.timeline.ns)),
        ("core.events", events),
        ("core.setup_ms", ms(span_ns("core.jvm_new"))),
        ("core.run_ms", ms(run_ns)),
        ("core.report_json_ms", ms(span_ns("core.report_json"))),
        (
            "core.loop_residual_share",
            ratio(run_ns as f64 - in_run_busy_ns as f64, run_ns as f64),
        ),
        ("server.arrivals", server(&|s| s.arrivals)),
        ("server.retries", server(&|s| s.retries)),
        ("server.timeouts", server(&|s| s.timeouts)),
        ("server.sheds", server(&|s| s.sheds)),
        (
            "server.goodput_ratio",
            ratio(server(&|s| s.goodput), server(&|s| s.arrivals)),
        ),
        ("workloads.build_ms", ms(span_ns("workloads.build"))),
        ("experiments.unique_runs", pass.unique_runs as f64),
        (
            "experiments.memo_hit_ratio",
            ratio(
                (pass.attempted - pass.unique_runs) as f64,
                pass.attempted as f64,
            ),
        ),
        ("experiments.checkpoint_append_ms", ms(checkpoint_ns)),
        (
            "experiments.manifest_ms",
            ms(span_ns("experiments.manifest")),
        ),
        ("bench.untraced_wall_s", untraced.wall_ns as f64 / 1e9),
        ("bench.traced_wall_s", pass.wall_ns as f64 / 1e9),
        (
            "bench.trace_overhead_share",
            ratio(
                pass.wall_ns as f64 - untraced.wall_ns as f64,
                untraced.wall_ns as f64,
            ),
        ),
    ]
    .into_iter()
    .collect();
    out.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_owned(), values[name], unit.to_owned()))
        .collect();

    let spans_path =
        opts.out_dir
            .join(format!("spans-{}-{}.json", opts.workload.name(), opts.seed));
    std::fs::write(&spans_path, spans.to_json())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    print!("{}", render_table(opts, &out, &totals));
    drop(tmp);
    Ok(out)
}

/// The human-readable ledger: per-layer metrics, then span self times.
fn render_table(
    opts: &Options,
    out: &Outcome,
    totals: &BTreeMap<String, crate::spans::SpanTotals>,
) -> String {
    let mut t = format!(
        "== per-layer ledger: {} seed {} ==\n",
        opts.workload.name(),
        opts.seed
    );
    for (name, value, unit) in &out.metrics {
        let _ = writeln!(t, "{name:<36} {value:>18.3} {unit}");
    }
    let _ = writeln!(
        t,
        "\n{:<36} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, s) in totals {
        let _ = writeln!(
            t,
            "{name:<36} {:>8} {:>12.3} {:>12.3}",
            s.count,
            ms(s.total_ns),
            ms(s.self_ns)
        );
    }
    for p in &out.problems {
        let _ = writeln!(t, "problem: {p}");
    }
    t
}
