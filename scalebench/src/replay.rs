//! Layer replays: each inner layer driven through its public functions
//! with an operation stream sized from one simulated run's own counters.
//!
//! A replay reproduces *how much* work a layer did in a run (its counts
//! match the run's counters exactly, which the benchmark's tests check)
//! and the *shape* that drives its cost (backlog depth, thread and core
//! counts, contention, lock algorithm, recorder on or off). It does not
//! reproduce the run's exact call order, so a replay's ns/op is an
//! estimate of the layer's cost inside the run, not a measurement of it.
//! The counts a replay reads back come from the layer itself (queue
//! totals, scheduler and monitor statistics, heap and GC logs, tracer and
//! timeline tallies), never from the replay's own bookkeeping.

use std::collections::VecDeque;
use std::time::Instant;

use scalesim_core::{JvmConfig, RunReport};
use scalesim_gc::{Collector, GcCostModel, GcKind};
use scalesim_heap::{AllocResult, Heap, HeapConfig, NurseryLayout, ObjectId};
use scalesim_objtrace::ObjectTracer;
use scalesim_sched::{BlockReason, CpuScheduler, QuantumOutcome, SchedPolicy, ThreadId};
use scalesim_simkit::{splitmix64, EventId, EventQueue, SimDuration, SimTime};
use scalesim_sync::{AcquireOutcome, LockAlg, LockTable};
use scalesim_trace::{CounterId, EventKind};

use scalesim_experiments::RunSpec;

/// The counters of one run a replay is sized from.
#[derive(Debug, Clone)]
pub struct RunShape {
    /// The run's configuration (threads, cores, heap, algorithm, tracing).
    pub config: JvmConfig,
    /// Events the engine processed.
    pub events: u64,
    /// Thread dispatches onto a core.
    pub dispatches: u64,
    /// Quantum-expiry preemptions.
    pub preemptions: u64,
    /// Monitor acquisition calls (immediate and queued).
    pub acquires: u64,
    /// Monitor acquisitions that queued.
    pub contentions: u64,
    /// Objects allocated in the heap.
    pub allocs: u64,
    /// Bytes allocated in the heap.
    pub alloc_bytes: u64,
    /// Objects killed in the heap.
    pub deaths: u64,
    /// Allocations recorded by the object tracer.
    pub traced_allocs: u64,
    /// Bytes recorded by the object tracer.
    pub traced_bytes: u64,
    /// Deaths recorded by the object tracer.
    pub traced_deaths: u64,
    /// Minor collections.
    pub minor_gcs: u64,
    /// Full collections.
    pub full_gcs: u64,
    /// Timeline events retained by the run's recorders.
    pub timeline_events: u64,
    /// Timeline events dropped by ring retention.
    pub timeline_dropped: u64,
    /// Server attempts, timeouts and attempts still in flight.
    pub server: Option<ServerShape>,
}

/// The server-path counters a queue replay needs.
#[derive(Debug, Clone, Copy)]
pub struct ServerShape {
    /// Request attempts that arrived (retries included).
    pub arrivals: u64,
    /// Attempts whose client timeout fired.
    pub timeouts: u64,
    /// Attempts unsettled at the horizon.
    pub in_flight: u64,
    /// Client timeout, simulated ns.
    pub timeout_ns: u64,
    /// Run horizon, simulated ns.
    pub horizon_ns: u64,
}

impl RunShape {
    /// The shape of `report`, produced by `spec`.
    #[must_use]
    pub fn of(spec: &RunSpec, report: &RunReport) -> Self {
        let c = |id| report.counters.get(id);
        let server = report
            .server
            .as_ref()
            .zip(spec.config.server.as_ref())
            .map(|(s, spec)| ServerShape {
                arrivals: s.arrivals,
                timeouts: s.timeouts,
                in_flight: s.in_flight,
                timeout_ns: spec.client.timeout_ns,
                horizon_ns: spec.horizon_ns,
            });
        // The batch engine counts every acquisition and marks the queued
        // ones as contentions too; the server engine counts immediate
        // acquisitions and queued ones separately.
        let acquires = if server.is_some() {
            c(CounterId::LockAcquires) + c(CounterId::LockContentions)
        } else {
            c(CounterId::LockAcquires)
        };
        RunShape {
            config: spec.config.clone(),
            events: report.events_processed,
            dispatches: c(CounterId::Dispatches),
            preemptions: c(CounterId::Preemptions),
            acquires,
            contentions: c(CounterId::LockContentions),
            allocs: report.heap.objects_allocated,
            alloc_bytes: report.heap.bytes_allocated,
            deaths: report.heap.objects_died,
            traced_allocs: report.trace.allocations(),
            traced_bytes: report.trace.allocated_bytes(),
            traced_deaths: report.trace.deaths(),
            minor_gcs: c(CounterId::MinorGcs),
            full_gcs: c(CounterId::FullGcs),
            timeline_events: report.timeline.len() as u64,
            timeline_dropped: report.timeline.dropped(),
            server,
        }
    }
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// `floor((i+1)·total/n) − floor(i·total/n)`: spreads `total` operations
/// evenly over `n` steps, summing to exactly `total`.
fn share(i: u64, n: u64, total: u64) -> u64 {
    let at = |k: u64| (u128::from(k) * u128::from(total) / u128::from(n)) as u64;
    at(i + 1) - at(i)
}

/// A deterministic uniform draw in `[1, span]`.
fn draw(state: &mut u64, span: u64) -> u64 {
    *state = splitmix64(*state);
    1 + *state % span.max(1)
}

// ---------------------------------------------------------------------
// simkit: EventQueue
// ---------------------------------------------------------------------

/// Operation counts of a queue replay, read back from the queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueOps {
    /// Events popped (`popped_total`).
    pub pops: u64,
    /// Events scheduled (`scheduled_total`).
    pub schedules: u64,
    /// Successful cancels.
    pub cancels: u64,
    /// `peek_time` calls.
    pub peeks: u64,
    /// Host time of the whole stream.
    pub ns: u64,
}

impl QueueOps {
    /// Every queue call issued.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.pops + self.schedules + self.cancels + self.peeks
    }
}

/// Replays the run's event-queue traffic: one pop per processed event,
/// each followed by a replacement schedule, with cancels spread evenly.
///
/// * Server runs hold one client-timeout timer per attempt for the
///   timeout's length, so the backlog is `arrivals × timeout / horizon`;
///   settled attempts cancel their timer (`arrivals − timeouts −
///   in_flight` cancels); the engine peeks before every pop.
/// * Batch runs keep about two pending events per thread (step
///   completion and quantum timer) and re-arm the quantum timer on every
///   dispatch (one cancel per dispatch); they never peek.
#[must_use]
fn replay_queue(shape: &RunShape) -> QueueOps {
    let events = shape.events;
    if events == 0 {
        return QueueOps::default();
    }
    let threads = (shape.config.threads + shape.config.helper_threads) as u64;
    let (depth, span_ns, peek, cancels) = match shape.server {
        Some(s) => (
            (s.arrivals.saturating_mul(s.timeout_ns) / s.horizon_ns.max(1)).max(1) + threads,
            s.timeout_ns,
            true,
            s.arrivals.saturating_sub(s.timeouts + s.in_flight),
        ),
        None => (
            2 * threads,
            shape.config.quantum.as_nanos(),
            false,
            shape.dispatches,
        ),
    };
    let mut rng = events ^ (depth << 32);
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut recent: Vec<EventId> = Vec::new();
    let mut peeks = 0u64;
    let mut done_cancels = 0u64;
    let start = Instant::now();
    for _ in 0..depth {
        q.schedule_at(SimTime::from_nanos(draw(&mut rng, span_ns)), 0);
    }
    for i in 0..events {
        if peek {
            std::hint::black_box(q.peek_time());
            peeks += 1;
        }
        let (now, _) = q.pop().expect("the replay keeps the backlog non-empty");
        recent.push(q.schedule_at(now + SimDuration::from_nanos(draw(&mut rng, span_ns)), 1));
        for _ in 0..share(i, events, cancels) {
            // Cancel the most recently armed timer still pending, and arm
            // a replacement so the live backlog keeps its depth.
            while let Some(id) = recent.pop() {
                if q.cancel(id) {
                    done_cancels += 1;
                    break;
                }
            }
            recent.push(q.schedule_at(now + SimDuration::from_nanos(draw(&mut rng, span_ns)), 2));
        }
        if recent.len() > 4 * depth as usize + 64 {
            recent.drain(..recent.len() / 2);
        }
    }
    if peek {
        std::hint::black_box(q.peek_time());
        peeks += 1;
    }
    QueueOps {
        pops: q.popped_total(),
        schedules: q.scheduled_total(),
        cancels: done_cancels,
        peeks,
        ns: ns_since(start),
    }
}

// ---------------------------------------------------------------------
// sched: CpuScheduler
// ---------------------------------------------------------------------

/// Counts of a scheduler replay, read back from the scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedOps {
    /// Dispatches onto a core.
    pub dispatches: u64,
    /// Quantum preemptions.
    pub preemptions: u64,
    /// Host time.
    pub ns: u64,
}

/// Replays the run's dispatches and preemptions on a scheduler with the
/// run's cores and its mutator plus helper threads: the initial
/// dispatch, then quantum expiries that preempt (each followed by a
/// dispatch), then block/unblock cycles (each followed by a dispatch)
/// until the dispatch count is reached.
#[must_use]
fn replay_sched(shape: &RunShape) -> SchedOps {
    let cfg = &shape.config;
    let cores = cfg.placement.enabled(&cfg.machine, cfg.cores());
    let n = cfg.threads + cfg.helper_threads;
    let start = Instant::now();
    let mut s = CpuScheduler::new(cores, cfg.quantum, SchedPolicy::Fair);
    s.set_timeline(cfg.trace.recorder());
    if shape.dispatches == 0 {
        // A run that never dispatched (the server engine): the replay is
        // the scheduler's construction alone.
        return SchedOps {
            ns: ns_since(start),
            ..SchedOps::default()
        };
    }
    let mut now = SimTime::ZERO;
    for _ in 0..n {
        let tid = s.register(now);
        s.start(tid, now);
    }
    let mut dispatched = s.dispatch(now).len() as u64;
    let mut preempted = 0u64;
    while preempted < shape.preemptions && dispatched < shape.dispatches {
        now += SimDuration::from_micros(1);
        let tid = s.running_threads().next().expect("a core is occupied");
        if s.quantum_expired(tid, now) != QuantumOutcome::Preempted {
            break; // no waiter: the run's shape cannot preempt here
        }
        preempted += 1;
        dispatched += s.dispatch(now).len() as u64;
    }
    while dispatched < shape.dispatches {
        now += SimDuration::from_micros(1);
        let tid = s.running_threads().next().expect("a core is occupied");
        s.block(tid, now, BlockReason::Monitor);
        s.unblock(tid, now);
        dispatched += s.dispatch(now).len() as u64;
    }
    let ns = ns_since(start);
    let tids = (0..n).map(ThreadId::new);
    SchedOps {
        dispatches: tids.clone().map(|t| s.dispatches(t)).sum(),
        preemptions: tids.map(|t| s.preemptions(t)).sum(),
        ns,
    }
}

// ---------------------------------------------------------------------
// sync: LockTable
// ---------------------------------------------------------------------

/// Counts of a lock replay, read back from the lock table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncOps {
    /// Acquisitions.
    pub acquires: u64,
    /// Acquisitions that queued.
    pub contentions: u64,
    /// Host time.
    pub ns: u64,
}

/// Replays the run's monitor traffic under `alg`: `acquires −
/// contentions` uncontended acquisitions, each followed by an even share
/// of the contended ones queueing behind it, then the chain of releases
/// and handoffs until the monitor is free again.
#[must_use]
fn replay_sync(shape: &RunShape, alg: LockAlg) -> SyncOps {
    let (acquires, contentions) = (shape.acquires, shape.contentions.min(shape.acquires));
    if acquires == 0 {
        return SyncOps::default();
    }
    let groups = (acquires - contentions).max(1);
    let start = Instant::now();
    let mut table = LockTable::with_algorithm(alg);
    table.set_timeline(shape.config.trace.recorder());
    let m = table.create("replay");
    let mut now = SimTime::ZERO;
    for g in 0..groups {
        now += SimDuration::from_micros(1);
        let mut owner = ThreadId::new(0);
        let first = table.acquire(m, owner, now).expect("free monitor");
        debug_assert_eq!(first, AcquireOutcome::Acquired);
        for k in 1..=share(g, groups, contentions) {
            table
                .acquire(m, ThreadId::new(k as usize), now)
                .expect("distinct waiters");
        }
        while let Some(grant) = table.release(m, owner, now).expect("owner releases") {
            owner = grant.next;
        }
    }
    let ns = ns_since(start);
    let total = table.report().total;
    SyncOps {
        acquires: total.acquisitions,
        contentions: total.contentions,
        ns,
    }
}

// ---------------------------------------------------------------------
// heap + gc: Heap, Collector
// ---------------------------------------------------------------------

/// Counts of a heap + collector replay, read back from the heap and the
/// GC log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryOps {
    /// Objects allocated (`HeapStats::objects_allocated`).
    pub allocs: u64,
    /// Bytes allocated.
    pub alloc_bytes: u64,
    /// Objects killed.
    pub kills: u64,
    /// Host time inside `alloc` / `kill`.
    pub heap_ns: u64,
    /// Minor collections in the GC log.
    pub minor: u64,
    /// Host time inside `collect_minor`.
    pub minor_ns: u64,
    /// Full collections in the GC log.
    pub full: u64,
    /// Host time inside `collect_full`.
    pub full_ns: u64,
}

/// Replays the run's allocation stream: `allocs` objects whose sizes sum
/// to exactly `alloc_bytes`, the oldest live object killed at an even
/// rate until `deaths` have died, and the run's minor and full
/// collections at evenly spaced points. The nursery holds one
/// collection interval's bytes (so it never fills early) and the mature
/// space every byte (so promotion never escalates).
#[must_use]
fn replay_memory(shape: &RunShape) -> MemoryOps {
    let n = shape.allocs;
    if n + shape.minor_gcs + shape.full_gcs == 0 {
        return MemoryOps::default();
    }
    // Collections are spread over the allocation steps; a run that
    // collected without allocating gets one empty step to hold them.
    let steps = n.max(1);
    let bytes = shape.alloc_bytes.max(n);
    let max_size = bytes.div_ceil(steps).max(1);
    let interval = steps.div_ceil(shape.minor_gcs.max(1)) + 1;
    let nursery = (max_size * interval).max(1 << 16) * 5 / 4;
    let mature = bytes + (1 << 20);
    let total = nursery + mature;
    let fraction = (nursery as f64 / total as f64) * 1.01;
    let mut heap = Heap::new(HeapConfig::new(total, fraction, NurseryLayout::Shared));
    let mut gc = Collector::new(GcCostModel::hotspot_like(shape.config.gc_workers(), 1.0));
    gc.set_occupancy_escalation(false);
    gc.set_timeline(shape.config.trace.recorder());
    let mutators = shape.config.threads;
    let tids = shape.config.threads.max(1);
    let mut live: VecDeque<ObjectId> = VecDeque::new();
    let mut out = MemoryOps::default();
    let mut segment = Instant::now();
    for i in 0..steps {
        if i < n {
            let size = bytes / n + u64::from(i < bytes % n);
            let tid = ThreadId::new(i as usize % tids);
            let obj = loop {
                match heap.alloc(tid, size) {
                    AllocResult::Ok(obj) => break obj,
                    AllocResult::NurseryFull { region } => {
                        // Not expected; collected (and counted) like the run would.
                        out.heap_ns += ns_since(segment);
                        let t = Instant::now();
                        gc.collect_minor(&mut heap, region, mutators, SimTime::from_nanos(i));
                        out.minor_ns += ns_since(t);
                        segment = Instant::now();
                    }
                }
            };
            live.push_back(obj);
            for _ in 0..share(i, n, shape.deaths) {
                if let Some(dead) = live.pop_front() {
                    std::hint::black_box(heap.kill(dead));
                }
            }
        }
        let minor_due = share(i, steps, shape.minor_gcs);
        let full_due = share(i, steps, shape.full_gcs);
        if minor_due + full_due > 0 {
            out.heap_ns += ns_since(segment);
            let at = SimTime::from_nanos(i);
            for _ in 0..minor_due {
                let t = Instant::now();
                gc.collect_minor(&mut heap, 0, mutators, at);
                out.minor_ns += ns_since(t);
            }
            for _ in 0..full_due {
                let t = Instant::now();
                gc.collect_full(&mut heap, mutators, at);
                out.full_ns += ns_since(t);
            }
            segment = Instant::now();
        }
    }
    out.heap_ns += ns_since(segment);
    let stats = heap.stats();
    out.allocs = stats.objects_allocated;
    out.alloc_bytes = stats.bytes_allocated;
    out.kills = stats.objects_died;
    out.minor = gc.log().count(GcKind::Minor) as u64;
    out.full = gc.log().count(GcKind::Full) as u64;
    out
}

// ---------------------------------------------------------------------
// objtrace: ObjectTracer
// ---------------------------------------------------------------------

/// Counts of an object-tracer replay, read back from the tracer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TracerOps {
    /// `on_alloc` records.
    pub allocs: u64,
    /// `on_death` records.
    pub deaths: u64,
    /// Host time.
    pub ns: u64,
}

/// Replays the run's allocation and death records into a tracer with the
/// run's retention, deaths in allocation order at an even rate.
#[must_use]
fn replay_objtrace(shape: &RunShape) -> TracerOps {
    let n = shape.traced_allocs;
    let start = Instant::now();
    let mut tracer = ObjectTracer::new(shape.config.retention);
    if n == 0 {
        // A run without the object tracer: the replay is its construction.
        return TracerOps {
            ns: ns_since(start),
            ..TracerOps::default()
        };
    }
    let bytes = shape.traced_bytes.max(n);
    let tids = shape.config.threads.max(1);
    let mut live = VecDeque::new();
    let mut clock = 0u64;
    for i in 0..n {
        let size = bytes / n + u64::from(i < bytes % n);
        clock += size;
        live.push_back((tracer.on_alloc(i as usize % tids, size, clock), clock));
        for _ in 0..share(i, n, shape.traced_deaths) {
            if let Some((obj, birth)) = live.pop_front() {
                tracer.on_death(obj, clock - birth, clock);
            }
        }
    }
    TracerOps {
        allocs: tracer.allocations(),
        deaths: tracer.deaths(),
        ns: ns_since(start),
    }
}

// ---------------------------------------------------------------------
// trace: Timeline
// ---------------------------------------------------------------------

/// Counts of a timeline replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimelineOps {
    /// Append calls issued.
    pub appends: u64,
    /// Events the recorder retained plus those it dropped.
    pub recorded: u64,
    /// Host time.
    pub ns: u64,
}

/// Replays the run's timeline appends into a recorder configured like
/// the run's. A recording run appends every event it retained or
/// dropped; a run with the recorder off still makes its recording calls
/// (they return at once), which the replay counts as one per event.
#[must_use]
fn replay_timeline(shape: &RunShape) -> TimelineOps {
    let trace = &shape.config.trace;
    let appends = if trace.enabled {
        shape.timeline_events + shape.timeline_dropped
    } else {
        shape.events
    };
    let start = Instant::now();
    let mut tl = trace.recorder();
    for i in 0..appends {
        let at = SimTime::from_nanos(i * 100);
        tl.span(
            EventKind::ThreadRunning,
            (i % 64) as u32,
            at,
            at + SimDuration::from_nanos(50),
            i,
        );
    }
    let ns = ns_since(start);
    TimelineOps {
        appends,
        recorded: tl.len() as u64 + tl.dropped(),
        ns,
    }
}

// ---------------------------------------------------------------------
// All layers of one run
// ---------------------------------------------------------------------

/// Every layer replay of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replays {
    /// Event queue.
    pub queue: QueueOps,
    /// Scheduler.
    pub sched: SchedOps,
    /// Lock table under fifo, mcs and malthusian, in [`LockAlg::ALL`]
    /// order.
    pub sync: [SyncOps; 3],
    /// Lock table under the run's own algorithm.
    pub sync_own: SyncOps,
    /// Heap and collector.
    pub memory: MemoryOps,
    /// Object tracer.
    pub objtrace: TracerOps,
    /// Timeline recorder.
    pub timeline: TimelineOps,
}

impl Replays {
    /// Host ns of every layer, with the lock table under the run's own
    /// algorithm: the inner-layer busy estimate of the run.
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.queue.ns
            + self.sched.ns
            + self.sync_own.ns
            + self.memory.heap_ns
            + self.memory.minor_ns
            + self.memory.full_ns
            + self.objtrace.ns
            + self.timeline.ns
    }

    /// Sums two runs' replays.
    pub fn accumulate(&mut self, o: &Replays) {
        let q = &mut self.queue;
        q.pops += o.queue.pops;
        q.schedules += o.queue.schedules;
        q.cancels += o.queue.cancels;
        q.peeks += o.queue.peeks;
        q.ns += o.queue.ns;
        self.sched.dispatches += o.sched.dispatches;
        self.sched.preemptions += o.sched.preemptions;
        self.sched.ns += o.sched.ns;
        for (a, b) in self
            .sync
            .iter_mut()
            .chain([&mut self.sync_own])
            .zip(o.sync.iter().chain([&o.sync_own]))
        {
            a.acquires += b.acquires;
            a.contentions += b.contentions;
            a.ns += b.ns;
        }
        let m = &mut self.memory;
        m.allocs += o.memory.allocs;
        m.alloc_bytes += o.memory.alloc_bytes;
        m.kills += o.memory.kills;
        m.heap_ns += o.memory.heap_ns;
        m.minor += o.memory.minor;
        m.minor_ns += o.memory.minor_ns;
        m.full += o.memory.full;
        m.full_ns += o.memory.full_ns;
        self.objtrace.allocs += o.objtrace.allocs;
        self.objtrace.deaths += o.objtrace.deaths;
        self.objtrace.ns += o.objtrace.ns;
        self.timeline.appends += o.timeline.appends;
        self.timeline.recorded += o.timeline.recorded;
        self.timeline.ns += o.timeline.ns;
    }
}

/// Runs every layer replay for one run, each inside `timed(layer, f)`
/// so that a caller can wrap it (in a span, for instance).
pub fn replay_run(shape: &RunShape, timed: &mut dyn FnMut(&str, &mut dyn FnMut())) -> Replays {
    let mut r = Replays::default();
    timed("simkit.queue", &mut || r.queue = replay_queue(shape));
    timed("sched", &mut || r.sched = replay_sched(shape));
    for (k, alg) in LockAlg::ALL.into_iter().enumerate() {
        timed(&format!("sync.{alg}"), &mut || {
            r.sync[k] = replay_sync(shape, alg)
        });
    }
    r.sync_own = match LockAlg::ALL
        .iter()
        .position(|&a| a == shape.config.lock_alg)
    {
        Some(k) => r.sync[k],
        None => replay_sync(shape, shape.config.lock_alg),
    };
    timed("heap_gc", &mut || r.memory = replay_memory(shape));
    timed("objtrace", &mut || r.objtrace = replay_objtrace(shape));
    timed("trace", &mut || r.timeline = replay_timeline(shape));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_experiments::campaign::campaign_units;
    use scalesim_experiments::ExpParams;

    fn shapes(artifact: &str) -> Vec<RunShape> {
        let params = ExpParams {
            scale: 0.01,
            seed: 42,
            thread_counts: vec![4, 16],
        };
        campaign_units(artifact, &params)
            .unwrap()
            .unwrap()
            .iter()
            // The naive retry storm is too slow for an unoptimised test
            // build; the robust policy still retries and sheds.
            .filter(|spec| {
                spec.config
                    .server
                    .as_ref()
                    .is_none_or(|s| s.name != "naive")
            })
            .take(4)
            .map(|spec| RunShape::of(spec, &spec.run().unwrap()))
            .collect()
    }

    fn assert_exact(shape: &RunShape) {
        let r = replay_run(shape, &mut |_, f| f());
        assert_eq!(r.queue.pops, shape.events);
        assert_eq!(r.sched.dispatches, shape.dispatches);
        assert_eq!(r.sched.preemptions, shape.preemptions);
        for s in r.sync {
            assert_eq!(
                (s.acquires, s.contentions),
                (shape.acquires, shape.contentions)
            );
        }
        assert_eq!(r.memory.allocs, shape.allocs);
        assert_eq!(r.memory.alloc_bytes, shape.alloc_bytes);
        assert_eq!(r.memory.kills, shape.deaths);
        assert_eq!(
            (r.memory.minor, r.memory.full),
            (shape.minor_gcs, shape.full_gcs)
        );
        assert_eq!(
            (r.objtrace.allocs, r.objtrace.deaths),
            (shape.traced_allocs, shape.traced_deaths)
        );
        if shape.config.trace.enabled {
            assert_eq!(
                r.timeline.recorded,
                shape.timeline_events + shape.timeline_dropped
            );
        }
    }

    #[test]
    fn batch_replays_match_the_run_counters_exactly() {
        for shape in shapes("scaletable") {
            assert_exact(&shape);
        }
    }

    #[test]
    fn server_replays_match_the_run_counters_exactly() {
        for shape in shapes("ext-server") {
            assert!(shape.server.is_some());
            assert_exact(&shape);
            let q = replay_queue(&shape);
            assert_eq!(q.peeks, shape.events + 1, "peek before every pop");
        }
    }

    #[test]
    fn share_spreads_exactly() {
        for (n, total) in [(7u64, 3u64), (3, 7), (10, 0), (1, 5)] {
            assert_eq!((0..n).map(|i| share(i, n, total)).sum::<u64>(), total);
        }
    }

    #[test]
    fn contended_lock_replay_exercises_every_algorithm() {
        let mut shape = shapes("scaletable").remove(0);
        shape.acquires = 1000;
        shape.contentions = 900;
        for alg in LockAlg::ALL {
            let s = replay_sync(&shape, alg);
            assert_eq!((s.acquires, s.contentions), (1000, 900), "{alg}");
        }
    }
}
