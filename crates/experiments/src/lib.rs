//! # scalesim-experiments
//!
//! One driver per artifact of the ISPASS'15 evaluation, each printing the
//! same rows/series the paper reports:
//!
//! | id | paper artifact | driver |
//! |----|----------------|--------|
//! | `workdist` | §III workload distribution | [`run_workdist`] |
//! | `scaletable` | §II-C scalable / non-scalable classification | [`run_scalability`] |
//! | `fig1a`/`fig1b` | Fig. 1a/1b lock acquisitions & contentions | [`run_fig1_locks`] |
//! | `fig1c` | Fig. 1c eclipse lifespan CDF | [`run_fig1c`] |
//! | `fig1d` | Fig. 1d xalan lifespan CDF | [`run_fig1d`] |
//! | `fig2` | Fig. 2 mutator vs. GC time | [`run_fig2`] |
//! | `abl-sched` | §IV future work 1 (biased scheduling) | [`run_biased_sched`] |
//! | `abl-heap` | §IV future work 2 (compartmentalized heap) | [`run_heaplets`] |
//! | `ext-ergo` | extension: adaptive nursery sizing | [`run_ergonomics`] |
//! | `ext-numa` | extension: NUMA placement sensitivity | [`run_numa_placement`] |
//! | `ext-sharding` | extension: hot-lock sharding | [`run_lock_sharding`] |
//! | `ext-gcworkers` | extension: parallel GC worker scaling | [`run_gc_workers`] |
//! | `ext-oversub` | extension: threads beyond cores | [`run_oversubscription`] |
//! | `ext-heapsize` | extension: trace-replay heap-size sweep | [`run_heap_size`] |
//! | `ext-concurrent` | extension: mostly-concurrent old generation | [`run_concurrent_old_gen`] |
//! | `ext-topo` | extension: machine-topology sweep | [`run_topology`] |
//! | `ext-server` | extension: server workloads with overload control | [`run_server_study`] |
//! | `ext-locks` | extension: pluggable lock algorithms | [`run_lock_algorithms`] |
//!
//! Sweeps run in parallel across host cores ([`run_all`]); every
//! simulation itself is deterministic and single-threaded, so results are
//! reproducible bit-for-bit for a given [`ExpParams`].
//!
//! Three self-healing layers keep long sweeps durable: completed runs
//! checkpoint to disk and replay on resume ([`checkpoint`]), hung runs
//! are cancelled by a watchdog and quarantined (see [`run_all`]), and
//! quarantined specs are minimized into standalone repro files
//! ([`shrink_failure`] / [`write_repro`]). A fourth layer audits the
//! evidence: [`audit_spec`] re-executes a spec with salvage + tracing
//! and runs the offline concurrency auditor ([`scalesim_audit`]) over
//! the recovered timeline, and [`write_audit_repro`] snapshots a
//! finding-bearing run as an `audit-<key>.json` repro artifact. A fifth
//! layer scales out: [`campaign`] lets N independent worker *processes*
//! drain one sweep over a shared directory with lease-based claiming,
//! crash recovery, and byte-identical merges. Completed sweeps feed the
//! offline analytics layer ([`run_analytics`] / `scalesim-analytics`):
//! USL fitting with collapse prediction, scalability classification,
//! and per-run time attribution, emitted as a deterministic
//! fingerprinted `analytics.json` ([`write_analytics`]).
//!
//! ```
//! use scalesim_experiments::{run_fig1d, ExpParams};
//!
//! let params = ExpParams::quick().with_scale(0.01).with_threads(vec![4, 16]);
//! let fig1d = run_fig1d(&params).unwrap();
//! println!("{}", fig1d.table());
//! assert!(fig1d.frac_below_1k(4).unwrap() > fig1d.frac_below_1k(16).unwrap());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ablation;
mod analyze;
mod artifacts;
mod auditing;
pub mod campaign;
pub mod checkpoint;
mod ext_locks;
mod extensions;
mod fig1_lifespan;
mod fig1_locks;
mod fig2_gc;
mod params;
mod scalability;
mod server;
mod shrink;
mod sweep;
mod topo;
mod workdist;

pub use ablation::{run_biased_sched, run_heaplets, Ablation, AblationRow};
pub use analyze::{run_analytics, write_analytics};
pub use artifacts::{artifact_tables, ArtifactTable, ALL_ARTIFACTS};
pub use auditing::{audit_spec, write_audit_repro, AUDIT_EVENT_BACKSTOP};
pub use checkpoint::ResumeStats;
pub use ext_locks::{run_lock_algorithms, LockAlgRow, LockAlgStudy};
pub use extensions::{
    run_concurrent_old_gen, run_ergonomics, run_gc_workers, run_heap_size, run_lock_sharding,
    run_numa_placement, run_oversubscription, ConcurrentRow, ConcurrentStudy, ErgoRow, Ergonomics,
    GcWorkers, GcWorkersRow, HeapSizeRow, HeapSizeStudy, NumaRow, NumaStudy, Oversub, OversubRow,
    Sharding, ShardingRow,
};
pub use fig1_lifespan::{
    run_fig1c, run_fig1d, run_lifespan_curves, LifespanCurves, DEFAULT_THRESHOLDS,
};
pub use fig1_locks::{run_fig1_locks, Fig1Locks};
pub use fig2_gc::{run_fig2, Fig2, Fig2Row};
pub use params::ExpParams;
pub use scalability::{run_scalability, Scalability, ScalabilityRow, SCALABLE_SPEEDUP_THRESHOLD};
pub use server::{run_server_study, server_specs, ServerRow, ServerStudy, SERVER_SCENARIOS};
pub use shrink::{run_isolated, shrink_failure, write_repro, ShrinkOutcome, SHRINK_ATTEMPT_BUDGET};
pub use sweep::{
    cached_event_total, clear_run_cache, fingerprints_total, run_all, run_cache_size,
    take_run_manifests, take_sweep_failures, RunManifest, RunSpec, SweepFailure, SweepFailureKind,
};
pub use topo::{run_topology, TopoRow, TopologyStudy};
pub use workdist::{run_workdist, Workdist, WorkdistRow};
