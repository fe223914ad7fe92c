//! Validates a written `BENCH_sweep.json` against the budgets its fields
//! are documented with. CI runs this over the committed report so a
//! regeneration that blows a budget (or records a nonsensical negative
//! overhead) fails loudly instead of being committed unnoticed.
//!
//! Budgets:
//!
//! * every `*_overhead_pct` field must be non-negative (the measurement
//!   clamps sub-noise negatives to zero — a negative value means the
//!   report predates the interleaved-pair fix);
//! * `checkpoint_overhead_pct` <= 3%;
//! * `monitor_overhead_pct` < 10%;
//! * `lock_alg_overhead_pct` <= 3% (the `Box<dyn LockAlgorithm>`
//!   dispatch path over the statically-dispatched default FIFO monitor
//!   on a byte-identical run — pluggable locks must not tax the
//!   default);
//! * `trace_off_overhead_pct` <= 2% (trace-off is the production path);
//! * `audit_overhead_pct` <= 3%;
//! * `campaign_overhead_pct` <= 3% (lease files, segment appends, and
//!   the deterministic merge over running the sweep in-process);
//! * `server_overhead_pct` <= 3% (the robust overload-control machinery
//!   — admission counting, deadline bookkeeping, armed backoff — over
//!   the naive per-request path on an identical healthy load);
//! * `analytics_overhead_pct` <= 3% (the offline USL-fit + attribution
//!   pass over producing the sweep it analyzes).
//!
//! Absolute ceilings, for costs that both sides of every A/B pair would
//! share and so no ratio can see:
//!
//! * `server_storm_ns_per_event` <= 2000 ns (host cost per simulated
//!   event of the naive `ext-server` retry storm; an event queue whose
//!   per-event cost grows with the storm's backlog reads ~9000 ns).
//!
//! `campaign_overhead_median_pct` is recorded but not budgeted: it is
//! the *signed* median per-pair delta kept alongside the clamped
//! min-ratio bound so a real-but-sub-noise campaign cost cannot hide
//! behind a `0.00` reading. It must be present and may be negative.
//!
//! Usage: `bench_check [BENCH_sweep.json]`. Exits 0 when every budget
//! holds, 1 with one line per violation otherwise, 2 when the file is
//! missing or malformed.

use std::process::ExitCode;

use scalesim_trace::json::JsonValue;

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sweep.json".to_string());
    let doc = match std::fs::read_to_string(&path) {
        Ok(text) => match JsonValue::parse(&text) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("error: parse {path}: {e}");
                return ExitCode::from(2);
            }
        },
        Err(e) => {
            eprintln!("error: read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let field = |key: &str| doc.get(key).and_then(JsonValue::as_num);
    // (field, max allowed %). Non-negativity is checked for all of them.
    let budgets = [
        ("checkpoint_overhead_pct", 3.0),
        ("monitor_overhead_pct", 10.0),
        ("lock_alg_overhead_pct", 3.0),
        ("trace_overhead_pct", f64::INFINITY),
        ("trace_off_overhead_pct", 2.0),
        ("audit_overhead_pct", 3.0),
        ("campaign_overhead_pct", 3.0),
        ("server_overhead_pct", 3.0),
        ("analytics_overhead_pct", 3.0),
    ];
    let mut violations = 0;
    for (key, budget) in budgets {
        let Some(v) = field(key) else {
            eprintln!("error: {path}: missing field {key}");
            return ExitCode::from(2);
        };
        if v < 0.0 {
            eprintln!("budget violation: {key} = {v:.2}% is negative");
            violations += 1;
        } else if v > budget {
            eprintln!("budget violation: {key} = {v:.2}% exceeds its {budget:.0}% budget");
            violations += 1;
        } else {
            println!("ok: {key} = {v:.2}%");
        }
    }
    // (field, ceiling): positive absolute costs, not overhead ratios.
    let ceilings = [("server_storm_ns_per_event", 2000.0)];
    for (key, ceiling) in ceilings {
        let Some(v) = field(key) else {
            eprintln!("error: {path}: missing field {key}");
            return ExitCode::from(2);
        };
        if v > 0.0 && v <= ceiling {
            println!("ok: {key} = {v:.0} (ceiling {ceiling:.0})");
        } else {
            eprintln!("budget violation: {key} = {v:.0} is outside (0, {ceiling:.0}]");
            violations += 1;
        }
    }
    // The signed median is a second opinion, not a budget: it must be
    // recorded (so the min-ratio clamp cannot silently hide a real
    // cost), but a negative value is legitimate host drift.
    match field("campaign_overhead_median_pct") {
        Some(v) => println!("ok: campaign_overhead_median_pct = {v:+.2}% (recorded, unbudgeted)"),
        None => {
            eprintln!("error: {path}: missing field campaign_overhead_median_pct");
            return ExitCode::from(2);
        }
    }
    if violations > 0 {
        eprintln!("{path}: {violations} budget violation(s)");
        ExitCode::FAILURE
    } else {
        println!("{path}: all budgets hold");
        ExitCode::SUCCESS
    }
}
