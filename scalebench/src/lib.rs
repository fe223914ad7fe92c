//! # scalebench
//!
//! The host-cost benchmark of scalesim: what the simulator costs to run,
//! end to end and layer by layer. See `README.md` in this directory for
//! the workloads, every metric and the layer → end-to-end map.
//!
//! An untraced run ([`run_untraced`]) repeats whole passes over one
//! workload's run grid for the requested time and reports the medians of
//! the end-to-end metrics. A traced run ([`ledger::run_traced`]) wraps
//! every call into a layer in a span, replays each inner layer with the
//! workload's own counts, and reports the per-layer ledger.

pub mod host;
pub mod ledger;
pub mod replay;
pub mod spans;
pub mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use scalesim_experiments::checkpoint;

use host::ProbeTime;
use workload::{parse_args, recorded_digest, run_pass, set_up, Options, Pass};

/// The seed every figure in the repository is pinned to.
pub const PINNED_SEED: u64 = 42;

/// A seed no tuning looked at, recorded so that a later claim can be
/// rechecked on it.
pub const HELD_OUT_SEED: u64 = 1017;

/// End-to-end metrics, printed by an untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("ns_per_event", "ns"),
    ("ns_per_event_worst", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// Set-ups timed, in one batch after the first pass, for `setup_s`.
const SETUPS: usize = 100;

/// Bytes per MB in `peak_rss_mb`.
const MB: f64 = (1u64 << 20) as f64;

/// Passes every untraced run makes, however short its time budget.
const MIN_PASSES: usize = 2;

/// The probe's wall ns at the reference speed: end-to-end timings are
/// reported as host time scaled to a host on which
/// [`host::probe`] takes this long.
const REF_PROBE_NS: f64 = 20e6;

/// The result line of a run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output matched and every run ended ok.
    pub correct: bool,
    /// Runs requested.
    pub attempted: u64,
    /// Runs failed.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, String)>,
    /// Why the run is not correct.
    pub problems: Vec<String>,
}

impl Outcome {
    /// The one-line JSON result.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of `values` (mean of the middle two for an even count).
#[must_use]
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A directory removed when dropped.
#[derive(Debug)]
pub(crate) struct TempDir(PathBuf);

impl TempDir {
    /// Creates `<parent>/tmp-<pid>`, replacing any leftover.
    ///
    /// # Errors
    ///
    /// Propagates creation failures.
    pub fn new(parent: &Path) -> Result<Self, String> {
        let dir = parent.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        checkpoint::disable_store();
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Checks every pass's digest against the recorded one for the seed (or,
/// for an unrecorded seed, against the first pass), folding mismatches
/// into the pass's failures.
pub(crate) fn check_digests(opts: &Options, passes: &mut [Pass]) {
    let expected = recorded_digest(opts.workload, opts.profile, opts.seed)
        .or_else(|| passes.first().map(|p| p.digest));
    for (i, p) in passes.iter_mut().enumerate() {
        if Some(p.digest) != expected {
            p.failed = p.attempted;
            p.problems.push(format!(
                "pass {i}: output digest {:016x} differs from {:016x}",
                p.digest,
                expected.unwrap_or(0)
            ));
        }
    }
}

/// Sums attempts, failures and problems of `passes`.
pub(crate) fn tally(passes: &[Pass], out: &mut Outcome) {
    for p in passes {
        out.attempted += p.attempted;
        out.failed += p.failed;
        out.problems.extend(p.problems.iter().cloned());
    }
    out.correct = out.failed == 0 && out.problems.is_empty() && out.attempted > 0;
}

/// The costliest run configuration, in the units of `ns_per_event`:
/// each run's wall cost per event relative to its pass's average run,
/// median over passes, the highest of those, times `ns_per_event`.
/// Taking the ratio inside each pass cancels what slows a whole pass
/// (the host's speed drifts over seconds and minutes), and taking the
/// median per run first keeps one slow write or host hiccup from naming
/// the worst; a configuration going super-linear still raises it.
#[must_use]
fn worst_run_ns_per_event(passes: &[Pass], ns_per_event: f64) -> f64 {
    let runs = passes
        .iter()
        .map(|p| p.run_cost_ratio.len())
        .min()
        .unwrap_or(0);
    let worst_ratio = (0..runs)
        .map(|j| {
            median(
                &passes
                    .iter()
                    .map(|p| p.run_cost_ratio[j])
                    .collect::<Vec<_>>(),
            )
        })
        .fold(0.0, f64::max);
    worst_ratio * ns_per_event
}

/// What a pass's timings are multiplied by to scale them to the
/// reference speed.
#[derive(Debug, Clone, Copy)]
struct Scale {
    /// For wall timings: from the probe's wall time.
    wall: f64,
    /// For CPU timings: from the probe's CPU time.
    cpu: f64,
}

/// A pass is followed by probes for this fraction of its wall time.
const PROBE_SHARE: u64 = 20;

/// The probe's time after a pass that took `pass_ns`: the median of as
/// many probes as fit in [`PROBE_SHARE`]th of it, at least one. One probe
/// reading moves by half with the host's short spells; a workload of a
/// few long passes needs many readings per pass, one of many short passes
/// has its median over passes.
fn probe_after(workers: usize, pass_ns: u64) -> Result<ProbeTime, String> {
    let t = Instant::now();
    let mut readings = Vec::new();
    while readings.is_empty() || t.elapsed().as_nanos() < u128::from(pass_ns / PROBE_SHARE) {
        readings.push(host::probe(workers).map_err(|e| format!("host probe: {e}"))?);
    }
    Ok(ProbeTime {
        wall_ns: median(&readings.iter().map(|r| r.wall_ns).collect::<Vec<_>>()),
        cpu_ns: median(&readings.iter().map(|r| r.cpu_ns).collect::<Vec<_>>()),
    })
}

/// Steps of the probe taken between two set-ups, a few ms.
const SETUP_PROBE_STEPS: u64 = host::PROBE_STEPS / 8;

/// Times [`SETUPS`] set-ups of the workload, each in host seconds scaled
/// to the reference speed by the probes run on the same thread right
/// before and right after it: the host's speed moves within a batch.
fn time_setups(argv: &[String], tmp: &Path) -> Result<Vec<f64>, String> {
    let mut table = vec![1u64; host::PROBE_TABLE];
    let ref_ns = REF_PROBE_NS * SETUP_PROBE_STEPS as f64 / host::PROBE_STEPS as f64;
    let mut before = host::probe_here_ns(0, SETUP_PROBE_STEPS, &mut table);
    (0..SETUPS)
        .map(|k| {
            let dir = tmp.join(format!("setup-{k}"));
            let t = Instant::now();
            drop(set_up(argv, &dir, None)?);
            let secs = t.elapsed().as_secs_f64();
            checkpoint::disable_store();
            let _ = std::fs::remove_dir_all(&dir);
            let after = host::probe_here_ns(0, SETUP_PROBE_STEPS, &mut table);
            let scaled = secs * 2.0 * ref_ns / (before + after) as f64;
            before = after;
            Ok(scaled)
        })
        .collect()
}

/// The untraced run: whole passes until the time budget is spent, with a
/// batch of timed set-ups after the first, reported as medians over
/// passes (and set-ups), each timing scaled to the reference speed by
/// the host probes taken on either side of it.
///
/// # Errors
///
/// Fails when the workload cannot be set up or a host reading fails.
pub fn run_untraced(opts: &Options, argv: &[String]) -> Result<Outcome, String> {
    let tmp = TempDir::new(&opts.out_dir)?;
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // What a pass's wall and CPU timings are multiplied by to scale them
    // to the reference speed, from the probes taken before and after it.
    let scale = |before: ProbeTime, after: ProbeTime| Scale {
        wall: 2.0 * REF_PROBE_NS / (before.wall_ns + after.wall_ns),
        cpu: 2.0 * REF_PROBE_NS / (before.cpu_ns + after.cpu_ns),
    };
    let start = Instant::now();
    let mut probe = None;
    let mut setup_s = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut scales: Vec<Scale> = Vec::new();
    loop {
        let dir = tmp.path().join(format!("pass-{}", passes.len()));
        let mut pass = run_pass(argv, &dir, None)?;
        let _ = std::fs::remove_dir_all(&dir);
        // The first probe follows the first pass, whose peak memory is
        // that of the cold process: the probe's tables must not raise it.
        let after = probe_after(workers, pass.wall_ns)?;
        scales.push(scale(probe.unwrap_or(after), after));
        probe = Some(after);
        if passes.is_empty() {
            setup_s = time_setups(argv, tmp.path())?;
            probe = Some(probe_after(workers, pass.wall_ns)?);
        }
        // Only the traced run needs the reports; holding every pass's
        // would grow the process from pass to pass.
        pass.reports.clear();
        eprintln!(
            "scalebench: pass {}: wall {:.3} s, cpu {:.3} s, probe wall {:.2} ms cpu {:.2} ms, {} events, rss {:.1} MB, worst {}",
            passes.len(),
            pass.wall_ns as f64 / 1e9,
            pass.cpu_ns as f64 / 1e9,
            after.wall_ns / 1e6,
            after.cpu_ns / 1e6,
            pass.unique_events,
            pass.peak_rss as f64 / MB,
            pass.worst_run
        );
        passes.push(pass);
        // Start another pass only if one more, checks included, still
        // fits the time budget.
        let mean_pass = start.elapsed().as_secs_f64() / passes.len() as f64;
        if passes.len() >= MIN_PASSES
            && start.elapsed().as_secs_f64() + mean_pass > opts.seconds as f64
        {
            break;
        }
    }
    check_digests(opts, &mut passes);
    if opts.record {
        println!(
            "{} {} {} {:016x}",
            opts.workload.name(),
            opts.profile.name(),
            opts.seed,
            passes[0].digest
        );
    }
    let per_pass = |f: &dyn Fn(&Pass, &Scale) -> f64| {
        median(
            &passes
                .iter()
                .zip(&scales)
                .map(|(p, s)| f(p, s))
                .collect::<Vec<_>>(),
        )
    };
    let mut out = Outcome::default();
    tally(&passes, &mut out);
    let ok_ratio = if out.attempted == 0 {
        0.0
    } else {
        (out.attempted - out.failed) as f64 / out.attempted as f64
    };
    let ns_per_event = per_pass(&|p, s| p.cpu_ns as f64 * s.cpu / p.unique_events.max(1) as f64);
    let values = [
        per_pass(&|p, s| p.wall_ns as f64 * s.wall / 1e9),
        per_pass(&|p, s| p.cpu_ns as f64 * s.cpu / 1e9),
        ns_per_event,
        worst_run_ns_per_event(&passes, ns_per_event),
        median(&setup_s),
        // The cold process running the grid once: later passes reuse
        // memory the allocator kept, so their peaks drift with pass count.
        passes[0].peak_rss as f64 / MB,
        ok_ratio,
    ];
    out.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_owned(), v, unit.to_owned()))
        .collect();
    eprintln!(
        "scalebench: {} seed {}: {} passes, {} runs simulated per pass",
        opts.workload.name(),
        opts.seed,
        passes.len(),
        passes[0].unique_runs
    );
    Ok(out)
}

/// Parses the arguments and runs the requested mode.
///
/// # Errors
///
/// Fails on bad arguments, set-up failures and host-reading failures.
pub fn run(argv: &[String]) -> Result<Outcome, String> {
    let opts = parse_args(argv)?;
    if opts.trace {
        ledger::run_traced(&opts, argv)
    } else {
        run_untraced(&opts, argv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("wall_s".into(), 1.25, "s".into())],
            problems: vec![],
        };
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
