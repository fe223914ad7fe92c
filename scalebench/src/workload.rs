//! The benchmark's workloads and one measured pass over a workload's run
//! grid.
//!
//! A pass is what a user of the simulator waits for: set up the workload
//! (models, configs, checkpoint store), drain the unique runs of its grids
//! in one sweep with at most `nproc` workers, render every artifact's tables
//! from the memo cache, and write them plus `manifest.jsonl`. After the
//! timed part, the pass digests every simulated output and checks each
//! run's outcome.

use std::path::{Path, PathBuf};
use std::time::Instant;

use scalesim_core::{report_to_json, JsonValue, RunReport, TraceConfig};
use scalesim_experiments::campaign::campaign_units;
use scalesim_experiments::{
    artifact_tables, checkpoint, clear_run_cache, run_all, take_run_manifests, take_sweep_failures,
    ExpParams, RunManifest, RunSpec,
};
use scalesim_trace::write_atomic;

use crate::host;
use crate::spans::{SpanId, Spans};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's six figure artifacts on the batch engine.
    PaperFigures,
    /// The `ext-server` grid under the transient GC-stall fault.
    ServerStorm,
    /// The `ext-locks` grid with timelines recorded and exported and
    /// every report checkpointed.
    LocksTraced,
}

/// How big a workload's grid is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// The measured configuration.
    Bench,
    /// A tiny configuration for the benchmark's own tests.
    Smoke,
}

impl Profile {
    /// The spelling used on the command line and in `digests.txt`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Profile::Bench => "bench",
            Profile::Smoke => "smoke",
        }
    }

    /// Parses [`Profile::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        [Profile::Bench, Profile::Smoke]
            .into_iter()
            .find(|p| p.name() == s)
    }
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperFigures,
        Workload::ServerStorm,
        Workload::LocksTraced,
    ];

    /// The workload's name in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFigures => "paper-figures",
            Workload::ServerStorm => "server-storm",
            Workload::LocksTraced => "locks-traced",
        }
    }

    /// Parses [`Workload::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The artifacts the workload renders, in order.
    #[must_use]
    pub fn artifacts(self) -> &'static [&'static str] {
        match self {
            Workload::PaperFigures => {
                &["workdist", "scaletable", "fig1a", "fig1c", "fig1d", "fig2"]
            }
            Workload::ServerStorm => &["ext-server"],
            Workload::LocksTraced => &["ext-locks"],
        }
    }

    /// Sweep parameters for each grid a pass runs at `seed`.
    ///
    /// `server-storm` runs its grid at four seeds derived from `seed`:
    /// how deep a retry storm gets, and so how much work a run is, varies
    /// from seed to seed far more than the other workloads' work does,
    /// and a pass over four seeds halves that variation's spread.
    #[must_use]
    pub fn grids(self, profile: Profile, seed: u64) -> Vec<ExpParams> {
        let seeds = match self {
            Workload::ServerStorm => 4,
            Workload::PaperFigures | Workload::LocksTraced => 1,
        };
        (0..seeds)
            .map(|k| self.params(profile, seed.wrapping_add(k * 1_000_003)))
            .collect()
    }

    fn params(self, profile: Profile, seed: u64) -> ExpParams {
        let (scale, threads) = match (self, profile) {
            (Workload::PaperFigures, Profile::Bench) => (0.25, vec![4, 8, 16, 32, 48]),
            (Workload::ServerStorm, Profile::Bench) => (0.05, vec![4, 8]),
            (Workload::LocksTraced, Profile::Bench) => (0.05, vec![4, 8, 16, 32, 48]),
            (Workload::PaperFigures | Workload::LocksTraced, Profile::Smoke) => (0.01, vec![4, 16]),
            (Workload::ServerStorm, Profile::Smoke) => (0.01, vec![4]),
        };
        ExpParams {
            scale,
            seed,
            thread_counts: threads,
        }
    }

    /// Whether every run records and exports its timeline.
    #[must_use]
    pub fn records_timelines(self) -> bool {
        self == Workload::LocksTraced
    }
}

/// What the command line asked for; re-parsed on every set-up so that
/// argument parsing is part of the measured set-up time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement time budget.
    pub seconds: u64,
    /// Run the traced (per-layer) mode.
    pub trace: bool,
    /// Grid size.
    pub profile: Profile,
    /// Where spans and temporary files go.
    pub out_dir: PathBuf,
    /// Print the seed's output digest instead of checking it.
    pub record: bool,
}

/// Usage text for errors.
pub const USAGE: &str = "usage: scalebench --workload <paper-figures|server-storm|locks-traced> \
--seed <n> --seconds <n> --trace <0|1> [--profile bench|smoke] [--out-dir DIR] [--record]";

/// Parses the command line (without the program name).
///
/// # Errors
///
/// Describes the first missing or malformed argument.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut profile = Profile::Bench;
    let mut out_dir = PathBuf::from(".bench_build/scalebench");
    let mut record = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            "--profile" => {
                profile =
                    Profile::parse(value).ok_or_else(|| format!("unknown profile {value}"))?;
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        profile,
        out_dir,
        record,
    })
}

/// A set-up workload: its parameters and the unique runs of its grid.
#[derive(Debug)]
pub struct Setup {
    /// The parsed command line.
    pub opts: Options,
    /// Sweep parameters of each grid, in order.
    pub grids: Vec<ExpParams>,
    /// The grid's unique runs, in first-occurrence artifact order. For
    /// `locks-traced` these carry the per-run timeline export path and
    /// are what the pass executes.
    pub specs: Vec<RunSpec>,
}

/// Sets the workload up: parses the arguments, builds every app model
/// and run configuration of the grid, and (for `locks-traced`) opens a
/// fresh checkpoint store under `dir`.
///
/// # Errors
///
/// Propagates argument, configuration and store errors.
pub(crate) fn set_up(
    argv: &[String],
    dir: &Path,
    spans: Option<(&Spans, SpanId)>,
) -> Result<Setup, String> {
    let timed = |name: &str, f: &mut dyn FnMut() -> Result<(), String>| match spans {
        Some((s, parent)) => s.span(Some(parent), None, name, |_| f()),
        None => f(),
    };
    let mut opts = None;
    timed("bench.parse_args", &mut || {
        opts = Some(parse_args(argv)?);
        Ok(())
    })?;
    let opts = opts.expect("parsed above");
    let grids = opts.workload.grids(opts.profile, opts.seed);
    let mut specs: Vec<RunSpec> = Vec::new();
    timed("workloads.build", &mut || {
        let mut seen = std::collections::HashSet::new();
        for params in &grids {
            for artifact in opts.workload.artifacts() {
                let units = campaign_units(artifact, params)
                    .ok_or_else(|| format!("{artifact} has no run grid"))?
                    .map_err(|e| format!("{artifact}: {e}"))?;
                for spec in units {
                    if seen.insert(spec.memo_key()) {
                        specs.push(spec);
                    }
                }
            }
        }
        Ok(())
    })?;
    if opts.workload.records_timelines() {
        timed("experiments.open_store", &mut || {
            for (i, spec) in specs.iter_mut().enumerate() {
                let path = dir.join("traces").join(format!("run-{i:03}.json"));
                spec.config.trace = TraceConfig::on().with_path(path.display().to_string());
            }
            checkpoint::set_store(&dir.join("checkpoint"))
                .map_err(|e| format!("checkpoint store: {e}"))
        })?;
    }
    Ok(Setup { opts, grids, specs })
}

/// What one pass measured and found.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host ns from the start of set-up to the last table written.
    pub wall_ns: u64,
    /// Process CPU ns over the same interval.
    pub cpu_ns: u64,
    /// Simulated events of the runs the pass actually simulated.
    pub unique_events: u64,
    /// Runs the pass actually simulated (memo misses).
    pub unique_runs: u64,
    /// Peak resident bytes of the process so far, read at the end of the
    /// pass's timed part.
    pub peak_rss: u64,
    /// Host wall ns per simulated event of each run the pass simulated,
    /// divided by the same figure over all of them, in sweep order (the
    /// same order in every pass of a workload): how much costlier per
    /// event each run is than the pass's average run.
    pub run_cost_ratio: Vec<f64>,
    /// The run with the highest ns per event, and that figure.
    pub worst_run: String,
    /// Runs requested in the pass (memo hits included).
    pub attempted: u64,
    /// Requested runs that failed (see [`Pass::problems`]).
    pub failed: u64,
    /// FNV-1a digest of every simulated output of the pass.
    pub digest: u64,
    /// Why runs failed; empty on a clean pass.
    pub problems: Vec<String>,
    /// The unique runs (from [`Setup::specs`]).
    pub specs: Vec<RunSpec>,
    /// Their reports, served from the memo cache after the timed part.
    pub reports: Vec<RunReport>,
}

/// 64-bit FNV-1a, stable across platforms and toolchains.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds bytes, followed by a separator so that concatenations of
    /// different splits digest differently.
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A report as JSON with its host timing zeroed: the deterministic,
/// simulated content of a run.
#[must_use]
pub fn simulated_json(report: &RunReport) -> String {
    let mut json = report_to_json(report);
    if let JsonValue::Obj(pairs) = &mut json {
        for (_, value) in pairs.iter_mut().filter(|(k, _)| k == "host_ns") {
            *value = JsonValue::U64(0);
        }
    }
    json.to_string()
}

/// A manifest line with its host timing zeroed.
#[must_use]
pub fn simulated_manifest_line(m: &RunManifest) -> String {
    let mut m = m.clone();
    m.host_ns = 0;
    m.to_json_line()
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs one pass of `opts.workload` in `dir` (created, and left for the
/// caller to remove). With `spans`, every call into a layer is wrapped
/// in a span under `parent`.
///
/// # Errors
///
/// Fails on set-up errors or when a host reading or an output write
/// fails; failed runs are reported in the returned [`Pass`] instead.
pub(crate) fn run_pass(
    argv: &[String],
    dir: &Path,
    spans: Option<(&Spans, SpanId)>,
) -> Result<Pass, String> {
    clear_run_cache();
    drop(take_run_manifests());
    drop(take_sweep_failures());
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let span = |name: &str, f: &mut dyn FnMut() -> Result<(), String>| match spans {
        Some((s, parent)) => s.span(Some(parent), None, name, |_| f()),
        None => f(),
    };

    let cpu0 = host::process_cpu_ns().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let setup = match spans {
        Some((s, parent)) => s.span(Some(parent), None, "bench.setup", |id| {
            set_up(argv, dir, Some((s, id)))
        })?,
        None => set_up(argv, dir, None)?,
    };
    let opts = setup.opts.clone();

    // One sweep drains every unique run of the pass's grids; the artifacts
    // then render their tables from the memo cache.
    let mut reports = Vec::new();
    span("experiments.run_all", &mut || {
        reports = run_all(&setup.specs);
        Ok(())
    })?;
    let mut outputs: Vec<(String, String)> = Vec::new();
    if !opts.workload.records_timelines() {
        for (k, params) in setup.grids.iter().enumerate() {
            // The first grid's tables keep the plain CLI file names.
            let prefix = if k == 0 {
                String::new()
            } else {
                format!("seed-{}-", params.seed)
            };
            for artifact in opts.workload.artifacts() {
                span(&format!("experiments.artifact.{artifact}"), &mut || {
                    let tables = artifact_tables(artifact, params)
                        .ok_or_else(|| format!("unknown artifact {artifact}"))?
                        .map_err(|e| format!("{artifact}: {e}"))?;
                    for t in tables {
                        outputs.push((format!("{prefix}{}.csv", t.name), t.table.to_csv()));
                    }
                    Ok(())
                })?;
            }
        }
        span("experiments.write_tables", &mut || {
            for (name, csv) in &outputs {
                write_atomic(&dir.join(name), csv).map_err(|e| format!("{name}: {e}"))?;
            }
            Ok(())
        })?;
    }
    let manifests = take_run_manifests();
    span("experiments.manifest", &mut || {
        let mut body = String::new();
        for m in &manifests {
            body.push_str(&m.to_json_line());
            body.push('\n');
        }
        write_atomic(&dir.join("manifest.jsonl"), body).map_err(|e| format!("manifest: {e}"))
    })?;
    let wall_ns = elapsed_ns(t0);
    let cpu_ns = host::process_cpu_ns().map_err(|e| e.to_string())? - cpu0;
    let peak_rss = host::peak_rss_bytes().map_err(|e| e.to_string())?;
    checkpoint::disable_store();

    let timing = Timing {
        wall_ns,
        cpu_ns,
        peak_rss,
    };
    check_pass(&opts, dir, setup, manifests, outputs, reports, timing)
}

/// The host readings of a pass's timed part.
struct Timing {
    wall_ns: u64,
    cpu_ns: u64,
    peak_rss: u64,
}

/// The untimed part of a pass: digest and outcome checks.
fn check_pass(
    opts: &Options,
    dir: &Path,
    setup: Setup,
    manifests: Vec<RunManifest>,
    outputs: Vec<(String, String)>,
    reports: Vec<RunReport>,
    timing: Timing,
) -> Result<Pass, String> {
    let mut problems: Vec<String> = take_sweep_failures()
        .iter()
        .map(ToString::to_string)
        .collect();
    let mut failed = 0u64;
    let mut unique_events = 0u64;
    let mut unique_runs = 0u64;
    let mut worst = 0.0f64;
    let mut worst_run = String::new();
    let mut run_ns_per_event = Vec::new();
    let mut runs_host_ns = 0u64;
    for m in &manifests {
        if m.outcome != "ok" || m.degraded {
            failed += 1;
            problems.push(format!(
                "{} threads={}: outcome {} {}",
                m.app, m.threads, m.outcome, m.detail
            ));
        }
        if m.memo != "hit" {
            unique_runs += 1;
            unique_events += m.events;
            runs_host_ns += m.host_ns;
            let per_event = m.host_ns as f64 / m.events.max(1) as f64;
            run_ns_per_event.push(per_event);
            if per_event > worst {
                worst = per_event;
                worst_run = format!(
                    "{} {} threads={}: {per_event:.0} ns/event",
                    m.app, m.policy, m.threads
                );
            }
        }
    }

    // Every artifact's run request must be a memo hit, which proves the
    // set-up grid is exactly what the artifacts ran.
    let misses = manifests
        .iter()
        .skip(setup.specs.len())
        .filter(|m| m.memo != "hit")
        .count();
    if misses > 0 {
        problems.push(format!(
            "{misses} artifact runs were not in the set-up grid"
        ));
    }
    for r in &reports {
        if let Some(s) = &r.server {
            if !s.conserves() {
                problems.push(format!(
                    "{} threads={}: server attempts not conserved",
                    r.app, r.threads
                ));
            }
        }
    }

    let mut fnv = Fnv::default();
    for (name, body) in &outputs {
        fnv.feed(name.as_bytes());
        fnv.feed(body.as_bytes());
    }
    for m in &manifests {
        fnv.feed(simulated_manifest_line(m).as_bytes());
    }
    if opts.workload.records_timelines() {
        for (i, r) in reports.iter().enumerate() {
            fnv.feed(simulated_json(r).as_bytes());
            let path = dir.join("traces").join(format!("run-{i:03}.json"));
            let exported = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            fnv.feed(&exported);
        }
        let stored = checkpoint_records(&dir.join("checkpoint"));
        if stored != reports.len() {
            problems.push(format!(
                "checkpoint store holds {stored} records, expected {}",
                reports.len()
            ));
        }
    }
    if !problems.is_empty() && failed == 0 {
        // A problem not tied to one run's outcome taints the whole pass.
        failed = manifests.len() as u64;
    }
    Ok(Pass {
        wall_ns: timing.wall_ns,
        cpu_ns: timing.cpu_ns,
        peak_rss: timing.peak_rss,
        unique_events,
        unique_runs,
        run_cost_ratio: run_ns_per_event
            .iter()
            .map(|x| x * unique_events.max(1) as f64 / runs_host_ns.max(1) as f64)
            .collect(),
        worst_run,
        attempted: manifests.len() as u64,
        failed,
        digest: fnv.finish(),
        problems,
        specs: setup.specs,
        reports,
    })
}

/// Records across the store's sealed segments and tail.
fn checkpoint_records(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".jsonl"))
        .filter_map(|e| std::fs::read_to_string(e.path()).ok())
        .map(|text| text.lines().filter(|l| !l.is_empty()).count())
        .sum()
}

/// Recorded output digests, one `workload profile seed hex` per line.
const DIGESTS: &str = include_str!("../digests.txt");

/// The recorded digest of `workload` at `seed`, if one was recorded.
#[must_use]
pub fn recorded_digest(workload: Workload, profile: Profile, seed: u64) -> Option<u64> {
    DIGESTS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                [w, p, s, hex]
                    if *w == workload.name()
                        && *p == profile.name()
                        && s.parse::<u64>().ok() == Some(seed) =>
                {
                    u64::from_str_radix(hex, 16).ok()
                }
                _ => None,
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let o = parse_args(&argv(
            "--workload server-storm --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, Workload::ServerStorm);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10, true));
        assert_eq!(o.profile, Profile::Bench);
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload locks-traced --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload locks-traced --seconds 1 --trace 0")).is_err());
    }

    #[test]
    fn digest_separates_fields() {
        let mut a = Fnv::default();
        a.feed(b"ab");
        a.feed(b"c");
        let mut b = Fnv::default();
        b.feed(b"a");
        b.feed(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn every_workload_has_recorded_digests() {
        for w in Workload::ALL {
            for seed in [crate::PINNED_SEED, crate::HELD_OUT_SEED] {
                assert!(
                    recorded_digest(w, Profile::Bench, seed).is_some(),
                    "{} {seed}",
                    w.name()
                );
            }
            assert!(recorded_digest(w, Profile::Smoke, crate::PINNED_SEED).is_some());
        }
    }
}
