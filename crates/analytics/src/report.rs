//! The per-sweep analytics artifact: deterministic JSON + text report.
//!
//! `analytics.json` travels through the same lossless [`JsonValue`]
//! writer the checkpoint layer uses and contains no floats — every
//! real-valued quantity is a fixed-precision (6-digit) decimal string,
//! making the artifact byte-identical across live runs, checkpoint
//! resumes and campaign merges (none of its inputs read `host_ns`).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use scalesim_core::JsonValue;
use scalesim_metrics::{fmt2, fmt_pct, Table};

use crate::attribution::{Percentiles, TimeProfile};
use crate::usl::{UslClass, UslFit};

/// Schema version of `analytics.json`.
pub const ANALYTICS_VERSION: u64 = 1;

/// Everything the analytics pass derives for one workload's sweep row.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadAnalysis {
    /// Application name.
    pub app: String,
    /// The paper's a-priori label (`"scalable"` / `"non-scalable"`).
    pub expected: String,
    /// `(threads, throughput items/s)` per sweep point; quarantined
    /// cells carry zero throughput and are skipped by the fitter.
    pub points: Vec<(usize, f64)>,
    /// The fitted USL parameters (`None` when no cell completed).
    pub fit: Option<UslFit>,
    /// Automatic classification of the fitted curve.
    pub class: Option<UslClass>,
    /// Time attribution at the largest completed thread count.
    pub profile: TimeProfile,
    /// Monitor-hold duration percentiles (ns) at that point.
    pub hold: Percentiles,
    /// Lock-acquisition wait percentiles (ns) at that point.
    pub wait: Percentiles,
}

impl WorkloadAnalysis {
    /// Whether the USL classification agrees with the paper's label.
    #[must_use]
    pub fn matches_paper(&self) -> bool {
        self.class
            .is_some_and(|c| c.matches_expected(&self.expected))
    }
}

/// The full analytics artifact for one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticsReport {
    /// Sweep seed.
    pub seed: u64,
    /// Thread counts of the sweep grid.
    pub threads: Vec<usize>,
    /// One analysis per workload, in sweep order.
    pub workloads: Vec<WorkloadAnalysis>,
}

impl AnalyticsReport {
    /// Whether every workload's USL class matches the paper's split.
    #[must_use]
    pub fn all_match_paper(&self) -> bool {
        self.workloads.iter().all(WorkloadAnalysis::matches_paper)
    }

    /// The artifact as a JSON value (without the fingerprint field).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("v", JsonValue::U64(ANALYTICS_VERSION)),
            ("seed", JsonValue::U64(self.seed)),
            (
                "threads",
                JsonValue::Arr(
                    self.threads
                        .iter()
                        .map(|&t| JsonValue::U64(t as u64))
                        .collect(),
                ),
            ),
            (
                "workloads",
                JsonValue::Arr(self.workloads.iter().map(workload_to_json).collect()),
            ),
            ("all_match_paper", JsonValue::Bool(self.all_match_paper())),
        ])
    }

    /// Deterministic fingerprint over the fingerprint-less JSON text.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.to_json().to_string().hash(&mut h);
        h.finish()
    }

    /// The serialized artifact: the JSON object with its own
    /// fingerprint spliced in as the last key.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut v = self.to_json();
        if let JsonValue::Obj(pairs) = &mut v {
            pairs.push((
                "fingerprint".to_owned(),
                JsonValue::Str(format!("{:016x}", self.fingerprint())),
            ));
        }
        format!("{v}\n")
    }

    /// Renders the human-readable text report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut usl = Table::new(vec![
            "app", "expected", "class", "lambda", "sigma", "kappa", "peak n*", "collapse", "rms",
        ]);
        for w in &self.workloads {
            let (class, fit) = (w.class, w.fit);
            let cells = match fit {
                Some(f) => vec![
                    w.app.clone(),
                    w.expected.clone(),
                    class.map_or("-", UslClass::label).to_owned(),
                    fmt2(f.lambda),
                    format!("{:.4}", f.sigma),
                    format!("{:.5}", f.kappa),
                    fmt_inf(f.peak_concurrency()),
                    fmt_inf(f.collapse_point()),
                    format!("{:.4}", f.rms_residual),
                ],
                None => {
                    let mut c = vec![w.app.clone(), w.expected.clone()];
                    c.extend(std::iter::repeat_n("-".to_owned(), 7));
                    c
                }
            };
            usl.row(cells);
        }
        let mut attr = Table::new(vec![
            "app",
            "threads",
            "mutator",
            "gc",
            "lock wait",
            "hold p50/p95/p99/p999",
            "wait p50/p95/p99/p999",
        ]);
        for w in &self.workloads {
            attr.row(vec![
                w.app.clone(),
                w.profile.threads.to_string(),
                fmt_pct(1.0 - w.profile.gc_share()),
                fmt_pct(w.profile.gc_share()),
                fmt_pct(w.profile.lock_share()),
                fmt_pcts(&w.hold),
                fmt_pcts(&w.wait),
            ]);
        }
        format!(
            "USL fit per workload (seed {}, threads {:?}):\n{}\n\
             Time attribution at the top of the sweep:\n{}\n\
             paper split reproduced: {}\n",
            self.seed,
            self.threads,
            usl,
            attr,
            self.all_match_paper()
        )
    }
}

fn workload_to_json(w: &WorkloadAnalysis) -> JsonValue {
    let points = w
        .points
        .iter()
        .map(|&(t, x)| JsonValue::Arr(vec![JsonValue::U64(t as u64), f(x)]))
        .collect();
    let usl = match &w.fit {
        Some(fit) => JsonValue::obj([
            ("lambda", f(fit.lambda)),
            ("sigma", f(fit.sigma)),
            ("kappa", f(fit.kappa)),
            ("peak_concurrency", f(fit.peak_concurrency())),
            ("collapse_point", f(fit.collapse_point())),
            ("rms_residual", f(fit.rms_residual)),
        ]),
        None => JsonValue::obj([]),
    };
    let p = &w.profile;
    JsonValue::obj([
        ("app", JsonValue::Str(w.app.clone())),
        ("expected", JsonValue::Str(w.expected.clone())),
        (
            "class",
            JsonValue::Str(w.class.map_or("unclassified", UslClass::label).to_owned()),
        ),
        ("points", JsonValue::Arr(points)),
        ("usl", usl),
        (
            "attribution",
            JsonValue::obj([
                ("threads", JsonValue::U64(p.threads as u64)),
                ("running_ns", JsonValue::U64(p.running_ns)),
                ("runnable_wait_ns", JsonValue::U64(p.runnable_wait_ns)),
                ("lock_blocked_ns", JsonValue::U64(p.lock_blocked_ns)),
                ("condition_wait_ns", JsonValue::U64(p.condition_wait_ns)),
                ("gc_paused_ns", JsonValue::U64(p.gc_paused_ns)),
                ("wall_ns", JsonValue::U64(p.wall_ns)),
                ("mutator_wall_ns", JsonValue::U64(p.mutator_wall_ns)),
                ("gc_wall_ns", JsonValue::U64(p.gc_wall_ns)),
                ("gc_share", f(p.gc_share())),
                ("lock_share", f(p.lock_share())),
            ]),
        ),
        ("hold_ns", pcts_to_json(&w.hold)),
        ("wait_ns", pcts_to_json(&w.wait)),
        ("matches_paper", JsonValue::Bool(w.matches_paper())),
    ])
}

fn pcts_to_json(p: &Percentiles) -> JsonValue {
    JsonValue::obj([
        ("count", JsonValue::U64(p.count)),
        ("p50", JsonValue::U64(p.p50)),
        ("p95", JsonValue::U64(p.p95)),
        ("p99", JsonValue::U64(p.p99)),
        ("p999", JsonValue::U64(p.p999)),
    ])
}

/// Real values travel as fixed-precision decimal strings, not JSON
/// numbers: 6 digits is reproducible exactly wherever the same f64 bits
/// arrive.
fn f(x: f64) -> JsonValue {
    JsonValue::Str(fmt_f64(x))
}

fn fmt_f64(x: f64) -> String {
    if x.is_infinite() {
        "inf".to_owned()
    } else {
        format!("{x:.6}")
    }
}

fn fmt_inf(x: f64) -> String {
    if x.is_infinite() {
        "inf".to_owned()
    } else {
        fmt2(x)
    }
}

fn fmt_pcts(p: &Percentiles) -> String {
    format!("{}/{}/{}/{}", p.p50, p.p95, p.p99, p.p999)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::usl::fit_usl;

    fn sample() -> AnalyticsReport {
        let points = vec![(4, 380.0), (16, 1100.0), (48, 2100.0)];
        let float_pts: Vec<(f64, f64)> = points.iter().map(|&(t, x)| (t as f64, x)).collect();
        let fit = fit_usl(&float_pts);
        let class = fit.map(|fk| fk.classify(4.0, 48.0));
        AnalyticsReport {
            seed: 42,
            threads: vec![4, 16, 48],
            workloads: vec![WorkloadAnalysis {
                app: "sunflow".to_owned(),
                expected: "scalable".to_owned(),
                points,
                fit,
                class,
                profile: TimeProfile {
                    threads: 48,
                    running_ns: 1000,
                    runnable_wait_ns: 100,
                    lock_blocked_ns: 50,
                    condition_wait_ns: 25,
                    gc_paused_ns: 25,
                    wall_ns: 2000,
                    mutator_wall_ns: 1900,
                    gc_wall_ns: 100,
                },
                hold: Percentiles {
                    count: 10,
                    p50: 127,
                    p95: 255,
                    p99: 511,
                    p999: 511,
                },
                wait: Percentiles::default(),
            }],
        }
    }

    #[test]
    fn json_is_stable_and_parseable() {
        let r = sample();
        let text = r.to_json_string();
        assert_eq!(text, r.to_json_string(), "serialization is deterministic");
        let v = JsonValue::parse(text.trim_end()).expect("valid json");
        assert_eq!(v.get("v").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(v.get("seed").and_then(JsonValue::as_u64), Some(42));
        let fp = v.get("fingerprint").and_then(JsonValue::as_str).unwrap();
        assert_eq!(fp.len(), 16);
        assert_eq!(fp, format!("{:016x}", r.fingerprint()));
        let w = &v.get("workloads").unwrap().as_arr().unwrap()[0];
        assert_eq!(w.get("app").and_then(JsonValue::as_str), Some("sunflow"));
        assert!(w.get("usl").unwrap().get("sigma").is_some());
        assert_eq!(
            w.get("hold_ns")
                .unwrap()
                .get("p99")
                .and_then(JsonValue::as_u64),
            Some(511)
        );
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = sample();
        let mut b = sample();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.workloads[0].hold.p99 = 1023;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn render_mentions_every_workload_and_split() {
        let text = sample().render();
        assert!(text.contains("sunflow"), "{text}");
        assert!(text.contains("sigma"), "{text}");
        assert!(text.contains("paper split reproduced"), "{text}");
    }

    #[test]
    fn missing_fit_serializes_as_unclassified() {
        let mut r = sample();
        r.workloads[0].fit = None;
        r.workloads[0].class = None;
        let text = r.to_json_string();
        let v = JsonValue::parse(text.trim_end()).expect("valid json");
        let w = &v.get("workloads").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            w.get("class").and_then(JsonValue::as_str),
            Some("unclassified")
        );
        assert!(!r.all_match_paper());
        assert!(r.render().contains('-'));
    }
}
