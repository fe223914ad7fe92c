//! Operation count, not a stopwatch: how many report fingerprints a
//! memoized, checkpointed sweep takes.
//!
//! A fingerprint hashes a report's whole `Debug` rendering (about a
//! megabyte for a traced run), so a second one per run is a measurable
//! serial cost. The sweep takes exactly one per fresh simulation — in
//! its worker, shared by the checkpoint record and the memo entry — and
//! exactly one per memo hit, to verify the entry. This file holds one
//! test so no other sweep in the process moves the counter.

use scalesim_experiments::{checkpoint, fingerprints_total, run_all, RunSpec};
use scalesim_trace::TraceConfig;
use scalesim_workloads::{sunflow, xalan};

fn stored_lines(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| std::fs::read_to_string(e.path()).unwrap().lines().count())
        .sum()
}

#[test]
fn a_checkpointed_sweep_fingerprints_each_run_once() {
    if std::env::var_os("SCALESIM_NO_MEMO").is_some_and(|v| v == "1") {
        return; // nothing is fingerprinted without the memo
    }
    let dir = std::env::temp_dir().join(format!("scalesim-fp-count-{}", std::process::id()));
    checkpoint::set_store(&dir).unwrap();

    let mut specs = vec![
        RunSpec::new(xalan().scaled(0.002), 2, 610),
        RunSpec::new(xalan().scaled(0.002), 4, 610),
        RunSpec::new(sunflow().scaled(0.002), 2, 610),
        RunSpec::new(sunflow().scaled(0.002), 3, 610),
    ];
    specs[0].config.trace = TraceConfig::on();
    let n = specs.len() as u64;

    // Cold: one fingerprint per simulation, and every run is persisted.
    let before = fingerprints_total();
    let cold = run_all(&specs);
    assert_eq!(fingerprints_total() - before, n, "cold sweep");
    assert_eq!(stored_lines(&dir), specs.len());

    // Warm: one verification per memo hit, no more, and nothing new on disk.
    let before = fingerprints_total();
    let warm = run_all(&specs);
    assert_eq!(fingerprints_total() - before, n, "memo hits");
    assert_eq!(stored_lines(&dir), specs.len());
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(format!("{c:?}"), format!("{w:?}"));
    }

    // Duplicates within one sweep simulate, and fingerprint, once.
    let fresh = RunSpec::new(xalan().scaled(0.002), 3, 611);
    let before = fingerprints_total();
    let _ = run_all(&[fresh.clone(), fresh.clone(), fresh]);
    assert_eq!(fingerprints_total() - before, 1, "deduplicated sweep");

    checkpoint::disable_store();
    let _ = std::fs::remove_dir_all(&dir);
}
