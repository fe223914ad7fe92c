//! `scalebench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints the run's metrics as one JSON object on the last line of
//! standard output. Exits 2 on a usage error and 1 when the workload
//! cannot run at all; a run whose outputs are wrong still exits 0 and
//! reports `"correct": false`.

use std::process::ExitCode;

fn main() -> ExitCode {
    // Every simulator knob read from the environment is cleared, so the
    // benchmark measures the default configuration; the sweep harness is
    // capped at one worker per available core.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SCALESIM_") {
            std::env::remove_var(&key);
        }
    }
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    std::env::set_var("SCALESIM_WORKERS", workers.to_string());

    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = scalebench::workload::parse_args(&argv) {
        eprintln!("scalebench: {e}\n{}", scalebench::workload::USAGE);
        return ExitCode::from(2);
    }
    match scalebench::run(&argv) {
        Ok(outcome) => {
            for p in &outcome.problems {
                eprintln!("scalebench: {p}");
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("scalebench: {e}");
            ExitCode::from(1)
        }
    }
}
