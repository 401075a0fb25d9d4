//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```sh
//! perfbench --sls-serve PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each exists):
//!
//! * `serve_wide` — one keep-alive connection straight to `sls-serve serve`,
//!   64 × 256 rows per request, alternating `/features` and `/assign`;
//! * `serve_routed` — one keep-alive connection through `sls-serve route`
//!   to two replicas, 1 × 256 rows, a fan-out reload every 500th operation;
//! * `retrain` — `sls-serve retrain` on a 4096 × 256 CSV;
//! * `export` — `sls-serve export --model sls-rbm --instances 768`.
//!
//! With `--trace 0` the run measures the shipped binaries from outside and
//! reports the end-to-end metrics; with `--trace 1` it replays the same
//! inputs through the library's public entry points, records a span around
//! each layer call and reports per-layer metrics. Either way the last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The process exits non-zero when any output fails verification.

mod client;
mod host;
mod procs;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;

/// Error type of the whole benchmark: every failure ends the run.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Command-line settings of one run.
pub struct Settings {
    /// The `sls-serve` binary under test.
    pub sls_serve: PathBuf,
    /// Workload name.
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Scratch directory for this run's inputs and outputs.
    pub work: PathBuf,
}

const USAGE: &str =
    "usage: perfbench --sls-serve PATH --workload serve_wide|serve_routed|retrain|export \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Res<Settings> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Res<String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}\n{USAGE}"))?;
        Ok(args
            .get(at + 1)
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?
            .clone())
    };
    let sls_serve = PathBuf::from(get("--sls-serve")?);
    let workload = get("--workload")?;
    let seed: u64 = get("--seed")?.parse()?;
    let seconds: f64 = get("--seconds")?.parse()?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`").into()),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let work = PathBuf::from(".bench_build")
        .join("perfbench-work")
        .join(format!("{workload}-{seed}-{}", u8::from(trace)));
    if work.exists() {
        std::fs::remove_dir_all(&work)?;
    }
    std::fs::create_dir_all(&work)?;
    Ok(Settings {
        sls_serve,
        workload,
        seed,
        seconds,
        trace,
        work,
    })
}

fn run(settings: &Settings) -> Res<Outcome> {
    if !settings.sls_serve.is_file() {
        return Err(format!("no sls-serve binary at {}", settings.sls_serve.display()).into());
    }
    let machine = host::MachineRecord::start();
    let mut outcome = match settings.workload.as_str() {
        "serve_wide" => serve::run(settings, serve::Shape::Wide)?,
        "serve_routed" => serve::run(settings, serve::Shape::Routed)?,
        "retrain" => train::run(settings, train::Job::Retrain)?,
        "export" => train::run(settings, train::Job::Export)?,
        other => return Err(format!("unknown workload `{other}`\n{USAGE}").into()),
    };
    if settings.trace {
        outcome.complete_layers();
    }
    println!("machine {}", machine.finish().to_json());
    Ok(outcome)
}

fn main() -> ExitCode {
    let settings = match parse_args() {
        Ok(settings) => settings,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&settings) {
        Ok(outcome) => {
            let ok = outcome.correct();
            outcome.print();
            // Inputs and outputs are regenerated from the seed on every run.
            std::fs::remove_dir_all(&settings.work).ok();
            if ok {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: verification failed; see the report above");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
