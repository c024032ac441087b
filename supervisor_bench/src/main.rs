//! End-to-end and per-layer benchmark of the FixD supervisor.
//!
//! ```text
//! cargo run --release --manifest-path supervisor_bench/Cargo.toml -- \
//!     --workload <matrix|chord_kv|heal|model_check> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures one workload with no tracing and prints its
//! end-to-end metrics. `--trace 1` runs the traced profile of every
//! workload (the time split between them) and prints the per-layer
//! metrics, each prefixed with the workload it describes. The last line
//! of standard output is one JSON object; the lines before it give the
//! same figures under each workload's own names, with sample counts.
//! The exit code is 0 only when every output check passed.

mod cells;
mod heal;
mod measure;
mod model_check;

use std::process::ExitCode;

use measure::{peak_rss_mb, Outcome, SetupClock, SETUP_QUANTILE, SETUP_REPS};

const WORKLOADS: [&str; 4] = ["matrix", "chord_kv", "heal", "model_check"];
/// Worker threads the program may use (model checking and the sharded
/// record); capped at the host's core count.
const MAX_WORKERS: usize = 2;
/// Share of `--seconds` each traced profile runs for (each runs at least
/// one round).
const TRACE_SHARES: [(&str, f64); 4] = [
    ("matrix", 0.2),
    ("chord_kv", 0.3),
    ("heal", 0.2),
    ("model_check", 0.3),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Every workload's inputs, built during set-up.
enum Inputs {
    Cells(cells::CellInputs),
    Heal(heal::HealInputs),
    Check(Box<model_check::CheckInputs>),
}

fn build_inputs(workload: &str, seed: u64, workers: usize) -> Inputs {
    match workload {
        "matrix" => Inputs::Cells(cells::matrix_inputs(seed)),
        "chord_kv" => Inputs::Cells(cells::chord_kv_inputs(seed)),
        "heal" => Inputs::Heal(heal::inputs(seed)),
        "model_check" => Inputs::Check(Box::new(model_check::inputs(seed, workers))),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// The untraced end-to-end run of one workload. Set-up is timed again
/// and again between the run's rate windows (see `SetupClock`).
fn run_untraced(args: &Args, workers: usize) -> Outcome {
    let secs = args.seconds as f64;
    let (wl, seed) = (args.workload, args.seed);
    let mut setup = SetupClock::new(
        || drop(std::hint::black_box(build_inputs(wl, seed, workers))),
        secs,
    );
    let inputs = build_inputs(wl, seed, workers);
    let mut out = {
        let mut between_windows = || setup.tick();
        match &inputs {
            Inputs::Cells(inp) => cells::measure(wl, inp, secs, &mut between_windows),
            Inputs::Heal(inp) => heal::measure(inp, secs, &mut between_windows),
            Inputs::Check(inp) => model_check::measure(inp, secs, &mut between_windows),
        }
    };
    let setup_s = setup.finish();
    out.metric("setup_s", setup_s, "s");
    out.note(format!(
        "{wl} setup_s {setup_s:.9} s (q{SETUP_QUANTILE} of {SETUP_REPS}, spread over the run)"
    ));
    let rss = peak_rss_mb().unwrap_or(f64::NAN);
    out.metric("peak_rss_mb", rss, "MB");
    out.note(format!("{wl} peak_rss_mb {rss:.1} MB"));
    out.note(format!(
        "{wl} failed_ratio {} ({}/{})",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    out
}

/// The traced run: every workload's per-layer profile.
fn run_traced(args: &Args, workers: usize) -> Outcome {
    let mut out = Outcome::default();
    for (wl, share) in TRACE_SHARES {
        let secs = args.seconds as f64 * share;
        let prof = match build_inputs(wl, args.seed, workers) {
            Inputs::Cells(inp) => {
                let shards = (wl == "chord_kv").then_some(workers);
                cells::profile(wl, &inp, secs, shards)
            }
            Inputs::Heal(inp) => heal::profile(&inp, secs),
            Inputs::Check(inp) => model_check::profile(&inp, secs),
        };
        out.absorb(wl, prof);
    }
    out
}

fn json_line(out: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            eprintln!("error: {why}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <1..600> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Ok(nproc) = std::thread::available_parallelism() else {
        eprintln!("error: cannot tell the host's core count; refusing to pick a worker count");
        return ExitCode::from(2);
    };
    let nproc = nproc.get();
    // Pinned here, never taken from FIXD_SHARDS / FIXD_CAMPAIGN_THREADS:
    // those are only recorded.
    let workers = MAX_WORKERS.min(nproc);
    let knob = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    println!(
        "host nproc={nproc} workers={workers} seed={} workload={} seconds={} trace={} \
         clients=1 FIXD_SHARDS={} FIXD_CAMPAIGN_THREADS={}",
        args.seed,
        args.workload,
        args.seconds,
        u8::from(args.trace),
        knob("FIXD_SHARDS"),
        knob("FIXD_CAMPAIGN_THREADS"),
    );

    let out = if args.trace {
        run_traced(&args, workers)
    } else {
        run_untraced(&args, workers)
    };
    for line in &out.notes {
        println!("{line}");
    }
    let finite = out.metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("FAILED: a metric is not a finite number");
    }
    let correct = out.failed == 0 && out.attempted > 0 && finite;
    if finite {
        println!("{}", json_line(&out, correct));
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
