//! `decisive-bench`: runs one workload of the benchmark, all of them, or
//! compares two sets of recorded runs.
//!
//! ```text
//! decisive-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! decisive-bench --seed <n> [--seconds <s>] [--trace <0|1>]      # every workload
//! decisive-bench compare <parent-runs.jsonl> <change-runs.jsonl> [--claim metric@workload]...
//! ```
//!
//! A workload run prints one JSON result as its last line of standard
//! output and appends its run record to `e2ebench/out/runs.jsonl`.

use std::path::PathBuf;
use std::process::ExitCode;

use decisive::federation::Value;
use decisive_e2ebench::workloads::{self, Ctx};
use decisive_e2ebench::{compare, proc};

/// Where runs write their records, traces and scratch files.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].as_str())
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name} wants a number, got `{v}`")),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Runs one workload and prints its result line.
fn run_one(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<bool, String> {
    let exe = proc::decisive_exe()?;
    let out = out_dir();
    let work = out.join(format!("work-{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let trace_path = out.join(format!("trace-{workload}-seed{seed}.json"));
    let ctx = Ctx { exe, seed, seconds, work: work.clone(), trace_path };
    let result = workloads::run(workload, &ctx, traced);
    let _ = std::fs::remove_dir_all(&work);
    let mut report = result?;
    if !traced {
        report.set("peak_rss_mb", proc::children_usage().peak_rss_mb);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let record = report.record_line(
        vec![
            ("workload", Value::from(workload)),
            ("seed", Value::Int(seed as i64)),
            ("seconds", Value::Real(seconds)),
            ("trace", Value::Bool(traced)),
            ("cores", Value::Int(cores as i64)),
            ("cpu", Value::from(cpu_model().as_str())),
        ],
        traced,
    );
    let runs = out.join("runs.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&runs)
        .and_then(|mut f| std::io::Write::write_all(&mut f, format!("{record}\n").as_bytes()));
    if let Err(e) = appended {
        eprintln!("# warning: {}: {e}", runs.display());
    }
    println!("{}", report.result_line(traced));
    Ok(report.failed == 0)
}

/// Runs every workload, each in its own process so that each one's peak
/// child RSS is its own.
fn run_all(args: &[String]) -> Result<bool, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for workload in workloads::NAMES {
        eprintln!("# workload {workload}");
        let status = std::process::Command::new(&me)
            .args(["--workload", workload])
            .args(args)
            .status()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main_inner(args: &[String]) -> Result<bool, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let files: Vec<&String> = args[1..].iter().filter(|a| !a.starts_with("--")).collect();
        let claims: Vec<String> =
            args.windows(2).filter(|w| w[0] == "--claim").map(|w| w[1].clone()).collect();
        let files: Vec<&String> = files.into_iter().filter(|f| !claims.contains(f)).collect();
        let [parent, change] = files[..] else {
            return Err(
                "usage: compare <parent-runs.jsonl> <change-runs.jsonl> [--claim metric@workload]"
                    .into(),
            );
        };
        let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        let benchmark = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let benchmark = read(&benchmark.to_string_lossy())?;
        let (text, pass) = compare::run(&benchmark, &read(parent)?, &read(change)?, &claims)?;
        print!("{text}");
        return Ok(pass);
    }
    let seed = parsed(args, "--seed", 1u64)?;
    let seconds = parsed(args, "--seconds", 20.0f64)?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds wants a positive number".into());
    }
    let traced = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
    };
    match flag(args, "--workload") {
        Some(workload) => run_one(workload, seed, seconds, traced),
        None => run_all(args),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
