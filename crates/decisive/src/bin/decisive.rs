//! `decisive` — command-line front end to the toolchain: validate, analyse
//! and render SSAM models persisted as JSON. The analysis verbs
//! (`analyze`, `pipeline`, `montecarlo`, `recommend`) run through
//! `Engine::execute`.
//!
//! ```text
//! decisive demo model.json                 # write the case-study model
//! decisive validate model.json             # SSAM well-formedness report
//! decisive analyze model.json --csv out.csv  # automated FMEA (Algorithm 1), cached
//! decisive analyze design.bd --strict      # fault-injection campaign (.bd)
//! decisive pipeline design.bd --cache .dc  # full pass pipeline (FMEA → FTA → HARA → assurance)
//! decisive montecarlo design.bd --trials 256 --seed 7  # stochastic campaign: mean + 95% CI metrics
//! decisive recommend design.bd             # safety-pattern recommendations for uncovered modes
//! decisive passes design.bd --cache .dc    # pass DAG with per-pass cache status
//! decisive rerun old.json new.json --cache .dc  # diff-driven re-analysis
//! decisive spfm table.json                 # metrics of a saved FMEA table
//! decisive render model.json [--dot]       # ASCII tree or Graphviz DOT
//! decisive monitor model.json              # generated runtime checks
//! decisive serve --cache .dc               # daemon: line-JSON requests on stdin/stdout
//! decisive serve --socket /tmp/d.sock      # daemon on a unix socket (concurrent sessions)
//! decisive serve --watch design.bd         # re-run the pipeline on every file change
//! ```
//!
//! Observability: `analyze`, `pipeline` and `rerun` accept
//! `--trace-out <path>` (chrome://tracing JSON, load it in Perfetto) and
//! `--metrics` (one `OBS_metrics {...}` summary line); `analyze`,
//! `pipeline` and `passes` accept `--format {text,json}` for a single
//! machine-readable document instead of the text rendering.
//!
//! Exit codes: `0` success, `1` analysis or I/O failure, `2` bad usage
//! (unknown command, unknown flag, missing argument).

use std::process::ExitCode;
use std::sync::Arc;

use decisive::core::monitor::RuntimeMonitor;
use decisive::core::request::{AnalysisOp, AnalysisRequest, RunSpec};
use decisive::core::{case_study, metrics, persist};
use decisive::engine::{Engine, EngineError, OpArtifact, OpOutput};
use decisive::obs::{RecordingSink, Telemetry};
use decisive::output::{self, PassesOutput};
use decisive::ssam::id::Idx;
use decisive::ssam::model::SsamModel;

/// CLI failures, split by who got it wrong: `Usage` is the caller's
/// mistake (exit code 2), `Failure` is the analysis' or filesystem's
/// (exit code 1).
enum CliError {
    Usage(String),
    Failure(String),
}

impl CliError {
    fn usage(message: impl Into<String>) -> CliError {
        CliError::Usage(message.into())
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Failure(message)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("import") => cmd_import(&args[1..]),
        Some("demo") => cmd_demo(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("pipeline") => cmd_pipeline(&args[1..]),
        Some("montecarlo") => cmd_montecarlo(&args[1..]),
        Some("recommend") => cmd_recommend(&args[1..]),
        Some("passes") => cmd_passes(&args[1..]),
        Some("rerun") => cmd_rerun(&args[1..]),
        Some("spfm") => cmd_spfm(&args[1..]),
        Some("render") => cmd_render(&args[1..]),
        Some("monitor") => cmd_monitor(&args[1..]),
        Some("impact") => cmd_impact(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        Some("fleet") => cmd_fleet(&args[1..]),
        // Hidden: the re-exec target of the fleet supervisor. Not part of
        // the user-facing surface; its protocol lives in `decisive::fleet`.
        Some("fleet-worker") => {
            return ExitCode::from(decisive::fleet::run_worker().clamp(0, 255) as u8)
        }
        Some("--version" | "-V") => {
            println!("decisive {}", env!("CARGO_PKG_VERSION"));
            Ok(())
        }
        Some("--help" | "-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(CliError::usage(format!("unknown command `{other}` (try --help)"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Failure(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
        Err(CliError::Usage(message)) => {
            eprintln!("usage error: {message}");
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    println!(
        "decisive — iterative automated safety analysis\n\n\
         usage:\n  decisive demo <model.json>\n  decisive import <design.bd> <model.json>\n  decisive validate <model.json>\n  \
         decisive analyze <model.json|design.bd> [--cache <dir>] [--jobs <n>] [--deadline-ms <ms>] [--csv <out.csv>] [--json <out.json>] [--reliability <csv>] [--solver sparse|dense] [--strict] [--format text|json] [--trace-out <trace.json>] [--metrics]\n  \
         decisive pipeline <model.json|design.bd> [--cache <dir>] [--jobs <n>] [--deadline-ms <ms>] [--mission-hours <h>] [--csv <out.csv>] [--json <out.json>] [--reliability <csv>] [--solver sparse|dense] [--strict] [--format text|json] [--trace-out <trace.json>] [--metrics]\n  \
         decisive montecarlo <design.bd> [--trials <n>] [--seed <n>] [--cache <dir>] [--jobs <n>] [--deadline-ms <ms>] [--reliability <csv>] [--solver sparse|dense] [--strict] [--format text|json] [--trace-out <trace.json>] [--metrics]\n  \
         decisive recommend <design.bd> [--cache <dir>] [--jobs <n>] [--deadline-ms <ms>] [--reliability <csv>] [--solver sparse|dense] [--strict] [--format text|json] [--trace-out <trace.json>] [--metrics]\n  \
         decisive passes [<model.json|design.bd>] [--cache <dir>] [--jobs <n>] [--format text|json]\n  \
         decisive rerun <old.json|old.bd> <new.json|new.bd> [--cache <dir>] [--jobs <n>] [--deadline-ms <ms>] [--reliability <csv>] [--strict] [--trace-out <trace.json>] [--metrics]\n  \
         decisive spfm <table.json>\n  decisive render <model.json> [--dot]\n  \
         decisive monitor <model.json>\n  decisive impact <old.json> <new.json>\n  \
         decisive trace <model.json>\n  \
         decisive serve [--socket <path>|--watch <model>] [--poll-ms <ms>] [--idle-timeout-ms <ms>] [--cache <dir>] [--jobs <n>] [--deadline-ms <ms>] [--reliability <csv>] [--mission-hours <h>] [--fleet <journal-dir>] [--trace-out <trace.json>] [--metrics]\n  \
         decisive fleet [<dir>...] [--workload Set0..Set5|all --scale <k>] [--seed <n>] [--workers <n>] [--deadline-ms <ms>] [--retries <n>] [--backoff-ms <ms>] [--poison-kills <n>] [--journal <dir>] [--resume] [--montecarlo] [--trials <n>] [--reliability <fit.csv>] [--solver dense|sparse] [--mission-hours <h>] [--format text|json] [--trace-out <trace.json>] [--metrics]\n  \
         decisive store status|compact --cache <dir> [--format text|json]\n  \
         decisive store export|import <snapshot.json> --cache <dir>\n  \
         decisive --version\n\n\
         The run flags (--reliability, --strict, --mission-hours, --solver, --trials, --seed)\n\
         are one unified request spec parsed identically by every analysis verb, the serve\n\
         protocol and the fleet journal; the historical per-verb spellings are aliases of it."
    );
}

/// Flags that consume the following argument as their value.
const VALUE_FLAGS: [&str; 24] = [
    "--solver",
    "--trials",
    "--csv",
    "--json",
    "--cache",
    "--jobs",
    "--reliability",
    "--deadline-ms",
    "--mission-hours",
    "--trace-out",
    "--format",
    "--socket",
    "--watch",
    "--poll-ms",
    "--idle-timeout-ms",
    "--workload",
    "--scale",
    "--seed",
    "--workers",
    "--retries",
    "--backoff-ms",
    "--poison-kills",
    "--journal",
    "--fleet",
];

/// How a verb renders its result: the historical text rendering (the
/// default, byte-stable for scripts that scrape it) or one JSON document
/// per invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Text,
    Json,
}

fn output_format(args: &[String]) -> Result<OutputFormat, CliError> {
    match flag_value(args, "--format") {
        None | Some("text") => Ok(OutputFormat::Text),
        Some("json") => Ok(OutputFormat::Json),
        Some(other) => Err(CliError::usage(format!("unknown format `{other}` (text|json)"))),
    }
}

/// Rejects any `--flag` the command does not understand (naming the
/// flag), and any trailing value-flag left without its value.
fn check_flags(command: &str, args: &[String], allowed: &[&str]) -> Result<(), CliError> {
    let mut wants_value: Option<&str> = None;
    for arg in args {
        if wants_value.take().is_some() {
            continue;
        }
        if arg.starts_with("--") {
            if !allowed.contains(&arg.as_str()) {
                return Err(CliError::usage(format!(
                    "unknown flag `{arg}` for `decisive {command}` (allowed: {})",
                    if allowed.is_empty() { "none".to_owned() } else { allowed.join(", ") }
                )));
            }
            if VALUE_FLAGS.contains(&arg.as_str()) {
                wants_value = Some(arg);
            }
        }
    }
    match wants_value {
        Some(flag) => Err(CliError::usage(format!("flag `{flag}` wants a value"))),
        None => Ok(()),
    }
}

/// The positional arguments: everything that is neither a flag nor the
/// value consumed by a value-taking flag.
fn positionals(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut skip_value = false;
    for arg in args {
        if skip_value {
            skip_value = false;
            continue;
        }
        if arg.starts_with("--") {
            skip_value = VALUE_FLAGS.contains(&arg.as_str());
        } else {
            out.push(arg.as_str());
        }
    }
    out
}

fn one_path<'a>(command: &str, args: &'a [String]) -> Result<&'a str, CliError> {
    match positionals(args)[..] {
        [path] => Ok(path),
        [] => Err(CliError::usage(format!("`decisive {command}` needs a <path> argument"))),
        _ => Err(CliError::usage(format!("`decisive {command}` takes exactly one path"))),
    }
}

fn two_paths<'a>(command: &str, args: &'a [String]) -> Result<(&'a str, &'a str), CliError> {
    match positionals(args)[..] {
        [a, b] => Ok((a, b)),
        _ => Err(CliError::usage(format!("`decisive {command}` takes exactly two paths"))),
    }
}

fn load(path: &str) -> Result<SsamModel, CliError> {
    persist::load_model(path).map_err(|e| CliError::Failure(e.to_string()))
}

fn top_of(model: &SsamModel) -> Result<Idx<decisive::ssam::architecture::Component>, CliError> {
    decisive::engine::execute::top_of(model).map_err(|e| CliError::Failure(e.to_string()))
}

fn cmd_import(args: &[String]) -> Result<(), CliError> {
    check_flags("import", args, &[])?;
    let (input, output) = two_paths("import", args)?;
    let text = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
    let diagram = decisive::blocks::text::from_text(&text).map_err(|e| e.to_string())?;
    let model = decisive::blocks::to_ssam(&diagram);
    persist::save_model(&model, output).map_err(|e| e.to_string())?;
    println!(
        "imported `{}` ({} blocks, {} connections) -> {output}",
        diagram.name(),
        diagram.block_count(),
        diagram.connections().len()
    );
    Ok(())
}

fn cmd_demo(args: &[String]) -> Result<(), CliError> {
    check_flags("demo", args, &[])?;
    let path = one_path("demo", args)?;
    let (model, _) = case_study::ssam_model();
    persist::save_model(&model, path).map_err(|e| e.to_string())?;
    println!("wrote the power-supply case study ({} elements) to {path}", model.element_count());
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<(), CliError> {
    check_flags("validate", args, &[])?;
    let path = one_path("validate", args)?;
    let model = load(path)?;
    let issues = decisive::ssam::validate::validate(&model);
    if issues.is_empty() {
        println!("{path}: well-formed ({} elements)", model.element_count());
        Ok(())
    } else {
        for issue in &issues {
            println!("{issue}");
        }
        Err(CliError::Failure(format!("{} issue(s) found", issues.len())))
    }
}

fn cmd_analyze(args: &[String]) -> Result<(), CliError> {
    check_flags(
        "analyze",
        args,
        &[
            "--cache",
            "--jobs",
            "--deadline-ms",
            "--csv",
            "--json",
            "--reliability",
            "--solver",
            "--strict",
            "--format",
            "--trace-out",
            "--metrics",
        ],
    )?;
    run_verb(AnalysisOp::Analyze, args)
}

/// `decisive pipeline`: one full DECISIVE iteration through the pass
/// manager — the FMEA (Algorithm 1 on an SSAM model, the injection
/// campaign on a `.bd` design), FTA subtrees, runtime monitors, the HARA
/// risk log and the evaluated assurance case — executed as a DAG with
/// cross-pass parallelism and one shared artefact cache.
fn cmd_pipeline(args: &[String]) -> Result<(), CliError> {
    check_flags(
        "pipeline",
        args,
        &[
            "--cache",
            "--jobs",
            "--deadline-ms",
            "--mission-hours",
            "--csv",
            "--json",
            "--reliability",
            "--solver",
            "--strict",
            "--format",
            "--trace-out",
            "--metrics",
        ],
    )?;
    run_verb(AnalysisOp::Pipeline, args)
}

/// Flag set shared by `montecarlo` and `recommend` (the `montecarlo`-only
/// `--trials`/`--seed` flags are harmless aliases of spec defaults for
/// `recommend`, so both verbs accept the full unified-request set).
const STOCHASTIC_FLAGS: [&str; 11] = [
    "--cache",
    "--jobs",
    "--deadline-ms",
    "--reliability",
    "--solver",
    "--strict",
    "--trials",
    "--seed",
    "--format",
    "--trace-out",
    "--metrics",
];

/// `decisive montecarlo`: a stochastic injection campaign — `--trials`
/// perturbed reliability annexes (lognormal FIT noise, jittered
/// distribution shares) re-weighting the verdicts of one supervised
/// injection sweep, and the three architecture metrics reported as mean
/// ± 95 % CI. The sweep's campaign health is what `--strict` checks.
/// Seeded by `--seed`; the report is bitwise identical for a given seed
/// regardless of `--jobs` or cache warmth.
fn cmd_montecarlo(args: &[String]) -> Result<(), CliError> {
    check_flags("montecarlo", args, &STOCHASTIC_FLAGS)?;
    run_verb(AnalysisOp::MonteCarlo, args)
}

/// `decisive recommend`: match the safety-pattern catalog (comparison
/// monitor, redundant channel, watchdog, range check) against every
/// uncovered failure mode of the analysed design, score the candidate
/// deployments with the Pareto search, and print the ranked table with
/// projected SPFM/LFM/PMHF deltas.
fn cmd_recommend(args: &[String]) -> Result<(), CliError> {
    check_flags("recommend", args, &STOCHASTIC_FLAGS)?;
    run_verb(AnalysisOp::Recommend, args)
}

/// An analysis verb after its flag check: the one positional path plus
/// the unified run spec parsed out of the flag list, executed.
fn run_verb(op: AnalysisOp, args: &[String]) -> Result<(), CliError> {
    let format = output_format(args)?;
    let path = one_path(op.name(), args)?;
    let spec = RunSpec::from_args(args).map_err(CliError::usage)?;
    run_request(&AnalysisRequest::new(op, path, spec), format, args)
}

/// Executes `request` on an engine built from the flags and renders the
/// run. The trace is flushed even when the analysis fails — that is when
/// the spans are most interesting.
fn run_request(
    request: &AnalysisRequest,
    format: OutputFormat,
    args: &[String],
) -> Result<(), CliError> {
    let (mut engine, sink) = engine_from_flags(args)?;
    install_interrupt_flush(args, sink.as_ref());
    let result = execute_and_render(request, format, args, &mut engine);
    finish_observability(args, sink)?;
    result
}

/// Executes, persists and prints one request, then applies `--strict`.
fn execute_and_render(
    request: &AnalysisRequest,
    format: OutputFormat,
    args: &[String],
    engine: &mut Engine,
) -> Result<(), CliError> {
    let output = match engine.execute(request) {
        Ok(output) => output,
        Err(e) => {
            // The campaign breaker (and any other pass failure) still
            // leaves health and degradation behind. `analyze` and
            // `pipeline` print them: the operator needs the failed-case
            // list most on failure.
            if matches!(request.op, AnalysisOp::Analyze | AnalysisOp::Pipeline) {
                if let Some(health) = engine.campaign_health() {
                    print!("{}", health.render());
                }
            }
            if request.op == AnalysisOp::Pipeline {
                print!("{}", engine.degraded_report().render());
            }
            return Err(cli_error(e));
        }
    };
    if let Some(dir) = flag_value(args, "--cache") {
        engine.save_cache(dir).map_err(|e| e.to_string())?;
    }
    match format {
        OutputFormat::Json => {
            if let Some(table) = output.fmea() {
                write_table_files(table, args, true)?;
            }
            println!("{}", output::document(output, engine).map_err(CliError::Failure)?);
        }
        OutputFormat::Text => print_run(&output, engine, args)?,
    }
    engine.enforce_strict(request.spec.strict).map_err(cli_error)
}

/// An engine error as a CLI error: asking `montecarlo` or `recommend` of
/// a non-`.bd` path is the caller's mistake, everything else a failure.
fn cli_error(error: EngineError) -> CliError {
    match error {
        EngineError::NotADiagram { .. } => CliError::Usage(error.to_string()),
        other => CliError::Failure(other.to_string()),
    }
}

/// The text rendering of a finished run: the table or report, then the
/// campaign health (whose render includes the absorbed degraded-mode
/// report) or the degraded-mode report alone, and the phase stats.
fn print_run(output: &OpOutput, engine: &Engine, args: &[String]) -> Result<(), CliError> {
    let stats = engine.stats().render();
    let degraded = engine.degraded_report().render();
    let health = engine.campaign_health().map(|health| health.render());
    match &output.artifact {
        OpArtifact::Fmea(table) => {
            print_table(table, args)?;
            match health {
                Some(health) => print!("{health}{stats}"),
                None => print!("{stats}{degraded}"),
            }
        }
        OpArtifact::Pipeline(run) => {
            if let Some(table) = run.fmea() {
                print_table(table, args)?;
            }
            for summary in run.fta().unwrap_or_default() {
                if summary.analysable {
                    println!(
                        "# fta {}: top probability {:.3e}, {} single point(s), {} cut set(s)",
                        summary.container,
                        summary.top_probability,
                        summary.single_points.len(),
                        summary.minimal_cut_sets.len(),
                    );
                }
            }
            if let Some(monitor) = run.monitor() {
                println!("# monitors: {} runtime check(s)", monitor.checks().len());
            }
            if let Some(risk) = run.risk_log() {
                print!("{}", risk.render());
            }
            if let Some(assurance) = run.assurance() {
                print!("{}", assurance.render());
            }
            print!("{}{stats}", health.unwrap_or(degraded));
        }
        OpArtifact::MonteCarlo(report) => print!("{}{degraded}{stats}", report.render()),
        OpArtifact::Recommend(report) => print!("{}{degraded}{stats}", report.render()),
    }
    Ok(())
}

/// `decisive passes`: the pass DAG in topological order, with each pass's
/// dependencies, cache namespaces and how many cache entries those
/// namespaces currently hold (pass `--cache` to inspect a persisted one).
/// The optional path only selects the pipeline shape: a `.bd` design runs
/// the injection FMEA in place of the graph FMEA.
fn cmd_passes(args: &[String]) -> Result<(), CliError> {
    check_flags("passes", args, &["--cache", "--jobs", "--format"])?;
    let format = output_format(args)?;
    let with_injection = match positionals(args)[..] {
        [] => false,
        [path] => path.ends_with(".bd"),
        _ => return Err(CliError::usage("`decisive passes` takes at most one path")),
    };
    let (engine, _) = engine_from_flags(args)?;
    let pipeline = decisive::engine::Pipeline::standard(with_injection);
    let statuses = engine.pipeline_status(&pipeline).map_err(|e| e.to_string())?;
    if format == OutputFormat::Json {
        println!(
            "{}",
            output::to_json_string(&PassesOutput::new(&statuses)).map_err(CliError::Failure)?
        );
        return Ok(());
    }
    println!("# pass pipeline ({} pass(es), topological order)", statuses.len());
    for status in statuses {
        let deps = if status.depends_on.is_empty() {
            "-".to_owned()
        } else {
            status.depends_on.join(", ")
        };
        let kinds: Vec<&str> = status.kinds.iter().map(|k| k.tag()).collect();
        println!(
            "{:<16} needs [{deps}]  artefacts [{}]  cached {}",
            status.id,
            kinds.join(", "),
            status.cached_entries,
        );
    }
    Ok(())
}

fn cmd_rerun(args: &[String]) -> Result<(), CliError> {
    check_flags(
        "rerun",
        args,
        &[
            "--cache",
            "--jobs",
            "--deadline-ms",
            "--csv",
            "--json",
            "--reliability",
            "--strict",
            "--trace-out",
            "--metrics",
        ],
    )?;
    let (old_path, new_path) = two_paths("rerun", args)?;
    let spec = RunSpec::from_args(args).map_err(CliError::usage)?;
    if new_path.ends_with(".bd") || old_path.ends_with(".bd") {
        if !(new_path.ends_with(".bd") && old_path.ends_with(".bd")) {
            return Err(CliError::usage(
                "`decisive rerun` needs both paths to be .bd files (or both SSAM .json)",
            ));
        }
        // The injection cache is content-addressed by the whole circuit:
        // rows of an unchanged diagram are pure hits, any edit misses.
        let request = AnalysisRequest::new(AnalysisOp::Analyze, new_path, spec);
        return run_request(&request, output_format(args)?, args);
    }
    let old_model = load(old_path)?;
    let new_model = load(new_path)?;
    let top = top_of(&new_model)?;
    let (mut engine, sink) = engine_from_flags(args)?;
    install_interrupt_flush(args, sink.as_ref());
    let result = (|| {
        let (table, report) =
            engine.rerun(&old_model, &new_model, top).map_err(|e| e.to_string())?;
        print!("{}", report.render());
        if let Some(dir) = flag_value(args, "--cache") {
            engine.save_cache(dir).map_err(|e| e.to_string())?;
        }
        print_table(&table, args)?;
        print!("{}", engine.stats().render());
        print!("{}", engine.degraded_report().render());
        engine.enforce_strict(spec.strict).map_err(cli_error)
    })();
    finish_observability(args, sink)?;
    result
}

/// Builds an [`Engine`] through [`Engine::builder`] from
/// `--jobs`/`--deadline-ms`/`--cache`, attaching a recording telemetry
/// sink when `--trace-out` or `--metrics` asks for one. The returned sink
/// (when present) is drained by [`finish_observability`] after the verb's
/// body, succeed or fail.
fn engine_from_flags(args: &[String]) -> Result<(Engine, Option<Arc<RecordingSink>>), CliError> {
    let mut builder = Engine::builder();
    if let Some(n) = flag_value(args, "--jobs") {
        builder = builder.jobs(n.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(|| {
            CliError::usage(format!("--jobs wants a positive integer, got `{n}`"))
        })?);
    }
    if let Some(ms) = flag_value(args, "--deadline-ms") {
        let ms =
            ms.parse::<f64>().ok().filter(|&ms| ms > 0.0 && ms.is_finite()).ok_or_else(|| {
                CliError::usage(format!("--deadline-ms wants a positive number, got `{ms}`"))
            })?;
        builder = builder.deadline_ms(ms);
    }
    if let Some(dir) = flag_value(args, "--cache") {
        builder = builder.cache_dir(dir);
    }
    let sink = if flag_value(args, "--trace-out").is_some() || args.iter().any(|a| a == "--metrics")
    {
        let (telemetry, sink) = Telemetry::recording();
        builder = builder.telemetry(telemetry);
        Some(sink)
    } else {
        None
    };
    let engine = builder.build().map_err(|e| e.to_string())?;
    Ok((engine, sink))
}

/// Drains the recording sink (when one was attached): writes the
/// chrome://tracing JSON to `--trace-out` and prints the one-line
/// `OBS_metrics` summary for `--metrics`. The trace-file note goes to
/// stderr so `--format json` stdout stays a single parseable document.
fn finish_observability(args: &[String], sink: Option<Arc<RecordingSink>>) -> Result<(), CliError> {
    let Some(sink) = sink else { return Ok(()) };
    flush_observability(
        flag_value(args, "--trace-out"),
        args.iter().any(|a| a == "--metrics"),
        &sink,
    )
}

/// The flush itself, shared by the normal end-of-run path and the
/// interrupt watchdog.
fn flush_observability(
    trace_out: Option<&str>,
    metrics: bool,
    sink: &RecordingSink,
) -> Result<(), CliError> {
    let report = sink.drain();
    if let Some(out) = trace_out {
        std::fs::write(out, report.to_chrome_json())
            .map_err(|e| CliError::Failure(format!("{out}: {e}")))?;
        eprintln!("# trace: {} span(s) written to {out}", report.spans.len());
    }
    if metrics {
        println!("OBS_metrics {}", report.metrics_json());
    }
    Ok(())
}

/// Arms the SIGINT/SIGTERM watchdog for a one-shot verb: on interrupt the
/// recording sink is drained and flushed — a valid (partial) trace beats
/// a missing or truncated one — before the process exits with 130. A
/// no-op when no observability was requested.
fn install_interrupt_flush(args: &[String], sink: Option<&Arc<RecordingSink>>) {
    let Some(sink) = sink else { return };
    let sink = sink.clone();
    let trace_out = flag_value(args, "--trace-out").map(str::to_owned);
    let metrics = args.iter().any(|a| a == "--metrics");
    decisive::serve::interrupt::install();
    decisive::serve::interrupt::watchdog(move || {
        if let Err(CliError::Failure(message) | CliError::Usage(message)) =
            flush_observability(trace_out.as_deref(), metrics, &sink)
        {
            eprintln!("error: {message}");
        }
    });
}

/// Prints a table as CSV with its SPFM summary line, honouring the
/// `--csv`/`--json` output flags.
fn print_table(table: &decisive::core::fmea::FmeaTable, args: &[String]) -> Result<(), CliError> {
    print!("{}", table.to_csv_string());
    let m = metrics::compute(table);
    println!(
        "# SPFM {:.2}% ({}) over {} FIT of safety-related hardware",
        m.spfm * 100.0,
        m.achieved_asil,
        m.total_sr_fit.value()
    );
    write_table_files(table, args, false)
}

/// Honours the `--csv`/`--json` file-output flags; in JSON output mode
/// the `# written to` notes move to stderr to keep stdout machine-clean.
fn write_table_files(
    table: &decisive::core::fmea::FmeaTable,
    args: &[String],
    notes_to_stderr: bool,
) -> Result<(), CliError> {
    let note = |line: String| {
        if notes_to_stderr {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    if let Some(out) = flag_value(args, "--csv") {
        std::fs::write(out, table.to_csv_string()).map_err(|e| e.to_string())?;
        note(format!("# written to {out}"));
    }
    if let Some(out) = flag_value(args, "--json") {
        persist::save_table(table, out).map_err(|e| e.to_string())?;
        note(format!("# written to {out}"));
    }
    Ok(())
}

fn cmd_spfm(args: &[String]) -> Result<(), CliError> {
    check_flags("spfm", args, &[])?;
    let path = one_path("spfm", args)?;
    let table = persist::load_table(path).map_err(|e| e.to_string())?;
    let m = metrics::compute(&table);
    println!("system:            {}", table.system);
    println!("rows:              {}", table.rows.len());
    println!("safety-related:    {:?}", table.safety_related_components());
    println!("SPFM:              {:.4} ({:.2}%)", m.spfm, m.spfm * 100.0);
    println!("achieved ASIL:     {}", m.achieved_asil);
    println!("SR hardware FIT:   {}", m.total_sr_fit);
    println!("residual SPF FIT:  {}", m.residual_spf_fit);
    Ok(())
}

fn cmd_render(args: &[String]) -> Result<(), CliError> {
    check_flags("render", args, &["--dot"])?;
    let path = one_path("render", args)?;
    let model = load(path)?;
    if args.iter().any(|a| a == "--dot") {
        let top = top_of(&model)?;
        print!("{}", decisive::ssam::render::dot_graph(&model, top));
    } else {
        print!("{}", decisive::ssam::render::ascii_tree(&model));
    }
    Ok(())
}

fn cmd_monitor(args: &[String]) -> Result<(), CliError> {
    check_flags("monitor", args, &[])?;
    let path = one_path("monitor", args)?;
    let model = load(path)?;
    let monitor = RuntimeMonitor::generate(&model);
    if monitor.checks().is_empty() {
        println!("no runtime checks (no dynamic components with limited IO nodes)");
    }
    for check in monitor.checks() {
        println!(
            "{}::{} in [{}, {}]",
            check.component,
            check.io_node,
            check.lower.map(|v| v.to_string()).unwrap_or_else(|| "-inf".into()),
            check.upper.map(|v| v.to_string()).unwrap_or_else(|| "+inf".into()),
        );
    }
    Ok(())
}

fn cmd_impact(args: &[String]) -> Result<(), CliError> {
    check_flags("impact", args, &[])?;
    let (old_path, new_path) = two_paths("impact", args)?;
    let old_model = load(old_path)?;
    let new_model = load(new_path)?;
    let report = decisive::core::impact::diff_models(&old_model, &new_model);
    print!("{}", report.render());
    if report.requires_reanalysis() {
        Err(CliError::Failure("re-analysis required".to_owned()))
    } else {
        Ok(())
    }
}

fn cmd_trace(args: &[String]) -> Result<(), CliError> {
    check_flags("trace", args, &[])?;
    let path = one_path("trace", args)?;
    let model = load(path)?;
    let report = decisive::core::trace::traceability_report(&model);
    print!("{}", decisive::core::trace::render_report(&report));
    let gaps = report.iter().filter(|e| e.is_unassociated()).count();
    println!("# {} failure mode(s), {} without a hazard association", report.len(), gaps);
    Ok(())
}

/// `decisive serve`: the persistent analysis daemon. Default transport is
/// line-JSON on stdin/stdout; `--socket <path>` listens on a unix socket
/// (many concurrent connections, each multiplexing any number of
/// sessions); `--watch <model>` re-runs the pipeline on every mtime
/// change of the model file and streams the results. The engine flags
/// (`--cache`, `--jobs`, `--deadline-ms`, `--reliability`,
/// `--mission-hours`) set daemon-wide defaults; requests can override
/// reliability and mission time per call.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    check_flags(
        "serve",
        args,
        &[
            "--socket",
            "--watch",
            "--poll-ms",
            "--idle-timeout-ms",
            "--cache",
            "--jobs",
            "--deadline-ms",
            "--reliability",
            "--mission-hours",
            "--fleet",
            "--trace-out",
            "--metrics",
        ],
    )?;
    if !positionals(args).is_empty() {
        return Err(CliError::usage(
            "`decisive serve` takes no positional arguments (requests carry their model paths)",
        ));
    }
    let socket = flag_value(args, "--socket");
    let watch_path = flag_value(args, "--watch");
    if socket.is_some() && watch_path.is_some() {
        return Err(CliError::usage("--socket and --watch are mutually exclusive"));
    }
    if flag_value(args, "--poll-ms").is_some() && watch_path.is_none() {
        return Err(CliError::usage("--poll-ms only applies to --watch mode"));
    }
    let poll_ms = match flag_value(args, "--poll-ms") {
        Some(ms) => ms.parse::<u64>().ok().filter(|&ms| ms > 0).ok_or_else(|| {
            CliError::usage(format!("--poll-ms wants a positive integer, got `{ms}`"))
        })?,
        None => 250,
    };
    let jobs = match flag_value(args, "--jobs") {
        Some(n) => Some(n.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(|| {
            CliError::usage(format!("--jobs wants a positive integer, got `{n}`"))
        })?),
        None => None,
    };
    let deadline_ms = match flag_value(args, "--deadline-ms") {
        Some(ms) => {
            Some(ms.parse::<f64>().ok().filter(|&ms| ms > 0.0 && ms.is_finite()).ok_or_else(
                || CliError::usage(format!("--deadline-ms wants a positive number, got `{ms}`")),
            )?)
        }
        None => None,
    };
    // The daemon-wide defaults are a unified run spec like any other
    // front end's; requests override per call.
    let defaults = RunSpec::from_args(args).map_err(CliError::usage)?;
    let sink = if flag_value(args, "--trace-out").is_some() || args.iter().any(|a| a == "--metrics")
    {
        Some(Telemetry::recording())
    } else {
        None
    };
    let (telemetry, sink) = match sink {
        Some((telemetry, sink)) => (telemetry, Some(sink)),
        None => (Telemetry::noop(), None),
    };
    let idle_timeout_ms = match flag_value(args, "--idle-timeout-ms") {
        Some(ms) => {
            if socket.is_none() {
                return Err(CliError::usage("--idle-timeout-ms only applies to --socket mode"));
            }
            Some(ms.parse::<u64>().ok().filter(|&ms| ms > 0).ok_or_else(|| {
                CliError::usage(format!("--idle-timeout-ms wants a positive integer, got `{ms}`"))
            })?)
        }
        None => None,
    };
    let options = decisive::serve::ServeOptions {
        jobs,
        deadline_ms,
        cache_dir: flag_value(args, "--cache").map(std::path::PathBuf::from),
        reliability: defaults.reliability.clone(),
        mission_hours: defaults.mission_hours,
        idle_timeout_ms,
        fleet_status: flag_value(args, "--fleet")
            .map(|dir| std::path::Path::new(dir).join(decisive::fleet::STATUS_FILE)),
    };
    let daemon = decisive::serve::Daemon::new(options, telemetry).map_err(CliError::Failure)?;
    // The serve loops poll the interrupt flag and exit through their
    // normal path (persisting the shared store), so no watchdog here —
    // the flush below runs on interrupt too.
    decisive::serve::interrupt::install();
    let served = if let Some(path) = watch_path {
        let watch_options = decisive::serve::WatchOptions { poll_ms, max_results: None };
        decisive::serve::watch::watch(
            &daemon,
            std::path::Path::new(path),
            "watch",
            &watch_options,
            &mut std::io::stdout(),
        )
        .map(|_| ())
        .and_then(|()| daemon.persist().map_err(std::io::Error::other))
        .map_err(|e| CliError::Failure(e.to_string()))
    } else if let Some(path) = socket {
        serve_on_socket(daemon, path)
    } else {
        decisive::serve::daemon::run_stdio(&daemon, std::io::stdin(), std::io::stdout())
            .map_err(|e| CliError::Failure(e.to_string()))
    };
    finish_observability(args, sink)?;
    served
}

/// Parses a positive-integer flag with a default.
fn uint_flag(args: &[String], flag: &str, default: u64) -> Result<u64, CliError> {
    match flag_value(args, flag) {
        Some(n) => {
            n.parse::<u64>().ok().filter(|&n| n > 0).ok_or_else(|| {
                CliError::usage(format!("{flag} wants a positive integer, got `{n}`"))
            })
        }
        None => Ok(default),
    }
}

/// `decisive fleet`: a fault-tolerant sweep of the full analysis pipeline
/// over every model under the given directories and/or scaled instances of
/// the Table VI workload sets, sharded across worker *processes* so a
/// crash, hang or poison model never takes down the campaign. Terminal
/// rows are journaled (append + fsync) through the segmented store, so
/// `--resume` after any interruption re-runs only unfinished models.
/// Under `--montecarlo` each `.bd` model instead runs the stochastic
/// campaign and its row reports the SPFM mean plus 95%-CI half-width.
fn cmd_fleet(args: &[String]) -> Result<(), CliError> {
    check_flags(
        "fleet",
        args,
        &[
            "--workload",
            "--scale",
            "--seed",
            "--workers",
            "--deadline-ms",
            "--retries",
            "--backoff-ms",
            "--poison-kills",
            "--journal",
            "--resume",
            "--montecarlo",
            "--trials",
            "--reliability",
            "--solver",
            "--mission-hours",
            "--format",
            "--trace-out",
            "--metrics",
        ],
    )?;
    let format = output_format(args)?;
    let mut tasks = Vec::new();
    for dir in positionals(args) {
        tasks.extend(decisive::fleet::discover(std::path::Path::new(dir))?);
    }
    if let Some(selector) = flag_value(args, "--workload") {
        let scale = uint_flag(args, "--scale", 10)?;
        let seed = match flag_value(args, "--seed") {
            Some(n) => n.parse::<u64>().map_err(|_| {
                CliError::usage(format!("--seed wants an unsigned integer, got `{n}`"))
            })?,
            None => 42,
        };
        tasks.extend(
            decisive::fleet::workload_tasks(selector, scale, seed).map_err(CliError::usage)?,
        );
    } else if flag_value(args, "--scale").is_some() {
        return Err(CliError::usage("--scale only applies together with --workload"));
    }
    if tasks.is_empty() {
        return Err(CliError::usage(
            "`decisive fleet` needs models: a <dir> with .bd/.json files and/or --workload <set|all>",
        ));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let journal = flag_value(args, "--journal").unwrap_or(".decisive-fleet");
    let mut options = decisive::fleet::FleetOptions::new(journal, exe);
    options.workers = uint_flag(args, "--workers", 4)? as usize;
    options.deadline_ms = uint_flag(args, "--deadline-ms", 30_000)?;
    let retries = uint_flag(args, "--retries", 2)? as usize;
    let backoff_ms = match flag_value(args, "--backoff-ms") {
        Some(ms) => {
            ms.parse::<f64>().ok().filter(|&ms| ms >= 0.0 && ms.is_finite()).ok_or_else(|| {
                CliError::usage(format!("--backoff-ms wants a non-negative number, got `{ms}`"))
            })?
        }
        None => 10.0,
    };
    options.retry = decisive::fleet::RetryPolicy::backoff(retries, backoff_ms);
    options.poison_kills = uint_flag(args, "--poison-kills", 2)? as u32;
    options.resume = args.iter().any(|a| a == "--resume");
    // The unified run spec travels to every worker on the task line;
    // `--seed` seeds both the workload generators and (under
    // `--montecarlo`) the stochastic campaigns.
    options.spec = RunSpec::from_args(args).map_err(CliError::usage)?;
    if args.iter().any(|a| a == "--montecarlo") {
        options.op = AnalysisOp::MonteCarlo;
    }
    let (telemetry, sink) =
        if flag_value(args, "--trace-out").is_some() || args.iter().any(|a| a == "--metrics") {
            let (telemetry, sink) = Telemetry::recording();
            (telemetry, Some(sink))
        } else {
            (Telemetry::noop(), None)
        };
    let result = decisive::fleet::run_fleet(tasks, &options, &telemetry).map_err(CliError::Failure);
    finish_observability(args, sink)?;
    let report = result?;
    match format {
        OutputFormat::Text => print!("{}", report.render()),
        OutputFormat::Json => {
            println!("{}", decisive::federation::json::to_string(&report.to_value()));
        }
    }
    Ok(())
}

/// `decisive store <verb> --cache <dir>` — direct maintenance of the
/// segmented artifact store backing `--cache`:
///
/// - `status`: recovery + health snapshot (segments, live/dead frames,
///   quarantine counter, last compaction);
/// - `compact`: force a compaction regardless of the dead-frame
///   thresholds and report what it reclaimed;
/// - `export <snapshot.json>`: atomically write the live entries as a
///   portable v3 snapshot;
/// - `import <snapshot.json>`: append a v3 snapshot's entries into the
///   log (entries failing their checksum are skipped and listed on
///   stderr; a document that is not a v3 snapshot fails).
///
/// Opening the store performs the same recovery the engine does: torn
/// tails truncate and corrupt frames quarantine.
fn cmd_store(args: &[String]) -> Result<(), CliError> {
    check_flags("store", args, &["--cache", "--format"])?;
    let format = output_format(args)?;
    let positionals = positionals(args);
    let Some((&verb, rest)) = positionals.split_first() else {
        return Err(CliError::usage("`decisive store` needs a verb: status|compact|export|import"));
    };
    let dir = flag_value(args, "--cache")
        .ok_or_else(|| CliError::usage("`decisive store` needs --cache <dir>"))?;
    let (log, recovery) = decisive::engine::SegmentStore::open(
        std::path::Path::new(dir).join(decisive::engine::STORE_DIR),
        decisive::engine::StoreOptions::default(),
        Telemetry::noop(),
    )
    .map_err(|e| CliError::Failure(e.to_string()))?;
    let snapshot_path = |what: &str| match rest {
        [path] => Ok(*path),
        _ => Err(CliError::usage(format!(
            "`decisive store {what}` takes exactly one <snapshot.json> path"
        ))),
    };
    use decisive::federation::{json, Value};
    match verb {
        "status" => {
            if !rest.is_empty() {
                return Err(CliError::usage("`decisive store status` takes no extra arguments"));
            }
            let health = log.health();
            match format {
                OutputFormat::Json => {
                    let document = Value::record([
                        ("recovery", recovery.to_value()),
                        ("health", health.to_value()),
                    ]);
                    println!("{}", json::to_string(&document));
                }
                OutputFormat::Text => {
                    println!(
                        "# store: {} segment(s), {} live / {} dead frame(s) ({:.1}% live), \
                         generation {}, {} byte(s)",
                        health.segments,
                        health.live_frames,
                        health.dead_frames,
                        health.live_ratio() * 100.0,
                        health.generation,
                        health.bytes,
                    );
                    println!(
                        "# recovery: {}{}",
                        if recovery.is_clean() { "clean" } else { "repaired" },
                        format_args!(
                            " ({} quarantined frame(s), {} truncated byte(s), \
                             {} orphan segment(s) removed, \
                             {} hinted segment(s), {} byte(s) scanned)",
                            recovery.quarantined_frames,
                            recovery.truncated_bytes,
                            recovery.removed_orphan_segments,
                            recovery.hinted_segments,
                            recovery.scanned_bytes,
                        ),
                    );
                    for note in &recovery.notes {
                        println!("#   {note}");
                    }
                    if let Some(compaction) = &health.last_compaction {
                        println!(
                            "# last compaction: {} live copied, {} dropped, {} byte(s) reclaimed",
                            compaction.live_frames,
                            compaction.dropped_frames,
                            compaction.reclaimed_bytes,
                        );
                    }
                }
            }
        }
        "compact" => {
            if !rest.is_empty() {
                return Err(CliError::usage("`decisive store compact` takes no extra arguments"));
            }
            let summary = log.compact().map_err(|e| CliError::Failure(e.to_string()))?;
            match format {
                OutputFormat::Json => println!("{}", json::to_string(&summary.to_value())),
                OutputFormat::Text => println!(
                    "# compacted: {} -> {} segment(s), {} live frame(s) kept, {} dropped, \
                     {} byte(s) reclaimed in {:.1} ms",
                    summary.segments_before,
                    summary.segments_after,
                    summary.live_frames,
                    summary.dropped_frames,
                    summary.reclaimed_bytes,
                    summary.wall_ms,
                ),
            }
        }
        "export" => {
            let out = snapshot_path("export")?;
            let snapshot = log.export();
            let entries = snapshot.len();
            decisive::engine::atomic_write(
                std::path::Path::new(out),
                &json::to_string(&snapshot.to_value()),
            )
            .map_err(|e| CliError::Failure(format!("{out}: {e}")))?;
            println!("# exported {entries} entr(ies) to {out}");
        }
        "import" => {
            let source = snapshot_path("import")?;
            let text = std::fs::read_to_string(source)
                .map_err(|e| CliError::Failure(format!("{source}: {e}")))?;
            let value =
                json::parse(&text).map_err(|e| CliError::Failure(format!("{source}: {e}")))?;
            let (snapshot, skipped) = decisive::engine::SharedStore::from_value_audited(&value)
                .map_err(|e| CliError::Failure(format!("{source}: {e}")))?;
            let imported = log.import(&snapshot).map_err(|e| CliError::Failure(e.to_string()))?;
            println!("# imported {imported} entr(ies) from {source}");
            for reason in &skipped {
                eprintln!("# skipped: {reason}");
            }
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown store verb `{other}` (status|compact|export|import)"
            )));
        }
    }
    Ok(())
}

#[cfg(unix)]
fn serve_on_socket(daemon: decisive::serve::Daemon, path: &str) -> Result<(), CliError> {
    eprintln!("# serve: listening on {path}");
    decisive::serve::daemon::run_socket(&Arc::new(daemon), std::path::Path::new(path))
        .map_err(|e| CliError::Failure(e.to_string()))
}

#[cfg(not(unix))]
fn serve_on_socket(_daemon: decisive::serve::Daemon, _path: &str) -> Result<(), CliError> {
    Err(CliError::Failure("--socket needs a unix platform (use stdio mode)".to_owned()))
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.windows(2).find(|w| w[0] == flag).map(|w| w[1].as_str())
}
