//! The `ant` subcommands.

// The serve path in this module handles untrusted client streams; failures
// must exit with a typed code or answer with an error envelope, never
// panic. The lints keep the panic-free audit from regressing.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::opts::{flag_help, Opts};
use ant_common::{AntError, QueryErrorKind, VarId};
use ant_constraints::pipeline::{PassPipeline, Prepared};
use ant_constraints::{parse_program, Program};
use ant_core::obs::prov::ProvRecorder;
use ant_core::obs::{
    FanOut, Obs, Observer, Phase, PhaseTimer, ProgressPrinter, SolveEvent, TraceWriter,
};
use ant_core::provenance::Explainer;
use ant_core::session::{AnalysisSession, SessionOptions};
use ant_core::{
    resume_dyn, resume_dyn_with_observer, resume_supported, solve_dyn_resumable,
    solve_dyn_resumable_with_observer, solve_prepared, solve_prepared_recorded,
    solve_prepared_recorded_with_observer, solve_prepared_with_observer, Algorithm, PropMode,
    PtsKind, Solution, SolveOutput, SolverConfig,
};
use ant_frontend::suite;
use std::fs::File;
use std::io;
use std::io::{BufRead, Write};

const USAGE_HEAD: &str = "\
ant — inclusion-based pointer analysis (Hardekopf & Lin, PLDI 2007)

USAGE:
  ant compile <file.c> [-o out.consts]
  ant solve   <file.c|file.consts> [--algorithm NAME] [--pts bitmap|shared|bdd]
              [--worklist fifo|lifo|lrf|divided-lrf] [--prop full|diff] [--threads N]
              [--passes normalize,ovs,hcd | --no-ovs] [--stats]
              [--trace-out trace.jsonl] [--progress] [--progress-every N]
  ant solve   --base base.c --add delta.consts [--add more.consts ...]
              incremental: solve the base once, then append each delta and
              warm-start (resume) the retained solver state when possible
  ant query   <file> --pointer NAME | --alias NAME NAME
  ant explain <file> <ptr> <obj>            why does ptr point to obj?
  ant explain-edge <file> <src> <dst>       why is there a copy edge src -> dst?
  ant gen     <benchmark> [--scale S] [-o out.consts]
  ant compare <file>
  ant serve   [file.c|file.consts] [--socket PATH] [--deadline-ms N] [--record]
              JSONL query service: one request object per line on stdin
              (or the socket), one typed response envelope per line back

ALGORITHMS: Basic HT PKH BLQ LCD HCD HT+HCD PKH+HCD BLQ+HCD LCD+HCD PKH03 LCD-DP
BENCHMARKS: emacs ghostscript gimp insight wine linux";

/// The full help text: the usage header plus the flag table rendered from
/// [`crate::opts::FLAGS`].
pub fn usage() -> String {
    format!("{USAGE_HEAD}\n\n{}", flag_help())
}

/// Parses `args`; `Ok(None)` means `--help` was requested and printed.
fn parse_opts(args: &[String]) -> Result<Option<Opts>, AntError> {
    let opts = Opts::parse(args)?;
    if opts.has("--help") {
        println!("{}", usage());
        return Ok(None);
    }
    Ok(Some(opts))
}

/// Loads a program from a `.c` source or a constraint file.
fn load(path: &str) -> Result<Program, AntError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| AntError::io(format!("cannot read {path}: {e}")).with_source(e))?;
    if path.ends_with(".c") {
        let out = ant_frontend::compile_c(&text)
            .map_err(|e| AntError::parse(format!("{path}: {e}")).with_source(e))?;
        for w in &out.warnings {
            eprintln!("warning: {w}");
        }
        Ok(out.program)
    } else {
        parse_program(&text).map_err(|e| AntError::parse(format!("{path}: {e}")).with_source(e))
    }
}

/// Typed CLI configuration, parsed exactly once per invocation from the
/// flag table — the commands below never re-inspect raw flags.
#[derive(Debug)]
pub struct CliConfig {
    /// Algorithm, worklist, snapshot cadence and thread count.
    pub solver: SolverConfig,
    /// Points-to set representation (runtime-dispatched).
    pub pts: PtsKind,
    /// The offline pass pipeline run before the solver.
    pub passes: PassPipeline,
    /// Print the solver's counters after solving.
    pub stats: bool,
    /// Live progress snapshots on stderr.
    pub progress: bool,
    /// JSONL telemetry trace destination.
    pub trace_out: Option<String>,
    /// Attach the derivation recorder (provenance arenas + cost metrics).
    pub record: bool,
}

impl CliConfig {
    fn from_opts(opts: &Opts) -> Result<CliConfig, AntError> {
        let algorithm = match opts.value("--algorithm") {
            None => Algorithm::LcdHcd,
            Some(name) => Algorithm::parse(name)
                .ok_or_else(|| AntError::usage(format!("unknown algorithm `{name}`")))?,
        };
        let worklist = match opts.value("--worklist") {
            None => ant_common::worklist::WorklistKind::DividedLrf,
            Some("fifo") => ant_common::worklist::WorklistKind::Fifo,
            Some("lifo") => ant_common::worklist::WorklistKind::Lifo,
            Some("lrf") => ant_common::worklist::WorklistKind::Lrf,
            Some("divided-lrf") => ant_common::worklist::WorklistKind::DividedLrf,
            Some(other) => return Err(AntError::usage(format!("unknown worklist `{other}`"))),
        };
        let progress_every = match opts.value("--progress-every") {
            None => SolverConfig::DEFAULT_PROGRESS_EVERY,
            Some(n) => n.parse::<u32>().map_err(|_| {
                AntError::usage(format!(
                    "bad --progress-every `{n}` (want a non-negative integer)"
                ))
            })?,
        };
        let threads = match opts.value("--threads") {
            None => ant_core::threads_from_env(),
            Some(n) => n.parse::<usize>().ok().filter(|&t| t >= 1).ok_or_else(|| {
                AntError::usage(format!("bad --threads `{n}` (want a positive integer)"))
            })?,
        };
        let pts = match opts.value("--pts") {
            None => PtsKind::Bitmap,
            Some(name) => PtsKind::parse(name).ok_or_else(|| {
                AntError::usage(format!("unknown points-to representation `{name}`"))
            })?,
        };
        let prop = match opts.value("--prop") {
            None => PropMode::Full,
            Some(name) => PropMode::parse(name)
                .ok_or_else(|| AntError::usage(format!("unknown propagation mode `{name}`")))?,
        };
        let passes = match (opts.value("--passes"), opts.has("--no-ovs")) {
            (Some(_), true) => {
                return Err(AntError::usage(
                    "--passes and --no-ovs are mutually exclusive (--no-ovs means \
                     --passes none)",
                ))
            }
            (Some(spec), false) => PassPipeline::parse(spec)?,
            (None, true) => PassPipeline::empty(),
            (None, false) => PassPipeline::standard(),
        };
        Ok(CliConfig {
            solver: SolverConfig {
                algorithm,
                worklist,
                progress_every,
                threads,
                prop,
            },
            pts,
            passes,
            stats: opts.has("--stats"),
            progress: opts.has("--progress"),
            trace_out: opts.value("--trace-out").map(str::to_owned),
            record: opts.has("--record"),
        })
    }
}

/// Observer stack assembled from `--trace-out` / `--progress`.
struct Telemetry {
    trace: Option<(String, TraceWriter<File>)>,
    progress: Option<ProgressPrinter<io::Stderr>>,
}

impl Telemetry {
    /// `Ok(None)` when no telemetry flag is present.
    fn from_config(cfg: &CliConfig) -> Result<Option<Telemetry>, AntError> {
        let trace = match &cfg.trace_out {
            None => None,
            Some(path) => {
                let file = File::create(path).map_err(|e| {
                    AntError::io(format!("cannot create {path}: {e}")).with_source(e)
                })?;
                Some((path.clone(), TraceWriter::new(file)))
            }
        };
        let progress = cfg.progress.then(ProgressPrinter::stderr);
        if trace.is_none() && progress.is_none() {
            return Ok(None);
        }
        Ok(Some(Telemetry { trace, progress }))
    }

    fn fan(&mut self) -> FanOut<'_> {
        let mut fan = FanOut::new();
        if let Some((_, writer)) = &mut self.trace {
            fan.push(writer);
        }
        if let Some(printer) = &mut self.progress {
            fan.push(printer);
        }
        fan
    }

    /// Flushes the trace file and surfaces any write error.
    fn finish(self) -> Result<(), AntError> {
        if let Some((path, writer)) = self.trace {
            if let Some(e) = writer.error() {
                return Err(AntError::io(format!("failed writing {path}: {e}")));
            }
            writer.into_inner();
            eprintln!("trace written to {path}");
        }
        Ok(())
    }
}

/// An [`Obs`] over the fan-out when telemetry is on, else a silent one.
fn obs_over<'a>(fan: &'a mut Option<FanOut<'_>>) -> Obs<'a> {
    match fan {
        Some(fan) => Obs::new(fan, 0),
        None => Obs::none(),
    }
}

type RunOutput = (Program, SolveOutput, Prepared, Option<ProvRecorder>);

fn run(input: &str, cfg: &CliConfig) -> Result<RunOutput, AntError> {
    let mut telemetry = Telemetry::from_config(cfg)?;
    let result = {
        let mut fan = telemetry.as_mut().map(Telemetry::fan);

        // Load (and for .c inputs, compile) under a `parse` span.
        let program = {
            let mut obs = obs_over(&mut fan);
            let mut timer = PhaseTimer::new();
            timer.start(Phase::Parse, &mut obs);
            let loaded = load(input);
            timer.stop(&mut obs);
            loaded?
        };

        let prepared = {
            let mut obs = obs_over(&mut fan);
            cfg.passes.run_with_obs(&program, &mut obs)
        };
        let (out, prov) = match (&mut fan, cfg.record) {
            (None, false) => (solve_prepared(&prepared, &cfg.solver, cfg.pts), None),
            (None, true) => {
                let (out, prov) = solve_prepared_recorded(&prepared, &cfg.solver, cfg.pts);
                (out, Some(prov))
            }
            (Some(fan), false) => (
                solve_prepared_with_observer(&prepared, &cfg.solver, cfg.pts, &mut *fan),
                None,
            ),
            (Some(fan), true) => {
                let (out, prov) = solve_prepared_recorded_with_observer(
                    &prepared,
                    &cfg.solver,
                    cfg.pts,
                    &mut *fan,
                );
                (out, Some(prov))
            }
        };
        (program, out, prepared, prov)
    };
    if let Some(telemetry) = telemetry {
        telemetry.finish()?;
    }
    Ok(result)
}

fn print_pts(program: &Program, solution: &Solution, v: VarId) {
    let names: Vec<&str> = solution
        .points_to(v)
        .iter()
        .map(|&l| program.var_name(VarId::from_u32(l)))
        .collect();
    println!("pts({}) = {{{}}}", program.var_name(v), names.join(", "));
}

pub fn compile(args: &[String]) -> Result<(), AntError> {
    let Some(opts) = parse_opts(args)? else {
        return Ok(());
    };
    let [input] = opts.positional.as_slice() else {
        return Err(AntError::usage("compile takes exactly one input file"));
    };
    if !input.ends_with(".c") {
        return Err(AntError::usage("compile expects a .c file"));
    }
    let program = load(input)?;
    let text = program.to_text();
    match opts.value("-o") {
        Some(path) => {
            std::fs::write(path, text)
                .map_err(|e| AntError::io(format!("cannot write {path}: {e}")).with_source(e))?;
            eprintln!(
                "{}: {} variables, {}",
                path,
                program.num_vars(),
                program.stats()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

pub fn solve(args: &[String]) -> Result<(), AntError> {
    let Some(opts) = parse_opts(args)? else {
        return Ok(());
    };
    if opts.has("--base") || opts.has("--add") {
        let Some(base) = opts.value("--base") else {
            return Err(AntError::usage("--add needs --base FILE"));
        };
        let adds = opts.values("--add");
        if adds.is_empty() {
            return Err(AntError::usage("--base needs at least one --add FILE"));
        }
        if !opts.positional.is_empty() {
            return Err(AntError::usage(
                "--base/--add replace the positional input file",
            ));
        }
        return solve_incremental(base, &adds, &opts);
    }
    let cfg = CliConfig::from_opts(&opts)?;
    let [input] = opts.positional.as_slice() else {
        return Err(AntError::usage("solve takes exactly one input file"));
    };
    let (program, out, prepared, _) = run(input, &cfg)?;
    let solution = out.solution;
    for s in &prepared.summaries {
        eprintln!(
            "pass {}: {} -> {} constraints ({:.0}% removed) in {:.3}ms",
            s.pass,
            s.constraints_before,
            s.constraints_after,
            s.reduction_percent(),
            s.elapsed.as_secs_f64() * 1000.0
        );
    }
    eprintln!(
        "solved with {} in {:.3}ms",
        cfg.solver.algorithm,
        out.stats.solve_time.as_secs_f64() * 1000.0
    );
    if cfg.stats {
        eprintln!("{}", out.stats);
    }
    for v in program.vars() {
        if !solution.points_to(v).is_empty() {
            print_pts(&program, &solution, v);
        }
    }
    Ok(())
}

/// The incremental lane of `ant solve`: solve `--base` once, then append
/// each `--add` delta in command-line order, warm-starting from the
/// retained solver state when the configuration supports it. The output is
/// identical either way — a resumed solve is bit-identical to a
/// from-scratch solve of the union program (monotonicity; see DESIGN.md
/// §14) — so non-resumable configurations (HT, BLQ, the HCD variants, the
/// BDD representation) fall back to explicit from-scratch union solves.
fn solve_incremental(base_path: &str, adds: &[&str], opts: &Opts) -> Result<(), AntError> {
    let mut cfg = CliConfig::from_opts(opts)?;
    if cfg.record {
        return Err(AntError::usage(
            "--record is not supported with --base/--add (retained states do not carry \
             provenance arenas); solve the union in one shot to record it",
        ));
    }
    // Offline OVS/HCD equivalences are pinned to the program they were
    // computed for (they are not delta-stable), so the incremental lane
    // defaults to the normalize-only pipeline. An explicit --passes
    // overrides this; non-delta-stable passes then re-run over each union
    // and the warm start is skipped.
    if opts.value("--passes").is_none() && !opts.has("--no-ovs") {
        cfg.passes = PassPipeline::parse("normalize")?;
    }
    if !resume_supported(&cfg.solver, cfg.pts) {
        eprintln!(
            "note: {}/{} does not retain resumable state; each --add re-solves from scratch",
            cfg.solver.algorithm, cfg.pts
        );
    }
    let mut telemetry = Telemetry::from_config(&cfg)?;
    let (program, out, prepared) = {
        let mut fan = telemetry.as_mut().map(Telemetry::fan);
        let mut program = {
            let mut obs = obs_over(&mut fan);
            let mut timer = PhaseTimer::new();
            timer.start(Phase::Parse, &mut obs);
            let loaded = load(base_path);
            timer.stop(&mut obs);
            loaded?
        };
        let mut prepared = {
            let mut obs = obs_over(&mut fan);
            cfg.passes.run_with_obs(&program, &mut obs)
        };
        let (mut out, mut state) = match &mut fan {
            Some(fan) => solve_dyn_resumable_with_observer(
                &prepared.program,
                &cfg.solver,
                cfg.pts,
                &mut *fan,
            ),
            None => solve_dyn_resumable(&prepared.program, &cfg.solver, cfg.pts),
        };
        eprintln!(
            "base {base_path}: {}; solved with {} in {:.3}ms",
            program.stats(),
            cfg.solver.algorithm,
            out.stats.solve_time.as_secs_f64() * 1000.0
        );
        for path in adds {
            let addition = {
                let mut obs = obs_over(&mut fan);
                let mut timer = PhaseTimer::new();
                timer.start(Phase::Parse, &mut obs);
                let loaded = load(path);
                timer.stop(&mut obs);
                loaded?
            };
            let delta = program.delta_from(&addition).map_err(|e| {
                AntError::parse(format!(
                    "{path}: addition does not compose with the base: {e}"
                ))
            })?;
            let union = program.append_delta(&delta);
            let delta_prepared = cfg.passes.prepare_delta(&program, &prepared, &union);
            let delta_lane = delta_prepared.is_some();
            let next_prepared = match delta_prepared {
                Some(p) => p,
                None => {
                    let mut obs = obs_over(&mut fan);
                    cfg.passes.run_with_obs(&union, &mut obs)
                }
            };
            let mut resumed = false;
            let (next_out, next_state) = match (delta_lane, state.take()) {
                (true, Some(st)) => {
                    let r = match &mut fan {
                        Some(fan) => {
                            resume_dyn_with_observer(st, &next_prepared.program, &mut *fan)
                        }
                        None => resume_dyn(st, &next_prepared.program),
                    };
                    match r {
                        Ok((o, s)) => {
                            resumed = true;
                            (o, Some(s))
                        }
                        Err(e) => {
                            eprintln!("warning: resume rejected ({e}); re-solving from scratch");
                            match &mut fan {
                                Some(fan) => solve_dyn_resumable_with_observer(
                                    &next_prepared.program,
                                    &cfg.solver,
                                    cfg.pts,
                                    &mut *fan,
                                ),
                                None => solve_dyn_resumable(
                                    &next_prepared.program,
                                    &cfg.solver,
                                    cfg.pts,
                                ),
                            }
                        }
                    }
                }
                _ => match &mut fan {
                    Some(fan) => solve_dyn_resumable_with_observer(
                        &next_prepared.program,
                        &cfg.solver,
                        cfg.pts,
                        &mut *fan,
                    ),
                    None => solve_dyn_resumable(&next_prepared.program, &cfg.solver, cfg.pts),
                },
            };
            eprintln!(
                "add {path}: +{} vars, +{} constraints; {} in {:.3}ms",
                delta.num_new_vars(),
                delta.constraints().len(),
                if resumed {
                    "resumed"
                } else {
                    "re-solved from scratch"
                },
                next_out.stats.solve_time.as_secs_f64() * 1000.0
            );
            out = next_out;
            state = next_state;
            program = union;
            prepared = next_prepared;
        }
        (program, out, prepared)
    };
    if let Some(telemetry) = telemetry {
        telemetry.finish()?;
    }
    let mut out = out;
    if !prepared.mapping.is_identity() {
        out.solution = out.solution.expand(&prepared.mapping);
    }
    if cfg.stats {
        eprintln!("{}", out.stats);
    }
    let solution = out.solution;
    for v in program.vars() {
        if !solution.points_to(v).is_empty() {
            print_pts(&program, &solution, v);
        }
    }
    Ok(())
}

pub fn query(args: &[String]) -> Result<(), AntError> {
    let Some(opts) = parse_opts(args)? else {
        return Ok(());
    };
    let cfg = CliConfig::from_opts(&opts)?;
    let [input, rest @ ..] = opts.positional.as_slice() else {
        return Err(AntError::usage("query takes an input file"));
    };
    let (program, out, _prepared, _) = run(input, &cfg)?;
    let solution = out.solution;
    if let Some(name) = opts.value("--pointer") {
        let names = solution.points_to_names(&program, name)?;
        println!("pts({name}) = {{{}}}", names.join(", "));
        return Ok(());
    }
    if opts.has("--alias") {
        let [a, b] = rest else {
            return Err(AntError::usage(
                "--alias takes two variable names: ant query f --alias a b",
            ));
        };
        println!(
            "may_alias({a}, {b}) = {}",
            solution.may_alias_names(&program, a, b)?
        );
        return Ok(());
    }
    Err(AntError::usage("query needs --pointer NAME or --alias A B"))
}

/// Solves with the derivation recorder attached and returns everything an
/// explanation needs. Shared by `explain` and `explain-edge`.
fn run_recorded(
    input: &str,
    opts: &Opts,
) -> Result<(Program, SolveOutput, Prepared, ProvRecorder), AntError> {
    let mut cfg = CliConfig::from_opts(opts)?;
    cfg.record = true;
    let (program, out, prepared, prov) = run(input, &cfg)?;
    let prov = prov.ok_or_else(|| {
        AntError::solver("internal: recorded solve returned no provenance despite --record")
    })?;
    Ok((program, out, prepared, prov))
}

fn named_var(program: &Program, name: &str) -> Result<VarId, AntError> {
    program.var_by_name(name).ok_or_else(|| {
        AntError::query(
            QueryErrorKind::UnknownVar,
            format!("no variable named `{name}`"),
        )
    })
}

/// The rendered derivation chain for `obj ∈ pts(ptr)`, in original
/// variable names — the workhorse behind `ant explain`, separated so
/// tests can assert on the chain itself.
fn explain_lines(input: &str, ptr: &str, obj: &str, opts: &Opts) -> Result<Vec<String>, AntError> {
    let (program, out, prepared, prov) = run_recorded(input, opts)?;
    let vp = named_var(&program, ptr)?;
    let vo = named_var(&program, obj)?;
    if !out.solution.may_point_to(vp, vo) {
        return Err(AntError::query(
            QueryErrorKind::NotFound,
            format!("{obj} ∉ pts({ptr}) — nothing to explain"),
        ));
    }
    let mut ex = Explainer::new(&prov, program.num_vars()).with_mapping(&prepared.mapping);
    let steps = ex.explain(vp, vo).ok_or_else(|| {
        AntError::query(
            QueryErrorKind::NotFound,
            format!("no recorded derivation for {obj} ∈ pts({ptr})"),
        )
    })?;
    Ok(steps.iter().map(|s| s.render(&program)).collect())
}

pub fn explain(args: &[String]) -> Result<(), AntError> {
    let Some(opts) = parse_opts(args)? else {
        return Ok(());
    };
    let [input, ptr, obj] = opts.positional.as_slice() else {
        return Err(AntError::usage(
            "explain takes an input file and two variable names: ant explain f.c p x",
        ));
    };
    let lines = explain_lines(input, ptr, obj, &opts)?;
    println!("why {obj} ∈ pts({ptr}):");
    for line in &lines {
        println!("  {line}");
    }
    Ok(())
}

pub fn explain_edge(args: &[String]) -> Result<(), AntError> {
    let Some(opts) = parse_opts(args)? else {
        return Ok(());
    };
    let [input, a, b] = opts.positional.as_slice() else {
        return Err(AntError::usage(
            "explain-edge takes an input file and two variable names: ant explain-edge f.c a b",
        ));
    };
    let (program, _out, prepared, prov) = run_recorded(input, &opts)?;
    let va = named_var(&program, a)?;
    let vb = named_var(&program, b)?;
    let mut ex = Explainer::new(&prov, program.num_vars()).with_mapping(&prepared.mapping);
    let explanation = ex.explain_edge(va, vb).ok_or_else(|| {
        AntError::query(
            QueryErrorKind::NotFound,
            format!("no recorded copy edge {a} → {b}"),
        )
    })?;
    println!("{}", explanation.render(&program));
    Ok(())
}

pub fn gen(args: &[String]) -> Result<(), AntError> {
    let Some(opts) = parse_opts(args)? else {
        return Ok(());
    };
    let [name] = opts.positional.as_slice() else {
        return Err(AntError::usage("gen takes one benchmark name"));
    };
    let scale: f64 = match opts.value("--scale") {
        None => suite::DEFAULT_SCALE,
        Some(s) => s
            .parse()
            .map_err(|_| AntError::usage(format!("bad scale `{s}`")))?,
    };
    let bench = suite::benchmark(name, scale)
        .ok_or_else(|| AntError::usage(format!("unknown benchmark `{name}`")))?;
    let program = bench.program();
    eprintln!("{name}@{scale}: {}", program.stats());
    let text = program.to_text();
    match opts.value("-o") {
        Some(path) => std::fs::write(path, text)
            .map_err(|e| AntError::io(format!("cannot write {path}: {e}")).with_source(e))?,
        None => print!("{text}"),
    }
    Ok(())
}

pub fn compare(args: &[String]) -> Result<(), AntError> {
    let Some(opts) = parse_opts(args)? else {
        return Ok(());
    };
    let cfg = CliConfig::from_opts(&opts)?;
    let [input] = opts.positional.as_slice() else {
        return Err(AntError::usage("compare takes exactly one input file"));
    };
    let program = load(input)?;
    let prepared = cfg.passes.run(&program);
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>12}",
        "algo", "time(ms)", "collapsed", "searched", "propagations"
    );
    let mut reference: Option<Solution> = None;
    for alg in Algorithm::ALL {
        let mut config = cfg.solver;
        config.algorithm = alg;
        let out = solve_prepared(&prepared, &config, cfg.pts);
        println!(
            "{:<8} {:>10.2} {:>10} {:>10} {:>12}",
            alg.name(),
            out.stats.solve_time.as_secs_f64() * 1000.0,
            out.stats.nodes_collapsed,
            out.stats.nodes_searched,
            out.stats.propagations
        );
        let solution = out.solution;
        match &reference {
            None => reference = Some(solution),
            Some(r) => {
                if !solution.equiv(r) {
                    return Err(AntError::solver(format!(
                        "{alg} disagrees with the reference solution"
                    )));
                }
            }
        }
    }
    println!("all algorithms agree ✓");
    Ok(())
}

/// The `ant serve` session loop: a long-lived [`AnalysisSession`] answering
/// JSONL requests on stdin/stdout (or a Unix socket with `--socket`), one
/// typed response envelope per line. The session solves lazily on the
/// first query and caches solves by content key, so repeated loads of the
/// same translation unit are free; malformed or failing requests get
/// error envelopes and never terminate the process.
pub fn serve(args: &[String]) -> Result<(), AntError> {
    let Some(opts) = parse_opts(args)? else {
        return Ok(());
    };
    let cfg = CliConfig::from_opts(&opts)?;
    let deadline_ms = match opts.value("--deadline-ms") {
        None => None,
        Some(n) => Some(n.parse::<u64>().map_err(|_| {
            AntError::usage(format!(
                "bad --deadline-ms `{n}` (want a non-negative integer)"
            ))
        })?),
    };
    let mut session_opts = SessionOptions::new(cfg.solver);
    session_opts.pts = cfg.pts;
    session_opts.passes = if cfg.passes.is_empty() {
        "none".to_string()
    } else {
        cfg.passes.names().join(",")
    };
    session_opts.record = cfg.record;
    session_opts.deadline_ms = deadline_ms;
    let mut session = AnalysisSession::new(session_opts)?;
    // The positional file is pre-loaded before serving; `.c` sources are
    // compiled here (the protocol's `load` op only accepts constraint
    // programs, so the CLI is where C enters a session).
    match opts.positional.as_slice() {
        [] => {}
        [input] => {
            let program = load(input)?;
            eprintln!("loaded {input}: {}", program.stats());
            session.load_program(program)?;
        }
        _ => return Err(AntError::usage("serve takes at most one input file")),
    }
    let mut telemetry = Telemetry::from_config(&cfg)?;
    let mut metrics = ant_core::obs::MetricsRegistry::new();
    {
        let mut fan = telemetry.as_mut().map(Telemetry::fan);
        match opts.value("--socket") {
            None => {
                let stdin = io::stdin();
                let stdout = io::stdout();
                serve_loop(
                    &mut session,
                    stdin.lock(),
                    stdout.lock(),
                    &mut fan,
                    &mut metrics,
                )?;
            }
            Some(path) => serve_socket(&mut session, path, &mut fan, &mut metrics)?,
        }
        // Fold the session's solve-cache counters into the registry so the
        // metrics summary reports cache effectiveness alongside latencies.
        let (cache_hits, cache_misses) = session.cache_counters();
        metrics.add("serve.cache.hits", cache_hits);
        metrics.add("serve.cache.misses", cache_misses);
        // One metrics summary per serve run, so traces carry the request,
        // error and latency aggregates next to the per-request events.
        if let Some(fan) = &mut fan {
            if fan.enabled() {
                fan.on_event(&SolveEvent::Metrics(metrics.snapshot(8)));
            }
        }
    }
    let (solves, _) = session.solve_counters();
    let (cache_hits, cache_misses) = session.cache_counters();
    eprintln!(
        "served {} requests ({} errors), {solves} solves, \
         {cache_hits} cache hits, {cache_misses} cache misses",
        metrics.counter("serve.requests"),
        metrics.counter("serve.errors"),
    );
    if let Some(telemetry) = telemetry {
        telemetry.finish()?;
    }
    Ok(())
}

/// Answers request lines from `reader` on `session`, writing one envelope
/// line per request to `writer` (flushed per line, so pipe clients see
/// answers promptly). Lines are read through
/// [`read_request_line`](ant_core::session::read_request_line) under the
/// [`MAX_REQUEST_LINE`](ant_core::session::MAX_REQUEST_LINE) cap, so an
/// oversized line or invalid UTF-8 gets a `malformed_request` envelope and
/// the connection keeps serving; only a genuine read failure ends it.
/// Every reply is mirrored as a [`SolveEvent::Query`] to the telemetry
/// fan-out and aggregated into `metrics`. Returns `Ok(true)` when a
/// `shutdown` request ended the loop, `Ok(false)` on EOF.
fn serve_loop(
    session: &mut AnalysisSession,
    mut reader: impl BufRead,
    mut writer: impl Write,
    fan: &mut Option<FanOut<'_>>,
    metrics: &mut ant_core::obs::MetricsRegistry,
) -> Result<bool, AntError> {
    use ant_core::session::{read_request_line, MAX_REQUEST_LINE};
    while let Some(line) = read_request_line(&mut reader, MAX_REQUEST_LINE) {
        let reply = match line {
            Ok(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                session.handle_line(&line)
            }
            // Transport-level rejections (length cap, invalid UTF-8) are
            // answered like any malformed request; I/O errors end the
            // connection.
            Err(e) if matches!(e.kind(), ant_common::AntErrorKind::Io) => return Err(e),
            Err(e) => session.transport_error_reply(&e),
        };
        writeln!(writer, "{}", reply.json)?;
        writer.flush()?;
        metrics.add("serve.requests", 1);
        if !reply.ok {
            metrics.add("serve.errors", 1);
        }
        metrics.observe("serve.latency_micros", reply.micros);
        if let Some(fan) = fan {
            if fan.enabled() {
                fan.on_event(&SolveEvent::Query {
                    op: reply.op,
                    ok: reply.ok,
                    micros: reply.micros,
                });
            }
        }
        if reply.shutdown {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Removes the serve lockfile when the server exits, however it exits.
#[cfg(unix)]
struct LockfileGuard(std::path::PathBuf);

#[cfg(unix)]
impl Drop for LockfileGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Serves connections on a Unix socket, one client at a time. A dropped
/// connection only ends that client; a `shutdown` request stops the
/// server (and removes the socket file).
///
/// Before unlinking a stale socket the server takes `<path>.lock`
/// exclusively (`O_CREAT|O_EXCL`): two servers racing on the same path
/// would otherwise both unlink-and-bind, with the loser silently stealing
/// the winner's socket. The bound socket's permissions are restricted to
/// `0600` — the query protocol reads arbitrary files server-side (`load`
/// by path), so the socket must not be world-connectable.
#[cfg(unix)]
fn serve_socket(
    session: &mut AnalysisSession,
    path: &str,
    fan: &mut Option<FanOut<'_>>,
    metrics: &mut ant_core::obs::MetricsRegistry,
) -> Result<(), AntError> {
    use std::os::unix::fs::PermissionsExt;
    use std::os::unix::net::UnixListener;
    let lock_path = std::path::PathBuf::from(format!("{path}.lock"));
    std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&lock_path)
        .map_err(|e| {
            if e.kind() == io::ErrorKind::AlreadyExists {
                AntError::io(format!(
                    "another server is starting on {path} (lockfile {} exists; \
                     remove it if that server is gone)",
                    lock_path.display()
                ))
            } else {
                AntError::io(format!(
                    "cannot create lockfile {}: {e}",
                    lock_path.display()
                ))
                .with_source(e)
            }
        })?;
    let _lock = LockfileGuard(lock_path);
    if std::fs::metadata(path).is_ok() {
        std::fs::remove_file(path).map_err(|e| {
            AntError::io(format!("cannot replace stale socket {path}: {e}")).with_source(e)
        })?;
    }
    let listener = UnixListener::bind(path)
        .map_err(|e| AntError::io(format!("cannot bind {path}: {e}")).with_source(e))?;
    std::fs::set_permissions(path, std::fs::Permissions::from_mode(0o600))
        .map_err(|e| AntError::io(format!("cannot chmod {path}: {e}")).with_source(e))?;
    eprintln!("serving on {path}");
    for conn in listener.incoming() {
        let conn = match conn {
            Ok(c) => c,
            // A failed accept leaves the listener usable; keep serving.
            Err(e) => {
                eprintln!("accept failed: {e}");
                continue;
            }
        };
        let reader = match conn.try_clone() {
            Ok(c) => io::BufReader::new(c),
            Err(e) => {
                eprintln!("connection dropped: {e}");
                continue;
            }
        };
        match serve_loop(session, reader, conn, fan, metrics) {
            Ok(true) => break,
            Ok(false) => {}
            // A client vanishing mid-reply must not kill the daemon.
            Err(e) => eprintln!("connection dropped: {e}"),
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(not(unix))]
fn serve_socket(
    _session: &mut AnalysisSession,
    _path: &str,
    _fan: &mut Option<FanOut<'_>>,
    _metrics: &mut ant_core::obs::MetricsRegistry,
) -> Result<(), AntError> {
    Err(AntError::usage(
        "--socket is only supported on Unix platforms",
    ))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn write_temp(name: &str, contents: &str) -> String {
        let dir = std::env::temp_dir().join("ant-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn compile_and_solve_roundtrip() {
        let c = write_temp("t1.c", "int x; int *p; void main() { p = &x; }");
        let out = write_temp("t1.consts", "");
        compile(&s(&[&c, "-o", &out])).unwrap();
        solve(&s(&[&out])).unwrap();
        solve(&s(&[&c, "--algorithm", "HT", "--pts", "bdd", "--stats"])).unwrap();
        solve(&s(&[&c, "--pts", "shared", "--stats"])).unwrap();
    }

    /// `--pts shared` traces carry the final `repr_cache` record, and the
    /// shared solve agrees with the bitmap solve it shadows.
    #[test]
    fn solve_shared_emits_repr_cache_record() {
        use ant_core::obs::parse_object;
        let c = write_temp(
            "t7.c",
            "int x; int *p; int *q; int **a;\n\
             void main() { a = &p; p = &x; q = *a; *a = q; }",
        );
        let trace = write_temp("t7.jsonl", "");
        solve(&s(&[&c, "--pts", "shared", "--trace-out", &trace])).unwrap();
        let text = std::fs::read_to_string(&trace).unwrap();
        let cache_records: Vec<_> = text
            .lines()
            .map(|l| parse_object(l).unwrap())
            .filter(|r| r["event"].as_str() == Some("repr_cache"))
            .collect();
        assert_eq!(cache_records.len(), 1);
        let r = &cache_records[0];
        assert!(r["distinct_sets"].as_u64().unwrap() >= 1);
        assert!(r["intern_misses"].as_u64().unwrap() >= 1);
    }

    #[test]
    fn query_pointer_and_alias() {
        let c = write_temp(
            "t2.c",
            "int x; int *p; int *q; void main() { p = &x; q = p; }",
        );
        query(&s(&[&c, "--pointer", "p"])).unwrap();
        query(&s(&[&c, "--alias", "p", "q"])).unwrap();
        assert!(query(&s(&[&c, "--pointer", "nope"])).is_err());
        assert!(query(&s(&[&c])).is_err());
    }

    #[test]
    fn gen_writes_workloads() {
        let out = write_temp("t3.consts", "");
        gen(&s(&["emacs", "--scale", "0.005", "-o", &out])).unwrap();
        let program = parse_program(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert!(program.stats().total() > 50);
        assert!(gen(&s(&["nope"])).is_err());
    }

    /// Acceptance: `ant explain` produces a derivation chain in *original*
    /// variable names that terminates at a base `&` constraint — both on
    /// the raw program and after the full offline pipeline (whose merges
    /// must be composed back through the solution mapping).
    #[test]
    fn explain_terminates_at_address_of_under_any_pass_subset() {
        let c = write_temp(
            "t8.c",
            "int x; int *p; int *q; int *r; int **a;\n\
             void main() { a = &p; p = &x; q = *a; *a = q; r = q; }",
        );
        for passes in ["none", "normalize,ovs,hcd"] {
            let opts = Opts::parse(&s(&[&c, "--passes", passes])).unwrap();
            let lines = explain_lines(&c, "r", "x", &opts)
                .unwrap_or_else(|e| panic!("explain with --passes {passes}: {e}"));
            assert!(!lines.is_empty());
            let last = lines.last().unwrap();
            assert!(
                last.contains("base constraint") && last.contains("&x"),
                "--passes {passes}: chain must end at the AddressOf fact, got `{last}`"
            );
            for name in ["r", "x"] {
                assert!(
                    lines.iter().any(|l| l.contains(name)),
                    "--passes {passes}: chain renders original names ({name}): {lines:?}"
                );
            }
        }
        // The CLI entry points drive the same path end to end.
        explain(&s(&[&c, "r", "x", "--passes", "normalize,ovs,hcd"])).unwrap();
        // OVS merges the q/r equivalence class, so probe the copy edge on
        // the unpreprocessed graph where `r = q` survives as an edge.
        explain_edge(&s(&[&c, "q", "r", "--passes", "none"])).unwrap();
        assert!(
            explain(&s(&[&c, "x", "r"])).is_err(),
            "x does not point to r"
        );
        assert!(explain(&s(&[&c, "r"])).is_err(), "missing positional");
    }

    #[test]
    fn compare_agrees_on_small_input() {
        let c = write_temp(
            "t4.c",
            "int x; int *p; int **pp; void main() { p = &x; pp = &p; **pp = x; }",
        );
        compare(&s(&[&c])).unwrap();
    }

    /// Golden end-to-end check of the `--trace-out` JSONL schema: every
    /// line parses, carries `t`/`event`/`solver`, and the run produces the
    /// expected span structure plus at least one progress snapshot and one
    /// cycle collapse.
    #[test]
    fn solve_trace_out_emits_schema_conformant_jsonl() {
        use ant_core::obs::parse_object;
        // `*a ⊇ q` and `q ⊇ *a` put {*a, q} in one offline SCC, so HCD
        // collapses pts(a) with q online — guaranteeing a cycle event.
        let c = write_temp(
            "t6.c",
            "int x; int *p; int *q; int **a;\n\
             void main() { a = &p; p = &x; q = *a; *a = q; }",
        );
        let trace = write_temp("t6.jsonl", "");
        solve(&s(&[
            &c,
            "--algorithm",
            "lcd-hcd",
            "--no-ovs",
            "--threads",
            "4",
            "--record",
            "--trace-out",
            &trace,
            "--progress-every",
            "1",
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&trace).unwrap();
        let records: Vec<_> = text
            .lines()
            .map(|l| parse_object(l).expect("every trace line is a flat JSON object"))
            .collect();
        assert!(!records.is_empty());
        let mut last_t = 0.0;
        for r in &records {
            let t = r["t"].as_f64().expect("t is a number");
            assert!(t >= last_t, "timestamps are monotone");
            last_t = t;
            assert!(r.contains_key("solver"));
            let event = r["event"].as_str().expect("event is a string");
            match event {
                "phase_start" => assert!(r["phase"].as_str().is_some()),
                "phase_end" => {
                    assert!(r["phase"].as_str().is_some());
                    assert!(r["seconds"].as_f64().unwrap() >= 0.0);
                }
                "progress" => {
                    for key in ["worklist", "nodes", "propagations", "pts_bytes"] {
                        assert!(r[key].as_u64().is_some(), "progress carries {key}");
                    }
                }
                "cycle_collapsed" => assert!(r["members"].as_u64().unwrap() >= 1),
                "graph_mutation" => assert!(r["edges_added"].as_u64().is_some()),
                "repr_cache" => {
                    for key in [
                        "intern_hits",
                        "intern_misses",
                        "memo_hits",
                        "memo_misses",
                        "distinct_sets",
                    ] {
                        assert!(r[key].as_u64().is_some(), "repr_cache carries {key}");
                    }
                }
                "round_summary" => {
                    for key in [
                        "round",
                        "nodes",
                        "shards",
                        "hints",
                        "hint_hits",
                        "worker_micros",
                    ] {
                        assert!(r[key].as_u64().is_some(), "round_summary carries {key}");
                    }
                }
                "shard_utilization" => {
                    for key in ["round", "shard", "nodes", "busy_micros"] {
                        assert!(r[key].as_u64().is_some(), "shard_utilization carries {key}");
                    }
                }
                "pass_summary" => {
                    assert!(r["pass"].as_str().is_some());
                    for key in [
                        "constraints_before",
                        "constraints_after",
                        "vars_merged",
                        "micros",
                    ] {
                        assert!(r[key].as_u64().is_some(), "pass_summary carries {key}");
                    }
                }
                "solver_start" => {}
                "resume" => {
                    assert!(r["new_vars"].as_u64().is_some());
                    assert!(r["new_constraints"].as_u64().is_some());
                }
                "metrics" => {
                    let kind = r["kind"].as_str().expect("metrics lines carry kind");
                    match kind {
                        "summary" => {
                            for key in ["counters", "hists", "tops"] {
                                assert!(r[key].as_u64().is_some(), "summary carries {key}");
                            }
                        }
                        "counter" => {
                            assert!(r["name"].as_str().is_some());
                            assert!(r["value"].as_u64().is_some());
                        }
                        "hist" => {
                            assert!(r["name"].as_str().is_some());
                            assert!(r["buckets"].as_str().is_some());
                        }
                        "top" => {
                            assert!(r["name"].as_str().is_some());
                            assert!(r["entries"].as_str().is_some());
                        }
                        other => panic!("unknown metrics kind `{other}`"),
                    }
                }
                other => panic!("unknown event kind `{other}`"),
            }
        }
        let count = |ev: &str| {
            records
                .iter()
                .filter(|r| r["event"].as_str() == Some(ev))
                .count()
        };
        assert_eq!(count("solver_start"), 1);
        assert!(count("progress") >= 1, "at least one snapshot per run");
        assert!(count("cycle_collapsed") >= 1, "HCD collapsed the cycle");
        assert!(count("round_summary") >= 1, "BSP rounds leave summaries");
        assert!(
            records
                .iter()
                .any(|r| r["event"].as_str() == Some("metrics")
                    && r["kind"].as_str() == Some("summary")),
            "recorded runs flush a metrics summary"
        );
        assert_eq!(count("phase_start"), count("phase_end"), "spans balance");
        let phases: Vec<_> = records
            .iter()
            .filter(|r| r["event"].as_str() == Some("phase_start"))
            .map(|r| r["phase"].as_str().unwrap().to_owned())
            .collect();
        for expected in ["parse", "offline_hcd", "offline_scc", "solve"] {
            assert!(
                phases.iter().any(|p| p == expected),
                "saw a {expected} span"
            );
        }
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        assert!(load("/nonexistent/file.c").is_err());
        assert!(compile(&s(&["not_c.txt"])).is_err());
        assert!(solve(&s(&[])).is_err());
        let c = write_temp("t5.c", "int x;");
        assert!(solve(&s(&[&c, "--algorithm", "WAT"])).is_err());
        assert!(solve(&s(&[&c, "--pts", "rope"])).is_err());
        assert!(solve(&s(&[&c, "--threads", "0"])).is_err());
        assert!(solve(&s(&[&c, "--threads", "many"])).is_err());
        assert!(solve(&s(&[&c, "--prop", "wat"])).is_err());
        let err = solve(&s(&[&c, "--fast"])).unwrap_err();
        assert!(err.message().contains("unknown flag `--fast`"));
    }

    /// Every failure class maps to its own exit code through
    /// [`AntError::kind`] — the contract scripted callers rely on.
    #[test]
    fn error_kinds_are_typed_for_exit_codes() {
        use ant_common::AntErrorKind;
        let c = write_temp("t10.c", "int x; int *p; void main() { p = &x; }");
        let kind = |r: Result<(), AntError>| r.unwrap_err().kind();
        assert_eq!(kind(solve(&s(&["--pts", "rope", &c]))), AntErrorKind::Usage);
        assert_eq!(kind(solve(&s(&["/nonexistent.consts"]))), AntErrorKind::Io);
        let bad = write_temp("t10.consts", "p = &&&");
        assert_eq!(kind(solve(&s(&[&bad]))), AntErrorKind::Parse);
        assert_eq!(
            kind(solve(&s(&[&c, "--passes", "hcd,ovs"]))),
            AntErrorKind::Pipeline
        );
        assert_eq!(
            kind(query(&s(&[&c, "--pointer", "nope"]))),
            AntErrorKind::Query(QueryErrorKind::UnknownVar)
        );
        assert_eq!(
            kind(explain(&s(&[&c, "x", "p"]))),
            AntErrorKind::Query(QueryErrorKind::NotFound)
        );
    }

    #[test]
    fn help_flag_short_circuits_every_command() {
        for cmd in [
            compile,
            solve,
            query,
            explain,
            explain_edge,
            gen,
            compare,
            serve,
        ] {
            cmd(&s(&["--help"])).unwrap();
        }
        assert!(usage().contains("--threads N"));
        assert!(usage().contains("--prop MODE"));
        assert!(usage().contains("ant serve"));
        assert!(usage().contains("--socket PATH"));
        assert!(usage().contains("--deadline-ms N"));
    }

    #[test]
    fn serve_rejects_bad_invocations() {
        let c = write_temp("t11.c", "int x;");
        let err = serve(&s(&[&c, &c])).unwrap_err();
        assert!(err.message().contains("at most one input file"));
        let err = serve(&s(&["--deadline-ms", "soon"])).unwrap_err();
        assert_eq!(err.kind(), ant_common::AntErrorKind::Usage);
        assert!(serve(&s(&["/nonexistent/f.consts"])).is_err());
    }

    /// End-to-end over a real Unix socket: load a compiled program at
    /// startup, answer queries (including a malformed line that must not
    /// kill the server), shut down cleanly, and remove the socket file.
    #[cfg(unix)]
    #[test]
    fn serve_answers_over_a_unix_socket() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;
        let c = write_temp(
            "t12.c",
            "int x; int *p; int *q; void main() { p = &x; q = p; }",
        );
        let sock = std::env::temp_dir()
            .join("ant-cli-tests")
            .join("t12.sock")
            .to_string_lossy()
            .into_owned();
        let args = s(&[&c, "--socket", &sock, "--record"]);
        let server = std::thread::spawn(move || serve(&args));
        let mut conn = None;
        for _ in 0..200 {
            match UnixStream::connect(&sock) {
                Ok(c) => {
                    conn = Some(c);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        let conn = conn.expect("server came up");
        // The socket is private to the serving user.
        {
            use std::os::unix::fs::PermissionsExt;
            let mode = std::fs::metadata(&sock).unwrap().permissions().mode();
            assert_eq!(mode & 0o777, 0o600, "socket must be 0600");
        }
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut writer = conn;
        // Invalid UTF-8 must be answered with an envelope, not kill the
        // connection.
        writer.write_all(b"\xff\xfe{not utf8}\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(
            reply.contains(r#""error":"malformed_request""#) && reply.contains("UTF-8"),
            "got {reply}"
        );
        let mut ask = |line: &str| {
            writeln!(writer, "{line}").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            reply
        };
        let reply = ask(r#"{"op":"points_to","var":"q","id":1}"#);
        assert!(reply.contains(r#""ok":true"#), "got {reply}");
        assert!(reply.contains(r#""pts":["x"]"#), "got {reply}");
        let reply = ask("not json at all");
        assert!(
            reply.contains(r#""error":"malformed_request""#),
            "got {reply}"
        );
        // A request line over the transport cap is rejected with an
        // envelope and the connection keeps serving.
        let big = format!(r#"{{"op":"stats","pad":"{}"}}"#, "y".repeat(2 << 20));
        let reply = ask(&big);
        assert!(
            reply.contains(r#""error":"malformed_request""#) && reply.contains("exceeds"),
            "got {reply}"
        );
        let reply = ask(r#"{"op":"may_alias","a":"p","b":"q"}"#);
        assert!(reply.contains(r#""alias":true"#), "got {reply}");
        let reply = ask(r#"{"op":"explain","var":"q","loc":"x"}"#);
        assert!(reply.contains(r#""ok":true"#), "got {reply}");
        // The incremental `add` op: this session's config (recorded, OVS in
        // the pipeline) is not resumable, so the union is re-solved from
        // scratch — explicitly reported via `resumed: false`.
        let reply = ask(r#"{"op":"add","text":"w = q\n"}"#);
        assert!(reply.contains(r#""ok":true"#), "got {reply}");
        assert!(reply.contains(r#""resumed":false"#), "got {reply}");
        let reply = ask(r#"{"op":"points_to","var":"w"}"#);
        assert!(reply.contains(r#""pts":["x"]"#), "got {reply}");
        let reply = ask(r#"{"op":"stats"}"#);
        assert!(reply.contains(r#""cache_misses""#), "got {reply}");
        let reply = ask(r#"{"op":"shutdown"}"#);
        assert!(reply.contains(r#""ok":true"#), "got {reply}");
        server.join().unwrap().unwrap();
        assert!(
            !std::path::Path::new(&sock).exists(),
            "socket file removed on shutdown"
        );
        assert!(
            !std::path::Path::new(&format!("{sock}.lock")).exists(),
            "lockfile removed on shutdown"
        );
    }

    /// A concurrently starting server holds `<path>.lock`; the second
    /// server must refuse to unlink the socket out from under it.
    #[cfg(unix)]
    #[test]
    fn serve_socket_refuses_when_lockfile_held() {
        let sock = std::env::temp_dir()
            .join("ant-cli-tests")
            .join("t16.sock")
            .to_string_lossy()
            .into_owned();
        std::fs::create_dir_all(std::env::temp_dir().join("ant-cli-tests")).unwrap();
        let lock = format!("{sock}.lock");
        std::fs::write(&lock, "").unwrap();
        let err = serve(&s(&["--socket", &sock])).unwrap_err();
        assert!(err.message().contains("lockfile"), "{err}");
        std::fs::remove_file(&lock).unwrap();
    }

    /// `ant solve --base/--add` warm-starts the retained state: the trace
    /// carries a `resume` event, two `solver_start` records (base solve +
    /// resumed solve), and the printed solution is the union's. A
    /// non-resumable algorithm runs the same lane without any resume event.
    #[test]
    fn incremental_solve_resumes_and_traces() {
        use ant_core::obs::parse_object;
        let base = write_temp("t14a.consts", "p = &x\nq = p\n");
        let delta = write_temp("t14b.consts", "r = q\nt = &r\n");
        let trace = write_temp("t14.jsonl", "");
        solve(&s(&[
            "--base",
            &base,
            "--add",
            &delta,
            "--algorithm",
            "lcd",
            "--trace-out",
            &trace,
            "--stats",
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&trace).unwrap();
        let events: Vec<String> = text
            .lines()
            .map(|l| {
                parse_object(l).unwrap()["event"]
                    .as_str()
                    .unwrap()
                    .to_owned()
            })
            .collect();
        assert!(
            events.iter().any(|e| e == "resume"),
            "trace carries the resume event: {events:?}"
        );
        assert_eq!(events.iter().filter(|e| *e == "solver_start").count(), 2);
        // Chained --add flags keep resuming off the latest union.
        let more = write_temp("t14c.consts", "u = t\n");
        solve(&s(&["--base", &base, "--add", &delta, "--add", &more])).unwrap();
        // A non-resumable algorithm (HT) re-solves from scratch: no resume
        // event, but the lane still completes.
        let trace2 = write_temp("t14d.jsonl", "");
        solve(&s(&[
            "--base",
            &base,
            "--add",
            &delta,
            "--algorithm",
            "ht",
            "--trace-out",
            &trace2,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&trace2).unwrap();
        assert!(!text.contains("\"event\":\"resume\""), "HT never resumes");
        // An explicit non-delta-stable pipeline also falls back cleanly.
        solve(&s(&[
            "--base",
            &base,
            "--add",
            &delta,
            "--algorithm",
            "lcd",
            "--passes",
            "normalize,ovs",
        ]))
        .unwrap();
    }

    #[test]
    fn incremental_solve_rejects_bad_invocations() {
        let base = write_temp("t15a.consts", "p = &x\n");
        let delta = write_temp("t15b.consts", "q = p\n");
        let err = solve(&s(&["--add", &delta])).unwrap_err();
        assert!(err.message().contains("--add needs --base"));
        let err = solve(&s(&["--base", &base])).unwrap_err();
        assert!(err.message().contains("at least one --add"));
        let err = solve(&s(&["x.c", "--base", &base, "--add", &delta])).unwrap_err();
        assert!(err.message().contains("replace the positional"));
        let err = solve(&s(&["--base", &base, "--add", &delta, "--record"])).unwrap_err();
        assert!(err.message().contains("--record is not supported"));
        // A delta that conflicts with the base is a typed parse error.
        let clash = write_temp("t15c.consts", "fun p 4\n");
        let err = solve(&s(&["--base", &base, "--add", &clash])).unwrap_err();
        assert_eq!(err.kind(), ant_common::AntErrorKind::Parse);
        assert!(err.message().contains("does not compose"));
    }

    #[test]
    fn threads_flag_parses_into_the_solver_config() {
        let opts = Opts::parse(&s(&["f.c", "--threads", "4", "--pts", "shared"])).unwrap();
        let cfg = CliConfig::from_opts(&opts).unwrap();
        assert_eq!(cfg.solver.threads, 4);
        assert_eq!(cfg.pts, PtsKind::Shared);
        let opts = Opts::parse(&s(&["f.c"])).unwrap();
        let cfg = CliConfig::from_opts(&opts).unwrap();
        assert_eq!(cfg.pts, PtsKind::Bitmap);
        assert!(cfg.solver.threads >= 1);
        assert_eq!(cfg.solver.prop, PropMode::Full);
        let opts = Opts::parse(&s(&["f.c", "--prop", "diff"])).unwrap();
        let cfg = CliConfig::from_opts(&opts).unwrap();
        assert_eq!(cfg.solver.prop, PropMode::Diff);
    }

    #[test]
    fn passes_flag_parses_into_a_pipeline() {
        let opts = Opts::parse(&s(&["f.c", "--passes", "normalize,ovs,hcd"])).unwrap();
        let cfg = CliConfig::from_opts(&opts).unwrap();
        assert_eq!(cfg.passes.names(), vec!["normalize", "ovs", "hcd"]);

        // Default is the standard pipeline.
        let opts = Opts::parse(&s(&["f.c"])).unwrap();
        let cfg = CliConfig::from_opts(&opts).unwrap();
        assert_eq!(cfg.passes.names(), vec!["normalize", "ovs"]);

        // `--no-ovs` and `--passes none` both mean "no preprocessing".
        for args in [&["f.c", "--no-ovs"][..], &["f.c", "--passes", "none"][..]] {
            let opts = Opts::parse(&s(args)).unwrap();
            let cfg = CliConfig::from_opts(&opts).unwrap();
            assert!(cfg.passes.is_empty());
        }

        let opts = Opts::parse(&s(&["f.c", "--passes", "ovs", "--no-ovs"])).unwrap();
        let err = CliConfig::from_opts(&opts).unwrap_err();
        assert!(err.message().contains("mutually exclusive"));

        let opts = Opts::parse(&s(&["f.c", "--passes", "frobnicate"])).unwrap();
        let err = CliConfig::from_opts(&opts).unwrap_err();
        assert!(err.message().contains("frobnicate"));

        let opts = Opts::parse(&s(&["f.c", "--passes", "hcd,ovs"])).unwrap();
        let err = CliConfig::from_opts(&opts).unwrap_err();
        assert!(err.message().contains("hcd must be last"));
    }

    /// Every pass subset prints the same points-to sets, and traces carry
    /// one `pass_summary` record per pass run.
    #[test]
    fn pass_subsets_agree_and_trace_summaries() {
        use ant_core::obs::parse_object;
        let c = write_temp(
            "t9.c",
            "int x; int *p; int *q; int **a;\n\
             void main() { a = &p; p = &x; q = *a; *a = q; }",
        );
        for spec in ["none", "normalize", "ovs", "normalize,ovs,hcd"] {
            solve(&s(&[&c, "--passes", spec])).unwrap();
        }
        let trace = write_temp("t9.jsonl", "");
        solve(&s(&[
            &c,
            "--passes",
            "normalize,ovs,hcd",
            "--trace-out",
            &trace,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&trace).unwrap();
        let passes: Vec<String> = text
            .lines()
            .map(|l| parse_object(l).unwrap())
            .filter(|r| r["event"].as_str() == Some("pass_summary"))
            .map(|r| r["pass"].as_str().unwrap().to_owned())
            .collect();
        assert_eq!(passes, vec!["normalize", "ovs", "hcd"]);
    }

    /// `--threads 4` prints the same points-to sets as `--threads 1` — the
    /// BSP engine is user-invisible apart from speed.
    #[test]
    fn parallel_solve_matches_sequential_output() {
        let c = write_temp(
            "t8.c",
            "int x; int *p; int *q; int **a;\n\
             void main() { a = &p; p = &x; q = *a; *a = q; }",
        );
        for alg in ["lcd", "lcd-hcd", "pkh"] {
            solve(&s(&[&c, "--algorithm", alg, "--threads", "1"])).unwrap();
            solve(&s(&[&c, "--algorithm", alg, "--threads", "4"])).unwrap();
        }
    }
}
