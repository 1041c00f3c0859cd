//! The four workloads, their inputs, and the layer timings taken around
//! each call into the program.
//!
//! | workload      | stresses                                                     |
//! |---------------|--------------------------------------------------------------|
//! | `large-batch` | the solve and expansion: two large programs, text to answer  |
//! | `small-batch` | the front end and pipeline: 24 small programs, same pipeline |
//! | `serve-read`  | the session's read path: 60/25/15 points_to/may_alias/resolve |
//! | `serve-edit`  | the session's write path: `add` deltas resumed beside reads  |
//!
//! Every input is generated from the workload's seed before anything is
//! timed; the program under test only ever sees the generated text.

use crate::check::{self, Digest};
use crate::report::{median, Latencies, Report, Spans};
use ant_common::obs::{parse_object, JsonObject, JsonValue, Obs, Observer, SolveEvent};
use ant_common::{VarId, WorklistKind};
use ant_constraints::pipeline::{PassPipeline, SolutionMapping};
use ant_constraints::{parse_program, Program};
use ant_core::session::{AnalysisSession, SessionOptions};
use ant_core::{
    resume_dyn, solve_dyn_resumable, solve_prepared_raw, solve_prepared_with_observer, Algorithm,
    PropMode, PtsKind, Solution, SolverConfig, SolverStats,
};
use ant_frontend::suite;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

pub const NAMES: [&str; 4] = ["large-batch", "small-batch", "serve-read", "serve-edit"];

/// Input sizes, traffic volumes and timed duration of the four workloads.
pub struct Sizes {
    /// How long the timed part of a run lasts unless `--seconds` says
    /// otherwise.
    pub seconds: f64,
    /// Scale of the linux and wine shapes in `large-batch`.
    large_scale: f64,
    /// Scale of the six Table-2 shapes in `small-batch`.
    small_scale: f64,
    /// Seeds per shape in `small-batch`.
    small_seeds: u64,
    /// Scale of the linux shape `serve-read` loads.
    read_scale: f64,
    /// Distinct requests `serve-read` cycles through.
    read_pool: usize,
    /// Untimed requests before `serve-read` starts timing.
    read_warmup: usize,
    /// Scale of the linux shape `serve-edit` splits into a base and deltas.
    edit_scale: f64,
    /// `add` requests per `serve-edit` round.
    edit_adds: usize,
    /// Constraints per `add`.
    edit_add_len: usize,
    /// `points_to` requests after each `add`.
    edit_reads: usize,
    /// Replies compared with the one-shot solution.
    checks: usize,
    /// Set-ups per run; `setup_s` is their median.
    setups: usize,
    /// Traced and untraced one-shot analyses per serve run (traced runs).
    breakdowns: usize,
    /// Fewest timed batch passes per run.
    min_passes: usize,
}

pub const FULL: Sizes = Sizes {
    seconds: 20.0,
    large_scale: 0.1,
    small_scale: 0.03,
    small_seeds: 4,
    read_scale: 0.1,
    read_pool: 1 << 16,
    read_warmup: 50_000,
    edit_scale: 0.05,
    edit_adds: 100,
    edit_add_len: 60,
    edit_reads: 200,
    checks: 1000,
    setups: 5,
    breakdowns: 3,
    min_passes: 4,
};

/// A few seconds for all four workloads: what `--smoke` and the tests run.
pub const SMOKE: Sizes = Sizes {
    seconds: 0.2,
    large_scale: 0.004,
    small_scale: 0.002,
    small_seeds: 2,
    read_scale: 0.004,
    read_pool: 2048,
    read_warmup: 500,
    edit_scale: 0.006,
    edit_adds: 10,
    edit_add_len: 20,
    edit_reads: 20,
    checks: 100,
    setups: 2,
    breakdowns: 1,
    min_passes: 2,
};

impl Sizes {
    pub fn describe(&self) -> String {
        format!(
            "large-batch linux,wine@{}; small-batch 6 shapes@{} x{} seeds; \
             serve-read linux@{}; serve-edit linux@{} {}x{} adds",
            self.large_scale,
            self.small_scale,
            self.small_seeds,
            self.read_scale,
            self.edit_scale,
            self.edit_adds,
            self.edit_add_len
        )
    }
}

/// Solver configuration with the environment pinned: one thread, the
/// paper's worklist, full propagation, no progress snapshots. Built field
/// by field so that no `ANT_*` variable is read.
pub fn solver(algorithm: Algorithm) -> SolverConfig {
    SolverConfig {
        algorithm,
        worklist: WorklistKind::DividedLrf,
        progress_every: 0,
        threads: 1,
        prop: PropMode::Full,
    }
}

/// One generated program, as the text the program under test reads.
pub struct Input {
    pub name: String,
    pub text: String,
}

/// A suite shape at `scale`, its generator seed XORed with the run seed
/// and the per-copy salt `k` (seed 0, copy 0 is the suite's own program).
fn generate(shape: &str, scale: f64, seed: u64, k: u64) -> Program {
    let mut b = suite::benchmark(shape, scale).expect("a suite shape");
    b.spec.seed ^= seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    b.program()
}

fn input(shape: &str, scale: f64, seed: u64, k: u64) -> Input {
    Input {
        name: format!("{shape}@{scale}#{k}"),
        text: generate(shape, scale, seed, k).to_text(),
    }
}

/// The programs whose answers a workload checks against the reference.
pub fn checked_inputs(workload: &str, sizes: &Sizes, seed: u64) -> Vec<Input> {
    match workload {
        "large-batch" => ["linux", "wine"]
            .iter()
            .map(|s| input(s, sizes.large_scale, seed, 0))
            .collect(),
        "small-batch" => suite::suite(sizes.small_scale)
            .iter()
            .flat_map(|b| {
                (0..sizes.small_seeds).map(|k| input(b.name(), sizes.small_scale, seed, k))
            })
            .collect(),
        "serve-read" => vec![input("linux", sizes.read_scale, seed, 0)],
        "serve-edit" => vec![input("linux", sizes.edit_scale, seed, 0)],
        other => panic!("unknown workload {other}"),
    }
}

/// An observer that keeps nothing: attaching one switches on the solver's
/// per-phase clocks (`SolverStats::{propagate,cycle,complex}_time`) and
/// the pipeline's phase spans.
struct PhaseClocks;

impl Observer for PhaseClocks {
    fn on_event(&mut self, _event: &SolveEvent) {}
}

/// Layer timings and counters of one analysis, or summed over a batch pass.
#[derive(Clone, Default)]
struct Sample {
    parse: f64,
    passes: f64,
    solve: f64,
    expand: f64,
    total: f64,
    text_bytes: usize,
    constraints_out: usize,
    pass_secs: Vec<(&'static str, f64)>,
    stats: SolverStats,
    facts: u64,
}

impl Sample {
    fn absorb(&mut self, a: &Sample) {
        self.parse += a.parse;
        self.passes += a.passes;
        self.solve += a.solve;
        self.expand += a.expand;
        self.total += a.total;
        self.text_bytes += a.text_bytes;
        self.constraints_out += a.constraints_out;
        for &(name, secs) in &a.pass_secs {
            match self.pass_secs.iter_mut().find(|(n, _)| *n == name) {
                Some((_, s)) => *s += secs,
                None => self.pass_secs.push((name, secs)),
            }
        }
        self.stats += &a.stats;
        self.facts += a.facts;
    }
}

/// A run in progress: its settings, tally, and spans.
struct Run<'a> {
    sizes: &'a Sizes,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: Report,
    spans: Spans,
    ops: u64,
}

impl Run<'_> {
    fn next_op(&mut self) -> u64 {
        self.ops += 1;
        self.ops
    }

    /// One text-to-answer analysis: `parse_program`, the pass pipeline, the
    /// solve and `Solution::expand`, each timed from outside. Traced
    /// analyses attach [`PhaseClocks`] to the pipeline and the solve.
    fn analyze(
        &mut self,
        text: &str,
        pipeline: &PassPipeline,
        config: &SolverConfig,
        traced: bool,
    ) -> Result<(Sample, Solution), String> {
        let op = self.next_op();
        let spans = &mut self.spans;
        catch_unwind(AssertUnwindSafe(|| {
            let t0 = Instant::now();
            let program = parse_program(text).map_err(|e| format!("parse: {e}"))?;
            let t1 = Instant::now();
            let mut prepared = if traced {
                pipeline.run_with_obs(&program, &mut Obs::new(&mut PhaseClocks, 0))
            } else {
                pipeline.run(&program)
            };
            // The observer variant expands inside the call; hand it an
            // identity mapping so expansion is timed on its own below, as
            // on the untraced path.
            let mapping = traced.then(|| {
                std::mem::replace(
                    &mut prepared.mapping,
                    SolutionMapping::identity(program.num_vars()),
                )
            });
            let t2 = Instant::now();
            let out = match mapping {
                Some(_) => solve_prepared_with_observer(
                    &prepared,
                    config,
                    PtsKind::Bitmap,
                    &mut PhaseClocks,
                ),
                None => solve_prepared_raw(&prepared, config, PtsKind::Bitmap),
            };
            let t3 = Instant::now();
            if let Some(m) = mapping {
                prepared.mapping = m;
            }
            let solution = out.solution.expand(&prepared.mapping);
            let t4 = Instant::now();
            for (name, a, b) in [
                ("parse", t0, t1),
                ("passes", t1, t2),
                ("solve", t2, t3),
                ("expand", t3, t4),
                ("analysis", t0, t4),
            ] {
                let parent = if name == "analysis" { "" } else { "analysis" };
                spans.record(op, name, parent, a, b);
            }
            let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
            let sample = Sample {
                parse: secs(t0, t1),
                passes: secs(t1, t2),
                solve: secs(t2, t3),
                expand: secs(t3, t4),
                total: secs(t0, t4),
                text_bytes: text.len(),
                constraints_out: prepared.constraints_after(),
                pass_secs: prepared
                    .summaries
                    .iter()
                    .map(|s| (s.pass, s.elapsed.as_secs_f64()))
                    .collect(),
                stats: out.stats,
                facts: solution.total_pts_size() as u64,
            };
            Ok((sample, solution))
        }))
        .unwrap_or_else(|_| Err("analysis panicked".into()))
    }

    /// [`analyze`](Self::analyze), with the answer checked against
    /// `reference` and the outcome counted as one operation.
    fn checked_analysis(
        &mut self,
        input: &Input,
        reference: Digest,
        pipeline: &PassPipeline,
        config: &SolverConfig,
        traced: bool,
    ) -> Option<(Sample, Solution)> {
        let result = self
            .analyze(&input.text, pipeline, config, traced)
            .and_then(|(sample, solution)| {
                let got = check::digest(&solution);
                if got == reference {
                    Ok((sample, solution))
                } else {
                    Err(format!(
                        "{}: answer {got:?} differs from the reference {reference:?}",
                        input.name
                    ))
                }
            });
        match result {
            Ok(x) => {
                self.report.op(Ok(()));
                Some(x)
            }
            Err(e) => {
                self.report.op(Err(e));
                None
            }
        }
    }
}

/// Runs one workload and returns its report.
pub fn run(
    workload: &str,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Report {
    let mut run = Run {
        sizes,
        seed,
        seconds,
        traced,
        report: Report::default(),
        spans: Spans::new(traced),
        ops: 0,
    };
    let inputs = checked_inputs(workload, sizes, seed);
    match check::references(workload, seed, smoke, &inputs) {
        Ok(refs) => match workload {
            "large-batch" | "small-batch" => batch(&mut run, &inputs, &refs),
            "serve-read" => serve_read(&mut run, &inputs[0], refs[0]),
            "serve-edit" => serve_edit(&mut run, &inputs[0], refs[0]),
            other => panic!("unknown workload {other}"),
        },
        Err(e) => run.report.broken.push(e),
    }
    run.spans.write(workload);
    run.report
}

/// Both batch workloads: every program analysed text to answer with the
/// paper's headline configuration (offline normalize, OVS and HCD, then
/// LCD+HCD over bitmaps). One operation is one pass over all programs.
fn batch(run: &mut Run, inputs: &[Input], refs: &[Digest]) {
    let pipeline = PassPipeline::full();
    let config = solver(Algorithm::LcdHcd);
    let setups: Vec<f64> = (0..run.sizes.setups)
        .map(|_| {
            let t = Instant::now();
            for input in inputs {
                if let Ok(program) = parse_program(&input.text) {
                    std::hint::black_box(pipeline.run(&program));
                }
            }
            t.elapsed().as_secs_f64()
        })
        .collect();

    let pass = |run: &mut Run, traced: bool| {
        let mut sum = Sample::default();
        for (input, &reference) in inputs.iter().zip(refs) {
            if let Some((sample, _)) =
                run.checked_analysis(input, reference, &pipeline, &config, traced)
            {
                sum.absorb(&sample);
            }
        }
        sum
    };
    pass(run, false); // warm-up: first-touch allocations and caches
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut i = 0;
    while i < run.sizes.min_passes || start.elapsed().as_secs_f64() < run.seconds {
        // A traced run alternates traced and untraced passes, so the
        // observer's overhead is measured under the same conditions.
        if run.traced && i % 2 == 1 {
            traced.push(pass(run, true));
        } else {
            untraced.push(pass(run, false));
        }
        i += 1;
    }
    let mut ops = Latencies::default();
    untraced.iter().for_each(|s| ops.push(s.total, 0));
    end_to_end(&mut run.report, median(&setups), &ops);
    if run.traced {
        layers(&mut run.report, &traced, &untraced);
    }
}

/// The end-to-end metrics from a run's set-up time and operation times.
fn end_to_end(report: &mut Report, setup: f64, ops: &Latencies) {
    report.add("setup_s", setup, "s");
    report.add("op_p50_ms", 1e3 * ops.quantile(0.5), "ms");
    report.add("op_p90_ms", 1e3 * ops.quantile(0.9), "ms");
    report.add("ops_per_s", ops.count as f64 / ops.sum, "1/s");
    report.add("peak_rss_mib", crate::report::peak_rss_mib(), "MiB");
    report.add("op_samples", ops.count as f64, "count");
}

/// The per-layer metrics: medians over traced samples, counters from the
/// last one (they repeat exactly), and the observer's overhead against the
/// untraced samples.
fn layers(report: &mut Report, traced: &[Sample], untraced: &[Sample]) {
    let Some(last) = traced.last() else {
        report.broken.push("no traced sample".into());
        return;
    };
    let med = |f: &dyn Fn(&Sample) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let mib = |bytes: f64| bytes / (1024.0 * 1024.0);
    let st = &last.stats;
    let ratio = |a: u64, b: u64| a as f64 / b as f64;
    report.add("parse_s", med(&|s| s.parse), "s");
    report.add(
        "parse_mb_per_s",
        med(&|s| s.text_bytes as f64 / s.parse / 1e6),
        "MB/s",
    );
    report.add("passes_s", med(&|s| s.passes), "s");
    report.add("pass.constraints_out", last.constraints_out as f64, "count");
    report.add("solve_s", med(&|s| s.solve), "s");
    report.add(
        "solve.propagate_s",
        med(&|s| s.stats.propagate_time.as_secs_f64()),
        "s",
    );
    report.add(
        "solve.cycle_s",
        med(&|s| s.stats.cycle_time.as_secs_f64()),
        "s",
    );
    report.add(
        "solve.complex_s",
        med(&|s| s.stats.complex_time.as_secs_f64()),
        "s",
    );
    report.add(
        "solve.other_s",
        med(&|s| {
            let st = &s.stats;
            s.solve - (st.propagate_time + st.cycle_time + st.complex_time).as_secs_f64()
        }),
        "s",
    );
    report.add("solve.propagations", st.propagations as f64, "count");
    report.add(
        "solve.changed_ratio",
        ratio(st.propagations_changed, st.propagations),
        "ratio",
    );
    report.add("solve.nodes_searched", st.nodes_searched as f64, "count");
    report.add(
        "solve.search_hit_ratio",
        ratio(st.cycles_found, st.cycle_searches),
        "ratio",
    );
    report.add("solve.nodes_collapsed", st.nodes_collapsed as f64, "count");
    report.add("solve.complex_iters", st.complex_iters as f64, "count");
    report.add(
        "solve.propagated_mib",
        mib(st.propagated_bytes as f64),
        "MiB",
    );
    report.add("solve.state_mib", mib(st.total_bytes() as f64), "MiB");
    report.add("expand_s", med(&|s| s.expand), "s");
    report.add("solution.facts", last.facts as f64, "count");
    report.add("solution.mib", mib(4.0 * last.facts as f64), "MiB");
    let untraced_totals: Vec<f64> = untraced.iter().map(|s| s.total).collect();
    report.add(
        "trace_overhead_pct",
        100.0 * (med(&|s| s.total) / median(&untraced_totals) - 1.0),
        "%",
    );
    report.add("analyze_s", med(&|s| s.total), "s");
    for &(pass, _) in &last.pass_secs {
        let secs = med(&|s| {
            s.pass_secs
                .iter()
                .find(|(n, _)| *n == pass)
                .map_or(0.0, |p| p.1)
        });
        report.add(format!("pass.{pass}_s"), secs, "s");
    }
}

#[derive(Clone, Copy)]
enum Kind {
    PointsTo,
    MayAlias,
    Resolve,
}

const KINDS: [(Kind, &str); 3] = [
    (Kind::PointsTo, "points_to"),
    (Kind::MayAlias, "may_alias"),
    (Kind::Resolve, "resolve"),
];

struct Request {
    kind: Kind,
    a: VarId,
    b: VarId,
    line: String,
}

/// The `serve-read` traffic: 60% `points_to`, 25% `may_alias`, 15%
/// `resolve`, over names drawn uniformly from the program the session
/// parsed (a generator-side name table also holds variables that occur in
/// no constraint, which the text never mentions).
fn read_requests(program: &Program, n: usize, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_5EED);
    let vars = program.num_vars();
    (0..n)
        .map(|i| {
            let (a, b) = (
                VarId::new(rng.gen_range(0..vars)),
                VarId::new(rng.gen_range(0..vars)),
            );
            let (kind, line) = match rng.gen_range(0..100) {
                0..=59 => (Kind::PointsTo, points_to_line(program, a, i)),
                60..=84 => {
                    let mut r = JsonObject::new();
                    r.str_field("op", "may_alias");
                    r.str_field("a", program.var_name(a));
                    r.str_field("b", program.var_name(b));
                    r.uint_field("id", i as u64);
                    (Kind::MayAlias, r.finish())
                }
                _ => {
                    let mut r = JsonObject::new();
                    r.str_field("op", "resolve");
                    r.str_field("var", program.var_name(a));
                    r.uint_field("id", i as u64);
                    (Kind::Resolve, r.finish())
                }
            };
            Request { kind, a, b, line }
        })
        .collect()
}

fn points_to_line(program: &Program, v: VarId, id: usize) -> String {
    let mut r = JsonObject::new();
    r.str_field("op", "points_to");
    r.str_field("var", program.var_name(v));
    r.uint_field("id", id as u64);
    r.finish()
}

/// A reply's fields; a reply that does not parse has none.
fn reply_fields(json: &str) -> BTreeMap<String, JsonValue> {
    parse_object(json).unwrap_or_default()
}

/// An `ok` reply's `pts` names, sorted.
fn pts_names(reply: &BTreeMap<String, JsonValue>) -> Option<Vec<&str>> {
    if reply.get("ok")?.as_bool()? {
        let mut names = reply.get("pts")?.as_str_arr()?;
        names.sort_unstable();
        Some(names)
    } else {
        None
    }
}

/// Checks a reply against the one-shot solution of the same program.
fn verify(req: &Request, json: &str, program: &Program, solution: &Solution) -> Result<(), String> {
    let fail = || {
        format!(
            "reply {json} to {} disagrees with the one-shot answer",
            req.line
        )
    };
    let reply = reply_fields(json);
    if reply.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        return Err(fail());
    }
    let agrees = match req.kind {
        Kind::PointsTo => {
            let mut want: Vec<&str> = solution
                .points_to(req.a)
                .iter()
                .map(|&l| program.var_name(VarId::new(l as usize)))
                .collect();
            want.sort_unstable();
            pts_names(&reply) == Some(want)
        }
        Kind::MayAlias => {
            reply.get("alias").and_then(JsonValue::as_bool)
                == Some(solution.may_alias(req.a, req.b))
        }
        Kind::Resolve => {
            reply.get("var_id").and_then(JsonValue::as_u64) == Some(u64::from(req.a.as_u32()))
        }
    };
    agrees.then_some(()).ok_or_else(fail)
}

/// A fresh session brought to ready: parse, `load_program`, and the first
/// query, which triggers the solve. Returns the session, the parsed
/// program, and the time each step took.
fn serve_setup(
    opts: &SessionOptions,
    text: &str,
) -> Result<(AnalysisSession, Program, [f64; 4]), String> {
    let t0 = Instant::now();
    let program = parse_program(text).map_err(|e| format!("parse: {e}"))?;
    let t1 = Instant::now();
    let probe = points_to_line(&program, VarId::new(0), 0);
    let mut session = AnalysisSession::new(opts.clone()).map_err(|e| e.to_string())?;
    session.load_program(program).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let reply = session.handle_line(&probe);
    let t3 = Instant::now();
    if !reply.ok {
        return Err(format!("first query failed: {}", reply.json));
    }
    let program = session.program().cloned().ok_or("no program loaded")?;
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    Ok((
        session,
        program,
        [secs(t0, t3), secs(t0, t1), secs(t1, t2), secs(t2, t3)],
    ))
}

/// Median set-up times over `n` fresh sessions, keeping the last session.
fn serve_setups(
    run: &mut Run,
    opts: &SessionOptions,
    text: &str,
) -> Option<(AnalysisSession, Program, [f64; 4])> {
    let mut times: Vec<[f64; 4]> = Vec::new();
    let mut kept = None;
    for _ in 0..run.sizes.setups {
        kept = None; // one session at a time, so peak RSS is one session's
        match serve_setup(opts, text) {
            Ok((session, program, t)) => {
                run.report.op(Ok(()));
                times.push(t);
                kept = Some((session, program));
            }
            Err(e) => run.report.op(Err(e)),
        }
    }
    let (session, program) = kept?;
    let col = |i: usize| median(&times.iter().map(|t| t[i]).collect::<Vec<_>>());
    Some((session, program, [col(0), col(1), col(2), col(3)]))
}

/// The session's own counters, read through the `stats` op.
fn session_stats(report: &mut Report, session: &mut AnalysisSession) {
    let reply = reply_fields(&session.handle_line(r#"{"op":"stats"}"#).json);
    let num = |k: &str| reply.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
    report.add("cache.entries", num("cache_entries"), "count");
    report.add(
        "cache.retained_mib",
        num("retained_bytes") / (1024.0 * 1024.0),
        "MiB",
    );
}

/// One-shot analyses of a serve workload's program with the session's
/// configuration, half traced: the per-layer numbers of a serve run.
fn serve_layers(
    run: &mut Run,
    input: &Input,
    reference: Digest,
    pipeline: &PassPipeline,
    config: &SolverConfig,
) {
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for _ in 0..run.sizes.breakdowns {
        for t in [false, true] {
            if let Some((sample, _)) = run.checked_analysis(input, reference, pipeline, config, t) {
                if t {
                    traced.push(sample)
                } else {
                    untraced.push(sample)
                }
            }
        }
    }
    layers(&mut run.report, &traced, &untraced);
}

/// `serve-read`: one closed-loop client sending read requests to a session
/// in the `ant serve` defaults (LCD+HCD, bitmaps, `normalize,ovs`, fan-out
/// 1). One operation is one `handle_line` call.
fn serve_read(run: &mut Run, input: &Input, reference: Digest) {
    let config = solver(Algorithm::LcdHcd);
    let mut opts = SessionOptions::new(config);
    opts.passes = "normalize,ovs".into();
    let Some((mut session, program, setup)) = serve_setups(run, &opts, &input.text) else {
        return;
    };
    let pool = read_requests(&program, run.sizes.read_pool, run.seed);
    for req in pool.iter().cycle().take(run.sizes.read_warmup) {
        let ok = session.handle_line(&req.line).ok;
        run.report
            .op(ok.then_some(()).ok_or_else(|| req.line.clone()));
    }

    let stride = (pool.len() / run.sizes.checks).max(1);
    let mut sampled: Vec<(usize, String)> = Vec::new();
    let mut ops = Latencies::default();
    let mut reply_bytes = 0usize;
    let start = Instant::now();
    let mut i = 0;
    loop {
        let req = &pool[i % pool.len()];
        let t = Instant::now();
        let reply = session.handle_line(&req.line);
        let end = Instant::now();
        let dt = end.duration_since(t).as_secs_f64();
        let op = run.next_op();
        run.spans.record(op, "handle_line", "", t, end);
        run.report
            .op(reply.ok.then_some(()).ok_or_else(|| reply.json.clone()));
        ops.push(dt, req.kind as u8);
        reply_bytes += reply.json.len();
        if i < pool.len() && i % stride == 0 {
            sampled.push((i, reply.json));
        }
        i += 1;
        if i % 1024 == 0 && i >= pool.len() && start.elapsed().as_secs_f64() >= run.seconds {
            break;
        }
    }
    end_to_end(&mut run.report, setup[0], &ops);
    run.report
        .add("query_p99_us", 1e6 * ops.quantile(0.99), "us");
    run.report
        .add("query_p9999_us", 1e6 * ops.quantile(0.9999), "us");
    if run.traced {
        run.report.add("load_s", setup[2], "s");
        run.report.add("first_solve_s", setup[3], "s");
        for (kind, name) in KINDS {
            let secs = ops.secs(|tag| tag == kind as u8);
            run.report
                .add(format!("query.{name}_us"), 1e6 * median(&secs), "us");
        }
        run.report.add(
            "reply_bytes",
            reply_bytes as f64 / ops.count as f64,
            "bytes",
        );
        session_stats(&mut run.report, &mut session);
    }
    drop(session);

    // Checking happens after the peak RSS was read: the one-shot solution
    // is the checker's memory, not the session's.
    let pipeline = PassPipeline::parse(&opts.passes).expect("a valid pass list");
    if run.traced {
        serve_layers(run, input, reference, &pipeline, &config);
    }
    if let Some((_, solution)) = run.checked_analysis(input, reference, &pipeline, &config, false) {
        for (i, json) in &sampled {
            let outcome = verify(&pool[*i], json, &program, &solution);
            run.report.op(outcome);
        }
    }
}

/// `serve-edit`: a session in the incremental configuration (LCD,
/// `normalize`) loaded with a base program, then `add` requests carrying
/// the rest of the program, each followed by `points_to` reads. One
/// operation is one `add`. Each round starts from a fresh session.
fn serve_edit(run: &mut Run, input: &Input, reference: Digest) {
    let sizes = run.sizes;
    let program = generate("linux", sizes.edit_scale, run.seed, 0);
    let n = program.constraints().len();
    let delta_len = (sizes.edit_adds * sizes.edit_add_len).min(n / 2);
    let cut = n - delta_len;
    let base_text = program
        .with_constraints(program.constraints()[..cut].to_vec())
        .to_text();
    let delta_texts: Vec<String> = program.constraints()[cut..]
        .chunks(sizes.edit_add_len)
        .map(|chunk| program.with_constraints(chunk.to_vec()).to_text())
        .collect();
    let add_lines: Vec<String> = delta_texts
        .iter()
        .map(|t| {
            let mut add = JsonObject::new();
            add.str_field("op", "add");
            add.str_field("text", t);
            add.finish()
        })
        .collect();

    let config = solver(Algorithm::Lcd);
    let mut opts = SessionOptions::new(config);
    opts.passes = "normalize".into();
    let Some((first, base, setup)) = serve_setups(run, &opts, &base_text) else {
        return;
    };
    let mut rng = StdRng::seed_from_u64(run.seed ^ 0xED17);
    let mut adds = Latencies::default();
    let mut reads = Latencies::default();
    let mut resumed = 0usize;
    let mut sampled: Vec<(String, String)> = Vec::new();
    let mut last_session = Some(first);
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed().as_secs_f64() < run.seconds {
        let mut session = match last_session.take() {
            Some(session) if rounds == 0 => session,
            old => {
                drop(old); // one session at a time, so peak RSS is one session's
                match serve_setup(&opts, &base_text) {
                    Ok((session, _, _)) => session,
                    Err(e) => {
                        run.report.op(Err(e));
                        return;
                    }
                }
            }
        };
        rounds += 1;
        for line in &add_lines {
            let t = Instant::now();
            let reply = session.handle_line(line);
            let end = Instant::now();
            let op = run.next_op();
            run.spans.record(op, "add", "", t, end);
            adds.push(end.duration_since(t).as_secs_f64(), 0);
            resumed += usize::from(
                reply_fields(&reply.json)
                    .get("resumed")
                    .and_then(JsonValue::as_bool)
                    == Some(true),
            );
            run.report.op(reply.ok.then_some(()).ok_or(reply.json));
            for _ in 0..sizes.edit_reads {
                let read = points_to_line(&base, VarId::new(rng.gen_range(0..base.num_vars())), 0);
                let t = Instant::now();
                let reply = session.handle_line(&read);
                reads.push(t.elapsed().as_secs_f64(), 0);
                run.report.op(reply.ok.then_some(()).ok_or(reply.json));
            }
        }
        // After the last add the session holds the whole program: sample
        // its answers for the check against the one-shot solution.
        sampled.clear();
        if let Some(union) = session.program().cloned() {
            for _ in 0..sizes.checks {
                let v = VarId::new(rng.gen_range(0..union.num_vars()));
                let reply = session.handle_line(&points_to_line(&union, v, 0));
                sampled.push((union.var_name(v).to_owned(), reply.json));
            }
        }
        last_session = Some(session);
    }
    end_to_end(&mut run.report, setup[0], &adds);
    run.report
        .add("read_p50_us", 1e6 * reads.quantile(0.5), "us");
    if run.traced {
        run.report.add(
            "add.resumed_ratio",
            resumed as f64 / adds.count as f64,
            "ratio",
        );
        let resume = replay_resumes(&base_text, &delta_texts);
        match resume {
            Ok(resume_s) => {
                run.report.add("add.resume_s", resume_s, "s");
                run.report
                    .add("add.session_s", adds.quantile(0.5) - resume_s, "s");
            }
            Err(e) => run.report.broken.push(e),
        }
        if let Some(session) = last_session.as_mut() {
            session_stats(&mut run.report, session);
        }
    }
    drop(last_session);

    let pipeline = PassPipeline::parse(&opts.passes).expect("a valid pass list");
    if run.traced {
        serve_layers(run, input, reference, &pipeline, &config);
    }
    // The session's union names its variables in its own order; compare by
    // name against the one-shot solution of the whole program.
    if let Some((_, solution)) = run.checked_analysis(input, reference, &pipeline, &config, false) {
        let full = parse_program(&input.text).expect("checked above");
        let ids: HashMap<&str, VarId> = full.vars().map(|v| (full.var_name(v), v)).collect();
        for (name, json) in &sampled {
            let outcome = match ids.get(name.as_str()) {
                Some(&v) => {
                    let mut want: Vec<&str> = solution
                        .points_to(v)
                        .iter()
                        .map(|&l| full.var_name(VarId::new(l as usize)))
                        .collect();
                    want.sort_unstable();
                    (pts_names(&reply_fields(json)) == Some(want))
                        .then_some(())
                        .ok_or_else(|| format!("points_to {name} after the last add: {json}"))
                }
                None => Err(format!("`{name}` is not in the whole program")),
            };
            run.report.op(outcome);
        }
    }
}

/// Replays the deltas through `solve_dyn_resumable` / `resume_dyn` with
/// no session around them; returns the median resume time.
fn replay_resumes(base_text: &str, delta_texts: &[String]) -> Result<f64, String> {
    let normalize = PassPipeline::parse("normalize").expect("a valid pass list");
    let config = solver(Algorithm::Lcd);
    let mut union = parse_program(base_text).map_err(|e| e.to_string())?;
    let mut prepared = normalize.run(&union);
    let (_, state) = solve_dyn_resumable(&prepared.program, &config, PtsKind::Bitmap);
    let mut state = state.ok_or("LCD over bitmaps retains no state")?;
    let mut secs = Vec::new();
    for text in delta_texts {
        let addition = parse_program(text).map_err(|e| e.to_string())?;
        let delta = union.delta_from(&addition)?;
        let next = union.append_delta(&delta);
        let next_prepared = normalize
            .prepare_delta(&union, &prepared, &next)
            .ok_or("normalize has no delta lane")?;
        let t = Instant::now();
        let (_, resumed) = resume_dyn(state, &next_prepared.program).map_err(|e| e.to_string())?;
        secs.push(t.elapsed().as_secs_f64());
        state = resumed;
        union = next;
        prepared = next_prepared;
    }
    Ok(median(&secs))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names come from the program the session parsed, so the stream
    /// never asks about a variable the session does not know.
    #[test]
    fn serve_read_smoke_stream_has_no_error_envelopes() {
        let input = &checked_inputs("serve-read", &SMOKE, 0)[0];
        let mut opts = SessionOptions::new(solver(Algorithm::LcdHcd));
        opts.passes = "normalize,ovs".into();
        let (mut session, program, _) = serve_setup(&opts, &input.text).expect("session ready");
        for req in read_requests(&program, SMOKE.read_pool, 0) {
            let reply = session.handle_line(&req.line);
            assert!(reply.ok, "{} -> {}", req.line, reply.json);
        }
    }

    #[test]
    fn reply_pts_are_read_sorted() {
        let r = r#"{"ok":true,"op":"points_to","var":"p","pts":["o2","f#1"],"count":2}"#;
        assert_eq!(pts_names(&reply_fields(r)), Some(vec!["f#1", "o2"]));
        let empty = r#"{"ok":true,"pts":[],"count":0}"#;
        assert_eq!(pts_names(&reply_fields(empty)), Some(vec![]));
        let error = r#"{"ok":false,"error":"unknown_var","pts":[]}"#;
        assert_eq!(pts_names(&reply_fields(error)), None);
        assert_eq!(pts_names(&reply_fields("{bad")), None);
    }

    #[test]
    fn seed_zero_keeps_the_suite_programs() {
        let ours = generate("emacs", 0.002, 0, 0);
        let suites = suite::benchmark("emacs", 0.002).unwrap().program();
        assert_eq!(ours, suites);
        assert_ne!(generate("emacs", 0.002, 1, 0), suites);
    }
}
