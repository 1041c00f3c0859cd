//! Long-lived analysis sessions: the query service behind `ant serve`.
//!
//! The paper makes the *solve* cheap; this module makes the solved result
//! cheap to **query**. An [`AnalysisSession`] owns a prepared program, a
//! lazily-computed solution and (optionally) the provenance recorder, and
//! answers a JSONL request/response protocol:
//!
//! * one request per line, a flat JSON object with an `"op"` field
//!   (`points_to`, `may_alias`, `resolve`, `explain`, `stats`, `load`,
//!   `add`, `shutdown`) and op-specific arguments, plus an optional `"id"`
//!   echoed back verbatim;
//! * one response per request, a flat JSON object with `"ok"` and a typed
//!   error envelope on failure (`"error"` carries an
//!   [`AntErrorKind::wire_name`], `"message"` the human-readable reason) —
//!   a malformed or failing request never terminates the session;
//! * every response carries `"micros"`, the wall time from receipt to
//!   answer.
//!
//! Clients speak *original variable names*: every name is resolved through
//! the composed [`SolutionMapping`], never a post-OVS/HCD id. The session
//! keeps the solver's **raw** (unexpanded) solution and answers through
//! [`SolutionMapping::resolve`] — the same answers the one-shot expanded
//! solution gives, at a fraction of the memory.
//!
//! Solves are keyed by a content hash of program + solver configuration
//! ([`AnalysisSession::content_key`]), so re-loading a translation unit
//! the session has already solved reuses the cached solution.
//!
//! [`AntErrorKind::wire_name`]: ant_common::AntErrorKind::wire_name
//! [`SolutionMapping`]: ant_constraints::pipeline::SolutionMapping
//! [`SolutionMapping::resolve`]: ant_constraints::pipeline::SolutionMapping::resolve

// This module faces untrusted request streams: every failure must become a
// typed error envelope, never a panic. The fuzz harness (`ant_bench::fuzz`)
// drives adversarial streams through it; the lints keep the audit from
// regressing.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::provenance::Explainer;
use crate::{
    resume_dyn, resume_supported, solve_dyn_resumable, solve_prepared_raw,
    solve_prepared_raw_recorded, PtsKind, ResumableState, Solution, SolveOutput, SolverConfig,
};
use ant_common::fx::{FxHashMap, FxHasher};
use ant_common::obs::prov::ProvRecorder;
use ant_common::obs::{parse_object, JsonObject, JsonValue};
use ant_common::{AntError, QueryErrorKind, VarId};
use ant_constraints::pipeline::{PassPipeline, Prepared, SolutionMapping};
use ant_constraints::{parse_program, Program};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// How a session solves and answers: the solver configuration, points-to
/// representation, offline pass list, and the per-request policy knobs.
#[derive(Clone, Debug)]
pub struct SessionOptions {
    /// Solver configuration used for every solve.
    pub config: SolverConfig,
    /// Points-to representation used for every solve.
    pub pts: PtsKind,
    /// Offline pass list, in [`PassPipeline::parse`] syntax.
    pub passes: String,
    /// Record provenance on every solve, enabling the `explain` op.
    pub record: bool,
    /// Per-request deadline in milliseconds; a request whose answer took
    /// longer gets a `deadline_exceeded` envelope instead. `None` disables
    /// the check.
    pub deadline_ms: Option<u64>,
}

impl SessionOptions {
    /// Defaults: the given algorithm configuration, bitmap sets, the
    /// standard `normalize,ovs` pipeline, no recording, no deadline.
    pub fn new(config: SolverConfig) -> Self {
        SessionOptions {
            config,
            pts: PtsKind::Bitmap,
            passes: "normalize,ovs".to_string(),
            record: false,
            deadline_ms: None,
        }
    }
}

/// One solved program, cached under its content key.
struct CachedSolve {
    output: SolveOutput,
    prov: Option<ProvRecorder>,
}

/// The currently loaded translation unit.
struct Loaded {
    /// The *original* program — the name space clients speak.
    program: Program,
    /// Pipeline output: preprocessed program + composed mapping.
    prepared: Prepared,
    /// Hash index over original variable names (`Program::var_by_name` is
    /// a linear scan; sessions answer thousands of name lookups).
    names: FxHashMap<String, VarId>,
    /// Content key of program + solver configuration.
    key: u64,
}

/// Cached solves kept before the oldest is evicted.
const SOLVE_CACHE_CAP: usize = 8;

/// A long-lived query session: prepared program, lazily solved solution,
/// optional provenance, and the JSONL protocol to query them.
///
/// ```
/// use ant_core::session::{AnalysisSession, SessionOptions};
/// use ant_core::{Algorithm, SolverConfig};
///
/// let opts = SessionOptions::new(SolverConfig::new(Algorithm::LcdHcd));
/// let mut session = AnalysisSession::new(opts).unwrap();
/// let reply = session.handle_line(r#"{"op":"load","text":"p = &x\nq = p\n"}"#);
/// assert!(reply.ok);
/// let reply = session.handle_line(r#"{"op":"points_to","var":"q"}"#);
/// assert!(reply.json.contains(r#""pts":["x"]"#));
/// ```
pub struct AnalysisSession {
    opts: SessionOptions,
    loaded: Option<Loaded>,
    cache: FxHashMap<u64, CachedSolve>,
    /// Insertion order of `cache` keys, oldest first (eviction order).
    cache_order: Vec<u64>,
    /// Content key of the solve answering queries right now.
    active: Option<u64>,
    /// The warm-start state of the most recent resumable solve, keyed by
    /// the content key of the program it solved. One slot: an `add` whose
    /// base key matches resumes it (and re-keys the slot to the union);
    /// anything else solves from scratch and replaces it.
    retained: Option<(u64, ResumableState)>,
    solves: u64,
    cache_hits: u64,
    cache_misses: u64,
    requests: u64,
    errors: u64,
}

/// One answered request: the response line plus the telemetry the serve
/// loop forwards as a [`SolveEvent::Query`] event.
///
/// [`SolveEvent::Query`]: ant_common::obs::SolveEvent::Query
#[derive(Clone, Debug)]
pub struct Reply {
    /// The response envelope, one line of JSON (no trailing newline).
    pub json: String,
    /// Stable op name (`"malformed"` when the request had none).
    pub op: &'static str,
    /// Whether this is a success envelope.
    pub ok: bool,
    /// Wall time from receipt to answer, in microseconds.
    pub micros: u64,
    /// The request asked the session to shut down.
    pub shutdown: bool,
}

/// A parsed request: the echoed id plus the typed operation.
struct Request {
    id: Option<JsonValue>,
    op: Op,
}

enum Op {
    PointsTo {
        var: String,
    },
    MayAlias {
        a: String,
        b: String,
    },
    Resolve {
        var: String,
    },
    Explain {
        var: String,
        loc: String,
    },
    Stats,
    Load {
        path: Option<String>,
        text: Option<String>,
    },
    Add {
        path: Option<String>,
        text: Option<String>,
    },
    Shutdown,
}

impl Op {
    fn name(&self) -> &'static str {
        match self {
            Op::PointsTo { .. } => "points_to",
            Op::MayAlias { .. } => "may_alias",
            Op::Resolve { .. } => "resolve",
            Op::Explain { .. } => "explain",
            Op::Stats => "stats",
            Op::Load { .. } => "load",
            Op::Add { .. } => "add",
            Op::Shutdown => "shutdown",
        }
    }
}

fn malformed(msg: impl Into<String>) -> AntError {
    AntError::query(QueryErrorKind::MalformedRequest, msg)
}

fn parse_request(line: &str) -> Result<Request, AntError> {
    let map = parse_object(line).map_err(|e| malformed(format!("bad request JSON: {e}")))?;
    let id = map.get("id").cloned();
    if let Some(id) = &id {
        if matches!(id, JsonValue::Arr(_)) {
            return Err(malformed("request id must be a scalar"));
        }
    }
    let op = map
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| malformed("request needs a string `op` field"))?;
    let str_arg = |k: &str| -> Result<String, AntError> {
        map.get(k)
            .and_then(JsonValue::as_str)
            .map(str::to_owned)
            .ok_or_else(|| malformed(format!("op `{op}` needs a string `{k}` field")))
    };
    let op = match op {
        "points_to" => Op::PointsTo {
            var: str_arg("var")?,
        },
        "may_alias" => Op::MayAlias {
            a: str_arg("a")?,
            b: str_arg("b")?,
        },
        "resolve" => Op::Resolve {
            var: str_arg("var")?,
        },
        "explain" => Op::Explain {
            var: str_arg("var")?,
            loc: str_arg("loc")?,
        },
        "stats" => Op::Stats,
        "load" | "add" => {
            let path = map
                .get("path")
                .and_then(JsonValue::as_str)
                .map(str::to_owned);
            let text = map
                .get("text")
                .and_then(JsonValue::as_str)
                .map(str::to_owned);
            if path.is_none() && text.is_none() {
                return Err(malformed(format!(
                    "op `{op}` needs a `path` or `text` field"
                )));
            }
            if op == "load" {
                Op::Load { path, text }
            } else {
                Op::Add { path, text }
            }
        }
        "shutdown" => Op::Shutdown,
        other => {
            return Err(AntError::query(
                QueryErrorKind::UnknownOp,
                format!("unknown op `{other}`"),
            ))
        }
    };
    Ok(Request { id, op })
}

/// The success payload of one op, to be wrapped in an envelope.
enum Payload {
    Fields(JsonObject),
    Shutdown,
}

/// Everything a read-only query needs: borrowed views of the loaded program
/// and its active solution.
struct SessionView<'a> {
    program: &'a Program,
    mapping: &'a SolutionMapping,
    names: &'a FxHashMap<String, VarId>,
    solution: &'a Solution,
}

impl SessionView<'_> {
    fn named(&self, name: &str) -> Result<VarId, AntError> {
        self.names.get(name).copied().ok_or_else(|| {
            AntError::query(
                QueryErrorKind::UnknownVar,
                format!("no variable named `{name}`"),
            )
        })
    }

    /// Answers a read-only op. The solution is *raw* (preprocessed space):
    /// every lookup goes through `mapping.rep_of`, which by the pipeline's
    /// composition law returns exactly the expanded solution's answer.
    fn answer(&self, op: &Op) -> Result<JsonObject, AntError> {
        let mut o = JsonObject::new();
        match op {
            Op::PointsTo { var } => {
                let v = self.named(var)?;
                let set = self.solution.points_to(self.mapping.rep_of(v));
                o.str_field("var", var);
                o.str_list_field(
                    "pts",
                    set.iter()
                        .map(|&loc| self.program.var_name(VarId::new(loc as usize))),
                );
                o.uint_field("count", set.len() as u64);
            }
            Op::MayAlias { a, b } => {
                let va = self.mapping.rep_of(self.named(a)?);
                let vb = self.mapping.rep_of(self.named(b)?);
                o.str_field("a", a);
                o.str_field("b", b);
                o.bool_field("alias", self.solution.may_alias(va, vb));
            }
            Op::Resolve { var } => {
                let v = self.named(var)?;
                o.str_field("var", var);
                o.uint_field("var_id", v.as_u32() as u64);
                o.uint_field("rep_id", self.mapping.rep_of(v).as_u32() as u64);
                o.bool_field("merged", self.mapping.was_merged(v));
            }
            other => {
                // Only read-only ops are routed here; anything else is an
                // internal dispatch bug, reported instead of panicking.
                return Err(AntError::solver(format!(
                    "internal: op `{}` routed to the read-only answer path",
                    other.name()
                )));
            }
        }
        Ok(o)
    }
}

impl AnalysisSession {
    /// A session with no program loaded yet.
    ///
    /// # Errors
    ///
    /// [`AntErrorKind::Pipeline`] when the pass spec does not parse.
    pub fn new(opts: SessionOptions) -> Result<Self, AntError> {
        PassPipeline::parse(&opts.passes)?;
        Ok(AnalysisSession {
            opts,
            loaded: None,
            cache: FxHashMap::default(),
            cache_order: Vec::new(),
            active: None,
            retained: None,
            solves: 0,
            cache_hits: 0,
            cache_misses: 0,
            requests: 0,
            errors: 0,
        })
    }

    /// The content key a load of `program` would solve under: a hash of
    /// the program's structure (constraints, variable space, offset
    /// limits) and everything about the configuration that could change
    /// the solve. Two loads with equal keys share one cached solution. The
    /// solver's thread count is left out: solutions and counters are
    /// identical at every thread count.
    pub fn content_key(&self, program: &Program) -> u64 {
        let mut h = FxHasher::default();
        h.write_usize(program.num_vars());
        for &limit in program.offset_limits() {
            h.write_u32(limit);
        }
        for c in program.constraints() {
            c.hash(&mut h);
        }
        self.opts.config.algorithm.hash(&mut h);
        self.opts.config.prop.hash(&mut h);
        h.write(format!("{:?}", self.opts.config.worklist).as_bytes());
        h.write(self.opts.pts.name().as_bytes());
        h.write(self.opts.passes.as_bytes());
        h.write_u8(self.opts.record as u8);
        h.finish()
    }

    /// Loads a translation unit, replacing the current one: runs the
    /// offline pass pipeline and builds the name index. The solve is lazy —
    /// it happens on the first query that needs it (or never, if the same
    /// content was solved before and is still cached).
    ///
    /// # Errors
    ///
    /// [`AntErrorKind::Pipeline`] when the pass pipeline fails.
    pub fn load_program(&mut self, program: Program) -> Result<(), AntError> {
        let pipeline = PassPipeline::parse(&self.opts.passes)?;
        let prepared = pipeline.try_run(&program)?;
        let names: FxHashMap<String, VarId> = program
            .vars()
            .map(|v| (program.var_name(v).to_owned(), v))
            .collect();
        let key = self.content_key(&program);
        self.loaded = Some(Loaded {
            program,
            prepared,
            names,
            key,
        });
        self.active = None;
        Ok(())
    }

    /// Appends `addition` to the loaded translation unit: name-matched
    /// merge into a `ProgramDelta`, union via [`Program::append_delta`],
    /// then an **eager** solve of the union — resuming the retained
    /// warm-start state when possible, solving from scratch otherwise
    /// (non-resumable configuration, non-delta-stable pass pipeline, no
    /// retained state for the base, or a failed resume). Returns the
    /// reply payload, including `cache_hit` and `resumed`.
    ///
    /// ## Content-key lineage
    ///
    /// The union is keyed by [`content_key`](Self::content_key) exactly
    /// like a direct load. `append_delta` is canonical — shared names keep
    /// their base ids, fresh names append in declaration order, delta
    /// constraints append in order — so `load(base)` + `add(delta)`
    /// produces the *same key* as one `load` of the concatenated source,
    /// and the two share a cache entry. A semantically equal union whose
    /// text declares variables or constraints in a different order hashes
    /// to a different key and is kept distinct — conservative but never
    /// incorrect, since keys fingerprint exact structure, not semantics.
    pub fn add_program(&mut self, addition: Program) -> Result<JsonObject, AntError> {
        let loaded = self.loaded.as_ref().ok_or_else(|| {
            AntError::query(
                QueryErrorKind::NotFound,
                "no program loaded (send a `load` request before `add`)",
            )
        })?;
        let delta = loaded.program.delta_from(&addition).map_err(|e| {
            AntError::parse(format!(
                "addition does not compose with the loaded program: {e}"
            ))
        })?;
        let union = loaded.program.append_delta(&delta);
        let base_key = loaded.key;
        let key = self.content_key(&union);
        let pipeline = PassPipeline::parse(&self.opts.passes)?;
        let loaded = self.loaded()?;
        // The delta pipeline lane: when every pass is delta-stable
        // (normalize-only), the union's prepared program extends the base's
        // — the precondition for resuming the retained state.
        let delta_prepared = pipeline.prepare_delta(&loaded.program, &loaded.prepared, &union);
        let delta_lane = delta_prepared.is_some();
        let prepared = match delta_prepared {
            Some(p) => p,
            None => pipeline.try_run(&union)?,
        };
        let cache_hit = self.cache.contains_key(&key);
        let mut resumed = false;
        if cache_hit {
            self.cache_hits += 1;
        } else {
            self.cache_misses += 1;
            let mut solved: Option<(CachedSolve, Option<ResumableState>)> = None;
            if delta_lane
                && self.retains_state()
                && self.retained.as_ref().is_some_and(|(k, _)| *k == base_key)
            {
                if let Some((_, state)) = self.retained.take() {
                    // A failed resume (panic or typed mismatch) falls back
                    // to the from-scratch solve below; the state is spent
                    // either way.
                    if let Ok(Ok((output, state))) =
                        run_solver(|| resume_dyn(state, &prepared.program))
                    {
                        resumed = true;
                        solved = Some((CachedSolve { output, prov: None }, Some(state)));
                    }
                }
            }
            let (cached, state) = match solved {
                Some(x) => x,
                None => {
                    let retains = self.retains_state();
                    let (opts, prepared) = (&self.opts, &prepared);
                    run_solver(|| {
                        if opts.record {
                            let (output, prov) =
                                solve_prepared_raw_recorded(prepared, &opts.config, opts.pts);
                            (
                                CachedSolve {
                                    output,
                                    prov: Some(prov),
                                },
                                None,
                            )
                        } else if retains {
                            let (output, state) =
                                solve_dyn_resumable(&prepared.program, &opts.config, opts.pts);
                            (CachedSolve { output, prov: None }, state)
                        } else {
                            (
                                CachedSolve {
                                    output: solve_prepared_raw(prepared, &opts.config, opts.pts),
                                    prov: None,
                                },
                                None,
                            )
                        }
                    })?
                }
            };
            self.solves += 1;
            self.insert_cache(key, cached);
            self.retained = state.map(|s| (key, s));
        }
        let names: FxHashMap<String, VarId> = union
            .vars()
            .map(|v| (union.var_name(v).to_owned(), v))
            .collect();
        let mut o = JsonObject::new();
        o.uint_field("vars", union.num_vars() as u64);
        o.uint_field("constraints", union.constraints().len() as u64);
        o.uint_field("new_vars", delta.num_new_vars() as u64);
        o.uint_field("new_constraints", delta.constraints().len() as u64);
        o.str_field("key", &format!("{key:016x}"));
        o.bool_field("cache_hit", cache_hit);
        o.bool_field("resumed", resumed);
        self.loaded = Some(Loaded {
            program: union,
            prepared,
            names,
            key,
        });
        self.active = Some(key);
        Ok(o)
    }

    /// The original program of the current translation unit.
    pub fn program(&self) -> Option<&Program> {
        self.loaded.as_ref().map(|l| &l.program)
    }

    /// (solves, cache_hits) so far — the `stats` op's counters.
    pub fn solve_counters(&self) -> (u64, u64) {
        (self.solves, self.cache_hits)
    }

    /// (hits, misses) of the solve cache so far — every time a query or an
    /// `add` needed a solution, did the FIFO cache have it? The serve loop
    /// exports these as the `serve.cache.hits` / `serve.cache.misses`
    /// metrics.
    pub fn cache_counters(&self) -> (u64, u64) {
        (self.cache_hits, self.cache_misses)
    }

    /// Is this session's configuration able to retain warm-start states?
    /// Requires a resumable (algorithm, representation) pair and no
    /// provenance recording (the resumable path does not record).
    fn retains_state(&self) -> bool {
        !self.opts.record && resume_supported(&self.opts.config, self.opts.pts)
    }

    fn loaded(&self) -> Result<&Loaded, AntError> {
        self.loaded.as_ref().ok_or_else(|| {
            AntError::query(
                QueryErrorKind::NotFound,
                "no program loaded (send a `load` request first)",
            )
        })
    }

    /// Solves the current program unless an equal-content solve is cached.
    /// Solver panics are caught and reported as [`AntErrorKind::Solver`] —
    /// the session survives.
    ///
    /// When the configuration is resumable ([`retains_state`]
    /// (Self::retains_state)), the solve runs through
    /// [`solve_dyn_resumable`] — same raw solution and §5.3 counters as
    /// [`solve_prepared_raw`], sequential schedule — and the returned
    /// warm-start state is kept so a later `add` can resume it.
    fn ensure_solved(&mut self) -> Result<(), AntError> {
        let key = self.loaded()?.key;
        if self.active == Some(key) {
            return Ok(());
        }
        if self.cache.contains_key(&key) {
            self.cache_hits += 1;
            self.active = Some(key);
            return Ok(());
        }
        self.cache_misses += 1;
        let loaded = self.loaded()?;
        let retains = self.retains_state();
        let (opts, prepared) = (&self.opts, &loaded.prepared);
        let (solved, state) = run_solver(|| {
            if opts.record {
                let (output, prov) = solve_prepared_raw_recorded(prepared, &opts.config, opts.pts);
                (
                    CachedSolve {
                        output,
                        prov: Some(prov),
                    },
                    None,
                )
            } else if retains {
                let (output, state) =
                    solve_dyn_resumable(&prepared.program, &opts.config, opts.pts);
                (CachedSolve { output, prov: None }, state)
            } else {
                (
                    CachedSolve {
                        output: solve_prepared_raw(prepared, &opts.config, opts.pts),
                        prov: None,
                    },
                    None,
                )
            }
        })?;
        self.solves += 1;
        self.insert_cache(key, solved);
        self.retained = state.map(|s| (key, s));
        self.active = Some(key);
        Ok(())
    }

    /// FIFO insertion with eviction at [`SOLVE_CACHE_CAP`].
    fn insert_cache(&mut self, key: u64, solved: CachedSolve) {
        if self.cache_order.len() >= SOLVE_CACHE_CAP {
            let evicted = self.cache_order.remove(0);
            self.cache.remove(&evicted);
        }
        self.cache.insert(key, solved);
        self.cache_order.push(key);
    }

    fn active_solve(&self) -> Result<&CachedSolve, AntError> {
        let key = self.active.ok_or_else(|| {
            AntError::solver("internal: no active solve (ensure_solved did not run)")
        })?;
        self.cache
            .get(&key)
            .ok_or_else(|| AntError::solver("internal: active solve evicted from the cache"))
    }

    fn view(&self) -> Result<SessionView<'_>, AntError> {
        let loaded = self.loaded()?;
        Ok(SessionView {
            program: &loaded.program,
            mapping: &loaded.prepared.mapping,
            names: &loaded.names,
            solution: &self.active_solve()?.output.solution,
        })
    }

    /// Executes one parsed op, mutating the session as needed.
    fn execute(&mut self, op: &Op) -> Result<Payload, AntError> {
        match op {
            Op::PointsTo { .. } | Op::MayAlias { .. } | Op::Resolve { .. } => {
                self.ensure_solved()?;
                Ok(Payload::Fields(self.view()?.answer(op)?))
            }
            Op::Explain { var, loc } => {
                self.ensure_solved()?;
                let loaded = self.loaded()?;
                let names = &loaded.names;
                let named = |name: &str| -> Result<VarId, AntError> {
                    names.get(name).copied().ok_or_else(|| {
                        AntError::query(
                            QueryErrorKind::UnknownVar,
                            format!("no variable named `{name}`"),
                        )
                    })
                };
                let (v, l) = (named(var)?, named(loc)?);
                let solve = self.active_solve()?;
                let prov = solve.prov.as_ref().ok_or_else(|| {
                    AntError::query(
                        QueryErrorKind::NoProvenance,
                        "session was not started with recording; explain is unavailable",
                    )
                })?;
                let mut explainer = Explainer::new(prov, loaded.prepared.program.num_vars())
                    .with_mapping(&loaded.prepared.mapping);
                let steps = explainer.explain(v, l).ok_or_else(|| {
                    AntError::query(
                        QueryErrorKind::NotFound,
                        format!("`{loc}` is not in the points-to set of `{var}`"),
                    )
                })?;
                let mut o = JsonObject::new();
                o.str_field("var", var);
                o.str_field("loc", loc);
                o.str_list_field("steps", steps.iter().map(|s| s.render(&loaded.program)));
                Ok(Payload::Fields(o))
            }
            Op::Stats => {
                let mut o = JsonObject::new();
                o.str_field("algorithm", self.opts.config.algorithm.name());
                o.str_field("pts", self.opts.pts.name());
                o.str_field("passes", &self.opts.passes);
                o.bool_field("record", self.opts.record);
                o.uint_field("requests", self.requests);
                o.uint_field("errors", self.errors);
                o.uint_field("solves", self.solves);
                o.uint_field("cache_hits", self.cache_hits);
                o.uint_field("cache_misses", self.cache_misses);
                o.uint_field("cache_entries", self.cache.len() as u64);
                o.uint_field("cache_capacity", SOLVE_CACHE_CAP as u64);
                o.bool_field("retained", self.retained.is_some());
                o.uint_field(
                    "retained_bytes",
                    self.retained.as_ref().map_or(0, |(_, s)| s.bytes()) as u64,
                );
                o.bool_field("solved", self.active.is_some());
                if let Some(loaded) = &self.loaded {
                    o.uint_field("vars", loaded.program.num_vars() as u64);
                    o.uint_field("constraints", loaded.program.constraints().len() as u64);
                    o.uint_field(
                        "constraints_prepared",
                        loaded.prepared.program.constraints().len() as u64,
                    );
                }
                if let Some(solve) = self.active.and_then(|key| self.cache.get(&key)) {
                    o.uint_field(
                        "total_pts_size",
                        solve.output.solution.total_pts_size() as u64,
                    );
                    o.uint_field(
                        "solve_micros",
                        solve.output.stats.solve_time.as_micros() as u64,
                    );
                }
                Ok(Payload::Fields(o))
            }
            Op::Load { path, text } => {
                let text = read_source(path, text)?;
                let program = parse_program(&text)?;
                let mut o = JsonObject::new();
                o.uint_field("vars", program.num_vars() as u64);
                o.uint_field("constraints", program.constraints().len() as u64);
                self.load_program(program)?;
                let key = self.loaded()?.key;
                o.str_field("key", &format!("{key:016x}"));
                o.bool_field("cache_hit", self.cache.contains_key(&key));
                // Loads are lazy; only `add` re-enters a retained state.
                o.bool_field("resumed", false);
                Ok(Payload::Fields(o))
            }
            Op::Add { path, text } => {
                let text = read_source(path, text)?;
                let addition = parse_program(&text)?;
                Ok(Payload::Fields(self.add_program(addition)?))
            }
            Op::Shutdown => Ok(Payload::Shutdown),
        }
    }

    /// Renders a transport-level failure — an over-long request line or
    /// invalid UTF-8 from [`read_request_line`] — as a `malformed` error
    /// envelope, counting it like any other failed request. The serve loop
    /// answers these and keeps the connection; only genuine I/O errors end
    /// it.
    pub fn transport_error_reply(&mut self, e: &AntError) -> Reply {
        self.requests += 1;
        self.errors += 1;
        Reply {
            json: envelope(None, None, Err(e), 0),
            op: "malformed",
            ok: false,
            micros: 0,
            shutdown: false,
        }
    }

    /// Handles one request line. Never panics and never
    /// returns an error — failures become typed error envelopes.
    pub fn handle_line(&mut self, line: &str) -> Reply {
        let start = Instant::now();
        match parse_request(line) {
            Ok(req) => {
                let result = self.execute(&req.op);
                self.finish(&req, result, start)
            }
            Err(e) => {
                self.requests += 1;
                self.errors += 1;
                Reply {
                    json: envelope(None, None, Err(&e), elapsed_micros(start)),
                    op: "malformed",
                    ok: false,
                    micros: elapsed_micros(start),
                    shutdown: false,
                }
            }
        }
    }

    /// Wraps an executed op's result into a reply and updates counters.
    fn finish(
        &mut self,
        req: &Request,
        result: Result<Payload, AntError>,
        start: Instant,
    ) -> Reply {
        let reply = finish_reply(req, result, start, self.opts.deadline_ms);
        self.requests += 1;
        if !reply.ok {
            self.errors += 1;
        }
        reply
    }
}

fn elapsed_micros(start: Instant) -> u64 {
    start.elapsed().as_micros() as u64
}

/// Default cap on one JSONL request line (1 MiB). A client that streams an
/// unterminated line would otherwise grow the buffer without bound.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Reads one request line from `reader` under transport limits, without
/// assuming the stream is UTF-8.
///
/// Returns `None` at a clean EOF, `Some(Ok(line))` for a complete line
/// (trailing `\n`/`\r\n` stripped), and `Some(Err(_))` with:
///
/// * [`QueryErrorKind::MalformedRequest`] when the line exceeds `cap` bytes
///   (the rest of the oversized line is drained so the next request starts
///   clean) or is not valid UTF-8 — answer with an envelope and keep
///   reading;
/// * [`AntErrorKind::Io`](ant_common::AntErrorKind::Io) when the underlying
///   read fails — the connection is gone, stop serving it.
pub fn read_request_line(
    reader: &mut impl std::io::BufRead,
    cap: usize,
) -> Option<Result<String, AntError>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflowed = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Some(Err(AntError::io(format!("read failed: {e}")))),
        };
        if chunk.is_empty() {
            // EOF. A partial unterminated line still gets answered.
            if buf.is_empty() && !overflowed {
                return None;
            }
            break;
        }
        let (part, terminated) = match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => (pos, true),
            None => (chunk.len(), false),
        };
        if !overflowed {
            if buf.len() + part > cap {
                overflowed = true;
                buf.clear();
            } else {
                buf.extend_from_slice(&chunk[..part]);
            }
        }
        reader.consume(part + usize::from(terminated));
        if terminated {
            break;
        }
    }
    if overflowed {
        return Some(Err(malformed(format!("request line exceeds {cap} bytes"))));
    }
    match String::from_utf8(buf) {
        Ok(mut s) => {
            if s.ends_with('\r') {
                s.pop();
            }
            Some(Ok(s))
        }
        Err(_) => Some(Err(malformed("request line is not valid UTF-8"))),
    }
}

/// Runs a solve under `catch_unwind`, converting panics into typed solver
/// errors so the session survives.
fn run_solver<T>(f: impl FnOnce() -> T) -> Result<T, AntError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("solver panicked");
        AntError::solver(format!("solve failed: {msg}"))
    })
}

/// Reads a `load`/`add` source: inline text wins, otherwise the path is
/// read from disk (`.c` sources are rejected with a hint, as before).
fn read_source(path: &Option<String>, text: &Option<String>) -> Result<String, AntError> {
    match (path, text) {
        (_, Some(text)) => Ok(text.clone()),
        (Some(path), None) => {
            if path.ends_with(".c") {
                return Err(AntError::parse(
                    "serve sessions load constraint files (.consts); \
                     compile C sources before starting the session",
                ));
            }
            std::fs::read_to_string(path)
                .map_err(|e| AntError::io(format!("cannot read {path}: {e}")))
        }
        // parse_request rejects this shape, but read_source stays total: a
        // future caller skipping that check gets a typed error, not a panic.
        (None, None) => Err(malformed("op needs a `path` or `text` field")),
    }
}

fn finish_reply(
    req: &Request,
    result: Result<Payload, AntError>,
    start: Instant,
    deadline_ms: Option<u64>,
) -> Reply {
    let micros = elapsed_micros(start);
    // Post-hoc deadline on *query* ops: the answer exists, but it arrived
    // too late to honor the caller's budget, so report it as such (a
    // deadline of 0 deterministically trips, which the tests rely on).
    // `load` and `shutdown` are bulk/administrative and exempt.
    let deadline_applies = !matches!(req.op, Op::Load { .. } | Op::Shutdown);
    let result = match result {
        Ok(p) => match deadline_ms {
            Some(d) if deadline_applies && micros > d.saturating_mul(1000) => Err(AntError::query(
                QueryErrorKind::DeadlineExceeded,
                format!("request took {micros}us, deadline {d}ms"),
            )),
            _ => Ok(p),
        },
        Err(e) => Err(e),
    };
    let op = req.op.name();
    let shutdown = matches!(result, Ok(Payload::Shutdown));
    let (ok, json) = match &result {
        Ok(payload) => (
            true,
            envelope(req.id.as_ref(), Some(op), Ok(payload), micros),
        ),
        Err(e) => (false, envelope(req.id.as_ref(), Some(op), Err(e), micros)),
    };
    Reply {
        json,
        op,
        ok,
        micros,
        shutdown,
    }
}

/// Renders the response envelope: id echo, `ok`, op, payload fields or the
/// typed error pair, and the request's latency.
fn envelope(
    id: Option<&JsonValue>,
    op: Option<&str>,
    result: Result<&Payload, &AntError>,
    micros: u64,
) -> String {
    let mut o = JsonObject::new();
    match id {
        Some(JsonValue::Str(s)) => o.str_field("id", s),
        Some(JsonValue::Num(n)) => {
            if n.fract() == 0.0 && *n >= 0.0 {
                o.uint_field("id", *n as u64);
            } else {
                o.float_field("id", *n);
            }
        }
        Some(JsonValue::Bool(b)) => o.bool_field("id", *b),
        _ => {}
    }
    o.bool_field("ok", result.is_ok());
    if let Some(op) = op {
        o.str_field("op", op);
    }
    match result {
        Ok(Payload::Fields(fields)) => o.extend(fields),
        Ok(Payload::Shutdown) => {}
        Err(e) => {
            o.str_field("error", e.kind().wire_name());
            o.str_field("message", e.message());
        }
    }
    o.uint_field("micros", micros);
    o.finish()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::Algorithm;

    fn opts() -> SessionOptions {
        SessionOptions::new(SolverConfig::new(Algorithm::LcdHcd))
    }

    fn loaded_session(opts: SessionOptions) -> AnalysisSession {
        let mut s = AnalysisSession::new(opts).unwrap();
        let r = s.handle_line(r#"{"op":"load","text":"p = &x\nq = p\nr = &y\n"}"#);
        assert!(r.ok, "{}", r.json);
        s
    }

    fn field<'a>(map: &'a std::collections::BTreeMap<String, JsonValue>, k: &str) -> &'a JsonValue {
        map.get(k).unwrap_or_else(|| panic!("missing field {k}"))
    }

    #[test]
    fn points_to_and_alias_roundtrip() {
        let mut s = loaded_session(opts());
        let r = s.handle_line(r#"{"id":7,"op":"points_to","var":"q"}"#);
        assert!(r.ok && r.op == "points_to");
        let m = parse_object(&r.json).unwrap();
        assert_eq!(field(&m, "id").as_u64(), Some(7));
        assert_eq!(field(&m, "pts").as_str_arr(), Some(vec!["x"]));
        assert_eq!(field(&m, "count").as_u64(), Some(1));
        let r = s.handle_line(r#"{"op":"may_alias","a":"p","b":"q"}"#);
        let m = parse_object(&r.json).unwrap();
        assert_eq!(field(&m, "alias"), &JsonValue::Bool(true));
        let r = s.handle_line(r#"{"op":"may_alias","a":"p","b":"r"}"#);
        let m = parse_object(&r.json).unwrap();
        assert_eq!(field(&m, "alias"), &JsonValue::Bool(false));
    }

    #[test]
    fn error_envelopes_are_typed_and_nonfatal() {
        let mut s = loaded_session(opts());
        for (line, wire) in [
            ("this is not json", "malformed_request"),
            (r#"{"op":"points_to"}"#, "malformed_request"),
            (r#"{"op":"frobnicate"}"#, "unknown_op"),
            (r#"{"op":"points_to","var":"zz"}"#, "unknown_var"),
            (r#"{"op":"explain","var":"q","loc":"x"}"#, "no_provenance"),
        ] {
            let r = s.handle_line(line);
            assert!(!r.ok, "{line} should fail");
            let m = parse_object(&r.json).unwrap();
            assert_eq!(field(&m, "error").as_str(), Some(wire), "line: {line}");
            assert!(m.contains_key("message"));
        }
        // The session still answers after every failure.
        let r = s.handle_line(r#"{"op":"points_to","var":"q"}"#);
        assert!(r.ok);
        let m = parse_object(&s.handle_line(r#"{"op":"stats"}"#).json).unwrap();
        assert_eq!(field(&m, "errors").as_u64(), Some(5));
    }

    #[test]
    fn resolve_exposes_mapping() {
        let mut s = loaded_session(opts());
        let r = s.handle_line(r#"{"op":"resolve","var":"q"}"#);
        assert!(r.ok);
        let m = parse_object(&r.json).unwrap();
        assert!(m.contains_key("var_id") && m.contains_key("rep_id"));
    }

    #[test]
    fn explain_walks_to_addr_of() {
        let mut o = opts();
        o.record = true;
        let mut s = loaded_session(o);
        let r = s.handle_line(r#"{"op":"explain","var":"q","loc":"x"}"#);
        assert!(r.ok, "{}", r.json);
        let m = parse_object(&r.json).unwrap();
        let steps = field(&m, "steps").as_str_arr().unwrap();
        assert!(!steps.is_empty());
        // A fact that does not hold is typed not_found.
        let r = s.handle_line(r#"{"op":"explain","var":"q","loc":"y"}"#);
        let m = parse_object(&r.json).unwrap();
        assert_eq!(field(&m, "error").as_str(), Some("not_found"));
    }

    #[test]
    fn reload_of_same_content_hits_the_cache() {
        let mut s = loaded_session(opts());
        assert!(s.handle_line(r#"{"op":"points_to","var":"q"}"#).ok);
        assert_eq!(s.solve_counters(), (1, 0));
        // Same text → same key → cached solve.
        let r = s.handle_line(r#"{"op":"load","text":"p = &x\nq = p\nr = &y\n"}"#);
        let m = parse_object(&r.json).unwrap();
        assert_eq!(field(&m, "cache_hit"), &JsonValue::Bool(true));
        assert_eq!(field(&m, "resumed"), &JsonValue::Bool(false));
        assert!(s.handle_line(r#"{"op":"points_to","var":"q"}"#).ok);
        assert_eq!(s.solve_counters(), (1, 1));
        // Different text → fresh solve.
        assert!(s.handle_line(r#"{"op":"load","text":"p = &y\n"}"#).ok);
        assert!(s.handle_line(r#"{"op":"points_to","var":"p"}"#).ok);
        assert_eq!(s.solve_counters(), (2, 1));
    }

    #[test]
    fn deadline_zero_trips_deterministically() {
        let mut o = opts();
        o.deadline_ms = Some(0);
        let mut s = loaded_session(o);
        let r = s.handle_line(r#"{"op":"points_to","var":"q"}"#);
        assert!(!r.ok);
        let m = parse_object(&r.json).unwrap();
        assert_eq!(field(&m, "error").as_str(), Some("deadline_exceeded"));
    }

    #[test]
    fn shutdown_is_flagged_and_only_by_shutdown() {
        let mut s = loaded_session(opts());
        assert!(!s.handle_line(r#"{"op":"points_to","var":"q"}"#).shutdown);
        let r = s.handle_line(r#"{"id":3,"op":"shutdown"}"#);
        assert!(r.ok && r.shutdown && r.op == "shutdown", "{}", r.json);
        // A shutdown envelope is never cut short by the deadline check.
        let mut o = opts();
        o.deadline_ms = Some(0);
        let r = loaded_session(o).handle_line(r#"{"op":"shutdown"}"#);
        assert!(r.ok && r.shutdown, "{}", r.json);
    }

    #[test]
    fn content_key_ignores_the_thread_count() {
        let program = parse_program("p = &x\nq = p\nr = &y\n").unwrap();
        let key = |threads: usize| {
            let mut config = SolverConfig::new(Algorithm::LcdHcd);
            config.threads = threads;
            AnalysisSession::new(SessionOptions::new(config))
                .unwrap()
                .content_key(&program)
        };
        assert_eq!(key(1), key(4));
    }

    #[test]
    fn queries_before_load_are_typed() {
        let mut s = AnalysisSession::new(opts()).unwrap();
        let r = s.handle_line(r#"{"op":"points_to","var":"q"}"#);
        let m = parse_object(&r.json).unwrap();
        assert_eq!(field(&m, "error").as_str(), Some("not_found"));
    }

    /// A resumable configuration (`lcd`, normalize-only passes) answers an
    /// `add` by warm-starting the retained state, and the resulting union
    /// shares its cache entry with a direct load of the concatenated
    /// source (content-key lineage).
    #[test]
    fn add_resumes_and_shares_the_union_cache_entry() {
        let mut o = SessionOptions::new(SolverConfig::new(Algorithm::Lcd));
        o.passes = "normalize".to_string();
        let mut s = AnalysisSession::new(o).unwrap();
        assert!(
            s.handle_line(r#"{"op":"load","text":"p = &x\nq = p\n"}"#)
                .ok
        );
        // Solve the base so there is a retained state to resume.
        assert!(s.handle_line(r#"{"op":"points_to","var":"q"}"#).ok);
        let r = s.handle_line(r#"{"op":"add","text":"r = q\nt = &r\n"}"#);
        assert!(r.ok, "{}", r.json);
        let m = parse_object(&r.json).unwrap();
        assert_eq!(field(&m, "cache_hit"), &JsonValue::Bool(false));
        assert_eq!(field(&m, "resumed"), &JsonValue::Bool(true));
        assert_eq!(field(&m, "new_vars").as_u64(), Some(2));
        // The union answers like a fresh session over the whole source.
        let r = s.handle_line(r#"{"op":"points_to","var":"r"}"#);
        let m = parse_object(&r.json).unwrap();
        assert_eq!(field(&m, "pts").as_str_arr(), Some(vec!["x"]));
        // Lineage: a direct load of the concatenated source hits the same
        // cache entry the `add` populated.
        let r = s.handle_line(r#"{"op":"load","text":"p = &x\nq = p\nr = q\nt = &r\n"}"#);
        let m = parse_object(&r.json).unwrap();
        assert_eq!(field(&m, "cache_hit"), &JsonValue::Bool(true));
        let (hits, misses) = s.cache_counters();
        assert_eq!((hits, misses), (0, 2), "base miss + add miss, no hits yet");
        let m = parse_object(&s.handle_line(r#"{"op":"stats"}"#).json).unwrap();
        assert_eq!(field(&m, "cache_entries").as_u64(), Some(2));
        assert_eq!(field(&m, "cache_capacity").as_u64(), Some(8));
        assert_eq!(field(&m, "retained"), &JsonValue::Bool(true));
        assert!(field(&m, "retained_bytes").as_u64().unwrap() > 0);
    }

    /// A non-resumable configuration (HCD algorithm, OVS in the pipeline)
    /// still serves `add` — by a from-scratch union solve, explicitly
    /// reported as `resumed: false`.
    #[test]
    fn add_without_delta_lane_falls_back_to_full_solve() {
        let mut s = loaded_session(opts());
        assert!(s.handle_line(r#"{"op":"points_to","var":"q"}"#).ok);
        let r = s.handle_line(r#"{"op":"add","text":"w = q\n"}"#);
        assert!(r.ok, "{}", r.json);
        let m = parse_object(&r.json).unwrap();
        assert_eq!(field(&m, "cache_hit"), &JsonValue::Bool(false));
        assert_eq!(field(&m, "resumed"), &JsonValue::Bool(false));
        let r = s.handle_line(r#"{"op":"points_to","var":"w"}"#);
        let m = parse_object(&r.json).unwrap();
        assert_eq!(field(&m, "pts").as_str_arr(), Some(vec!["x"]));
    }

    #[test]
    fn add_errors_are_typed() {
        // Before any load: not_found.
        let mut s = AnalysisSession::new(opts()).unwrap();
        let r = s.handle_line(r#"{"op":"add","text":"w = q\n"}"#);
        let m = parse_object(&r.json).unwrap();
        assert_eq!(field(&m, "error").as_str(), Some("not_found"));
        // A declaration conflicting with the base: parse.
        let mut s = AnalysisSession::new(opts()).unwrap();
        assert!(
            s.handle_line(r#"{"op":"load","text":"fun f 3\np = &f\n"}"#)
                .ok
        );
        let r = s.handle_line(r#"{"op":"add","text":"fun f 2\nq = &f\n"}"#);
        assert!(!r.ok);
        let m = parse_object(&r.json).unwrap();
        assert_eq!(field(&m, "error").as_str(), Some("parse"));
        // Missing both source fields: malformed_request.
        let r = s.handle_line(r#"{"op":"add"}"#);
        let m = parse_object(&r.json).unwrap();
        assert_eq!(field(&m, "error").as_str(), Some("malformed_request"));
        // The session survives and still answers.
        assert!(s.handle_line(r#"{"op":"points_to","var":"p"}"#).ok);
    }

    #[test]
    fn read_request_line_strips_newlines_and_reports_eof() {
        let mut r = std::io::Cursor::new(b"{\"op\":\"stats\"}\nnext\r\nlast".to_vec());
        assert_eq!(
            read_request_line(&mut r, MAX_REQUEST_LINE)
                .unwrap()
                .unwrap(),
            "{\"op\":\"stats\"}"
        );
        assert_eq!(
            read_request_line(&mut r, MAX_REQUEST_LINE)
                .unwrap()
                .unwrap(),
            "next"
        );
        // No trailing newline (mid-request disconnect): the partial line is
        // still delivered, then EOF.
        assert_eq!(
            read_request_line(&mut r, MAX_REQUEST_LINE)
                .unwrap()
                .unwrap(),
            "last"
        );
        assert!(read_request_line(&mut r, MAX_REQUEST_LINE).is_none());
    }

    #[test]
    fn read_request_line_caps_length_and_resynchronizes() {
        let mut input = vec![b'x'; 300];
        input.push(b'\n');
        input.extend_from_slice(b"ok\n");
        let mut r = std::io::Cursor::new(input);
        let err = read_request_line(&mut r, 64).unwrap().unwrap_err();
        assert_eq!(
            err.kind(),
            ant_common::AntErrorKind::Query(QueryErrorKind::MalformedRequest)
        );
        assert!(err.message().contains("exceeds 64 bytes"), "{err}");
        // The oversized line was drained: the stream resynchronizes.
        assert_eq!(read_request_line(&mut r, 64).unwrap().unwrap(), "ok");
    }

    #[test]
    fn read_request_line_reports_invalid_utf8_without_killing_the_stream() {
        let mut input = b"\xff\xfe{broken\n".to_vec();
        input.extend_from_slice(b"{\"op\":\"stats\"}\n");
        let mut r = std::io::Cursor::new(input);
        let err = read_request_line(&mut r, MAX_REQUEST_LINE)
            .unwrap()
            .unwrap_err();
        assert!(err.message().contains("UTF-8"), "{err}");
        assert_eq!(
            read_request_line(&mut r, MAX_REQUEST_LINE)
                .unwrap()
                .unwrap(),
            "{\"op\":\"stats\"}"
        );
    }

    #[test]
    fn transport_errors_become_malformed_envelopes_and_count() {
        let mut s = loaded_session(opts());
        let e = malformed("request line exceeds 4 bytes");
        let r = s.transport_error_reply(&e);
        assert!(!r.ok);
        let m = parse_object(&r.json).unwrap();
        assert_eq!(field(&m, "error").as_str(), Some("malformed_request"));
        let m = parse_object(&s.handle_line(r#"{"op":"stats"}"#).json).unwrap();
        assert_eq!(field(&m, "errors").as_u64(), Some(1));
        assert_eq!(field(&m, "requests").as_u64(), Some(2));
    }

    /// Chained adds keep resuming: each re-keys the retained slot to the
    /// union it just solved.
    #[test]
    fn chained_adds_keep_resuming() {
        let mut o = SessionOptions::new(SolverConfig::new(Algorithm::Pkh));
        o.passes = "normalize".to_string();
        let mut s = AnalysisSession::new(o).unwrap();
        assert!(
            s.handle_line(r#"{"op":"load","text":"p = &x\nq = p\n"}"#)
                .ok
        );
        assert!(s.handle_line(r#"{"op":"stats"}"#).ok); // no solve yet
        let r = s.handle_line(r#"{"op":"add","text":"r = q\n"}"#);
        let m = parse_object(&r.json).unwrap();
        // First add: nothing solved yet, so no state to resume — the eager
        // union solve creates one.
        assert_eq!(field(&m, "resumed"), &JsonValue::Bool(false));
        let r = s.handle_line(r#"{"op":"add","text":"t = r\n"}"#);
        let m = parse_object(&r.json).unwrap();
        assert_eq!(field(&m, "resumed"), &JsonValue::Bool(true));
        let r = s.handle_line(r#"{"op":"add","text":"u = t\nv = &u\n"}"#);
        let m = parse_object(&r.json).unwrap();
        assert_eq!(field(&m, "resumed"), &JsonValue::Bool(true));
        let r = s.handle_line(r#"{"op":"points_to","var":"u"}"#);
        let m = parse_object(&r.json).unwrap();
        assert_eq!(field(&m, "pts").as_str_arr(), Some(vec!["x"]));
    }
}
