//! Session-vs-one-shot differential testing: the `ant serve` protocol is a
//! view over the same analysis, so every `points_to` / `may_alias` answer a
//! session gives must be bit-identical to the expanded solution a one-shot
//! [`Analysis`] computes — across every algorithm and the bitmap/shared
//! representations, asked one request line at a time exactly as `ant serve`
//! asks. Error inputs must come back as typed envelopes, never a dead
//! session.

use ant_grasshopper::common::obs::{parse_object, JsonValue};
use ant_grasshopper::frontend::workload::WorkloadSpec;
use ant_grasshopper::{
    compile_c, Algorithm, Analysis, AnalysisSession, Program, PtsKind, SessionOptions, SolverConfig,
};
use std::collections::BTreeMap;

fn workloads() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for seed in [1u64, 42] {
        out.push((format!("tiny-{seed}"), WorkloadSpec::tiny(seed).generate()));
    }
    for name in ["hashtable.c", "interp.c"] {
        let path = format!("{}/testdata/{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap();
        out.push((name.to_owned(), compile_c(&text).unwrap().program));
    }
    out
}

fn reply_object(json: &str) -> BTreeMap<String, JsonValue> {
    parse_object(json).unwrap_or_else(|e| panic!("reply `{json}` is valid JSON: {e}"))
}

/// Asks the session for every variable's points-to set and a sample of
/// alias pairs, comparing each answer against the one-shot solution.
fn assert_session_matches(name: &str, program: &Program, alg: Algorithm, pts: PtsKind) {
    let config = SolverConfig::new(alg);
    let oneshot = Analysis::builder().config(config).pts(pts).analyze(program);

    let mut opts = SessionOptions::new(config);
    opts.pts = pts;
    let mut session = AnalysisSession::new(opts).unwrap();
    session.load_program(program.clone()).unwrap();

    let names: Vec<&str> = program.vars().map(|v| program.var_name(v)).collect();
    let mut lines: Vec<String> = names
        .iter()
        .map(|n| format!(r#"{{"op":"points_to","var":"{n}"}}"#))
        .collect();
    for pair in names.windows(2) {
        lines.push(format!(
            r#"{{"op":"may_alias","a":"{}","b":"{}"}}"#,
            pair[0], pair[1]
        ));
    }
    let replies: Vec<_> = lines.iter().map(|l| session.handle_line(l)).collect();

    for (i, n) in names.iter().enumerate() {
        let reply = &replies[i];
        assert!(
            reply.ok,
            "{name}/{alg}/{pts:?}: pts({n}) errored: {}",
            reply.json
        );
        let got = reply_object(&reply.json);
        let got: Vec<String> = got["pts"]
            .as_str_arr()
            .unwrap_or_else(|| panic!("pts is a string array: {}", reply.json))
            .iter()
            .map(|s| s.to_string())
            .collect();
        let want: Vec<String> = oneshot
            .solution
            .points_to_names(program, n)
            .unwrap()
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            got, want,
            "{name}/{alg}/{pts:?}: session pts({n}) differs from one-shot"
        );
    }
    for (k, pair) in names.windows(2).enumerate() {
        let reply = &replies[names.len() + k];
        assert!(
            reply.ok,
            "{name}/{alg}/{pts:?}: alias errored: {}",
            reply.json
        );
        let got = reply_object(&reply.json)["alias"].as_bool().unwrap();
        let want = oneshot
            .solution
            .may_alias_names(program, pair[0], pair[1])
            .unwrap();
        assert_eq!(
            got, want,
            "{name}/{alg}/{pts:?}: may_alias({}, {}) differs",
            pair[0], pair[1]
        );
    }
}

/// The full grid on the synthetic workloads: all 12 algorithms, bitmap and
/// shared representations.
#[test]
fn session_matches_oneshot_across_algorithms_and_reprs() {
    for (name, program) in &workloads()[..2] {
        for alg in Algorithm::ALL {
            for pts in [PtsKind::Bitmap, PtsKind::Shared] {
                assert_session_matches(name, program, alg, pts);
            }
        }
    }
}

/// The compiled C programs on the paper's headline configuration.
#[test]
fn session_matches_oneshot_on_compiled_c() {
    for (name, program) in &workloads()[2..] {
        assert_session_matches(name, program, Algorithm::LcdHcd, PtsKind::Bitmap);
        assert_session_matches(name, program, Algorithm::Pkh, PtsKind::Shared);
    }
}

/// Every bad input becomes a typed error envelope with the documented
/// wire name, and the session keeps answering afterwards.
#[test]
fn error_envelopes_are_typed_and_survivable() {
    let (_, program) = workloads().remove(0);
    let opts = SessionOptions::new(SolverConfig::new(Algorithm::LcdHcd));
    let mut session = AnalysisSession::new(opts).unwrap();
    session.load_program(program.clone()).unwrap();

    let mut vars = program.vars().map(|v| program.var_name(v));
    let (va, vb) = (vars.next().unwrap(), vars.next().unwrap());
    let explain = format!(r#"{{"op":"explain","var":"{va}","loc":"{vb}"}}"#);
    let cases = [
        ("{not json", "malformed_request"),
        (r#"{"id":7}"#, "malformed_request"),
        (r#"{"op":"frobnicate"}"#, "unknown_op"),
        (
            r#"{"op":"points_to","var":"no_such_var_anywhere"}"#,
            "unknown_var",
        ),
        (explain.as_str(), "no_provenance"),
    ];
    for (line, wire) in cases {
        let reply = session.handle_line(line);
        assert!(!reply.ok);
        let o = reply_object(&reply.json);
        assert_eq!(
            o["error"].as_str(),
            Some(wire),
            "line `{line}` maps to `{wire}`: {}",
            reply.json
        );
        assert!(o["message"].as_str().is_some(), "envelopes carry a message");
    }
    // Still alive and answering after every error class.
    let first = program.var_name(program.vars().next().unwrap());
    let reply = session.handle_line(&format!(r#"{{"op":"points_to","var":"{first}"}}"#));
    assert!(reply.ok, "session answers after errors: {}", reply.json);
}

/// Reloading identical content must hit the solve cache (same content
/// key), and the `stats` op exposes the counters proving it.
#[test]
fn reload_hits_the_solve_cache() {
    let (_, program) = workloads().remove(0);
    let opts = SessionOptions::new(SolverConfig::new(Algorithm::LcdHcd));
    let mut session = AnalysisSession::new(opts).unwrap();
    let first = program.var_name(program.vars().next().unwrap()).to_owned();
    let query = format!(r#"{{"op":"points_to","var":"{first}"}}"#);

    session.load_program(program.clone()).unwrap();
    assert!(session.handle_line(&query).ok);
    session.load_program(program.clone()).unwrap();
    assert!(session.handle_line(&query).ok);

    let (solves, cache_hits) = session.solve_counters();
    assert_eq!(solves, 1, "identical content re-uses the cached solve");
    assert_eq!(cache_hits, 1);
    let reply = session.handle_line(r#"{"op":"stats"}"#);
    let o = reply_object(&reply.json);
    assert_eq!(o["solves"].as_u64(), Some(1), "stats: {}", reply.json);
    assert_eq!(o["cache_hits"].as_u64(), Some(1), "stats: {}", reply.json);
}

/// A zero deadline deterministically trips the per-request deadline check
/// with the `deadline_exceeded` wire name.
#[test]
fn zero_deadline_trips() {
    let (_, program) = workloads().remove(0);
    let mut opts = SessionOptions::new(SolverConfig::new(Algorithm::LcdHcd));
    opts.deadline_ms = Some(0);
    let mut session = AnalysisSession::new(opts).unwrap();
    let first = program.var_name(program.vars().next().unwrap()).to_owned();
    session.load_program(program).unwrap();
    let reply = session.handle_line(&format!(r#"{{"op":"points_to","var":"{first}"}}"#));
    assert!(!reply.ok);
    let o = reply_object(&reply.json);
    assert_eq!(o["error"].as_str(), Some("deadline_exceeded"));
}
