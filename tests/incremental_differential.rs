//! Differential testing of resumable solver states: solving a base
//! program, retaining the state, and resuming over an appended delta must
//! reach exactly the fixpoint a from-scratch solve of the union program
//! reaches.
//!
//! What "bit-identical" means here (the PR-6-style correctness story,
//! adapted to warm starts — see DESIGN.md §14):
//!
//! * **Solution**: the resumed solution is bit-identical to the scratch
//!   union solution. Andersen's constraints are monotone, so the base
//!   fixpoint is a sound warm start, and inclusion systems have a unique
//!   least fixpoint — both runs land on it.
//! * **Counters across configurations**: the resume path's behavioural
//!   §5.3 counters are bit-identical across `{bitmap, shared}` ×
//!   `--prop {full, diff}` × `threads {1, 4}` for a fixed algorithm and
//!   split — representation, propagation mode and the BSP engine are
//!   solver-invisible, and that invariance must survive the warm start.
//! * **Not** resume-vs-scratch counter equality: a resumed solve only
//!   re-processes nodes the delta disturbs, so its cumulative counters are
//!   *smaller* than the scratch union's — that gap is the entire point of
//!   warm starting.

use ant_grasshopper::{
    resume_dyn, solve_dyn, solve_dyn_resumable, Algorithm, Program, ProgramBuilder, PropMode,
    PtsKind, SolverConfig, VarId,
};
use proptest::prelude::*;

/// The resumable algorithms (HT, BLQ and the HCD variants fall back to
/// full re-solves by design; see `resume_supported`).
const ALGS: [Algorithm; 4] = [
    Algorithm::Basic,
    Algorithm::Lcd,
    Algorithm::Pkh,
    Algorithm::Pkh03,
];

/// The nine behavioural §5.3 counters (`propagated_bytes` and durations
/// excluded: those measure *how*, not *what*).
fn counters(st: &ant_grasshopper::SolverStats) -> [u64; 9] {
    [
        st.nodes_processed,
        st.propagations,
        st.propagations_changed,
        st.edges_added,
        st.complex_iters,
        st.cycle_searches,
        st.nodes_searched,
        st.cycles_found,
        st.nodes_collapsed,
    ]
}

#[derive(Clone, Debug)]
struct RawConstraint {
    kind: u8,
    lhs: usize,
    rhs: usize,
}

fn raw_constraints(max_vars: usize, max_cs: usize) -> impl Strategy<Value = Vec<RawConstraint>> {
    prop::collection::vec(
        (0u8..4, 0..max_vars, 0..max_vars).prop_map(|(kind, lhs, rhs)| RawConstraint {
            kind,
            lhs,
            rhs,
        }),
        2..max_cs,
    )
}

/// Builds a program over the full `nvars` variable space from a raw slice.
/// Declaring every variable up front keeps the id space identical across
/// the base, the addition and the union, so solutions compare by `VarId`.
fn build_program(raw: &[RawConstraint], nvars: usize) -> Program {
    let mut b = ProgramBuilder::new();
    let vars: Vec<VarId> = (0..nvars).map(|i| b.var(&format!("v{i}"))).collect();
    for c in raw {
        let (l, r) = (vars[c.lhs], vars[c.rhs]);
        match c.kind {
            0 => b.addr_of(l, r),
            1 => b.copy(l, r),
            2 => b.load(l, r),
            _ => b.store(l, r),
        }
    }
    b.finish()
}

const NVARS: usize = 24;

/// Solves `base`, resumes over `union`, checks the resumed solution against
/// a from-scratch union solve, and returns the resume path's cumulative
/// behavioural counters for the cross-configuration invariance check.
fn check_one(
    base: &Program,
    union: &Program,
    alg: Algorithm,
    pts: PtsKind,
    prop: PropMode,
    threads: usize,
) -> [u64; 9] {
    let cfg = SolverConfig::new(alg).with_threads(threads).with_prop(prop);
    let (_, state) = solve_dyn_resumable(base, &cfg, pts);
    let state = state.unwrap_or_else(|| panic!("{alg}/{pts:?} is a resumable configuration"));
    let (resumed, _) = resume_dyn(state, union)
        .unwrap_or_else(|e| panic!("{alg}/{pts:?}: union extends base, yet resume failed: {e}"));
    let scratch = solve_dyn(union, &cfg, pts);
    assert!(
        resumed.solution.equiv(&scratch.solution),
        "{alg}/{pts:?}/{prop:?}/t{threads}: resumed solution differs from scratch at {:?}",
        resumed.solution.first_difference(&scratch.solution)
    );
    counters(&resumed.stats)
}

/// Runs the full configuration matrix for one base/union split and asserts
/// the counter invariance across representations, propagation modes and
/// thread counts.
fn check_split(base: &Program, union: &Program) {
    for alg in ALGS {
        let mut seen: Option<[u64; 9]> = None;
        for pts in [PtsKind::Bitmap, PtsKind::Shared] {
            for prop in [PropMode::Full, PropMode::Diff] {
                for threads in [1, 4] {
                    let c = check_one(base, union, alg, pts, prop, threads);
                    match &seen {
                        None => seen = Some(c),
                        Some(s) => assert_eq!(
                            &c, s,
                            "{alg}/{pts:?}/{prop:?}/t{threads}: resume-path counters \
                             diverge across configurations"
                        ),
                    }
                }
            }
        }
    }
}

/// Hand-picked splits of a pointer-heavy program: pure growth, a delta that
/// closes a cycle through the base, and an empty delta.
#[test]
fn fixed_splits_resume_to_the_scratch_fixpoint() {
    let raw: Vec<RawConstraint> = [
        (0u8, 0, 1), // v0 = &v1
        (1, 2, 0),   // v2 = v0
        (3, 0, 2),   // *v0 = v2
        (2, 3, 0),   // v3 = *v0
        (1, 4, 3),   // v4 = v3
        (0, 5, 6),   // v5 = &v6
        (1, 3, 5),   // v3 = v5
        (1, 5, 4),   // v5 = v4 — closes a cycle through the base
        (2, 7, 5),   // v7 = *v5
    ]
    .iter()
    .map(|&(kind, lhs, rhs)| RawConstraint { kind, lhs, rhs })
    .collect();
    let union = build_program(&raw, 8);
    for split in [1, 4, 7, raw.len()] {
        let base = build_program(&raw[..split], 8);
        check_split(&base, &union);
    }
}

/// A chain of three deltas reaches the same fixpoint as one scratch solve
/// of the final union, re-keying the retained state at every step.
#[test]
fn chained_deltas_match_the_final_union() {
    let stages = [
        "p = &x\nq = p\n",
        "p = &x\nq = p\nr = *q\n*p = q\n",
        "p = &x\nq = p\nr = *q\n*p = q\ns = r\nr = s\nt = &s\n",
    ];
    for alg in ALGS {
        for pts in [PtsKind::Bitmap, PtsKind::Shared] {
            let cfg = SolverConfig::new(alg);
            let programs: Vec<Program> = stages
                .iter()
                .map(|s| ant_grasshopper::parse_program(s).unwrap())
                .collect();
            let (_, state) = solve_dyn_resumable(&programs[0], &cfg, pts);
            let mut state = state.unwrap();
            let mut last = None;
            let mut current = programs[0].clone();
            for next in &programs[1..] {
                let delta = current.delta_from(next).unwrap();
                let union = current.append_delta(&delta);
                let (out, st) = resume_dyn(state, &union).unwrap();
                state = st;
                last = Some(out);
                current = union;
            }
            let scratch = solve_dyn(&current, &cfg, pts);
            let last = last.unwrap();
            assert!(
                last.solution.equiv(&scratch.solution),
                "{alg}/{pts:?}: chained resume differs at {:?}",
                last.solution.first_difference(&scratch.solution)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random base/delta splits of arbitrary constraint programs: for every
    /// resumable algorithm the resumed solution matches a scratch union
    /// solve, and the resume path's behavioural counters are bit-identical
    /// across the representation × propagation × thread matrix.
    #[test]
    fn random_splits_resume_to_the_scratch_fixpoint(
        raw in raw_constraints(NVARS, 60),
        split_pct in 0usize..101,
    ) {
        let split = (raw.len() * split_pct).div_euclid(100).min(raw.len());
        let base = build_program(&raw[..split], NVARS);
        let union = build_program(&raw, NVARS);
        check_split(&base, &union);
    }
}
