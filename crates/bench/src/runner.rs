//! Shared benchmark runner.

use ant_common::SolverStats;
use ant_constraints::pipeline::PassPipeline;
use ant_constraints::{ConstraintStats, Program};
use ant_core::{solve_dyn, Algorithm, PtsKind, SolverConfig};
use ant_frontend::suite::{default_suite, scale_from_env};
use std::collections::HashMap;
use std::time::Duration;

/// A benchmark after constraint generation and offline preprocessing — the
/// exact input the paper's solvers receive ("the results reported are for
/// these reduced constraint files").
///
/// All reduction bookkeeping comes from one [`PassPipeline::full`] run.
#[derive(Clone, Debug)]
pub struct PreparedBench {
    /// Benchmark name (paper's Table 2 rows).
    pub name: String,
    /// Nominal LOC at the current scale.
    pub loc: usize,
    /// Constraint counts before reduction.
    pub original: ConstraintStats,
    /// Constraint counts after the offline pass pipeline.
    pub reduced: ConstraintStats,
    /// OVS pre-processing time (the pipeline's `ovs` pass).
    pub ovs_time: Duration,
    /// HCD offline analysis time on the reduced program (Table 3's
    /// "HCD-Offline" row; the pipeline's `hcd` pass).
    pub hcd_offline_time: Duration,
    /// The reduced program handed to every solver.
    pub program: Program,
}

/// Runs the full offline pipeline on one generated program.
fn prepare_one(name: String, loc: usize, program: Program) -> PreparedBench {
    let original = program.stats();
    let prepared = PassPipeline::full().run(&program);
    PreparedBench {
        name,
        loc,
        original,
        reduced: prepared.program.stats(),
        ovs_time: prepared
            .summary("ovs")
            .map(|s| s.elapsed)
            .unwrap_or_default(),
        hcd_offline_time: prepared.hcd.as_ref().map(|h| h.elapsed).unwrap_or_default(),
        program: prepared.program,
    }
}

/// Prepares the whole suite at the `ANT_SCALE` environment scale.
pub fn prepare_suite() -> Vec<PreparedBench> {
    let _ = scale_from_env();
    default_suite()
        .into_iter()
        .map(|b| prepare_one(b.name().to_owned(), b.spec.loc, b.program()))
        .collect()
}

/// One timed solver run.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Algorithm that ran.
    pub algorithm: Algorithm,
    /// Benchmark name.
    pub bench: String,
    /// Best-of-N solve time (the paper repeats three times and reports the
    /// smallest).
    pub time: Duration,
    /// Statistics from the best run.
    pub stats: SolverStats,
}

/// Number of repetitions from `ANT_BENCH_REPEATS` (default 1; the paper
/// uses 3). Invalid or zero values are clamped to 1 with a warning rather
/// than silently ignored.
pub fn repeats_from_env() -> usize {
    let value = std::env::var("ANT_BENCH_REPEATS").ok();
    let (repeats, warning) = parse_repeats(value.as_deref());
    if let Some(w) = warning {
        eprintln!("warning: {w}");
    }
    repeats
}

/// Pure core of [`repeats_from_env`]: `value` is `ANT_BENCH_REPEATS`.
/// Returns the repeat count plus a warning to surface when the value was
/// rejected.
pub fn parse_repeats(value: Option<&str>) -> (usize, Option<String>) {
    let Some(value) = value else {
        return (1, None);
    };
    match value.trim().parse::<usize>() {
        Ok(0) => (
            1,
            Some("ANT_BENCH_REPEATS=0 is not a valid repeat count; clamping to 1".to_string()),
        ),
        Ok(n) => (n, None),
        Err(_) => (
            1,
            Some(format!(
                "ANT_BENCH_REPEATS=`{value}` is not a number; using 1 repeat"
            )),
        ),
    }
}

/// Runs one algorithm on one prepared benchmark, best of `repeats`, with
/// the given points-to representation.
pub fn run_one(bench: &PreparedBench, alg: Algorithm, repeats: usize, pts: PtsKind) -> BenchResult {
    let config = SolverConfig::new(alg);
    let mut best: Option<SolverStats> = None;
    for _ in 0..repeats.max(1) {
        let out = solve_dyn(&bench.program, &config, pts);
        if best
            .as_ref()
            .is_none_or(|b| out.stats.solve_time < b.solve_time)
        {
            best = Some(out.stats);
        }
    }
    let stats = best.expect("at least one run");
    BenchResult {
        algorithm: alg,
        bench: bench.name.clone(),
        time: stats.solve_time,
        stats,
    }
}

/// Results of a full sweep, indexed by `(algorithm name, benchmark name)`.
#[derive(Debug, Default)]
pub struct SuiteResults {
    map: HashMap<(&'static str, String), BenchResult>,
}

impl SuiteResults {
    /// Looks up one cell.
    pub fn get(&self, alg: Algorithm, bench: &str) -> Option<&BenchResult> {
        self.map.get(&(alg.name(), bench.to_owned()))
    }

    /// Cell solve time in seconds.
    pub fn seconds(&self, alg: Algorithm, bench: &str) -> f64 {
        self.get(alg, bench)
            .map(|r| r.time.as_secs_f64())
            .unwrap_or(f64::NAN)
    }

    /// Cell memory in MiB.
    pub fn mib(&self, alg: Algorithm, bench: &str) -> f64 {
        self.get(alg, bench)
            .map(|r| r.stats.total_mib())
            .unwrap_or(f64::NAN)
    }

    fn insert(&mut self, r: BenchResult) {
        self.map.insert((r.algorithm.name(), r.bench.clone()), r);
    }
}

/// Runs `algorithms` over every prepared benchmark.
pub fn run_suite(
    benches: &[PreparedBench],
    algorithms: &[Algorithm],
    repeats: usize,
    pts: PtsKind,
) -> SuiteResults {
    let mut out = SuiteResults::default();
    for bench in benches {
        for &alg in algorithms {
            eprintln!("  [{}] {} ...", bench.name, alg.name());
            out.insert(run_one(bench, alg, repeats, pts));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ant_frontend::workload::WorkloadSpec;

    fn tiny_bench() -> PreparedBench {
        prepare_one("tiny".into(), 1000, WorkloadSpec::tiny(1).generate())
    }

    #[test]
    fn run_one_produces_stats() {
        let b = tiny_bench();
        let r = run_one(&b, Algorithm::LcdHcd, 2, PtsKind::Bitmap);
        assert_eq!(r.bench, "tiny");
        assert!(r.stats.nodes_processed > 0);
    }

    #[test]
    fn suite_results_lookup() {
        let b = tiny_bench();
        let rs = run_suite(
            std::slice::from_ref(&b),
            &[Algorithm::Lcd, Algorithm::Hcd],
            1,
            PtsKind::Bitmap,
        );
        assert!(rs.get(Algorithm::Lcd, "tiny").is_some());
        assert!(rs.get(Algorithm::Ht, "tiny").is_none());
        assert!(rs.seconds(Algorithm::Lcd, "tiny") >= 0.0);
        assert!(rs.mib(Algorithm::Lcd, "tiny") > 0.0);
        assert!(rs.seconds(Algorithm::Blq, "tiny").is_nan());
    }

    #[test]
    fn ovs_reduces_constraints() {
        let b = tiny_bench();
        assert!(b.reduced.total() < b.original.total());
    }

    #[test]
    fn parse_repeats_reads_the_count() {
        assert_eq!(parse_repeats(None), (1, None));
        assert_eq!(parse_repeats(Some("3")), (3, None));
        assert_eq!(parse_repeats(Some(" 4 ")), (4, None));
    }

    #[test]
    fn parse_repeats_rejects_zero_and_garbage_with_a_warning() {
        let (r, warn) = parse_repeats(Some("0"));
        assert_eq!(r, 1);
        assert!(warn.unwrap().contains("ANT_BENCH_REPEATS=0"));
        let (r, warn) = parse_repeats(Some("three"));
        assert_eq!(r, 1);
        assert!(warn.unwrap().contains("ANT_BENCH_REPEATS=`three`"));
        let (r, warn) = parse_repeats(Some("-2"));
        assert_eq!(r, 1);
        assert!(warn.is_some());
    }
}
