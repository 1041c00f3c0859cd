//! Answer checking: solution digests and the Basic reference they are
//! pinned to.
//!
//! The reference for a program is `Algorithm::Basic` over bitmaps with no
//! offline passes — the fuzz oracle's reference. Reference digests for seed 0
//! are pinned in `expected/seed0.tsv`, keyed by a hash of the program text,
//! so a pinned entry can never vouch for a different input. A program with
//! no pinned entry gets its reference computed before timing, in a child
//! process so that its memory stays out of the workload's peak RSS.

use crate::workloads::{self, Input};
use ant_constraints::parse_program;
use ant_core::{solve_dyn, Algorithm, PtsKind, Solution};
use std::collections::HashMap;
use std::process::Command;

/// What a solution is checked on: a hash over every variable's sorted
/// points-to set, plus the total number of points-to facts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub hash: u64,
    pub facts: u64,
}

/// The multiply-rotate FxHash, kept here rather than borrowed from the
/// library so that pinned digests do not move when the library's hasher
/// does.
#[derive(Default)]
struct Fx(u64);

impl Fx {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

/// Digest of an expanded solution (one set per original variable).
pub fn digest(solution: &Solution) -> Digest {
    let mut h = Fx::default();
    let mut facts = 0u64;
    for (v, len) in solution.set_sizes() {
        h.add(len as u64);
        for &loc in solution.points_to(v) {
            h.add(u64::from(loc));
        }
        facts += len as u64;
    }
    h.add(facts);
    Digest { hash: h.0, facts }
}

/// Content key of a program text: pinned digests are looked up by it.
pub fn text_key(text: &str) -> u64 {
    let mut h = Fx::default();
    for chunk in text.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h.add(u64::from_le_bytes(word));
    }
    h.add(text.len() as u64);
    h.0
}

const PINNED: &str = include_str!("../expected/seed0.tsv");

/// The pinned reference table: text key → digest.
fn pinned() -> HashMap<u64, Digest> {
    PINNED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| parse_entry(l).expect("expected/seed0.tsv rows are `key hash facts name`"))
        .collect()
}

fn parse_entry(line: &str) -> Option<(u64, Digest)> {
    let mut f = line.split_whitespace();
    let key = u64::from_str_radix(f.next()?, 16).ok()?;
    let hash = u64::from_str_radix(f.next()?, 16).ok()?;
    let facts = f.next()?.parse().ok()?;
    Some((key, Digest { hash, facts }))
}

fn format_entry(key: u64, d: Digest, name: &str) -> String {
    format!("{key:016x}\t{:016x}\t{}\t{name}", d.hash, d.facts)
}

/// The reference digest of one program text: Basic, bitmaps, no passes.
pub fn basic_digest(text: &str) -> Digest {
    let program = parse_program(text).expect("generated text parses");
    let out = solve_dyn(
        &program,
        &workloads::solver(Algorithm::Basic),
        PtsKind::Bitmap,
    );
    digest(&out.solution)
}

/// Reference digests for `inputs`, in order: pinned where possible, the
/// rest computed by a `--reference` child process.
pub fn references(
    workload: &str,
    seed: u64,
    smoke: bool,
    inputs: &[Input],
) -> Result<Vec<Digest>, String> {
    let mut known = pinned();
    if inputs
        .iter()
        .any(|i| !known.contains_key(&text_key(&i.text)))
    {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate self: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args([
            "--reference",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
        ]);
        if smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .output()
            .map_err(|e| format!("reference process failed to start: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "reference process failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        known.extend(
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .filter_map(parse_entry),
        );
    }
    inputs
        .iter()
        .map(|i| {
            known
                .get(&text_key(&i.text))
                .copied()
                .ok_or_else(|| format!("no reference digest for {}", i.name))
        })
        .collect()
}

/// `--reference` child: prints one entry per input without a pinned digest.
pub fn print_references(inputs: &[Input]) {
    let known = pinned();
    for input in inputs {
        let key = text_key(&input.text);
        if !known.contains_key(&key) {
            println!(
                "{}",
                format_entry(key, basic_digest(&input.text), &input.name)
            );
        }
    }
}

/// `--pin`: recomputes the seed-0 reference table for every workload at
/// both sizes and writes it to `expected/seed0.tsv`.
pub fn pin() -> std::io::Result<()> {
    let mut rows: Vec<String> = vec![
        "# Basic-reference digests for seed 0: text key, solution hash, facts, input.".into(),
        "# Regenerate with `cargo run --release -- --pin`.".into(),
    ];
    let mut seen = std::collections::HashSet::new();
    for sizes in [&workloads::FULL, &workloads::SMOKE] {
        for workload in workloads::NAMES {
            for input in workloads::checked_inputs(workload, sizes, 0) {
                let key = text_key(&input.text);
                if seen.insert(key) {
                    eprintln!("pinning {workload} {}", input.name);
                    rows.push(format_entry(key, basic_digest(&input.text), &input.name));
                }
            }
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected/seed0.tsv");
    std::fs::write(path, rows.join("\n") + "\n")?;
    eprintln!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_fact() {
        let a = Solution::from_sets(vec![vec![1, 2], vec![]]);
        let b = Solution::from_sets(vec![vec![1], vec![2]]);
        assert_ne!(digest(&a), digest(&b));
        assert_eq!(digest(&a).facts, 2);
    }

    #[test]
    fn pinned_table_parses() {
        assert!(!pinned().is_empty());
    }
}
