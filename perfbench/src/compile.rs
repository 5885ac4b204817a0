//! The `compile-dsp` and `compile-long` workloads and the compile layers.
//!
//! One op is one `Target::compile` (a fresh session) of one verified
//! pair on a warm target; a round is the pair list in a seeded order.
//! The bind, select, emit, allocate and compact phases sit behind
//! `Target`'s crate-private fields, so their times and counters come
//! from the `CompileReport` the compiler attaches to every kernel; the
//! frontend calls (`record_ir::parse`, `record_ir::lower_cfg`) are timed
//! from here.

use crate::metrics::Values;
use crate::rng::Rng;
use crate::setup::{Case, Verified};
use crate::spans::Spans;
use crate::stats::ratio;
use crate::timing::{run_rounds, time, Tally, Timed};
use record_core::{CompileReport, CompiledKernel};
use std::hint::black_box;

fn check(case: &Case, kernel: &CompiledKernel) -> Result<(), String> {
    if kernel.ops.len() == case.ops && kernel.code_size() == case.words {
        Ok(())
    } else {
        Err(format!(
            "{}: compiled to {} ops / {} words, verified {} / {}",
            case.kernel.name,
            kernel.ops.len(),
            kernel.code_size(),
            case.ops,
            case.words
        ))
    }
}

/// Runs `op` on every case of each round, in a fresh seeded order per
/// round.
fn rounds(
    verified: &Verified,
    seed: u64,
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut(usize, &mut Vec<u64>),
) -> Timed {
    let mut rng = Rng::new(seed, 0x0D5E);
    let mut order: Vec<usize> = (0..verified.cases.len()).collect();
    run_rounds(seconds, min_ops, |latencies| {
        rng.shuffle(&mut order);
        for &i in &order {
            op(i, latencies);
        }
    })
}

/// The untraced timed loop.
pub fn timed(
    verified: &Verified,
    seed: u64,
    seconds: f64,
    min_ops: usize,
    tally: &mut Tally,
) -> Timed {
    rounds(verified, seed, seconds, min_ops, |i, latencies| {
        let case = &verified.cases[i];
        let target = verified.target(case);
        let request = Verified::request(case);
        let (result, ns) = time(|| target.compile(&request));
        latencies.push(ns);
        tally.op(result
            .map_err(|e| format!("{}: {e}", case.kernel.name))
            .and_then(|k| check(case, &black_box(k))));
    })
}

/// Exact counters of one compile, in [`COUNTERS`] order.
type Exact = [u64; COUNTERS.len()];

/// The exact per-compile counters: identical on every compile of a pair,
/// on any machine.
const COUNTERS: [&str; 14] = [
    "ops",
    "words",
    "select.rules-tried",
    "select.labels-set",
    "emit.spill-stores",
    "emit.reloads",
    "mem-accesses",
    "allocate.spills",
    "allocate.stores-eliminated",
    "bdd.nodes-allocated",
    "bdd.op-cache-hits",
    "bdd.op-cache-misses",
    "bdd.unique-probes",
    "bdd.unique-lookups",
];

/// Per-pair sums over the traced compiles.
#[derive(Debug, Clone, Default)]
struct Row {
    compiles: u64,
    /// Summed phase nanoseconds: ir.parse, ir.lower, then the report's
    /// bind, select, emit, allocate and compact.
    phase_ns: [u64; 7],
    /// The first compile's counters; every later one must equal them.
    exact: Option<Exact>,
}

const REPORT_PHASES: [&str; 5] = ["bind", "select", "emit", "allocate", "compact"];

/// Compile-layer sums over the traced ops, one row per pair.
#[derive(Debug, Default)]
pub struct Layers {
    rows: Vec<Row>,
}

fn exact_counters(report: &CompileReport, kernel: &CompiledKernel, mem_accesses: u64) -> Exact {
    let mut exact = [0; COUNTERS.len()];
    for (slot, name) in exact.iter_mut().zip(COUNTERS) {
        *slot = match name {
            "ops" => kernel.ops.len() as u64,
            "words" => kernel.code_size() as u64,
            "mem-accesses" => mem_accesses,
            _ => report.counter(name).unwrap_or(0),
        };
    }
    exact
}

impl Layers {
    fn record(
        &mut self,
        pair: usize,
        ir_ns: [u64; 2],
        kernel: &CompiledKernel,
        mem: u64,
    ) -> Result<(), String> {
        if self.rows.len() <= pair {
            self.rows.resize(pair + 1, Row::default());
        }
        let row = &mut self.rows[pair];
        row.compiles += 1;
        row.phase_ns[0] += ir_ns[0];
        row.phase_ns[1] += ir_ns[1];
        for (slot, phase) in row.phase_ns[2..].iter_mut().zip(REPORT_PHASES) {
            *slot += kernel.report.phase_ns(phase).unwrap_or(0);
        }
        let exact = exact_counters(&kernel.report, kernel, mem);
        match row.exact {
            None => {
                row.exact = Some(exact);
                Ok(())
            }
            Some(first) if first == exact => Ok(()),
            Some(first) => Err(format!(
                "nondeterministic counters: first compile {first:?}, later {exact:?} ({COUNTERS:?})"
            )),
        }
    }

    /// Checks that every pair was compiled at least twice (the
    /// determinism check compares repeats) and returns a digest of the
    /// exact counter table, identical across runs of one program.
    pub fn determinism_digest(&self) -> Result<u64, String> {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (i, row) in self.rows.iter().enumerate() {
            if row.compiles < 2 {
                return Err(format!("pair {i} compiled {} times, need 2", row.compiles));
            }
            for v in row.exact.iter().flatten() {
                h = (h ^ v).wrapping_mul(0x100_0000_01b3);
            }
        }
        Ok(h)
    }

    /// Per-op compile-layer metrics (means over every traced compile).
    pub fn report(&self, values: &mut Values) {
        let ops: u64 = self.rows.iter().map(|r| r.compiles).sum();
        let ops = ops as f64;
        let phase_us = |k: usize| {
            let ns: u64 = self.rows.iter().map(|r| r.phase_ns[k]).sum();
            ratio(ns as f64 / 1e3, ops)
        };
        for (k, metric) in [
            "ir.parse_us",
            "ir.lower_us",
            "codegen.bind_us",
            "selgen.select_us",
            "codegen.emit_us",
            "regalloc.allocate_us",
            "compact.compact_us",
        ]
        .into_iter()
        .enumerate()
        {
            values.insert(metric, phase_us(k));
        }
        let total = |name: &str| -> f64 {
            let k = COUNTERS
                .iter()
                .position(|c| *c == name)
                .expect("known counter");
            self.rows
                .iter()
                .map(|r| r.exact.map_or(0, |e| e[k]) * r.compiles)
                .sum::<u64>() as f64
        };
        for (metric, counter) in [
            ("selgen.rules_tried", "select.rules-tried"),
            ("selgen.labels_set", "select.labels-set"),
            ("codegen.spill_stores", "emit.spill-stores"),
            ("codegen.reloads", "emit.reloads"),
            ("codegen.mem_accesses", "mem-accesses"),
            ("regalloc.spills", "allocate.spills"),
            ("regalloc.stores_eliminated", "allocate.stores-eliminated"),
            ("compact.ops_in", "ops"),
            ("compact.words_out", "words"),
            ("bdd.nodes_allocated", "bdd.nodes-allocated"),
        ] {
            values.insert(metric, ratio(total(counter), ops));
        }
        let hits = total("bdd.op-cache-hits");
        values.insert(
            "bdd.op_cache_hit_ratio",
            ratio(hits, hits + total("bdd.op-cache-misses")),
        );
        values.insert(
            "bdd.unique_probes_per_lookup",
            ratio(total("bdd.unique-probes"), total("bdd.unique-lookups")),
        );
    }

    /// The per-(model, kernel) table: per-op mean microseconds per phase
    /// and the exact counters.
    pub fn table(&self, verified: &Verified) -> String {
        let mut out = format!(
            "{:<11} {:<18} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>7} {:>7} {:>5} {:>5} {:>6}\n",
            "model", "kernel", "n", "parse", "lower", "bind", "select", "emit", "alloc",
            "compact", "rules", "labels", "ops", "words", "nodes"
        );
        for (row, case) in self.rows.iter().zip(&verified.cases) {
            let n = row.compiles as f64;
            let us = |k: usize| ratio(row.phase_ns[k] as f64 / 1e3, n);
            let e = row.exact.unwrap_or_default();
            out.push_str(&format!(
                "{:<11} {:<18} {:>6} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>9.1} {:>7} {:>7} {:>5} {:>5} {:>6}\n",
                verified.models[case.model].name,
                case.kernel.name,
                row.compiles,
                us(0), us(1), us(2), us(3), us(4), us(5), us(6),
                e[2], e[3], e[0], e[1], e[9]
            ));
        }
        out
    }
}

/// Traced rounds: per op, the frontend calls and the whole compile are
/// spans; the report's phases and counters go into [`Layers`].  Returns
/// the traced ops' `core.compile` latencies (comparable with an untraced
/// op).
pub fn traced(
    verified: &Verified,
    seed: u64,
    seconds: f64,
    min_ops: usize,
    spans: &mut Spans,
    tally: &mut Tally,
    layers: &mut Layers,
) -> Timed {
    let mut op = 0u64;
    rounds(verified, seed, seconds, min_ops, |i, latencies| {
        let case = &verified.cases[i];
        let target = verified.target(case);
        let request = Verified::request(case);
        let root = spans.open("compile.op", op, None);
        let parse = spans.open("ir.parse", op, Some(root));
        let program = record_ir::parse(case.kernel.source);
        let parse_ns = spans.close(parse);
        let lower = spans.open("ir.lower", op, Some(root));
        let cfg = program
            .as_ref()
            .map(|p| record_ir::lower_cfg(p, case.kernel.function));
        let lower_ns = spans.close(lower);
        drop(black_box(cfg));
        let compile = spans.open("core.compile", op, Some(root));
        let result = target.compile(&request);
        latencies.push(spans.close(compile));
        spans.close(root);
        op += 1;
        let outcome = result
            .map_err(|e| format!("{}: {e}", case.kernel.name))
            .and_then(|kernel| {
                check(case, &kernel)?;
                let dm = target.data_memory().map_err(|e| e.to_string())?;
                let (reads, writes) = record_core::mem_traffic(&kernel.ops, dm);
                layers
                    .record(i, [parse_ns, lower_ns], &kernel, (reads + writes) as u64)
                    .map_err(|e| format!("{}: {e}", case.kernel.name))
            });
        tally.op(outcome);
    })
}
