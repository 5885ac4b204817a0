//! Code compaction: vertical RT code → horizontal instruction words.
//!
//! Code selection produces *vertical* code — one RT per instruction.
//! Machines with instruction-level parallelism (horizontal or partially
//! encoded formats) can execute several RTs per word when their execution
//! conditions are jointly satisfiable.  This crate implements the
//! compaction phase the paper defers to its companion work (Leupers &
//! Marwedel, "Time-constrained Code Compaction for DSPs", ISSS 1995) in its
//! greedy list-scheduling form:
//!
//! * **Data dependences** are derived from the concrete read/write sets of
//!   each RT.  Semantics are *time-stationary* (paper table 1): all RTs of
//!   one word read pre-state, so an anti-dependence (write-after-read) may
//!   share a word with the read, while flow (read-after-write) and output
//!   (write-after-write) dependences force a later word.
//! * **Encoding compatibility** is the satisfiability of the conjunction
//!   of execution conditions — the same BDDs instruction-set extraction
//!   built.  Two RTs whose partial instructions conflict in any bit can
//!   never share a word, exactly as in the paper's §2.
//!
//! The number of words after compaction is the code-size metric of the
//! paper's Figure 2.
//!
//! # Example
//!
//! See `record-core`'s `Target::compile`, which feeds emitted RT ops
//! through [`compact_cfg`].

use record_bdd::{Bdd, BddOps};
use record_codegen::{RtOp, SimExpr};

/// One horizontal instruction word: indices into the original op sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Word {
    /// Positions (in the vertical sequence) of the RTs in this word.
    pub ops: Vec<usize>,
}

/// The result of compaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    words: Vec<Word>,
    moved: usize,
}

impl Schedule {
    /// Instruction words in execution order.
    pub fn words(&self) -> &[Word] {
        &self.words
    }

    /// Code size in instruction words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Is the schedule empty?
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Number of RTs packed into an earlier word than their vertical
    /// position (a parallelism measure).
    pub fn packed(&self) -> usize {
        self.moved
    }

    /// Materialises the schedule as owned op groups (for simulation).
    ///
    /// Transfer targets are rewritten from vertical *op* indices to the
    /// *word* indices those ops landed in (`ops.len()` — the halt target —
    /// maps to `words.len()`).  [`compact_cfg`] starts every block in a
    /// fresh word, so a block-entry op always heads its word and the
    /// rewrite never makes a jump re-execute a predecessor's RTs.
    pub fn materialize(&self, ops: &[RtOp]) -> Vec<Vec<RtOp>> {
        let mut word_of = vec![0usize; ops.len()];
        for (wi, w) in self.words.iter().enumerate() {
            for &i in &w.ops {
                word_of[i] = wi;
            }
        }
        self.words
            .iter()
            .map(|w| {
                w.ops
                    .iter()
                    .map(|&i| {
                        let mut op = ops[i].clone();
                        if op.transfer.is_some() {
                            if let SimExpr::Const(t) = op.expr {
                                let target = t as usize;
                                let wt = if target >= ops.len() {
                                    self.words.len()
                                } else {
                                    word_of[target]
                                };
                                op.expr = SimExpr::Const(wt as u64);
                            }
                        }
                        op
                    })
                    .collect()
            })
            .collect()
    }
}

/// Greedy list-scheduling compaction of `ops`.
///
/// RTs are taken in order; each is placed into the earliest word that
/// respects its dependences and whose accumulated execution condition stays
/// satisfiable when conjoined with the RT's own condition.
///
/// Generic over [`BddOps`]: at retarget time this is the mutable
/// [`record_bdd::BddManager`], during compilation against a frozen target
/// it is the session's [`record_bdd::BddOverlay`].
pub fn compact<M: BddOps>(ops: &[RtOp], manager: &mut M) -> Schedule {
    let mut words: Vec<Word> = Vec::new();
    let mut word_conds: Vec<Bdd> = Vec::new();
    let mut moved = 0usize;

    for (i, op) in ops.iter().enumerate() {
        let reads = op.reads();
        let write = op.write();

        // Earliest word by dependences.
        let mut earliest = 0usize;
        for (wi, word) in words.iter().enumerate() {
            for &j in &word.ops {
                let other = &ops[j];
                let ow = other.write();
                // Flow dependence: we read what an earlier op wrote.
                if reads.iter().any(|r| r.may_alias(&ow)) {
                    earliest = earliest.max(wi + 1);
                }
                // Output dependence: both write the same location.
                if write.may_alias(&ow) {
                    earliest = earliest.max(wi + 1);
                }
                // Anti dependence: an earlier op reads what we write.
                // Time-stationary words read pre-state, so sharing the same
                // word is legal; an earlier word is not.
                if other.reads().iter().any(|r| r.may_alias(&write)) {
                    earliest = earliest.max(wi);
                }
            }
        }

        // First encoding-compatible word at or after `earliest`.
        let mut placed = None;
        for (wi, &cond) in word_conds.iter().enumerate().skip(earliest) {
            let joint = manager.and(cond, op.cond);
            if manager.is_sat(joint) {
                placed = Some((wi, joint));
                break;
            }
        }
        match placed {
            Some((wi, joint)) => {
                words[wi].ops.push(i);
                word_conds[wi] = joint;
                if wi < words.len() - 1 || words[wi].ops.len() > 1 {
                    moved += 1;
                }
            }
            None => {
                words.push(Word { ops: vec![i] });
                word_conds.push(op.cond);
            }
        }
    }

    Schedule { words, moved }
}

/// Per-block compaction for CFG code: no code motion across block
/// boundaries, and every control-transfer RT occupies a word of its own.
///
/// Each block's straight-line stretches are compacted exactly as
/// [`compact`] would; a transfer op ends the current stretch and becomes
/// a singleton word (its encoding carries a target immediate that is
/// patched after scheduling, so it must not constrain — or be constrained
/// by — neighbours).  Block entries always start a fresh word, keeping
/// branch targets aligned to word boundaries.  A single-block range
/// without transfers degenerates to exactly [`compact`].
pub fn compact_cfg<M: BddOps>(
    ops: &[RtOp],
    block_ranges: &[std::ops::Range<usize>],
    manager: &mut M,
) -> Schedule {
    let mut words: Vec<Word> = Vec::new();
    let mut moved = 0usize;
    let flush =
        |run: std::ops::Range<usize>, words: &mut Vec<Word>, moved: &mut usize, manager: &mut M| {
            if run.is_empty() {
                return;
            }
            let mut s = compact(&ops[run.clone()], manager);
            *moved += s.moved;
            for w in &mut s.words {
                for k in &mut w.ops {
                    *k += run.start;
                }
            }
            // Adopt the first stretch's vector instead of copying it.
            if words.is_empty() {
                *words = s.words;
            } else {
                words.append(&mut s.words);
            }
        };
    for r in block_ranges {
        let mut run_start = r.start;
        for i in r.clone() {
            if ops[i].transfer.is_some() {
                flush(run_start..i, &mut words, &mut moved, manager);
                words.push(Word { ops: vec![i] });
                run_start = i + 1;
            }
        }
        flush(run_start..r.end, &mut words, &mut moved, manager);
    }
    Schedule { words, moved }
}

#[cfg(test)]
mod tests;
