//! A fixed CPU kernel that measures the host's speed during a run.
//!
//! On the reference VM the same compile loop runs up to 30% faster or
//! slower from one moment to the next, with no steal counted: other
//! guests share the host's cores and caches.  Such phases last from a
//! few hundred milliseconds to minutes and moved every end-to-end time
//! more than any other change of the harness could remove.  So timed
//! loops run this kernel between rounds (see `timing::run_rounds`) and
//! the benchmark reports times at a fixed host speed: each op time is
//! multiplied by [`NOMINAL_NS`] over the kernel's time per pass in the
//! sample taken just before it.
//!
//! The kernel does the kinds of work a compiler does (hash probes, a
//! pointer chase through a working set larger than L1, a sort) on
//! buffers allocated once, so the program under test cannot change its
//! speed through the heap it leaves behind.  It does not call the
//! program: no change to the program changes the kernel's work.

use crate::rng::Rng;
use std::hint::black_box;

/// CPU time of one [`Yardstick::pass`] on the reference VM at its usual
/// speed.  Times reported by the benchmark are at this speed.
pub const NOMINAL_NS: f64 = 300_000.0;

const TABLE: usize = 1 << 13;
const CHAIN: usize = 1 << 15;
const SORTED: usize = 1 << 10;

/// The kernel's buffers.
pub struct Yardstick {
    table: Vec<u64>,
    chain: Vec<u32>,
    sorted: Vec<u64>,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        // One random cycle through all of `chain` (Sattolo's shuffle), so
        // the chase visits every entry in an order caches cannot predict.
        let mut rng = Rng::new(0x7A4D, 0);
        let mut chain: Vec<u32> = (0..CHAIN as u32).collect();
        for i in (1..CHAIN).rev() {
            chain.swap(i, rng.below(i));
        }
        Yardstick {
            table: vec![0; TABLE],
            chain,
            sorted: vec![0; SORTED],
        }
    }

    /// One pass of fixed work; returns a value that depends on all of it.
    pub fn pass(&mut self) -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Open-addressing inserts to half load, then as many probes.
        self.table.fill(0);
        for _ in 0..TABLE / 2 {
            let key = next() | 1;
            let mut slot = key as usize % TABLE;
            while self.table[slot] != 0 {
                slot = (slot + 1) % TABLE;
            }
            self.table[slot] = key;
        }
        let mut found = 0u64;
        for _ in 0..TABLE / 2 {
            let key = next() | 1;
            let mut slot = key as usize % TABLE;
            while self.table[slot] != 0 {
                if self.table[slot] == key {
                    found += 1;
                    break;
                }
                slot = (slot + 1) % TABLE;
            }
        }
        let mut at = 0u32;
        for _ in 0..CHAIN {
            at = self.chain[at as usize];
        }
        for v in &mut self.sorted {
            *v = next();
        }
        self.sorted.sort_unstable();
        black_box(found + u64::from(at) + self.sorted[SORTED / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pass_does_the_same_work() {
        let mut y = Yardstick::new();
        let first = y.pass();
        assert_eq!(y.pass(), first);
        assert_eq!(Yardstick::new().pass(), first);
    }
}
