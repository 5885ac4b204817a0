//! Tree-grammar construction (paper §3.1).
//!
//! The extended RT template base is translated into a tree grammar
//! `G = (ΣT, ΣN, S, R, c)`:
//!
//! * **Terminals** — the designated `ASSIGN`/`STORE` root symbols, plus one
//!   terminal per storage leaf, primary port, hardware operator, hardwired
//!   constant and instruction immediate field.
//! * **Non-terminals** — `START` plus one per register, register file and
//!   primary output port: the locations that can hold (intermediate)
//!   values.  Memories are *not* non-terminals in this implementation;
//!   spill placement is handled explicitly by the scheduler (a deviation
//!   from the paper).
//! * **Rules** —
//!   1. *start rules* `START → ASSIGN(dest, NonTerm(dest))`, cost 0,
//!   2. *RT rules* `NonTerm(dest) → L(exp)` per template, cost 1
//!      (memory-store templates become `START → STORE(addr, value)` rules),
//!   3. *stop rules* `NonTerm(reg) → Term(reg)`, cost 0.
//!
//! Minimum-cost derivations of an expression tree in this grammar are
//! exactly minimum-RT-count implementations, including chained operations
//! and special-purpose-register allocation for intermediates.
//!
//! The crate also defines the flat expression-tree ([`Et`]) arena the
//! selector operates on.
//!
//! # Example
//!
//! ```
//! let src = r#"
//!     module Acc {
//!         in d: bit(8);
//!         ctrl en: bit(1);
//!         out q: bit(8);
//!         register q = d when en == 1;
//!     }
//!     processor P {
//!         instruction word: bit(12);
//!         parts { acc: Acc; }
//!         connections { acc.d = I[7:0]; acc.en = I[8]; }
//!     }
//! "#;
//! let model = record_hdl::parse(src)?;
//! let netlist = record_netlist::elaborate(&model)?;
//! let ex = record_isex::extract(&netlist, &Default::default())?;
//! let grammar = record_grammar::TreeGrammar::from_base(&ex.base, &netlist);
//! // start rule + stop rule + one RT rule (acc := #imm)
//! assert_eq!(grammar.rules().len(), 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod build;
mod et;
mod types;

pub use et::{Et, EtBuilder, EtDest, EtKind, NodeIdx};
pub use types::{
    AssignKey, GPat, NonTermId, NonTermKind, Rule, RuleId, RuleOrigin, TermKey, TreeGrammar,
};

#[cfg(test)]
mod tests;
