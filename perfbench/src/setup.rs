//! Set-up shared by the workloads: retarget the models a pair list
//! needs, then verify every pair end to end before anything is timed.
//!
//! Verification is the correctness pass: each pair compiles, runs on the
//! RT-level `Machine` from seeded inputs, and every variable it touches
//! must equal what the mini-C reference interpreter computes.  The op
//! and word counts of that verified compile are what every timed compile
//! must reproduce.

use crate::pairs::{self, PairList};
use crate::rng::Rng;
use record_core::{CompileRequest, CompiledKernel, Record, RetargetOptions, Target};
use record_ir::{FlatExpr, FlatStmt, Terminator};
use record_targets::Kernel;
use std::collections::BTreeSet;

/// Oracle input images per pair (control kernels branch on data, so one
/// image would leave paths unchecked).
const IMAGES: u64 = 2;

/// A retargeted model.
pub struct Model {
    pub name: &'static str,
    pub hdl: &'static str,
    pub target: Target,
}

/// A verified pair: where it compiles and what a correct compile yields.
pub struct Case {
    /// Index into [`Verified::models`].
    pub model: usize,
    pub kernel: Kernel,
    /// Vertical RT ops of the verified compile.
    pub ops: usize,
    /// Instruction words of the verified compile.
    pub words: usize,
    /// The verified compile's listing (`Target::listing`).
    pub listing: String,
}

/// Retargeted models plus the verified pairs on them.
pub struct Verified {
    pub models: Vec<Model>,
    pub cases: Vec<Case>,
}

impl Verified {
    /// Static instruction words over one pass of the pair list.
    pub fn code_words(&self) -> usize {
        self.cases.iter().map(|c| c.words).sum()
    }

    /// The model a case compiles on.
    pub fn target(&self, case: &Case) -> &Target {
        &self.models[case.model].target
    }

    /// The request that compiles `case`.
    pub fn request(case: &Case) -> CompileRequest<'static> {
        CompileRequest::new(case.kernel.source, case.kernel.function)
    }
}

/// Retargets `name` cold.
///
/// # Errors
///
/// Unknown model names and retarget failures.
pub fn retarget(name: &'static str) -> Result<Model, String> {
    let model = record_targets::models::model(name).ok_or(format!("unknown model `{name}`"))?;
    let target = Record::retarget(model.hdl, &RetargetOptions::default())
        .map_err(|e| format!("retarget `{name}`: {e}"))?;
    Ok(Model {
        name,
        hdl: model.hdl,
        target,
    })
}

/// Retargets every model `list` needs (reusing any in `have`) and
/// verifies every pair of the list.
///
/// # Errors
///
/// Unresolvable names, retarget failures, and any pair that fails to
/// compile or disagrees with the interpreter: the workload is not run on
/// a compiler that is already wrong.
pub fn verify(list: PairList, mut have: Vec<Model>, seed: u64) -> Result<Verified, String> {
    let pairs = pairs::resolve(list)?;
    let mut models = Vec::new();
    for name in pairs::models(list) {
        let model = match have.iter().position(|m| m.name == name) {
            Some(i) => have.swap_remove(i),
            None => retarget(name)?,
        };
        models.push(model);
    }
    let mut rng = Rng::new(seed, 0x0AC1E);
    let mut cases = Vec::with_capacity(pairs.len());
    for pair in pairs {
        let model = models
            .iter()
            .position(|m| m.name == pair.model.name)
            .expect("every pair's model was retargeted above");
        let target = &models[model].target;
        let label = format!("{}/{}", pair.model.name, pair.kernel.name);
        let kernel = target
            .compile(&CompileRequest::new(
                pair.kernel.source,
                pair.kernel.function,
            ))
            .map_err(|e| format!("{label}: compile failed: {e}"))?;
        for _ in 0..IMAGES {
            check_against_interpreter(target, &kernel, &pair.kernel, &mut rng)
                .map_err(|e| format!("{label}: {e}"))?;
        }
        cases.push(Case {
            model,
            kernel: pair.kernel,
            ops: kernel.ops.len(),
            words: kernel.code_size(),
            listing: target.listing(&kernel),
        });
    }
    Ok(Verified { models, cases })
}

/// Runs `kernel` on the machine from one seeded input image and compares
/// every touched variable with the reference interpreter.
fn check_against_interpreter(
    target: &Target,
    kernel: &CompiledKernel,
    source: &Kernel,
    rng: &mut Rng,
) -> Result<(), String> {
    let program = record_ir::parse(source.source).map_err(|e| format!("parse: {e}"))?;
    let cfg = record_ir::lower_cfg(&program, source.function).map_err(|e| format!("lower: {e}"))?;
    // Byte-sized inputs keep data-dependent loops (`count_down`) short
    // while still exercising both sides of every comparison.
    let init: Vec<(String, Vec<u64>)> = program
        .globals
        .iter()
        .map(|g| {
            let values = (0..g.words()).map(|_| rng.next_u64() & 0xFF).collect();
            (g.name.clone(), values)
        })
        .collect();

    let mut memory = record_ir::Memory::new();
    for (name, values) in &init {
        memory.insert(name.clone(), values.clone());
    }
    record_ir::interp(&program, source.function, &mut memory, 16)
        .map_err(|e| format!("interpreter: {e}"))?;

    let init_refs: Vec<(&str, Vec<u64>)> =
        init.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
    let machine = target.execute(kernel, &init_refs);
    let dm = target.data_memory().map_err(|e| e.to_string())?;
    let touched = touched_variables(&cfg);
    for (name, addr) in kernel.binding.assignments() {
        if !touched.contains(name) {
            continue;
        }
        for (i, want) in memory[name].iter().enumerate() {
            let got = machine.mem(dm, addr + i as u64);
            if got != *want {
                return Err(format!(
                    "machine disagrees with the interpreter at {name}[{i}]: {got} != {want}"
                ));
            }
        }
    }
    Ok(())
}

/// Variables a lowered CFG reads or writes, branch conditions included.
fn touched_variables(cfg: &record_ir::Cfg) -> BTreeSet<String> {
    fn reads(e: &FlatExpr, out: &mut BTreeSet<String>) {
        match e {
            FlatExpr::Load(r) => {
                out.insert(r.name.clone());
            }
            FlatExpr::Unary(_, a) => reads(a, out),
            FlatExpr::Binary(_, a, b) => {
                reads(a, out);
                reads(b, out);
            }
            FlatExpr::Const(_) => {}
        }
    }
    let mut set = BTreeSet::new();
    for block in &cfg.blocks {
        for FlatStmt { target, value } in &block.stmts {
            set.insert(target.name.clone());
            reads(value, &mut set);
        }
        if let Terminator::Branch { cond, .. } = &block.term {
            reads(cond, &mut set);
        }
    }
    set
}
