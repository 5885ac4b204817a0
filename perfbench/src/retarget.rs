//! The `retarget` workload and the retarget layers.
//!
//! One op is one Table-3 pass: a cold `Record::retarget` of all six
//! models in Table-3 order on one thread.  A whole pass per op keeps the
//! latency distribution to one cluster (single models range from well
//! under a millisecond to several).

use crate::metrics::Values;
use crate::pairs;
use crate::setup::{self, Verified};
use crate::spans::Spans;
use crate::stats::ratio;
use crate::timing::{run_rounds, time, Tally, Timed};
use record_core::{Record, RetargetOptions, Target};
use record_grammar::TreeGrammar;
use record_selgen::Selector;
use std::hint::black_box;
use std::sync::Arc;

/// The exact counts one retarget must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub templates_extracted: usize,
    pub templates_extended: usize,
    pub rules: usize,
    pub nonterminals: usize,
    pub frozen_nodes: usize,
}

impl Counts {
    pub fn of(target: &Target) -> Counts {
        let r = target.report();
        Counts {
            templates_extracted: r.templates_extracted,
            templates_extended: r.templates_extended,
            rules: r.rules,
            nonterminals: r.nonterminals,
            frozen_nodes: target.manager().node_count(),
        }
    }
}

/// Set-up: the six models retargeted once (their counts are the
/// reference every pass must reproduce), and the selectors they generate
/// verified on compile-dsp's pairs (whose code is this workload's
/// `code_words`: the quality of what retargeting produced).
pub struct RetargetSetup {
    pub counts: Vec<(&'static str, Counts)>,
    pub verified: Verified,
}

/// Retargets every Table-3 model and verifies the DSP pairs on them.
///
/// # Errors
///
/// Retarget failures and verification failures.
pub fn setup(seed: u64) -> Result<RetargetSetup, String> {
    let mut models = Vec::new();
    let mut counts = Vec::new();
    for m in record_targets::models() {
        let model = setup::retarget(m.name)?;
        counts.push((m.name, Counts::of(&model.target)));
        models.push(model);
    }
    let verified = setup::verify(pairs::DSP, models, seed)?;
    Ok(RetargetSetup { counts, verified })
}

fn check(name: &str, want: Counts, got: Counts) -> Result<(), String> {
    if want == got {
        Ok(())
    } else {
        Err(format!(
            "{name}: retarget counts {got:?} differ from set-up {want:?}"
        ))
    }
}

/// The untraced timed loop.
pub fn timed(setup: &RetargetSetup, seconds: f64, min_ops: usize, tally: &mut Tally) -> Timed {
    let options = RetargetOptions::default();
    let models = record_targets::models();
    run_rounds(seconds, min_ops, |latencies| {
        let (targets, ns) = time(|| {
            models
                .iter()
                .map(|m| Record::retarget(m.hdl, &options))
                .collect::<Vec<_>>()
        });
        latencies.push(ns);
        let outcome = targets
            .iter()
            .zip(&setup.counts)
            .try_for_each(|(target, &(name, want))| match target {
                Ok(t) => check(name, want, Counts::of(t)),
                Err(e) => Err(format!("{name}: retarget failed: {e}")),
            });
        tally.op(outcome);
    })
}

/// Each Table-3 model retargeted once: the counts every traced pass must
/// reproduce.
///
/// # Errors
///
/// Retarget failures.
pub fn reference_counts() -> Result<Vec<(&'static str, Counts)>, String> {
    record_targets::models()
        .iter()
        .map(|m| Ok((m.name, Counts::of(&setup::retarget(m.name)?.target))))
        .collect()
}

/// Retarget-layer sums over the traced passes.
#[derive(Debug, Default)]
pub struct Layers {
    passes: u64,
    freeze_ns: u64,
    counts: Vec<Counts>,
}

impl Layers {
    /// Mean `core.retarget` nanoseconds per pass: the traced counterpart
    /// of an untraced op.
    pub fn op_ns(&self, spans: &Spans) -> f64 {
        let ns = spans.totals().get("core.retarget").map_or(0, |&(ns, _)| ns);
        ratio(ns as f64, self.passes as f64)
    }

    /// Per-pass retarget-layer metrics.
    pub fn report(&self, spans: &Spans, values: &mut Values) {
        let totals = spans.totals();
        let passes = self.passes as f64;
        let per_pass_us = |name: &str| {
            ratio(
                totals.get(name).map_or(0, |&(ns, _)| ns) as f64 / 1e3,
                passes,
            )
        };
        for (metric, span) in [
            ("hdl.parse_us", "hdl.parse"),
            ("netlist.elaborate_us", "netlist.elaborate"),
            ("isex.extract_us", "isex.extract"),
            ("rtl.extend_us", "rtl.extend"),
            ("grammar.build_us", "grammar.build"),
            ("selgen.generate_us", "selgen.generate"),
            ("core.retarget_us", "core.retarget"),
        ] {
            values.insert(metric, per_pass_us(span));
        }
        values.insert("core.freeze_us", ratio(self.freeze_ns as f64 / 1e3, passes));
        let sum = |f: fn(&Counts) -> usize| self.counts.iter().map(f).sum::<usize>() as f64;
        values.insert("isex.templates", sum(|c| c.templates_extracted));
        values.insert("rtl.templates", sum(|c| c.templates_extended));
        values.insert("grammar.rules", sum(|c| c.rules));
        values.insert("grammar.nonterminals", sum(|c| c.nonterminals));
        values.insert("bdd.frozen_nodes", sum(|c| c.frozen_nodes));
    }
}

/// One traced pass: every layer of every model called on its own, each
/// call a span, then the whole `Record::retarget` as `core.retarget`.
///
/// The layer calls repeat what `Record::retarget` does inside, through
/// the crates' public functions; their counts must agree with it and
/// with the set-up pass.  `core.freeze_us` is the part of the retarget
/// its own report does not attribute to a layer phase (freeze plus
/// glue).
pub fn traced_pass(
    counts: &[(&'static str, Counts)],
    op: u64,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<(), String> {
    let options = RetargetOptions::default();
    let root = spans.open("retarget.pass", op, None);
    let mut pass_counts = Vec::with_capacity(counts.len());
    let mut outcome = Ok(());
    for (m, &(name, want)) in record_targets::models().iter().zip(counts) {
        let parent = Some(root);
        let layered = (|| {
            let model = spans
                .time("hdl.parse", op, parent, || record_hdl::parse(m.hdl))
                .map_err(|e| e.to_string())?;
            let netlist = spans
                .time("netlist.elaborate", op, parent, || {
                    record_netlist::elaborate(&model)
                })
                .map_err(|e| e.to_string())?;
            let mut extraction = spans
                .time("isex.extract", op, parent, || {
                    record_isex::extract(&netlist, &options.extract)
                })
                .map_err(|e| e.to_string())?;
            let extracted = extraction.base.len();
            spans.time("rtl.extend", op, parent, || {
                record_rtl::extend(&mut extraction.base, &options.extension)
            });
            let grammar = spans.time("grammar.build", op, parent, || {
                TreeGrammar::from_base(&extraction.base, &netlist)
            });
            let (rules, nonterminals) = (grammar.rules().len(), grammar.nonterm_count());
            let selector = spans.time("selgen.generate", op, parent, || {
                Selector::generate(Arc::new(grammar))
            });
            black_box(selector);
            Ok::<_, String>((extracted, extraction.base.len(), rules, nonterminals))
        })();
        let target = spans
            .time("core.retarget", op, parent, || {
                Record::retarget(m.hdl, &options)
            })
            .map_err(|e| format!("{name}: retarget failed: {e}"));
        let step = layered
            .map_err(|e| format!("{name}: layer call failed: {e}"))
            .and_then(|layer_counts| {
                let target = target?;
                let got = Counts::of(&target);
                let report = target.report();
                let attributed: u64 = report
                    .report
                    .phases
                    .iter()
                    .filter(|p| p.label != "freeze")
                    .map(|p| p.ns)
                    .sum();
                layers.freeze_ns += report.total_ns.saturating_sub(attributed);
                pass_counts.push(got);
                let from_layers = (
                    got.templates_extracted,
                    got.templates_extended,
                    got.rules,
                    got.nonterminals,
                );
                if layer_counts != from_layers {
                    return Err(format!(
                        "{name}: layer calls counted {layer_counts:?}, Record::retarget {from_layers:?}"
                    ));
                }
                check(name, want, got)
            });
        if outcome.is_ok() {
            outcome = step;
        }
    }
    spans.close(root);
    layers.passes += 1;
    layers.counts = pass_counts;
    outcome
}

/// Traced passes for `seconds` (at least `min_passes`); returns their
/// loop, whose op times are whole traced passes (each layer called on its
/// own, then `Record::retarget`).
pub fn traced(
    counts: &[(&'static str, Counts)],
    seconds: f64,
    min_passes: usize,
    spans: &mut Spans,
    tally: &mut Tally,
    layers: &mut Layers,
) -> Timed {
    let mut op = 0;
    run_rounds(seconds, min_passes, |latencies| {
        let (outcome, ns) = time(|| traced_pass(counts, op, spans, layers));
        latencies.push(ns);
        tally.op(outcome);
        op += 1;
    })
}
