//! Regenerates the paper's Table 3: number of RT templates and retargeting
//! time per target processor, plus aggregate register-allocation counters
//! over the Figure 2 kernels that compile on each model.

use record_core::{CompileRequest, Record};
use record_targets::{kernels, models};
use std::time::Duration;

fn main() {
    println!("Table 3: retargeting statistics (paper: templates / SPARC-20 CPU s)");
    println!(
        "{:<12} {:>10} {:>10} {:>8} {:>12}   {:>7} {:>7} {:>7}   phases (parse/extract/template-gen/rule-gen/selector-gen/freeze)",
        "processor", "extracted", "extended", "rules", "time", "kernels", "saved", "spills"
    );
    for model in models::models() {
        match Record::retarget(model.hdl, &Default::default()) {
            Ok(target) => {
                // Aggregate allocator counters over the kernels this
                // machine can compile at all, batched through the
                // frozen artifact (only allocator counters are read:
                // skip compaction).
                let requests: Vec<_> = kernels::kernels()
                    .iter()
                    .map(|k| CompileRequest::new(k.source, k.function).compaction(false))
                    .collect();
                let mut compiled = 0usize;
                let mut saved = 0usize;
                let mut spills = 0usize;
                for c in target.compile_batch(&requests).into_iter().flatten() {
                    compiled += 1;
                    if let Some(a) = &c.alloc {
                        saved += a.accesses_saved();
                        spills += a.spills;
                    }
                }
                let s = target.report();
                let phases: Vec<String> = s
                    .report
                    .phases
                    .iter()
                    .map(|p| format!("{:.2?}", Duration::from_nanos(p.ns)))
                    .collect();
                println!(
                    "{:<12} {:>10} {:>10} {:>8} {:>10.2?}   {:>7} {:>7} {:>7}   {}",
                    model.name,
                    s.templates_extracted,
                    s.templates_extended,
                    s.rules,
                    s.t_total(),
                    compiled,
                    saved,
                    spills,
                    phases.join("/"),
                );
            }
            Err(e) => println!("{:<12} FAILED: {e}", model.name),
        }
    }
    println!();
    println!("`kernels` = Figure 2 kernels the machine compiles; `saved` = data-memory");
    println!("accesses removed by the register allocator; `spills` = residencies lost.");
    println!("paper reference: demo 439/356s  ref 1703/84s  manocpu 207/6.3s");
    println!("                 tanenbaum 232/11.7s  bass_boost 89/3.7s  TMS320C25 356/165s");
}
