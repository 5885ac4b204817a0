use crate::*;
use record_codegen::{Binding, Machine};
use record_grammar::TreeGrammar;
use record_selgen::Selector;

/// A horizontal two-register machine: r1 and r2 load from independent
/// fields, so independent RTs pack into one word; the shared ALU writes
/// only r1.
const HORIZ: &str = r#"
    module Reg16 {
        in d: bit(16);
        ctrl en: bit(1);
        out q: bit(16);
        register q = d when en == 1;
    }
    module Alu {
        in a: bit(16);
        in b: bit(16);
        ctrl f: bit(1);
        out y: bit(16);
        behavior {
            case f { 0 => y = a + b; 1 => y = a - b; }
        }
    }
    module Mux2 {
        in a: bit(16);
        in b: bit(16);
        ctrl s: bit(1);
        out y: bit(16);
        behavior { case s { 0 => y = a; 1 => y = b; } }
    }
    module Ram {
        in addr: bit(4);
        in din: bit(16);
        ctrl w: bit(1);
        out dout: bit(16);
        memory cells[16]: bit(16);
        read dout = cells[addr];
        write cells[addr] = din when w == 1;
    }
    processor Horiz {
        instruction word: bit(16);
        parts {
            r1: Reg16; r2: Reg16; alu: Alu; r1mux: Mux2; ram: Ram;
        }
        connections {
            alu.a = r1.q;
            alu.b = r2.q;
            alu.f = I[0];
            r1mux.a = alu.y;
            r1mux.b = ram.dout;
            r1mux.s = I[1];
            r1.d = r1mux.y;
            r1.en = I[2];
            r2.d = ram.dout;
            r2.en = I[3];
            ram.addr = I[7:4];
            ram.din = r1.q;
            ram.w = I[8];
        }
    }
"#;

struct Rig {
    netlist: record_netlist::Netlist,
    base: record_rtl::TemplateBase,
    selector: Selector,
    manager: record_bdd::BddManager,
    tables: record_codegen::EmitTables,
}

fn rig() -> Rig {
    let model = record_hdl::parse(HORIZ).expect("parses");
    let netlist = record_netlist::elaborate(&model).expect("elaborates");
    let ex = record_isex::extract(&netlist, &Default::default()).expect("extracts");
    let grammar = TreeGrammar::from_base(&ex.base, &netlist);
    let selector = Selector::generate(std::sync::Arc::new(grammar));
    let mut manager = ex.manager;
    let tables =
        record_codegen::EmitTables::build(&netlist, &ex.base, &mut manager, netlist.iword_width());
    Rig {
        netlist,
        base: ex.base,
        selector,
        manager,
        tables,
    }
}

fn compile(r: &mut Rig, src: &str) -> (Vec<record_codegen::RtOp>, Binding) {
    let prog = record_ir::parse(src).expect("mini-C parses");
    let cfg = record_ir::lower_cfg(&prog, "f").expect("lowers");
    let dm = r.netlist.storage_by_name("ram").unwrap().id;
    let mut binding = Binding::allocate(&prog, "f", &r.netlist, dm).expect("binds");
    let ops = record_codegen::compile_cfg(
        &cfg,
        &r.selector,
        &r.base,
        &mut binding,
        &r.netlist,
        &mut r.manager,
        &r.tables,
        16,
        &mut record_probe::Probe::disabled(),
    )
    .expect("compiles")
    .ops;
    (ops, binding)
}

#[test]
fn independent_loads_share_a_word() {
    let mut r = rig();
    // x = x + y loads r1 (from x) and r2 (from y) independently: the two
    // loads are encoding-compatible (different enable bits, same address
    // field only if addresses are equal -- here they differ, so the loads
    // cannot actually share the address field).
    // Use x + x: both loads read the same address and can share.
    let (ops, _) = compile(&mut r, "int x; void f() { x = x + x; }");
    let schedule = compact(&ops, &mut r.manager);
    assert!(
        schedule.len() < ops.len(),
        "{} < {}",
        schedule.len(),
        ops.len()
    );
}

#[test]
fn address_field_conflict_prevents_packing() {
    let mut r = rig();
    // Loading r1 from x and r2 from y needs two different values in the
    // single address field: never packable.
    let (ops, binding) = compile(&mut r, "int x, y; void f() { x = x + y; }");
    let schedule = compact(&ops, &mut r.manager);
    // Every op that reads a distinct address must be in its own word,
    // so compaction saves at most nothing here beyond sequential.
    let x = binding.assignments().find(|(n, _)| *n == "x").unwrap().1;
    let y = binding.assignments().find(|(n, _)| *n == "y").unwrap().1;
    assert_ne!(x, y);
    // r1 := ram[x]; r2 := ram[y]; r1 := r1+r2; ram[x] := r1  -- 4 words.
    assert_eq!(schedule.len(), 4);
    assert_eq!(ops.len(), 4);
}

#[test]
fn flow_dependence_is_respected() {
    let mut r = rig();
    let (ops, _) = compile(&mut r, "int x; void f() { x = x + x; }");
    let schedule = compact(&ops, &mut r.manager);
    // The ALU op must come after the loads; the store after the ALU op.
    let words = schedule.words();
    let pos = |opi: usize| words.iter().position(|w| w.ops.contains(&opi)).unwrap();
    // op order: load r1, load r2, add, store
    assert!(pos(0) < pos(2));
    assert!(pos(1) < pos(2));
    assert!(pos(2) < pos(3));
}

#[test]
fn compacted_execution_matches_vertical() {
    let mut r = rig();
    let (ops, binding) = compile(&mut r, "int x, y; void f() { x = x + x; y = x - y; }");
    let schedule = compact(&ops, &mut r.manager);
    let dm = r.netlist.storage_by_name("ram").unwrap().id;
    let x = binding.assignments().find(|(n, _)| *n == "x").unwrap().1;
    let y = binding.assignments().find(|(n, _)| *n == "y").unwrap().1;

    let mut vertical = Machine::new(&r.netlist);
    vertical.set_mem(dm, x, 21);
    vertical.set_mem(dm, y, 5);
    vertical.run(&ops);

    let mut horizontal = Machine::new(&r.netlist);
    horizontal.set_mem(dm, x, 21);
    horizontal.set_mem(dm, y, 5);
    horizontal.run_compacted(&schedule.materialize(&ops));

    assert_eq!(vertical.mem(dm, x), horizontal.mem(dm, x));
    assert_eq!(vertical.mem(dm, y), horizontal.mem(dm, y));
    assert_eq!(vertical.mem(dm, x), 42);
}

#[test]
fn empty_sequence() {
    let mut m = record_bdd::BddManager::new();
    let s = compact(&[], &mut m);
    assert!(s.is_empty());
    assert_eq!(s.len(), 0);
}
