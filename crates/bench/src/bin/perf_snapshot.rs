//! Writes the counter snapshot that the `counter_gate` test holds the
//! tree to: BDD node, template and rule counts per model; the outcome,
//! emitted ops and words, and failure class per kernel x model pair.
//!
//! ```text
//! perf_snapshot [--out FILE]
//! ```
//!
//! Prints the snapshot JSON, or writes it to `FILE`.  After a reviewed
//! change of output, refresh the checked-in file with
//! `cargo run --release -p record-bench --bin perf_snapshot -- --out BENCH_pr10.json`.

use record_bench::snapshot::measure;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--out" => Some(path),
        _ => {
            eprintln!("usage: perf_snapshot [--out FILE]");
            return ExitCode::FAILURE;
        }
    };
    let json = measure().to_json();
    match out {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write `{path}`: {e}"));
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
    ExitCode::SUCCESS
}
