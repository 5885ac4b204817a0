//! The counter gate: every retarget and compile must reproduce the
//! machine-independent counters and failure classes pinned in
//! `BENCH_pr10.json` (see `record_bench::snapshot`).  Timings are not
//! read; they differ between machines, the counters do not.

use record_bench::snapshot::{counter_drift, measure};
use record_probe::json::parse;

#[test]
fn counters_match_the_checked_in_snapshot() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr10.json");
    let src = std::fs::read_to_string(path).expect("the snapshot is readable");
    let checked_in = parse(&src).expect("the snapshot parses");
    let drift = counter_drift(&measure(), &checked_in);
    assert!(
        drift.is_empty(),
        "counter drift against BENCH_pr10.json:\n  {}\n\
         if the change of output is intended and reviewed, refresh the file:\n  \
         cargo run --release -p record-bench --bin perf_snapshot -- --out BENCH_pr10.json",
        drift.join("\n  ")
    );
}
