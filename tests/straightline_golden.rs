//! Differential pin: straight-line kernels must produce byte-identical
//! listings to the reviewed golden files under `tests/golden/`.
//!
//! A straight-line function lowers to one basic block and takes the one
//! compile pipeline every kernel takes (`compile_cfg`, block-wise
//! `allocate`, `compact_cfg`); this test holds that pipeline to the
//! listings the goldens recorded.  Regenerate the files with
//! `cargo run --release --example golden_listings` only when an
//! intentional output change is reviewed.

use record_core::{CompileRequest, Record, RetargetOptions};
use record_targets::{kernels, models};
use std::fmt::Write as _;

/// Must match `examples/golden_listings.rs`.
const DIGEST_THRESHOLD: usize = 100_000;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders the golden file content for one model, exactly as the
/// `golden_listings` example writes it.
fn render(model: &models::TargetModel) -> (String, String) {
    let target = Record::retarget(model.hdl, &RetargetOptions::default())
        .unwrap_or_else(|e| panic!("retarget {} failed: {e}", model.name));
    let mut sections = Vec::new();
    for kernel in kernels::kernels() {
        for (mode, compaction) in [("compacted", true), ("vertical", false)] {
            let req = CompileRequest::new(kernel.source, kernel.function).compaction(compaction);
            let body = match target.compile(&req) {
                Ok(k) => target.listing(&k),
                Err(e) => format!("ERROR {}\n", e.classify()),
            };
            sections.push((format!("== {} {} ==", kernel.name, mode), body));
        }
    }
    let total: usize = sections.iter().map(|(h, b)| h.len() + b.len()).sum();
    if total > DIGEST_THRESHOLD {
        let mut out = String::new();
        for (header, body) in &sections {
            writeln!(
                out,
                "{header} fnv1a={:016x} bytes={}",
                fnv1a(body.as_bytes()),
                body.len()
            )
            .unwrap();
        }
        (format!("digests_{}.txt", model.name), out)
    } else {
        let mut out = String::new();
        for (header, body) in &sections {
            writeln!(out, "{header}").unwrap();
            out.push_str(body);
        }
        (format!("listings_{}.txt", model.name), out)
    }
}

#[test]
fn straightline_listings_match_golden_files() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    for model in models::models() {
        let (file, want) = render(&model);
        let path = format!("{dir}/{file}");
        let got = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("golden file {path} unreadable: {e}"));
        assert_eq!(
            got, want,
            "{}: listings drifted from {path}; if the change is intentional, \
             regenerate with `cargo run --release --example golden_listings`",
            model.name
        );
    }
}
