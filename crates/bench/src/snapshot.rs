//! The counter snapshot: the machine-independent output of every
//! retarget and compile, pinned in `BENCH_pr10.json`.
//!
//! [`measure`] retargets each model once and compiles each kernel x
//! model pair once.  It records only what is identical on any machine:
//! BDD node, template and rule counts per model; the outcome, emitted
//! ops and instruction words per pair; and, for a pair that does not
//! compile, its failure class.  [`counter_drift`] holds a measurement to
//! a checked-in file, so a change that claims to alter only speed cannot
//! silently alter *what* is generated; the `counter_gate` test runs it in
//! `cargo test`.  Timings are the `perfbench` benchmark's business.
//!
//! The file is written one row per line and read back with the
//! workspace's one JSON codec, [`record_probe::json`].

use record_core::{CompileRequest, Record, RetargetOptions};
use record_probe::json::Json;
use record_targets::{control_kernels, kernels, models};

/// The schema string [`Snapshot::to_json`] writes.  v4 keeps only the
/// counters of v3, whose rows also carried timings; [`counter_drift`]
/// reads both.
pub const SCHEMA: &str = "record-perf-snapshot/v4";

/// The members [`counter_drift`] compares in each section: everything a
/// row records except its key and the free-text `fail_message`.  `ok`
/// comes first: once a pair's outcome flips, the members after it differ
/// too and say nothing more.
const GATED: [(&str, &[&str]); 2] = [
    ("retarget", &["bdd_nodes", "templates", "rules"]),
    (
        "compile",
        &["ok", "ops", "words", "fail_phase", "fail_kind"],
    ),
];

/// One model's retarget counters.
#[derive(Debug, Clone)]
pub struct RetargetRow {
    pub model: &'static str,
    /// Frozen BDD node count after retargeting.
    pub bdd_nodes: usize,
    /// Extended template count.
    pub templates: usize,
    /// Grammar rule count.
    pub rules: usize,
}

/// One kernel x model compile.
#[derive(Debug, Clone)]
pub struct CompileRow {
    pub model: &'static str,
    pub kernel: &'static str,
    /// `false` when the kernel does not compile on this model (e.g. the
    /// data path lacks an operator); the counters are zero then and the
    /// `fail_*` fields say why.
    pub ok: bool,
    /// Emitted vertical RT ops.
    pub ops: usize,
    /// Compacted instruction words.
    pub words: usize,
    /// Phase the compile died in (label of
    /// [`record_core::CompilePhase`]); `None` when `ok`.
    pub fail_phase: Option<&'static str>,
    /// Failure-kind slug from [`record_core::FailureClass`], e.g.
    /// `missing-hardware(mul)` or `selector-gap`; `None` when `ok`.
    pub fail_kind: Option<String>,
    /// Human-readable error text; `None` when `ok`.
    pub fail_message: Option<String>,
}

/// A full snapshot.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub retarget: Vec<RetargetRow>,
    pub compile: Vec<CompileRow>,
}

/// Retargets every model once and compiles every kernel on it once.
pub fn measure() -> Snapshot {
    let options = RetargetOptions::default();
    let mut snapshot = Snapshot {
        retarget: Vec::new(),
        compile: Vec::new(),
    };
    for model in models() {
        let target = Record::retarget(model.hdl, &options).expect("model retargets");
        snapshot.retarget.push(RetargetRow {
            model: model.name,
            bdd_nodes: target.manager().node_count(),
            templates: target.report().templates_extended,
            rules: target.report().rules,
        });
        // Straight-line kernels first, then the control-flow kernels: on
        // targets without a program counter those fail with the
        // `no-branch-path` class, which the gate pins per pair.
        for kernel in kernels().into_iter().chain(control_kernels()) {
            let request = CompileRequest::new(kernel.source, kernel.function);
            snapshot.compile.push(match target.compile(&request) {
                Ok(k) => CompileRow {
                    model: model.name,
                    kernel: kernel.name,
                    ok: true,
                    ops: k.ops.len(),
                    words: k.schedule.as_ref().map_or(0, |s| s.len()),
                    fail_phase: None,
                    fail_kind: None,
                    fail_message: None,
                },
                Err(e) => {
                    let class = e.classify();
                    CompileRow {
                        model: model.name,
                        kernel: kernel.name,
                        ok: false,
                        ops: 0,
                        words: 0,
                        fail_phase: Some(class.phase.label()),
                        fail_kind: Some(class.kind),
                        fail_message: Some(e.to_string()),
                    }
                }
            });
        }
    }
    snapshot
}

impl RetargetRow {
    fn json(&self) -> Json {
        Json::obj(vec![
            ("model", Json::str(self.model)),
            ("bdd_nodes", Json::num(self.bdd_nodes as u64)),
            ("templates", Json::num(self.templates as u64)),
            ("rules", Json::num(self.rules as u64)),
        ])
    }
}

impl CompileRow {
    fn json(&self) -> Json {
        let mut members = vec![
            ("model", Json::str(self.model)),
            ("kernel", Json::str(self.kernel)),
            ("ok", Json::Bool(self.ok)),
            ("ops", Json::num(self.ops as u64)),
            ("words", Json::num(self.words as u64)),
        ];
        if let (Some(phase), Some(kind)) = (self.fail_phase, &self.fail_kind) {
            members.push(("fail_phase", Json::str(phase)));
            members.push(("fail_kind", Json::str(kind)));
            let message = self.fail_message.as_deref().unwrap_or("");
            members.push(("fail_message", Json::str(message)));
        }
        Json::obj(members)
    }
}

impl Snapshot {
    /// The rows of both sections as JSON, in [`GATED`] order.
    fn sections(&self) -> [Vec<Json>; 2] {
        [
            self.retarget.iter().map(RetargetRow::json).collect(),
            self.compile.iter().map(CompileRow::json).collect(),
        ]
    }

    /// Serializes the snapshot, one row per line.
    pub fn to_json(&self) -> String {
        let sections: Vec<String> = GATED
            .iter()
            .zip(self.sections())
            .map(|((section, _), rows)| {
                let rows: Vec<String> = rows.iter().map(|row| format!("    {row}")).collect();
                format!("  \"{section}\": [\n{}\n  ]", rows.join(",\n"))
            })
            .collect();
        let schema = Json::str(SCHEMA);
        format!(
            "{{\n  \"schema\": {schema},\n{}\n}}\n",
            sections.join(",\n")
        )
    }
}

/// A row's key: its model, and its kernel in the compile section.
fn key(row: &Json) -> String {
    ["model", "kernel"]
        .iter()
        .filter_map(|k| row.get(k).and_then(Json::as_str))
        .collect::<Vec<_>>()
        .join("/")
}

/// Compares the counters and failure classes of a measured snapshot with
/// a checked-in snapshot file, returning human-readable drift findings
/// (empty = no drift).
///
/// Only the counters and the failure class are read, so rows that also
/// carry timings (schema v3) compare like the writer's own.  The
/// comparison is bidirectional: a checked-in row with no measured
/// counterpart (a model or kernel silently dropped) is drift, and so is a
/// measured row the file lacks — a file with no rows is drift on every
/// row.
pub fn counter_drift(measured: &Snapshot, checked_in: &Json) -> Vec<String> {
    let show = |value: Option<&Json>| value.map_or_else(|| "none".to_owned(), Json::to_string);
    let mut drift = Vec::new();
    for ((section, gated), measured) in GATED.iter().zip(measured.sections()) {
        let recorded = checked_in
            .get(section)
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        for want in recorded {
            if !measured.iter().any(|got| key(got) == key(want)) {
                drift.push(format!(
                    "{section} `{}` was not measured (dropped?)",
                    key(want)
                ));
            }
        }
        for got in &measured {
            let Some(want) = recorded.iter().find(|want| key(want) == key(got)) else {
                drift.push(format!("{section} `{}` missing from snapshot", key(got)));
                continue;
            };
            for member in *gated {
                let (want, got_value) = (want.get(member), got.get(member));
                if want != got_value {
                    drift.push(format!(
                        "{section} `{}`: {member} drifted: snapshot {} -> measured {}",
                        key(got),
                        show(want),
                        show(got_value)
                    ));
                    if *member == "ok" {
                        break;
                    }
                }
            }
        }
    }
    drift
}

#[cfg(test)]
mod tests {
    use super::*;
    use record_probe::json::parse as parse_json;

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            retarget: vec![RetargetRow {
                model: "demo",
                bdd_nodes: 45,
                templates: 6,
                rules: 7,
            }],
            compile: vec![
                CompileRow {
                    model: "demo",
                    kernel: "fir",
                    ok: true,
                    ops: 10,
                    words: 8,
                    fail_phase: None,
                    fail_kind: None,
                    fail_message: None,
                },
                CompileRow {
                    model: "demo",
                    kernel: "matmul",
                    ok: false,
                    ops: 0,
                    words: 0,
                    fail_phase: Some("select"),
                    fail_kind: Some("missing-hardware(mul)".to_owned()),
                    fail_message: Some("no rule for `mul`".to_owned()),
                },
            ],
        }
    }

    /// [`sample_snapshot`] as a schema-v3 file wrote it: the same
    /// counters between medians, percentiles and phase times.
    const SAMPLE_V3: &str = r#"{
  "schema": "record-perf-snapshot/v3",
  "iters": 2,
  "pre_pr": {"note": "seed"},
  "retarget": [
    {"model": "demo", "median_ns": 123, "p50_ns": 123, "p95_ns": 127, "p99_ns": 127, "max_ns": 125, "phases": {"parse": 60, "extract": 50}, "bdd_nodes": 45, "templates": 6, "rules": 7, "op_cache_hit_rate": 0.5000, "unique_avg_probe_len": 1.2500}
  ],
  "compile": [
    {"model": "demo", "kernel": "fir", "ok": true, "median_ns": 999, "p50_ns": 1023, "p95_ns": 1023, "p99_ns": 1023, "max_ns": 1001, "phases": {"select": 500, "emit": 400}, "ops": 10, "words": 8, "scratch_nodes": 3, "op_cache_hit_rate": 0.7500},
    {"model": "demo", "kernel": "matmul", "ok": false, "median_ns": 0, "p50_ns": 0, "p95_ns": 0, "p99_ns": 0, "max_ns": 0, "phases": {}, "ops": 0, "words": 0, "scratch_nodes": 0, "op_cache_hit_rate": 0.0000, "fail_phase": "select", "fail_kind": "missing-hardware(mul)", "fail_message": "no rule for `mul`"}
  ]
}"#;

    #[test]
    fn json_round_trip() {
        let snap = sample_snapshot();
        let parsed = parse_json(&snap.to_json()).expect("parses");
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(SCHEMA));
        // The failure taxonomy survives the round trip.
        let rows = parsed.get("compile").and_then(Json::as_arr).unwrap();
        assert_eq!(
            rows[1].get("fail_kind").and_then(Json::as_str),
            Some("missing-hardware(mul)")
        );
        assert_eq!(
            rows[1].get("fail_message").and_then(Json::as_str),
            Some("no rule for `mul`")
        );
        // No drift against itself.
        assert!(counter_drift(&snap, &parsed).is_empty());
        // A counter change is caught.
        let mut other = snap.clone();
        other.retarget[0].bdd_nodes = 46;
        let findings = counter_drift(&other, &parsed);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("bdd_nodes"));
        // Dropping a measured row is caught too (the gate is
        // bidirectional).
        let mut dropped = snap.clone();
        dropped.compile.clear();
        let findings = counter_drift(&dropped, &parsed);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].contains("was not measured"));
    }

    #[test]
    fn failure_class_drift_is_gated() {
        let snap = sample_snapshot();
        let written = parse_json(&snap.to_json()).expect("parses");
        let v3 = parse_json(SAMPLE_V3).expect("parses");
        // Same pair still fails, but for a different reason: caught.
        let mut reclassified = snap.clone();
        reclassified.compile[1].fail_kind = Some("selector-gap".to_owned());
        let findings = counter_drift(&reclassified, &written);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].contains(
                "demo/matmul`: fail_kind drifted: \
                 snapshot \"missing-hardware(mul)\" -> measured \"selector-gap\""
            ),
            "{findings:?}"
        );
        // A v3 file's timing members are not read: its rows give the same
        // findings as the writer's counters-only rows.
        let mut counted = snap.clone();
        counted.compile[0].words = 9;
        for measured in [&snap, &reclassified, &counted] {
            assert_eq!(
                counter_drift(measured, &v3),
                counter_drift(measured, &written)
            );
        }
        // A document with no rows is drift on every measured row.
        let empty = parse_json("{}").expect("parses");
        let findings = counter_drift(&snap, &empty);
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings.iter().all(|f| f.contains("missing from snapshot")));
    }

    #[test]
    fn strings_survive_unicode_and_escapes() {
        // Multi-byte UTF-8 straight through.
        let parsed = parse_json("{\"note\": \"em — dash\"}").expect("parses");
        assert_eq!(parsed.get("note").and_then(Json::as_str), Some("em — dash"));
        // \uXXXX escapes, including a surrogate pair.
        let parsed = parse_json(r#"{"s": "a\u00e9b \ud83d\ude00"}"#).expect("parses");
        assert_eq!(
            parsed.get("s").and_then(Json::as_str),
            Some("a\u{e9}b \u{1F600}")
        );
    }
}
