//! Metric names, units and the result line.
//!
//! The two tables below are the benchmark's vocabulary; `BENCHMARK.json`
//! at the repository root lists the same names (a test holds the two
//! together).  An untraced run reports every end-to-end metric, a traced
//! run every per-layer metric.

use std::collections::BTreeMap;

/// One metric: name, unit and which direction is better.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// Reported by every untraced run.
pub const END_TO_END: &[Def] = &[
    def("ops_per_s", "1/s", "higher"),
    def("latency_p50_us", "us", "lower"),
    def("latency_p90_us", "us", "lower"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mib", "MiB", "lower"),
    def("code_words", "words", "lower"),
];

/// Reported by every traced run.
pub const PER_LAYER: &[Def] = &[
    // Retarget layers, per Table-3 pass.
    def("hdl.parse_us", "us", "lower"),
    def("netlist.elaborate_us", "us", "lower"),
    def("isex.extract_us", "us", "lower"),
    def("isex.templates", "count", "higher"),
    def("rtl.extend_us", "us", "lower"),
    def("rtl.templates", "count", "higher"),
    def("grammar.build_us", "us", "lower"),
    def("grammar.rules", "count", "higher"),
    def("grammar.nonterminals", "count", "higher"),
    def("selgen.generate_us", "us", "lower"),
    def("core.retarget_us", "us", "lower"),
    def("core.freeze_us", "us", "lower"),
    def("bdd.frozen_nodes", "count", "lower"),
    // Compile layers, per op.
    def("ir.parse_us", "us", "lower"),
    def("ir.lower_us", "us", "lower"),
    def("codegen.bind_us", "us", "lower"),
    def("selgen.select_us", "us", "lower"),
    def("selgen.rules_tried", "count", "lower"),
    def("selgen.labels_set", "count", "lower"),
    def("codegen.emit_us", "us", "lower"),
    def("codegen.spill_stores", "count", "lower"),
    def("codegen.reloads", "count", "lower"),
    def("codegen.mem_accesses", "count", "lower"),
    def("regalloc.allocate_us", "us", "lower"),
    def("regalloc.spills", "count", "lower"),
    def("regalloc.stores_eliminated", "count", "higher"),
    def("compact.compact_us", "us", "lower"),
    def("compact.ops_in", "count", "lower"),
    def("compact.words_out", "words", "lower"),
    def("bdd.nodes_allocated", "count", "lower"),
    def("bdd.op_cache_hit_ratio", "ratio", "higher"),
    def("bdd.unique_probes_per_lookup", "probes/lookup", "lower"),
    // Serve layer, per request.
    def("serve.rtt_us", "us", "lower"),
    def("serve.server_us", "us", "lower"),
    def("serve.outside_server_us", "us", "lower"),
    def("serve.json_decode_us", "us", "lower"),
    def("serve.json_encode_us", "us", "lower"),
    def("serve.digest_us", "us", "lower"),
    def("serve.cache_lookup_us", "us", "lower"),
    def("serve.pool_checkout_us", "us", "lower"),
    def("serve.cache_hit_ratio", "ratio", "higher"),
    def("serve.pool_reuse_ratio", "ratio", "higher"),
    def("serve.rejected", "count", "lower"),
    // The traced run's own cost.
    def("trace.overhead_pct", "%", "lower"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Whether `name` fits the result format: a letter or digit first, then
/// at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` fits the result format: 1-16 letters, digits, `_`, `/`,
/// `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Renders the result line: `correct`, `attempted`, `failed` and every
/// metric of `defs` with its unit.
///
/// # Errors
///
/// A metric of `defs` with a malformed name or unit, missing from
/// `values`, or not finite.
pub fn result_line(
    defs: &[Def],
    values: &Values,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(defs.len());
    for d in defs {
        if !valid_name(d.name) || !valid_unit(d.unit) {
            return Err(format!(
                "metric `{}` ({}) breaks the result format",
                d.name, d.unit
            ));
        }
        let v = values
            .get(d.name)
            .copied()
            .ok_or(format!("metric `{}` was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric `{}` is not finite: {v}", d.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use record_serve::{parse_json, Json};

    #[test]
    fn every_name_and_unit_fits_the_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(matches!(d.better, "higher" | "lower"), "{}", d.name);
            assert!(seen.insert(d.name), "metric {} listed twice", d.name);
        }
    }

    #[test]
    fn charset_rejects_what_the_format_forbids() {
        assert!(valid_name("latency_p50_us"));
        assert!(valid_name("9lives.x-y"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("µs"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("probes/lookup"));
        assert!(!valid_unit("µs") && !valid_unit("") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let values: Values = END_TO_END.iter().map(|d| (d.name, 1.5)).collect();
        let line = result_line(END_TO_END, &values, 10, 0).expect("all measured");
        let json = parse_json(&line).expect("valid JSON");
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        let metrics = json.get("metrics").expect("metrics");
        for d in END_TO_END {
            let m = metrics.get(d.name).expect("metric present");
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
        }
        let mut partial = values.clone();
        partial.remove("setup_s");
        assert!(result_line(END_TO_END, &partial, 10, 0).is_err());
        let failed = result_line(END_TO_END, &values, 10, 1).expect("line");
        assert!(failed.starts_with("{\"correct\": false"));
    }

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics this program reports, with the same units and directions.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = parse_json(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = json.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, d) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(d.unit));
                assert_eq!(entry.get("better").and_then(Json::as_str), Some(d.better));
            }
        }
    }
}
