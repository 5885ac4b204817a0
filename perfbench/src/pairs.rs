//! The benchmark's (model, kernel) lists, named explicitly.
//!
//! Lists are spelled out by name rather than derived ("every pair that
//! compiles") so that a workload never changes size behind a reader's
//! back: renaming a kernel or model, or dropping one, makes resolution
//! fail loudly instead of silently shrinking the workload.

use record_targets::{Kernel, TargetModel};

/// Per-model kernel names.
pub type PairList = &'static [(&'static str, &'static [&'static str])];

/// compile-dsp and serve: every pair on `ref`, `tms320c25` and
/// `bass_boost` that compiles, 31 in all (14 + 10 + 7).
pub const DSP: PairList = &[
    (
        "ref",
        &[
            "real_update",
            "complex_mult",
            "complex_update",
            "n_real_updates",
            "n_complex_updates",
            "fir",
            "biquad_one",
            "biquad_N",
            "dot_product",
            "convolution",
            "vec_max",
            "clip",
            "cond_accum",
            "count_down",
        ],
    ),
    (
        "tms320c25",
        &[
            "real_update",
            "complex_mult",
            "complex_update",
            "n_real_updates",
            "n_complex_updates",
            "fir",
            "biquad_one",
            "biquad_N",
            "dot_product",
            "convolution",
        ],
    ),
    (
        "bass_boost",
        &[
            "real_update",
            "complex_mult",
            "complex_update",
            "n_real_updates",
            "n_complex_updates",
            "biquad_one",
            "biquad_N",
        ],
    ),
];

/// compile-long: the `manocpu` kernels of 1,070-1,347 vertical ops, whose
/// compile time is mostly compaction and whose costs sit in one cluster.
pub const LONG: PairList = &[(
    "manocpu",
    &[
        "complex_mult",
        "complex_update",
        "n_real_updates",
        "biquad_one",
    ],
)];

/// One resolved pair.
#[derive(Debug, Clone, Copy)]
pub struct Pair {
    pub model: TargetModel,
    pub kernel: Kernel,
}

/// Resolves a list against the model and kernel catalogues.
///
/// # Errors
///
/// Names every model or kernel the catalogues do not have.
pub fn resolve(list: PairList) -> Result<Vec<Pair>, String> {
    let mut pairs = Vec::new();
    let mut missing = Vec::new();
    for &(model_name, kernels) in list {
        let Some(model) = record_targets::models::model(model_name) else {
            missing.push(format!("model `{model_name}`"));
            continue;
        };
        for &kernel_name in kernels {
            match record_targets::kernel(kernel_name) {
                Some(kernel) => pairs.push(Pair { model, kernel }),
                None => missing.push(format!("kernel `{kernel_name}` (on `{model_name}`)")),
            }
        }
    }
    if missing.is_empty() {
        Ok(pairs)
    } else {
        Err(format!(
            "the benchmark's pair list names {} that the catalogue lacks: {}",
            if missing.len() == 1 {
                "an entry"
            } else {
                "entries"
            },
            missing.join(", ")
        ))
    }
}

/// The distinct models of a list, in list order.
pub fn models(list: PairList) -> Vec<&'static str> {
    list.iter().map(|&(model, _)| model).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_resolve_to_their_stated_sizes() {
        assert_eq!(resolve(DSP).expect("dsp list").len(), 31);
        assert_eq!(resolve(LONG).expect("long list").len(), 4);
        assert_eq!(models(DSP), ["ref", "tms320c25", "bass_boost"]);
    }

    #[test]
    fn a_renamed_kernel_fails_loudly() {
        const RENAMED: PairList = &[("ref", &["real_update", "fir_renamed"])];
        let err = resolve(RENAMED).expect_err("renamed kernel must not resolve");
        assert!(err.contains("kernel `fir_renamed`"), "{err}");
    }

    #[test]
    fn a_renamed_model_fails_loudly() {
        const RENAMED: PairList = &[("c25", &["real_update"]), ("ref", &["nope"])];
        let err = resolve(RENAMED).expect_err("renamed model must not resolve");
        assert!(err.contains("model `c25`"), "{err}");
        assert!(err.contains("kernel `nope`"), "{err}");
    }
}
