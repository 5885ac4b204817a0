//! Observability differential: tracing must be *observation only*.
//! Compiling with a collector installed has to produce byte-identical
//! code to compiling with no sink, for every kernel × model pair — and
//! the traces themselves must be well-formed (balanced spans, monotonic
//! timestamps) and export as loadable Chrome trace JSON.

use record_core::{
    validate_chrome_json_shape, CompileRequest, CompiledKernel, MetricsBuilder, Record, Report,
    RetargetOptions,
};
use record_targets::{kernels, models};

fn assert_same_code(traced: &CompiledKernel, plain: &CompiledKernel, label: &str) {
    assert_eq!(traced.ops, plain.ops, "{label}: op sequences differ");
    assert_eq!(traced.schedule, plain.schedule, "{label}: schedules differ");
    assert_eq!(traced.alloc, plain.alloc, "{label}: AllocStats differ");
    let traced_binding: Vec<_> = traced.binding.assignments().collect();
    let plain_binding: Vec<_> = plain.binding.assignments().collect();
    assert_eq!(traced_binding, plain_binding, "{label}: bindings differ");
}

/// An installed collector changes nothing about the generated code: for
/// every kernel × model pair, a traced session compile equals the
/// untraced one-shot compile bit for bit, and errors classify
/// identically.
#[test]
fn traced_compile_is_byte_identical_to_untraced() {
    let mut checked = 0usize;
    for model in models::models() {
        let target = Record::retarget(model.hdl, &RetargetOptions::default())
            .unwrap_or_else(|e| panic!("{} failed to retarget: {e}", model.name));
        for kernel in kernels::kernels() {
            let label = format!("{}/{}", model.name, kernel.name);
            let request = CompileRequest::new(kernel.source, kernel.function);
            let plain = target.compile(&request);
            let mut session = target.session();
            session.install_collector(7);
            let traced = session.compile(&request);
            let trace = session.take_trace().expect("collector was installed");
            trace
                .validate()
                .unwrap_or_else(|e| panic!("{label}: trace invalid: {e}"));
            match (&traced, &plain) {
                (Ok(t), Ok(p)) => {
                    assert_same_code(t, p, &label);
                    assert!(
                        trace.event_count() > 0,
                        "{label}: successful compile recorded no events"
                    );
                }
                (Err(t), Err(p)) => {
                    assert_eq!(t, p, "{label}: errors differ");
                    assert_eq!(
                        t.classify(),
                        p.classify(),
                        "{label}: failure classes differ"
                    );
                }
                _ => panic!("{label}: traced and untraced disagree on success"),
            }
            checked += 1;
        }
    }
    assert!(checked >= 50, "checked {checked} pairs");
}

/// A traced batch equals the untraced batch result for result, and the
/// merged trace has one well-formed lane per request, exporting as
/// structurally valid Chrome trace JSON.
#[test]
fn batch_traced_equals_untraced_batch() {
    let model = models::model("tms320c25").unwrap();
    let target = Record::retarget(model.hdl, &RetargetOptions::default()).unwrap();
    let requests: Vec<CompileRequest<'_>> = kernels::kernels()
        .iter()
        .map(|k| CompileRequest::new(k.source, k.function))
        .collect();

    let plain = target.compile_batch(&requests);
    let (traced, trace) = target.compile_batch_traced(&requests);

    assert_eq!(traced.len(), plain.len());
    for (i, (t, p)) in traced.iter().zip(&plain).enumerate() {
        match (t, p) {
            (Ok(t), Ok(p)) => assert_same_code(t, p, &format!("request {i}")),
            (Err(t), Err(p)) => assert_eq!(t, p, "request {i}: errors differ"),
            _ => panic!("request {i}: traced and untraced batch disagree"),
        }
    }

    trace.validate().expect("merged batch trace is well-formed");
    assert_eq!(
        trace.lanes.len(),
        requests.len(),
        "one lane per batch request"
    );
    let mut lane_ids: Vec<u32> = trace.lanes.iter().map(|l| l.id).collect();
    lane_ids.sort_unstable();
    assert_eq!(
        lane_ids,
        (0..requests.len() as u32).collect::<Vec<_>>(),
        "lane ids are the request indices"
    );

    let json = trace.to_chrome_json("batch");
    validate_chrome_json_shape(&json).expect("chrome JSON shape");
}

/// Fleet metrics are observation-only too: a compile whose report is
/// recorded into a metrics registry (the serving layer's per-phase
/// histograms, with a collector installed like the flight recorder
/// installs one) produces byte-identical code to a bare compile — and
/// the registry afterwards holds exactly the observations the reports
/// claimed.
#[test]
fn metered_compile_is_byte_identical_to_unmetered() {
    let mut b = MetricsBuilder::new();
    let phase_ids: Vec<_> = [
        "parse", "lower", "bind", "select", "emit", "allocate", "compact",
    ]
    .iter()
    .map(|&phase| {
        (
            phase,
            b.histogram("compile_phase_ns", "per-phase latency", &[("phase", phase)]),
        )
    })
    .collect();
    let registry = b.build();
    let shard = registry.shard();

    let model = models::model("tms320c25").unwrap();
    let target = Record::retarget(model.hdl, &RetargetOptions::default()).unwrap();
    let mut expected_observations = 0u64;
    let mut checked = 0usize;
    for kernel in kernels::kernels() {
        let label = format!("tms320c25/{}", kernel.name);
        let request = CompileRequest::new(kernel.source, kernel.function);
        let plain = target.compile(&request);
        // The metered path mirrors the serving layer: collector armed,
        // report phases recorded onto a lock-free shard afterwards.
        let mut session = target.session();
        session.install_collector(0);
        let metered = session.compile(&request);
        if let Ok(kernel) = &metered {
            for p in &kernel.report.phases {
                if let Some(&(_, id)) = phase_ids.iter().find(|(l, _)| *l == p.label) {
                    shard.observe(id, p.ns);
                    expected_observations += 1;
                }
            }
        }
        match (&metered, &plain) {
            (Ok(m), Ok(p)) => assert_same_code(m, p, &label),
            (Err(m), Err(p)) => assert_eq!(m, p, "{label}: errors differ"),
            _ => panic!("{label}: metered and unmetered disagree on success"),
        }
        checked += 1;
    }
    assert!(checked >= 10, "checked {checked} kernels");

    // The registry saw every recorded phase, no more, no less.
    let total: u64 = phase_ids
        .iter()
        .map(|&(_, id)| registry.histogram(id).count())
        .sum();
    assert_eq!(total, expected_observations, "registry observation count");
    assert!(total > 0, "no phase observations recorded");
}

/// The always-on report tells the truth: phases cover the pipeline that
/// actually ran, and the counters match observable output properties.
#[test]
fn compile_reports_are_attached_and_consistent() {
    let model = models::model("tms320c25").unwrap();
    let target = Record::retarget(model.hdl, &RetargetOptions::default()).unwrap();

    let retarget_report = &target.report().report;
    assert_eq!(
        phase_labels(retarget_report),
        [
            "parse",
            "extract",
            "template-gen",
            "rule-gen",
            "selector-gen",
            "freeze"
        ],
        "retarget phases, in order"
    );
    assert_eq!(
        counter_names(retarget_report),
        [
            "extract.templates",
            "template-gen.templates",
            "rule-gen.nonterminals",
            "rule-gen.rules",
            "freeze.bdd-nodes"
        ],
        "retarget counters, in order"
    );
    assert_eq!(
        retarget_report.counter("rule-gen.rules"),
        Some(target.report().rules as u64)
    );
    assert!(
        target.report().total_ns
            >= retarget_report
                .phase_ns("extract")
                .expect("extract is timed")
    );

    let all_kernels = kernels::kernels();
    let kernel = all_kernels
        .iter()
        .find(|k| k.name == "fir")
        .expect("fir kernel exists");
    let compiled = target
        .compile(&CompileRequest::new(kernel.source, kernel.function))
        .expect("fir compiles on c25");
    assert_compile_vocabulary(&compiled, "fir on tms320c25");
    assert!(
        compiled.report.counter("emit.statements").unwrap_or(0) > 0,
        "no statements counted"
    );
    assert!(
        compiled.report.counter("select.rules-tried").unwrap_or(0) > 0,
        "no selector work counted"
    );
    // BDD counter deltas are session-scoped and must reflect real work.
    assert!(
        compiled.report.counter("bdd.unique-lookups").unwrap_or(0) > 0,
        "no BDD work counted"
    );

    // A kernel with runtime control flow goes down the same pipeline and
    // reports under the same names.
    let model = models::model("ref").unwrap();
    let target = Record::retarget(model.hdl, &RetargetOptions::default()).unwrap();
    let kernel = kernels::kernel("vec_max").expect("vec_max kernel exists");
    let compiled = target
        .compile(&CompileRequest::new(kernel.source, kernel.function))
        .expect("vec_max compiles on ref");
    assert!(compiled.ops.iter().any(|op| op.transfer.is_some()));
    assert_compile_vocabulary(&compiled, "vec_max on ref");
}

fn phase_labels(report: &Report) -> Vec<&'static str> {
    report.phases.iter().map(|p| p.label).collect()
}

fn counter_names(report: &Report) -> Vec<&'static str> {
    report.counters.iter().map(|c| c.name).collect()
}

/// The exact, ordered phase labels and counter names of a default
/// compile.  Benchmarks and `/metrics` read these by string, so a rename
/// or a dropped entry must fail here first.
fn assert_compile_vocabulary(compiled: &CompiledKernel, label: &str) {
    assert_eq!(
        phase_labels(&compiled.report),
        ["parse", "lower", "bind", "select", "emit", "allocate", "compact"],
        "{label}: compile phases, in order"
    );
    assert_eq!(
        counter_names(&compiled.report),
        [
            "emit.statements",
            "emit.splits",
            "emit.spill-stores",
            "emit.reloads",
            "select.rules-tried",
            "select.labels-set",
            "allocate.reloads-eliminated",
            "allocate.stores-eliminated",
            "allocate.spills",
            "bdd.nodes-allocated",
            "bdd.op-cache-hits",
            "bdd.op-cache-misses",
            "bdd.unique-probes",
            "bdd.unique-lookups",
        ],
        "{label}: compile counters, in order"
    );
}
