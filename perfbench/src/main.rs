//! `perfbench` — end-to-end and per-layer benchmark of the retargetable
//! compiler and its compile service.
//!
//! ```text
//! perfbench --workload <retarget|compile-dsp|compile-long|serve>
//!           --seed <n> --seconds <s> --trace <0|1> [--noise <k>]
//! ```
//!
//! An untraced run (`--trace 0`) sets the workload up several times,
//! times whole rounds of its ops for `--seconds`, checks every output and
//! prints the end-to-end metrics; a traced run (`--trace 1`) prints the
//! per-layer metrics instead.  Either way the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.  `--noise k` runs the workload `k` times (seeds `seed` to
//! `seed + k - 1`) and prints the spread of every end-to-end metric.
//! Every process of the benchmark runs on one CPU, and end-to-end times
//! are reported at a fixed host speed (see `timing` and `yardstick`).
//! See `README.md` beside this crate for the workloads and metrics.

mod compile;
mod metrics;
mod pairs;
mod retarget;
mod rng;
mod serve;
mod setup;
mod spans;
mod stats;
mod timing;
mod yardstick;

use metrics::{result_line, Values, END_TO_END, PER_LAYER};
use record_serve::Json;
use retarget::RetargetSetup;
use serve::ServeSetup;
use setup::Verified;
use spans::Spans;
use stats::{median, quartiles, ratio};
use std::process::ExitCode;
use timing::{peak_rss_mib, Tally, Timed, MIN_OPS};

/// Child processes per untraced run; each sets up once, and `setup_s`
/// is the median of their set-ups.
const SLICES: u64 = 10;

/// Seconds of untimed ops after set-up and before timing, in every
/// process: the first ops after set-up run up to twice as slow while the
/// heap and caches settle (a cost a long-running user does not pay per
/// op).  Warm-up ops are checked like timed ones.
const WARMUP_SECONDS: f64 = 0.25;

/// Seconds a traced run spends on each layer group the workload's own
/// path does not cross, so every traced run reports every layer.
const SIDE_SECONDS: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Retarget,
    CompileDsp,
    CompileLong,
    Serve,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Retarget,
        Workload::CompileDsp,
        Workload::CompileLong,
        Workload::Serve,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Retarget => "retarget",
            Workload::CompileDsp => "compile-dsp",
            Workload::CompileLong => "compile-long",
            Workload::Serve => "serve",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    noise: Option<usize>,
    /// Internal: run as slice `i` of an untraced run.
    slice: Option<u64>,
}

const USAGE: &str = "usage: perfbench --workload <retarget|compile-dsp|compile-long|serve> \
--seed <n> --seconds <s> --trace <0|1> [--noise <k>]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut noise = None;
    let mut slice = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad("a workload"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--noise" => {
                let k: usize = value.parse().map_err(|_| bad("a whole number"))?;
                if k < 2 {
                    return Err(bad("at least 2"));
                }
                noise = Some(k);
            }
            "--slice" => slice = Some(value.parse().map_err(|_| bad("a whole number"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        noise,
        slice,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = timing::pin() {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let outcome = match (args.noise, args.slice) {
        (Some(k), _) => noise(&args, k),
        (None, Some(i)) => slice(&args, i).map(|line| println!("{line}")),
        (None, None) => run(&args).map(|line| println!("{line}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A workload's state after set-up.
enum State {
    Retarget(RetargetSetup),
    Compile(Verified),
    Serve(ServeSetup),
}

impl State {
    fn verified(&self) -> &Verified {
        match self {
            State::Retarget(s) => &s.verified,
            State::Compile(v) => v,
            State::Serve(s) => &s.verified,
        }
    }
}

fn set_up(args: &Args, seed: u64) -> Result<State, String> {
    Ok(match args.workload {
        Workload::Retarget => State::Retarget(retarget::setup(seed)?),
        Workload::CompileDsp => State::Compile(setup::verify(pairs::DSP, Vec::new(), seed)?),
        Workload::CompileLong => State::Compile(setup::verify(pairs::LONG, Vec::new(), seed)?),
        // The traced run reads the server's own latency histogram, so
        // only it opens the metrics listener.
        Workload::Serve => State::Serve(serve::setup(seed, args.trace)?),
    })
}

/// The workload's untraced timed loop.
fn timed(
    state: &State,
    seed: u64,
    seconds: f64,
    min_ops: usize,
    tally: &mut Tally,
) -> Result<Timed, String> {
    Ok(match state {
        State::Retarget(s) => retarget::timed(s, seconds, min_ops, tally),
        State::Compile(v) => compile::timed(v, seed, seconds, min_ops, tally),
        State::Serve(s) => serve::timed(s, seed, seconds, min_ops, None, tally)?,
    })
}

fn run(args: &Args) -> Result<String, String> {
    let name = args.workload.name();
    let mut tally = Tally::default();
    let mut values = Values::new();
    let line = if args.trace {
        let state = set_up(args, args.seed)?;
        traced(args, &state, &mut tally, &mut values)?;
        result_line(PER_LAYER, &values, tally.attempted, tally.failed)?
    } else {
        sliced(args, &mut tally, &mut values)?;
        result_line(END_TO_END, &values, tally.attempted, tally.failed)?
    };
    if let Some(e) = &tally.first_error {
        eprintln!(
            "{name}: {} of {} ops failed; first: {e}",
            tally.failed, tally.attempted
        );
    }
    Ok(line)
}

/// The seed a slice draws its inputs from.
fn slice_seed(seed: u64, slice: u64) -> u64 {
    rng::Rng::new(seed, 0x511CE + slice).next_u64()
}

/// An untraced run: [`SLICES`] child processes, each setting the
/// workload up once and timing `seconds / SLICES` of it, pooled.
///
/// Each process gets its own address-space layout, and layout alone
/// moves a process's compile speed by up to a third on the reference
/// VM; pooling many processes per run averages that out instead of
/// letting one layout decide the run.
fn sliced(args: &Args, tally: &mut Tally, values: &mut Values) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut timed = Timed::default();
    let mut setup_s = Vec::new();
    let mut rss_mib = Vec::new();
    let mut code_words = None;
    let mut speeds = Vec::new();
    for i in 0..SLICES {
        let output = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / SLICES as f64).to_string()])
            .args(["--trace", "0", "--slice", &i.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("slice {i}: {e}"))?;
        if !output.status.success() {
            return Err(format!("slice {i} failed: {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let json = stdout
            .lines()
            .last()
            .ok_or(format!("slice {i} printed nothing"))
            .and_then(|l| record_serve::parse_json(l).map_err(|e| format!("slice {i}: {e}")))?;
        let num = |key: &str| {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("slice {i}: no `{key}`"))
        };
        setup_s.push(num("setup_s")?);
        rss_mib.push(num("peak_rss_mib")?);
        timed.run_ns += num("run_ns")? as u64;
        speeds.push(num("speed")?);
        tally.attempted += num("attempted")? as u64;
        let failed = num("failed")? as u64;
        if failed > 0 {
            let error = json.get("error").and_then(Json::as_str).unwrap_or("?");
            tally
                .first_error
                .get_or_insert(format!("slice {i}: {error}"));
        }
        tally.failed += failed;
        let words = num("code_words")?;
        if *code_words.get_or_insert(words) != words {
            tally.fail(format!(
                "slice {i}: {words} code words, slice 0 had {code_words:?}"
            ));
        }
        let latencies = json
            .get("latencies_ns")
            .and_then(Json::as_arr)
            .ok_or(format!("slice {i}: no latencies"))?;
        timed
            .latencies_ns
            .extend(latencies.iter().filter_map(Json::as_u64));
    }
    timed.report(values);
    values.insert("setup_s", median(&setup_s));
    values.insert("peak_rss_mib", median(&rss_mib));
    values.insert("code_words", code_words.unwrap_or(0.0));
    eprintln!(
        "{}: {} ops in {:.2} s over {SLICES} processes, set-up {:.4} s, host speed {:.3} (medians)",
        args.workload.name(),
        timed.latencies_ns.len(),
        timed.run_ns as f64 / 1e9,
        median(&setup_s),
        median(&speeds)
    );
    Ok(())
}

/// One slice of an untraced run, in a child process: set up once, time
/// whole rounds for `--seconds`, print the figures as one JSON line, its
/// times at the nominal host speed.  Set-up is rescaled by the loop's
/// mean speed.
fn slice(args: &Args, i: u64) -> Result<String, String> {
    let seed = slice_seed(args.seed, i);
    let (state, setup_ns) = timing::time(|| set_up(args, seed));
    let state = state?;
    let mut tally = Tally::default();
    timed(&state, seed, WARMUP_SECONDS, 1, &mut tally)?;
    let min_ops = MIN_OPS.div_ceil(SLICES as usize);
    let timed = timed(&state, seed, args.seconds, min_ops, &mut tally)?;
    let speed = timed.speed();
    let num = |v: f64| Json::Num(v);
    Ok(Json::obj(vec![
        ("setup_s", num(setup_ns as f64 * speed / 1e9)),
        ("run_ns", num(timed.run_ns as f64)),
        ("speed", num(speed)),
        ("peak_rss_mib", num(peak_rss_mib()?)),
        ("code_words", num(state.verified().code_words() as f64)),
        ("attempted", num(tally.attempted as f64)),
        ("failed", num(tally.failed as f64)),
        ("error", Json::str(tally.first_error.unwrap_or_default())),
        (
            "latencies_ns",
            Json::Arr(
                timed
                    .latencies_ns
                    .iter()
                    .map(|&ns| num(ns as f64))
                    .collect(),
            ),
        ),
    ])
    .to_string())
}

/// The traced run: an untraced stretch of the workload's own loop, the
/// same loop traced, then short traced passes over the layer groups the
/// workload's path does not cross.  Spans go to `out/` beside this crate.
fn traced(
    args: &Args,
    state: &State,
    tally: &mut Tally,
    values: &mut Values,
) -> Result<(), String> {
    let half = args.seconds / 2.0;
    timed(state, args.seed, WARMUP_SECONDS, 1, tally)?;
    // Both halves at the nominal host speed, so a change of speed between
    // them does not read as tracing overhead.
    let untraced_ns = timed(state, args.seed, half, MIN_OPS, tally)?.mean_ns();
    let mut spans = Spans::start();
    let mut retarget_layers = retarget::Layers::default();
    let mut compile_layers = compile::Layers::default();
    let side_compile = |verified: &Verified,
                        spans: &mut Spans,
                        tally: &mut Tally,
                        layers: &mut compile::Layers| {
        // Two rounds at least: the determinism check compares repeats.
        let min = 2 * verified.cases.len();
        compile::traced(verified, args.seed, SIDE_SECONDS, min, spans, tally, layers);
    };
    let traced_ns = match state {
        State::Retarget(s) => {
            let own = retarget::traced(
                &s.counts,
                half,
                MIN_OPS,
                &mut spans,
                tally,
                &mut retarget_layers,
            );
            side_compile(&s.verified, &mut spans, tally, &mut compile_layers);
            serve_side(args, &mut spans, tally, values)?;
            retarget_layers.op_ns(&spans) * own.speed()
        }
        State::Compile(v) => {
            let own = compile::traced(
                v,
                args.seed,
                half,
                MIN_OPS.max(2 * v.cases.len()),
                &mut spans,
                tally,
                &mut compile_layers,
            );
            retarget_side(&mut spans, tally, &mut retarget_layers)?;
            serve_side(args, &mut spans, tally, values)?;
            own.mean_ns()
        }
        State::Serve(s) => {
            let own = serve_traced(args, s, half, &mut spans, tally, values)?;
            retarget_side(&mut spans, tally, &mut retarget_layers)?;
            side_compile(&s.verified, &mut spans, tally, &mut compile_layers);
            own
        }
    };
    retarget_layers.report(&spans, values);
    compile_layers.report(values);
    values.insert(
        "trace.overhead_pct",
        (ratio(traced_ns, untraced_ns) - 1.0) * 100.0,
    );

    println!("{}", compile_layers.table(state.verified()));
    match compile_layers.determinism_digest() {
        Ok(digest) => println!("exact counter digest: {digest:016x}"),
        Err(e) => tally.fail(format!("determinism check: {e}")),
    }
    eprintln!(
        "tracing overhead: {:.2}% (traced op {:.1} us, untraced {:.1} us)",
        values["trace.overhead_pct"],
        traced_ns / 1e3,
        untraced_ns / 1e3
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

/// Traced Table-3 passes for a workload whose path does not retarget.
fn retarget_side(
    spans: &mut Spans,
    tally: &mut Tally,
    layers: &mut retarget::Layers,
) -> Result<(), String> {
    let counts = retarget::reference_counts()?;
    retarget::traced(&counts, SIDE_SECONDS, 2, spans, tally, layers);
    Ok(())
}

/// A serve set-up and traced window for a workload that does not serve.
fn serve_side(
    args: &Args,
    spans: &mut Spans,
    tally: &mut Tally,
    values: &mut Values,
) -> Result<(), String> {
    let setup = serve::setup(args.seed, true)?;
    serve_traced(args, &setup, SIDE_SECONDS, spans, tally, values)?;
    Ok(())
}

/// The serve loop traced for `seconds`; returns the mean request time at
/// the nominal host speed.
fn serve_traced(
    args: &Args,
    setup: &ServeSetup,
    seconds: f64,
    spans: &mut Spans,
    tally: &mut Tally,
    values: &mut Values,
) -> Result<f64, String> {
    let window = serve::open_window(setup)?;
    let timed = serve::timed(setup, args.seed, seconds, MIN_OPS, Some(spans), tally)?;
    serve::close_window(setup, &window, &timed, values)?;
    serve::building_blocks(setup, values)?;
    Ok(timed.mean_ns())
}

/// Runs the workload `k` times in child processes and prints median,
/// quartiles, min and max of every end-to-end metric.
fn noise(args: &Args, k: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut runs: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    for i in 0..k as u64 {
        let seed = args.seed + i;
        let output = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("run {i}: {e}"))?;
        if !output.status.success() {
            return Err(format!("run with seed {seed} failed: {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout
            .lines()
            .last()
            .ok_or(format!("run with seed {seed} printed nothing"))?;
        let result = record_serve::parse_json(last).map_err(|e| format!("seed {seed}: {e}"))?;
        if result.get("correct") != Some(&record_serve::Json::Bool(true)) {
            return Err(format!("run with seed {seed} was not correct: {last}"));
        }
        for (d, values) in END_TO_END.iter().zip(&mut runs) {
            let v = result
                .get("metrics")
                .and_then(|m| m.get(d.name))
                .and_then(|m| m.get("value"))
                .and_then(record_serve::Json::as_f64)
                .ok_or(format!("seed {seed}: no {}", d.name))?;
            values.push(v);
        }
    }
    println!(
        "{} x{k}, {} s per run, seeds {}..={}",
        args.workload.name(),
        args.seconds,
        args.seed,
        args.seed + k as u64 - 1
    );
    println!(
        "{:<16} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "metric", "better", "median", "q1", "q3", "min", "max", "iqr/med"
    );
    for (d, values) in END_TO_END.iter().zip(&runs) {
        let (q1, _, q3) = quartiles(values);
        let med = median(values);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "{:<16} {:>6} {med:>12.4} {q1:>12.4} {q3:>12.4} {min:>12.4} {max:>12.4} {:>7.2}%",
            d.name,
            d.better,
            ratio(q3 - q1, med) * 100.0
        );
    }
    Ok(())
}
