//! The `serve` workload and the serve layer.
//!
//! An in-process `Server` (`ServerConfig::default()` with one worker)
//! and one closed-loop `Client` connection on the benchmark's own
//! thread, over compile-dsp's 31 pairs.  The client runs a seeded mix:
//! 75% keyed `compile`, 20% inline-HDL `compile` and 5% `batch-compile`
//! of four items.
//!
//! One connection and one worker, on the one CPU the process is pinned
//! to, keep exactly one thread runnable: the client waits while the
//! worker compiles.  With more connections than the host reliably gives
//! CPUs, `ops_per_s` measured the host's scheduling of vCPUs instead of
//! the serving layer (its spread across runs reached 27% with two).
//! A worker serves a whole connection, so set-up closes its connection
//! before timing: an idle one left open would hold the only worker and
//! stall the run.

use crate::metrics::Values;
use crate::pairs;
use crate::rng::Rng;
use crate::setup::{self, Case, Verified};
use crate::spans::Spans;
use crate::stats::ratio;
use crate::timing::{mean_call_ns, run_rounds, time, Tally, Timed};
use record_core::RetargetOptions;
use record_serve::{
    local_key, model_key, parse_json, Client, CompileSpec, CompileSummary, Json, Model, Server,
    ServerConfig, ServerHandle, SessionPool, TargetCache,
};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// Requests per mix round and how many of each kind: 15/20 keyed, 4/20
/// inline-HDL, 1/20 batch.
const ROUND: usize = 20;
const INLINE_PER_ROUND: usize = 4;
const BATCHES_PER_ROUND: usize = 1;
const BATCH_ITEMS: usize = 4;

/// One request of the mix; indices name verified cases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Req {
    Keyed(usize),
    Inline(usize),
    Batch(Vec<usize>),
}

/// The client's seeded request stream.
///
/// Singles walk a shuffled deck of all pairs (reshuffled when spent), so
/// every pair is compiled equally often over a run whatever the seed;
/// the kind order within a round and each batch's model and items are
/// seeded draws.
#[derive(Debug, Clone)]
pub struct Mix {
    rng: Rng,
    deck: Vec<usize>,
    next: usize,
    /// Case indices per model.
    by_model: Vec<Vec<usize>>,
}

impl Mix {
    /// The stream for `seed`; `case_models[i]` is the model index of
    /// case `i`.
    pub fn new(seed: u64, case_models: &[usize]) -> Mix {
        let models = case_models.iter().max().map_or(0, |m| m + 1);
        let mut by_model = vec![Vec::new(); models];
        for (i, &m) in case_models.iter().enumerate() {
            by_model[m].push(i);
        }
        Mix {
            rng: Rng::new(seed, 0x5E4E),
            deck: (0..case_models.len()).collect(),
            next: case_models.len(),
            by_model,
        }
    }

    fn draw(&mut self) -> usize {
        if self.next == self.deck.len() {
            self.rng.shuffle(&mut self.deck);
            self.next = 0;
        }
        self.next += 1;
        self.deck[self.next - 1]
    }

    /// The next round of [`ROUND`] requests.
    pub fn round(&mut self) -> Vec<Req> {
        let mut kinds = vec![0u8; ROUND];
        kinds[..INLINE_PER_ROUND].fill(1);
        kinds[INLINE_PER_ROUND..INLINE_PER_ROUND + BATCHES_PER_ROUND].fill(2);
        self.rng.shuffle(&mut kinds);
        kinds
            .into_iter()
            .map(|kind| match kind {
                0 => Req::Keyed(self.draw()),
                1 => Req::Inline(self.draw()),
                _ => {
                    let model = self.rng.below(self.by_model.len());
                    let mut items = self.by_model[model].clone();
                    self.rng.shuffle(&mut items);
                    items.truncate(BATCH_ITEMS);
                    Req::Batch(items)
                }
            })
            .collect()
    }
}

/// Set-up state: the local reference compiles, the running server and
/// the content key of each model.
pub struct ServeSetup {
    pub verified: Verified,
    pub server: ServerHandle,
    pub keys: Vec<String>,
}

fn spec(case: &Case) -> CompileSpec<'static> {
    CompileSpec::new(case.kernel.source, case.kernel.function)
}

fn check(case: &Case, summary: &CompileSummary) -> Result<(), String> {
    if summary.ops == case.ops as u64 && summary.code_size == case.words as u64 {
        Ok(())
    } else {
        Err(format!(
            "{}: served {} ops / {} words, local compile {} / {}",
            case.kernel.name, summary.ops, summary.code_size, case.ops, case.words
        ))
    }
}

/// Verifies the pairs locally, starts the server and warms it over the
/// wire: every model retargeted, every pair compiled with its listing
/// checked against the local `Target::listing`, one inline and one batch
/// request per model.  The warm-up connection is closed on return.
///
/// # Errors
///
/// Verification, server start, transport errors and any served result
/// that differs from the local compile.
pub fn setup(seed: u64, metrics_listener: bool) -> Result<ServeSetup, String> {
    let verified = setup::verify(pairs::DSP, Vec::new(), seed)?;
    let config = ServerConfig {
        workers: 1,
        metrics_addr: metrics_listener.then(|| "127.0.0.1:0".to_owned()),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut keys = Vec::new();
    for m in &verified.models {
        let summary = client
            .retarget(m.hdl)
            .map_err(|e| format!("retarget {} over the wire: {e}", m.name))?;
        if summary.key != local_key(m.hdl) {
            return Err(format!(
                "{}: served key {} != local key",
                m.name, summary.key
            ));
        }
        keys.push(summary.key);
    }
    for case in &verified.cases {
        let model = Model::Key(&keys[case.model]);
        let summary = client
            .compile(&model, &spec(case).listing(true))
            .map_err(|e| format!("{}: {e}", case.kernel.name))?;
        check(case, &summary)?;
        if summary.listing.as_deref() != Some(case.listing.as_str()) {
            return Err(format!(
                "{}: served listing differs from Target::listing",
                case.kernel.name
            ));
        }
    }
    for (m, model) in verified.models.iter().enumerate() {
        let cases: Vec<&Case> = verified.cases.iter().filter(|c| c.model == m).collect();
        let summary = client
            .compile(&Model::Hdl(model.hdl), &spec(cases[0]))
            .map_err(|e| format!("{}: {e}", cases[0].kernel.name))?;
        check(cases[0], &summary)?;
        batch(&mut client, &keys[m], &cases[..BATCH_ITEMS])?;
    }
    Ok(ServeSetup {
        verified,
        server,
        keys,
    })
}

fn batch(client: &mut Client, key: &str, cases: &[&Case]) -> Result<(), String> {
    let specs: Vec<CompileSpec<'_>> = cases.iter().map(|c| spec(c)).collect();
    let results = client
        .batch_compile(&Model::Key(key), &specs)
        .map_err(|e| format!("batch-compile: {e}"))?;
    if results.len() != cases.len() {
        return Err(format!(
            "batch of {} answered {}",
            cases.len(),
            results.len()
        ));
    }
    for (case, result) in cases.iter().zip(results) {
        let summary = result.map_err(|e| format!("{}: {e}", case.kernel.name))?;
        check(case, &summary)?;
    }
    Ok(())
}

fn send(client: &mut Client, setup: &ServeSetup, req: &Req) -> Result<(), String> {
    let cases = &setup.verified.cases;
    match req {
        Req::Keyed(i) | Req::Inline(i) => {
            let case = &cases[*i];
            let model = match req {
                Req::Keyed(_) => Model::Key(&setup.keys[case.model]),
                _ => Model::Hdl(setup.verified.models[case.model].hdl),
            };
            let summary = client
                .compile(&model, &spec(case))
                .map_err(|e| format!("{}: {e}", case.kernel.name))?;
            check(case, &summary)
        }
        Req::Batch(items) => {
            let batch_cases: Vec<&Case> = items.iter().map(|&i| &cases[i]).collect();
            batch(client, &setup.keys[batch_cases[0].model], &batch_cases)
        }
    }
}

/// The timed closed loop: whole rounds of the mix on one connection
/// until `seconds` have passed and at least `min_ops` requests completed.
/// With `spans`, every request is a `serve.request` span.
///
/// # Errors
///
/// A failed connect; failed requests count against the tally.
pub fn timed(
    setup: &ServeSetup,
    seed: u64,
    seconds: f64,
    min_ops: usize,
    mut spans: Option<&mut Spans>,
    tally: &mut Tally,
) -> Result<Timed, String> {
    let case_models: Vec<usize> = setup.verified.cases.iter().map(|c| c.model).collect();
    let mut mix = Mix::new(seed, &case_models);
    let mut client = Client::connect(setup.server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut op = 0u64;
    Ok(run_rounds(seconds, min_ops, |latencies| {
        for req in mix.round() {
            let span = spans.as_mut().map(|s| s.open("serve.request", op, None));
            let (outcome, ns) = time(|| send(&mut client, setup, &req));
            latencies.push(ns);
            if let (Some(s), Some(id)) = (spans.as_mut(), span) {
                s.close(id);
            }
            tally.op(outcome);
            op += 1;
        }
    }))
}

/// One `GET /metrics`; returns `(sum, count)` of the server's own
/// request-latency histogram (`record_request_latency_ns`).
fn request_latency(metrics: SocketAddr) -> Result<(f64, f64), String> {
    let mut stream = TcpStream::connect(metrics).map_err(|e| format!("metrics connect: {e}"))?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("metrics request: {e}"))?;
    let mut body = String::new();
    stream
        .read_to_string(&mut body)
        .map_err(|e| format!("metrics response: {e}"))?;
    let sample = |name: &str| {
        body.lines()
            .find_map(|l| {
                l.strip_prefix(name)?
                    .strip_prefix(' ')?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .ok_or(format!("/metrics has no `{name}` sample"))
    };
    Ok((
        sample("record_request_latency_ns_sum")?,
        sample("record_request_latency_ns_count")?,
    ))
}

/// The `stats` op on a connection of its own, closed on return.
fn stats(addr: SocketAddr) -> Result<Json, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client.stats().map_err(|e| format!("stats: {e}"))
}

fn stat(stats: &Json, section: &str, key: &str) -> f64 {
    stats
        .get(section)
        .and_then(|s| s.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Server-side readings taken before the traced window opens.
pub struct Window {
    latency: (f64, f64),
    stats: Json,
}

/// Reads the server's counters before timing (on connections that are
/// closed again before the clients start).
///
/// # Errors
///
/// Transport errors and a server without its metrics listener.
pub fn open_window(setup: &ServeSetup) -> Result<Window, String> {
    let metrics = setup
        .server
        .metrics_addr()
        .ok_or("server has no metrics listener")?;
    Ok(Window {
        stats: stats(setup.server.addr())?,
        latency: request_latency(metrics)?,
    })
}

/// The serve-layer split of the traced window: client round trip,
/// server-side handling time and the rest (transport, waiting for a
/// worker, the client codec), plus the cache, pool and admission
/// counters over the window.  Round trips are the loop's wall time per
/// request (steal included), the clock of the server's own histogram.
///
/// # Errors
///
/// Transport errors.
pub fn close_window(
    setup: &ServeSetup,
    window: &Window,
    timed: &Timed,
    values: &mut Values,
) -> Result<(), String> {
    let metrics = setup
        .server
        .metrics_addr()
        .ok_or("server has no metrics listener")?;
    let (sum, count) = request_latency(metrics)?;
    let after = stats(setup.server.addr())?;
    let rtt_us = ratio(timed.wall_ns as f64, timed.latencies_ns.len() as f64) / 1e3;
    let server_us = ratio(sum - window.latency.0, count - window.latency.1) / 1e3;
    values.insert("serve.rtt_us", rtt_us);
    values.insert("serve.server_us", server_us);
    values.insert("serve.outside_server_us", rtt_us - server_us);
    let delta =
        |section: &str, key: &str| stat(&after, section, key) - stat(&window.stats, section, key);
    let hits = delta("cache", "hits");
    values.insert(
        "serve.cache_hit_ratio",
        ratio(hits, hits + delta("cache", "misses")),
    );
    let reused = delta("pools", "reused");
    values.insert(
        "serve.pool_reuse_ratio",
        ratio(reused, reused + delta("pools", "created")),
    );
    values.insert("serve.rejected", delta("server", "rejected"));
    Ok(())
}

/// Per-call costs of the serve layer's building blocks, timed from
/// outside on the workload's own inputs: the JSON codec on real request
/// and response lines, the model digest, a cache lookup and a pool
/// checkout.
///
/// # Errors
///
/// Transport errors and retarget failures.
pub fn building_blocks(setup: &ServeSetup, values: &mut Values) -> Result<(), String> {
    const MILLIS: u64 = 100;
    let verified = &setup.verified;
    // Real lines: each pair keyed, each model inline and as a batch.
    let compile = |(field, value): (&str, &str), case: &Case| {
        Json::obj(vec![
            ("op", Json::str("compile")),
            (field, Json::str(value)),
            ("source", Json::str(case.kernel.source)),
            ("function", Json::str(case.kernel.function)),
        ])
    };
    let mut requests: Vec<Json> = verified
        .cases
        .iter()
        .map(|c| compile(("key", &setup.keys[c.model]), c))
        .collect();
    for (m, model) in verified.models.iter().enumerate() {
        let cases: Vec<&Case> = verified.cases.iter().filter(|c| c.model == m).collect();
        requests.push(compile(("hdl", model.hdl), cases[0]));
        let items = cases[..BATCH_ITEMS]
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("source", Json::str(c.kernel.source)),
                    ("function", Json::str(c.kernel.function)),
                ])
            })
            .collect();
        requests.push(Json::obj(vec![
            ("op", Json::str("batch-compile")),
            ("key", Json::str(setup.keys[m].clone())),
            ("items", Json::Arr(items)),
        ]));
    }
    let mut client = Client::connect(setup.server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut lines = Vec::with_capacity(2 * requests.len());
    for request in &requests {
        let response = client
            .request(request)
            .map_err(|e| format!("sample request: {e}"))?;
        lines.push(request.to_string());
        lines.push(response.to_string());
    }
    drop(client);
    let parsed: Vec<Json> = lines
        .iter()
        .map(|l| parse_json(l))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("sample line does not parse: {e}"))?;
    let per_line = |ns: f64| ns / lines.len() as f64 / 1e3;
    values.insert(
        "serve.json_decode_us",
        per_line(mean_call_ns(MILLIS, || {
            for l in &lines {
                black_box(parse_json(black_box(l)).is_ok());
            }
        })),
    );
    values.insert(
        "serve.json_encode_us",
        per_line(mean_call_ns(MILLIS, || {
            for j in &parsed {
                black_box(black_box(j).to_string());
            }
        })),
    );
    let hdls: Vec<&str> = verified.models.iter().map(|m| m.hdl).collect();
    values.insert(
        "serve.digest_us",
        mean_call_ns(MILLIS, || {
            for h in &hdls {
                black_box(model_key(black_box(h)));
            }
        }) / hdls.len() as f64
            / 1e3,
    );
    let cache = TargetCache::new(8, RetargetOptions::default());
    let mut keys = Vec::new();
    for h in &hdls {
        let (key, _) = cache.get_or_retarget(h).map_err(|e| e.to_string())?;
        keys.push(key);
    }
    values.insert(
        "serve.cache_lookup_us",
        mean_call_ns(MILLIS, || {
            for k in &keys {
                black_box(cache.get(black_box(*k)));
            }
        }) / keys.len() as f64
            / 1e3,
    );
    let target = setup::retarget(verified.models[0].name)?.target;
    let pool = SessionPool::new(Arc::new(target), 4);
    drop(pool.checkout());
    let (mut checkout_ns, mut checkouts) = (0u64, 0u64);
    let start = Instant::now();
    while start.elapsed().as_millis() < u128::from(MILLIS) {
        let t0 = Instant::now();
        let session = pool.checkout();
        checkout_ns += t0.elapsed().as_nanos() as u64;
        checkouts += 1;
        drop(black_box(session));
    }
    values.insert(
        "serve.pool_checkout_us",
        ratio(checkout_ns as f64 / 1e3, checkouts as f64),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The DSP list's model index per case: 14 ref, 10 tms320c25, 7
    /// bass_boost.
    fn case_models() -> Vec<usize> {
        [(0, 14), (1, 10), (2, 7)]
            .into_iter()
            .flat_map(|(m, n)| std::iter::repeat_n(m, n))
            .collect()
    }

    fn stream(seed: u64, rounds: usize) -> Vec<Req> {
        let mut mix = Mix::new(seed, &case_models());
        (0..rounds).flat_map(|_| mix.round()).collect()
    }

    #[test]
    fn one_seed_gives_one_mix() {
        assert_eq!(stream(7, 10), stream(7, 10));
    }

    #[test]
    fn seeds_give_different_mixes() {
        assert_ne!(stream(7, 10), stream(8, 10));
    }

    #[test]
    fn a_round_has_the_stated_proportions() {
        let models = case_models();
        let mut mix = Mix::new(3, &models);
        for _ in 0..50 {
            let round = mix.round();
            assert_eq!(round.len(), 20);
            let inline = round.iter().filter(|r| matches!(r, Req::Inline(_))).count();
            let batches: Vec<&Vec<usize>> = round
                .iter()
                .filter_map(|r| match r {
                    Req::Batch(items) => Some(items),
                    _ => None,
                })
                .collect();
            assert_eq!((inline, batches.len()), (4, 1), "75/20/5 split");
            let items = batches[0];
            assert_eq!(items.len(), 4);
            assert!(
                items.iter().all(|&i| models[i] == models[items[0]]),
                "one model per batch"
            );
        }
    }

    #[test]
    fn singles_cover_every_pair_equally() {
        let models = case_models();
        let mut mix = Mix::new(11, &models);
        let mut seen = vec![0usize; models.len()];
        // 31 rounds of 19 singles: 589 draws = 19 full decks.
        for _ in 0..31 {
            for req in mix.round() {
                if let Req::Keyed(i) | Req::Inline(i) = req {
                    seen[i] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&n| n == 19), "{seen:?}");
    }
}
