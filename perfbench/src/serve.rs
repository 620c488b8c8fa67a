//! `serve`: requests through the in-process server and its TCP mux on
//! loopback.
//!
//! The open loop sends Poisson arrivals: interactive jobs on a pool of
//! single-slice TIFF files, and every `BATCH_EVERY`-th request a batch
//! job on a short TIFF stack. One sender thread writes each request when
//! it is due and one reader thread collects the responses, over a single
//! connection. Between open-loop rounds, one closed-loop client sends the
//! pool's interactive requests one at a time, at all cores and at one
//! thread; its latencies are the gated figures, because the open loop's
//! median sits where requests that ran alone meet those that shared the
//! cores with another job, and moves with every slow spell of the host.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::Value;
use zenesis_core::job::{run_job, InputSpec, JobResult, JobSpec};
use zenesis_core::{Zenesis, ZenesisConfig};
use zenesis_data::{generate_slice, generate_volume, PhantomConfig, SampleKind};
use zenesis_serve::{Mux, MuxConfig, ServeConfig, Server};

use crate::layers::{self, span, Traced, Tracer};
use crate::pipeline;
use crate::util::{
    allowed_cpus, alternate, median, ms_since, percentile, pinned, ratio, Metrics, SeedRng,
};
use crate::{Args, Outcome};

const SIDE: usize = 256;
/// Distinct interactive slices; a run sends each several times.
const POOL: usize = 48;
const BATCH_DEPTH: usize = 16;
const BATCH_EVERY: usize = 25;
/// Offered load, requests per second.
const RATE: f64 = 10.0;
/// Latency limit behind `serve_slo_share`.
const SLO_MS: f64 = 250.0;
/// A request written this long after it was due means the generator
/// fell behind its schedule and the run is invalid.
const LAG_LIMIT_MS: f64 = 50.0;
/// Longest wait for the next response before the reader gives up.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Inputs {
    seed: u64,
    /// Interactive pool: TIFF path and prompt.
    pool: Vec<(String, &'static str)>,
    /// Mask pixels of an in-process `run_job` of each pool request.
    reference: Vec<usize>,
    batch: String,
}

fn kind_of(i: usize) -> SampleKind {
    if i.is_multiple_of(2) {
        SampleKind::Crystalline
    } else {
        SampleKind::Amorphous
    }
}

fn interactive_spec(path: &str, prompt: &str) -> JobSpec {
    JobSpec::Interactive {
        input: InputSpec::TiffFile {
            path: path.to_string(),
        },
        prompt: prompt.to_string(),
        config: None,
    }
}

/// Write the pool's TIFF slices and the batch stack.
pub fn setup(seed: u64) -> Inputs {
    let mut rng = SeedRng::new(seed);
    let dir = crate::work_dir().join("serve");
    std::fs::create_dir_all(&dir).expect("create the serve work directory");
    let seeds: Vec<u64> = (0..POOL).map(|_| rng.next_u64()).collect();
    let pool = zenesis_par::par_map_range(POOL, |i| {
        let g = generate_slice(&PhantomConfig::new(kind_of(i), seeds[i]).with_size(SIDE, SIDE));
        let path = dir.join(format!("slice-{i}.tif"));
        zenesis_tiff::save_tiff_u16(&g.raw, &path).expect("write a pool TIFF");
        (path.display().to_string(), kind_of(i).default_prompt())
    });
    let v = generate_volume(
        SampleKind::Crystalline,
        SIDE,
        BATCH_DEPTH,
        rng.next_u64(),
        &[9],
    );
    let batch: PathBuf = dir.join("batch.tif");
    zenesis_tiff::save_tiff_volume_u16(&v.volume, &batch).expect("write the batch TIFF stack");
    Inputs {
        seed,
        pool,
        reference: Vec::new(),
        batch: batch.display().to_string(),
    }
}

/// Reference results for the output checks: each pool request through
/// `run_job` in-process. This is the program's work, so it runs after
/// the timed set-up.
pub fn compute_references(inputs: &mut Inputs) {
    inputs.reference = inputs
        .pool
        .iter()
        .map(
            |(path, prompt)| match run_job(&interactive_spec(path, prompt)) {
                JobResult::Slice { mask_pixels, .. } => mask_pixels,
                other => panic!("reference run of {path} failed: {other:?}"),
            },
        )
        .collect();
}

#[derive(Clone, Copy)]
enum Req {
    Interactive(usize),
    Batch,
}

/// What came back for one request.
struct Reply {
    arrived: Instant,
    status: String,
    queue_ms: f64,
    run_ms: f64,
    mask_pixels: Option<u64>,
}

struct LoopOutcome {
    sent: Vec<(Req, Instant)>,
    lag_ms: Vec<f64>,
    replies: BTreeMap<u64, Vec<Reply>>,
    problems: Vec<String>,
}

fn parse_reply(line: &str, arrived: Instant) -> Option<(u64, Reply)> {
    let v: Value = serde_json::from_str(line).ok()?;
    let result = v.get("result")?;
    Some((
        v.get("id")?.as_u64()?,
        Reply {
            arrived,
            status: v.get("status")?.as_str()?.to_string(),
            queue_ms: v.get("queue_ms")?.as_f64()?,
            run_ms: v.get("run_ms")?.as_f64()?,
            mask_pixels: result.get("mask_pixels").and_then(Value::as_u64),
        },
    ))
}

/// The arrival schedule of `rounds` open-loop rounds of `round_s`
/// seconds each: per round, offsets in seconds and the request each one
/// sends. Interactive requests go round-robin over the pool across
/// rounds, so a run covers it evenly.
fn schedule(inputs: &Inputs, rounds: usize, round_s: f64) -> Vec<Vec<(f64, Req)>> {
    let mut rng = SeedRng::new(inputs.seed ^ 0xA11_1A7E);
    let mut n = 0;
    (0..rounds)
        .map(|_| {
            let mut t = 0.0;
            let mut out = Vec::new();
            loop {
                t += -rng.unit().ln() / RATE;
                if t >= round_s {
                    return out;
                }
                n += 1;
                let req = if n % BATCH_EVERY == 0 {
                    Req::Batch
                } else {
                    Req::Interactive(n % POOL)
                };
                out.push((t, req));
            }
        })
        .collect()
}

fn request_line(inputs: &Inputs, id: usize, req: Req) -> String {
    let spec = match req {
        Req::Interactive(i) => interactive_spec(&inputs.pool[i].0, inputs.pool[i].1),
        Req::Batch => JobSpec::Batch {
            input: InputSpec::TiffVolumeFile {
                path: inputs.batch.clone(),
            },
            prompt: SampleKind::Crystalline.default_prompt().to_string(),
            config: None,
            checkpoint_dir: None,
            resume: true,
            masks_out: None,
        },
    };
    let spec = serde_json::to_string(&spec).expect("job specs serialize");
    format!("{{\"id\": {id}, \"spec\": {spec}}}\n")
}

/// Offer one round of the schedule to a fresh server and collect every
/// response.
fn open_loop(inputs: &Inputs, threads: usize, round: &[(f64, Req)]) -> LoopOutcome {
    let server = Arc::new(Server::start(ServeConfig {
        workers: threads,
        ..ServeConfig::default()
    }));
    let mux = Mux::spawn(Arc::clone(&server), "127.0.0.1:0", MuxConfig::default())
        .expect("bind the mux on loopback");
    let stream = TcpStream::connect(mux.local_addr()).expect("connect to the mux");
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .expect("set a read timeout");
    let lines: Vec<(f64, Req, String)> = round
        .iter()
        .enumerate()
        .map(|(id, &(t, req))| (t, req, request_line(inputs, id, req)))
        .collect();
    let expected = lines.len();
    let start = Instant::now() + Duration::from_millis(20);

    let mut problems = Vec::new();
    let (sent, lag_ms, replies) = std::thread::scope(|s| {
        let mut writer = stream.try_clone().expect("clone the client socket");
        let sender = s.spawn(move || {
            let mut sent = Vec::new();
            let mut lag = Vec::new();
            for (t, req, line) in &lines {
                let due = start + Duration::from_secs_f64(*t);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                writer.write_all(line.as_bytes()).expect("send a request");
                lag.push(ms_since(due));
                sent.push((*req, due));
            }
            writer
                .shutdown(Shutdown::Write)
                .expect("half-close the connection");
            (sent, lag)
        });
        let reader = s.spawn(|| {
            let mut replies: BTreeMap<u64, Vec<Reply>> = BTreeMap::new();
            let mut bad = Vec::new();
            let mut got = 0;
            for line in BufReader::new(&stream).lines() {
                let arrived = Instant::now();
                match line {
                    Ok(line) => match parse_reply(&line, arrived) {
                        Some((id, r)) => {
                            replies.entry(id).or_default().push(r);
                            got += 1;
                        }
                        None => bad.push(format!("unparseable response {line:?}")),
                    },
                    Err(e) => {
                        bad.push(format!("reading responses: {e}"));
                        break;
                    }
                }
                if got >= expected {
                    break;
                }
            }
            (replies, bad)
        });
        let (sent, lag) = sender.join().expect("sender thread panicked");
        let (replies, bad) = reader.join().expect("reader thread panicked");
        problems.extend(bad);
        (sent, lag, replies)
    });
    drop(stream);
    mux.shutdown();
    server.shutdown();

    for (id, _) in sent.iter().enumerate() {
        let n = replies.get(&(id as u64)).map_or(0, Vec::len);
        if n != 1 {
            problems.push(format!("request {id} got {n} responses"));
        }
    }
    if let Some(extra) = replies.keys().find(|id| **id as usize >= sent.len()) {
        problems.push(format!("response for unknown request {extra}"));
    }
    let worst = lag_ms.iter().copied().fold(0.0, f64::max);
    if worst > LAG_LIMIT_MS {
        problems.push(format!(
            "generator fell behind schedule: a request went out {worst:.1} ms late"
        ));
    }
    LoopOutcome {
        sent,
        lag_ms,
        replies,
        problems,
    }
}

/// Per-request figures of open-loop rounds.
#[derive(Default)]
struct Served {
    /// Due time → response, interactive requests that came back ok.
    lat_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    run_ms: Vec<f64>,
    wire_ms: Vec<f64>,
    batch_ms: Vec<f64>,
    batch_run_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    sent: usize,
    interactive_sent: usize,
    within_slo: usize,
    busy: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Served {
    /// Add one round, checking each ok interactive response against the
    /// in-process reference.
    fn add(&mut self, inputs: &Inputs, lo: LoopOutcome) {
        for (id, (req, due)) in lo.sent.iter().enumerate() {
            let Some(r) = lo.replies.get(&(id as u64)).and_then(|v| v.first()) else {
                self.failed += 1;
                continue;
            };
            let lat = r.arrived.duration_since(*due).as_secs_f64() * 1e3;
            if r.status == "busy" {
                self.busy += 1;
            }
            if r.status != "ok" {
                self.failed += 1;
            }
            match *req {
                Req::Interactive(i) => {
                    self.interactive_sent += 1;
                    if r.status != "ok" {
                        continue;
                    }
                    if r.mask_pixels != Some(inputs.reference[i] as u64) {
                        self.problems.push(format!(
                            "request {id}: mask_pixels {:?}, in-process run gave {}",
                            r.mask_pixels, inputs.reference[i]
                        ));
                    }
                    self.lat_ms.push(lat);
                    self.queue_ms.push(r.queue_ms);
                    self.run_ms.push(r.run_ms);
                    self.wire_ms.push(lat - r.queue_ms - r.run_ms);
                    if lat <= SLO_MS {
                        self.within_slo += 1;
                    }
                }
                Req::Batch if r.status == "ok" => {
                    self.batch_ms.push(lat);
                    self.batch_run_ms.push(r.run_ms);
                }
                Req::Batch => {}
            }
        }
        self.lag_ms.extend(lo.lag_ms);
        self.sent += lo.sent.len();
        self.problems.extend(lo.problems);
    }

    /// The serving layer's figures, printed in every run's report.
    fn report(&self, report: &mut Metrics) {
        report.put("requests", self.sent as f64, "count");
        report.put("serve_p50_ms", median(&self.lat_ms), "ms");
        report.put("serve_p95_ms", percentile(&self.lat_ms, 0.95), "ms");
        report.put(
            "serve_slo_share",
            ratio(self.within_slo as f64, self.interactive_sent as f64),
            "ratio",
        );
        report.put("batch_p50_s", median(&self.batch_ms) / 1e3, "s");
        report.put("serve.queue_wait_p50_ms", median(&self.queue_ms), "ms");
        report.put(
            "serve.queue_wait_p95_ms",
            percentile(&self.queue_ms, 0.95),
            "ms",
        );
        report.put("serve.run_ms", median(&self.run_ms), "ms");
        report.put("serve.wire_ms", median(&self.wire_ms), "ms");
        report.put("serve.batch_run_s", median(&self.batch_run_ms) / 1e3, "s");
        report.put(
            "serve.busy_share",
            ratio(self.busy as f64, self.sent as f64),
            "ratio",
        );
        report.put(
            "serve.generator_lag_ms",
            percentile(&self.lag_ms, 0.99),
            "ms",
        );
    }
}

/// Open-loop rounds, each followed by closed-loop segments at all cores
/// and at one thread.
const ROUNDS: usize = 4;
/// Closed-loop segment pairs (all cores, then one thread) after each
/// open-loop round. The host's speed changes from one second to the
/// next, so many short segments average over more of its states than a
/// few long ones.
const PAIRS: usize = 4;
/// Shares of a round's time: the open loop's arrivals, and each thread
/// count's closed loop. The rest covers server start-up and the open
/// loop's last responses.
const OPEN_SHARE: f64 = 0.2;
const CLOSED_SHARE: f64 = 0.35;

/// Every pool request in-process through `run_job`, closed loop;
/// returns each latency and any result that disagrees with the
/// reference.
fn replay(inputs: &Inputs) -> (Vec<f64>, Vec<String>) {
    let mut ms = Vec::new();
    let mut problems = Vec::new();
    for (i, (path, prompt)) in inputs.pool.iter().enumerate() {
        let t0 = Instant::now();
        let result = run_job(&interactive_spec(path, prompt));
        ms.push(ms_since(t0));
        match result {
            JobResult::Slice { mask_pixels, .. } if mask_pixels == inputs.reference[i] => {}
            other => problems.push(format!(
                "replay of {path}: {other:?}, expected {} pixels",
                inputs.reference[i]
            )),
        }
    }
    (ms, problems)
}

/// What a closed-loop segment measured.
#[derive(Default)]
struct Closed {
    lat_ms: Vec<f64>,
    sent: usize,
    failed: usize,
    problems: Vec<String>,
}

/// One client sending the pool's interactive requests one at a time,
/// round-robin from `*next`, to a fresh server with `workers` workers for
/// `seconds`; every `ok` response must carry the reference mask pixels.
/// With `pin`, the server's workers run pinned to that CPU.
fn closed_loop(
    inputs: &Inputs,
    workers: usize,
    pin: Option<usize>,
    seconds: f64,
    next: &mut usize,
    c: &mut Closed,
) {
    let start = || {
        Server::start(ServeConfig {
            workers,
            ..ServeConfig::default()
        })
    };
    let server = Arc::new(match pin {
        Some(cpu) => pinned(cpu, start),
        None => start(),
    });
    let mux = Mux::spawn(Arc::clone(&server), "127.0.0.1:0", MuxConfig::default())
        .expect("bind the mux on loopback");
    let stream = TcpStream::connect(mux.local_addr()).expect("connect to the mux");
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .expect("set a read timeout");
    let mut writer = stream.try_clone().expect("clone the client socket");
    let mut lines = BufReader::new(&stream).lines();
    let t_end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut id = 0;
    while Instant::now() < t_end {
        let i = *next % POOL;
        *next += 1;
        let line = request_line(inputs, id, Req::Interactive(i));
        let t0 = Instant::now();
        writer.write_all(line.as_bytes()).expect("send a request");
        let reply = lines.next();
        let lat = ms_since(t0);
        c.sent += 1;
        let Some(Ok(line)) = reply else {
            c.problems.push(format!(
                "closed loop: no response to request {id}: {reply:?}"
            ));
            break;
        };
        match parse_reply(&line, Instant::now()) {
            Some((rid, _)) if rid != id as u64 => c.problems.push(format!(
                "closed loop: request {id} got the response to {rid}"
            )),
            Some((_, r)) if r.status != "ok" => c.failed += 1,
            Some((_, r)) if r.mask_pixels == Some(inputs.reference[i] as u64) => c.lat_ms.push(lat),
            _ => c.problems.push(format!(
                "closed loop: request {id}: {line:?}, in-process run gave {} pixels",
                inputs.reference[i]
            )),
        }
        id += 1;
    }
    writer
        .shutdown(Shutdown::Write)
        .expect("half-close the connection");
    drop(lines);
    drop(stream);
    mux.shutdown();
    server.shutdown();
}

pub fn run(args: &Args, inputs: &Inputs, threads: usize) -> Outcome {
    let round_s = args.seconds / ROUNDS as f64;
    let closed_s = round_s * CLOSED_SHARE / PAIRS as f64;
    let rounds = schedule(inputs, ROUNDS, round_s * OPEN_SHARE);
    // One-thread segments pin the server's worker to each CPU in turn
    // (the worker runs on its own thread, out of reach of `rotating`).
    let mut cpus = allowed_cpus().into_iter().cycle();
    let mut served = Served::default();
    let (mut all, mut one) = (Closed::default(), Closed::default());
    let mut next = 0;
    for round in &rounds {
        zenesis_par::set_threads(threads);
        served.add(inputs, open_loop(inputs, threads, round));
        for _ in 0..PAIRS {
            zenesis_par::set_threads(threads);
            closed_loop(inputs, threads, None, closed_s, &mut next, &mut all);
            zenesis_par::set_threads(1);
            closed_loop(inputs, 1, cpus.next(), closed_s, &mut next, &mut one);
        }
    }
    zenesis_par::set_threads(threads);
    let problems: Vec<&String> = served
        .problems
        .iter()
        .chain(&all.problems)
        .chain(&one.problems)
        .collect();
    for p in &problems {
        eprintln!("serve: {p}");
    }
    let mut e2e = Metrics::default();
    e2e.put("slice_p50_ms", median(&all.lat_ms), "ms");
    e2e.put("slice_1t_p50_ms", median(&one.lat_ms), "ms");
    let mut report = Metrics::default();
    report.put("closed_requests", all.sent as f64, "count");
    report.put("closed_1t_requests", one.sent as f64, "count");
    report.put("closed_p95_ms", percentile(&all.lat_ms, 0.95), "ms");
    served.report(&mut report);
    Outcome {
        correct: problems.is_empty(),
        attempted: (served.sent + all.sent + one.sent) as u64,
        failed: (served.failed + all.failed + one.failed) as u64,
        metrics: e2e,
        report,
    }
}

/// A pool request decomposed into per-crate calls: `run_job` builds its
/// pipeline per request, reads the TIFF and segments it.
fn decomposed(path: &str, prompt: &str) -> pipeline::Segmented {
    let z = Zenesis::new(ZenesisConfig::default());
    let raw = span("bench.tiff.read", || {
        zenesis_tiff::load_tiff(path).map(|page| page.to_f32())
    });
    pipeline::segment_slice(&z, &raw.expect("read a pool TIFF"), prompt)
}

/// Traced run: the pool's requests replayed in-process (all cores, then
/// one thread), decomposed untraced and traced in turn, then an open
/// loop for the serving layer's own figures.
pub fn trace(args: &Args, inputs: &Inputs, threads: usize) -> Outcome {
    let plain = alternate(threads, 0.0, 1, |_| replay(inputs));
    let mut problems: Vec<String> = plain
        .all
        .iter()
        .chain(&plain.one)
        .flat_map(|r| r.1.clone())
        .collect();

    let mut tracer = Tracer::default();
    let mut detections = 0;
    for (i, (path, prompt)) in inputs.pool.iter().enumerate() {
        let s = tracer.pair(|_| decomposed(path, prompt));
        detections += s.detections.len();
        if s.combined.count() != inputs.reference[i] {
            problems.push(format!("decomposed request {i} disagrees with the program"));
        }
    }

    let t = Traced {
        tracer: &tracer,
        slices: POOL,
        detections,
        width: 1,
        cpu_util: plain.cpu_util[0],
        cpu_util_1t: plain.cpu_util_1t[0],
        speedup: median(&plain.one[0].0) / median(&plain.all[0].0),
    };
    layers::print_table("serve", &t);

    let mut served = Served::default();
    for round in schedule(inputs, 1, args.seconds * 0.5) {
        served.add(inputs, open_loop(inputs, threads, &round));
    }
    problems.append(&mut served.problems);
    for p in &problems {
        eprintln!("serve: {p}");
    }
    let mut report = Metrics::default();
    let read = tracer.totals().get("bench.tiff.read").map_or(0.0, |v| v.0);
    report.put("tiff.read_ms_per_slice", read / POOL as f64, "ms");
    served.report(&mut report);
    Outcome {
        correct: problems.is_empty(),
        attempted: (4 * POOL + served.sent) as u64,
        failed: served.failed as u64,
        metrics: layers::metrics(&t),
        report,
    }
}
