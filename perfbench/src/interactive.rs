//! `interactive`: a Mode A session, closed loop, one in-process client.
//!
//! Each slice is segmented from raw pixels with its kind's default
//! prompt, then re-prompted twice on the kept adaptation (the other
//! kind's prompt, then the original one). One pass runs at all cores,
//! a second at one thread over the same slices.

use std::time::Instant;

use zenesis_core::{Zenesis, ZenesisConfig};
use zenesis_data::{generate_slice, PhantomConfig, SampleKind};
use zenesis_image::{BitMask, Image};

use crate::layers::{self, Traced, Tracer};
use crate::pipeline;
use crate::util::{alternate, mean, median, ms_since, percentile, Alternated, Metrics, SeedRng};
use crate::{Args, Outcome};

const SIDE: usize = 512;
/// Distinct slices; every round covers them all, so `mean_iou` is a
/// function of the seed alone.
const POOL: usize = 12;

pub struct Inputs {
    slices: Vec<(SampleKind, Image<u16>, BitMask)>,
}

pub fn setup(seed: u64) -> Inputs {
    let mut rng = SeedRng::new(seed);
    let seeds: Vec<u64> = (0..POOL).map(|_| rng.next_u64()).collect();
    let slices = zenesis_par::par_map_range(POOL, |i| {
        let kind = if i.is_multiple_of(2) {
            SampleKind::Crystalline
        } else {
            SampleKind::Amorphous
        };
        let g = generate_slice(&PhantomConfig::new(kind, seeds[i]).with_size(SIDE, SIDE));
        (kind, g.raw, g.truth)
    });
    Inputs { slices }
}

fn other(kind: SampleKind) -> SampleKind {
    match kind {
        SampleKind::Crystalline => SampleKind::Amorphous,
        SampleKind::Amorphous => SampleKind::Crystalline,
    }
}

/// One session's timings and its three masks.
struct Session {
    slice_ms: f64,
    reprompt_ms: [f64; 2],
    masks: [BitMask; 3],
}

fn session(z: &Zenesis, kind: SampleKind, raw: &Image<u16>) -> Session {
    let prompt = kind.default_prompt();
    let t0 = Instant::now();
    let first = z.segment_slice(raw, prompt);
    let slice_ms = ms_since(t0);
    let t1 = Instant::now();
    let again = z.segment_adapted(&first.adapted, other(kind).default_prompt());
    let r1 = ms_since(t1);
    let t2 = Instant::now();
    let back = z.segment_adapted(&first.adapted, prompt);
    let r2 = ms_since(t2);
    Session {
        slice_ms,
        reprompt_ms: [r1, r2],
        masks: [first.combined, again.combined, back.combined],
    }
}

/// Rounds over the pool, each slice once per round, alternating between
/// `threads` and one thread (see [`alternate`]). The pool is larger than
/// SAM's embedding cache, so each round's first prompt on a slice misses
/// the cache, as a new slice would.
fn passes(
    inputs: &Inputs,
    threads: usize,
    budget_s: f64,
    min_rounds: usize,
) -> Alternated<Vec<Session>> {
    let z = Zenesis::new(ZenesisConfig::default());
    alternate(threads, budget_s, min_rounds, |_| {
        inputs
            .slices
            .iter()
            .map(|(kind, raw, _)| session(&z, *kind, raw))
            .collect()
    })
}

/// `f` of every session of every round.
fn timings(rounds: &[Vec<Session>], f: impl Fn(&Session) -> f64) -> Vec<f64> {
    rounds.iter().flatten().map(f).collect()
}

pub fn run(args: &Args, inputs: &Inputs, threads: usize) -> Outcome {
    let Alternated { all, one, .. } = passes(inputs, threads, args.seconds * 0.92, 2);

    let mut correct = true;
    let mut failed = 0;
    let labelled = all
        .iter()
        .map(|r| (threads, r))
        .chain(one.iter().map(|r| (1, r)));
    for (r, (n, round)) in labelled.enumerate() {
        for (i, (s, first)) in round.iter().zip(&all[0]).enumerate() {
            if s.masks != first.masks {
                eprintln!(
                    "interactive: round {r} ({n} threads), slice {i}: masks differ from \
                     round 0 at {threads} threads"
                );
                correct = false;
            }
            if s.masks[2] != s.masks[0] {
                eprintln!("interactive: round {r}, slice {i}: re-prompt with the first prompt changed the mask");
                correct = false;
            }
            if s.masks[0].count() == 0 {
                failed += 1;
            }
        }
    }
    let ious: Vec<f64> = all[0]
        .iter()
        .zip(&inputs.slices)
        .map(|(s, (_, _, truth))| s.masks[0].iou(truth))
        .collect();
    let slice = timings(&all, |s| s.slice_ms);
    let reprompt: Vec<f64> = all.iter().flatten().flat_map(|s| s.reprompt_ms).collect();

    let mut e2e = Metrics::default();
    e2e.put("slice_p50_ms", median(&slice), "ms");
    e2e.put(
        "slice_1t_p50_ms",
        median(&timings(&one, |s| s.slice_ms)),
        "ms",
    );
    let mut report = Metrics::default();
    report.put("rounds", all.len() as f64, "count");
    report.put("slice_p95_ms", percentile(&slice, 0.95), "ms");
    report.put("reprompt_p50_ms", median(&reprompt), "ms");
    report.put(
        "mean_iou",
        ious.iter().sum::<f64>() / ious.len() as f64,
        "ratio",
    );
    Outcome {
        correct,
        attempted: ((all.len() + one.len()) * POOL * 3) as u64,
        failed,
        metrics: e2e,
        report,
    }
}

fn session_ms(s: &Session) -> f64 {
    s.slice_ms + s.reprompt_ms.iter().sum::<f64>()
}

/// A session decomposed into per-crate calls (see [`pipeline`]): its
/// three masks and the detections of its three grounding calls.
fn decomposed(z: &Zenesis, kind: SampleKind, raw: &Image<u16>) -> ([BitMask; 3], usize) {
    let prompt = kind.default_prompt();
    let first = pipeline::segment_slice(z, raw, prompt);
    let again = pipeline::segment_adapted(z, &first.adapted, other(kind).default_prompt());
    let back = pipeline::segment_adapted(z, &first.adapted, prompt);
    let detections = first.detections.len() + again.detections.len() + back.detections.len();
    ([first.combined, again.combined, back.combined], detections)
}

/// Traced run: untraced passes at all cores and at one thread, then the
/// same sessions decomposed into per-crate calls, untraced and traced in
/// turn.
pub fn trace(args: &Args, inputs: &Inputs, threads: usize) -> Outcome {
    let p = passes(inputs, threads, args.seconds * 0.45, 1);
    let (cpu_util, cpu_util_1t) = (mean(&p.cpu_util), mean(&p.cpu_util_1t));
    let plain: Vec<Session> = p.all.into_iter().flatten().collect();
    let plain_1t: Vec<Session> = p.one.into_iter().flatten().collect();

    // Each side of a pair has its own pipeline, so each sees the same SAM
    // cache hits.
    let zs = [false, true].map(|_| Zenesis::new(ZenesisConfig::default()));
    let mut tracer = Tracer::default();
    let mut detections = 0;
    let mut correct = true;
    for (i, expected) in plain.iter().enumerate() {
        let (kind, raw, _) = &inputs.slices[i % POOL];
        let (masks, d) = tracer.pair(|traced| decomposed(&zs[traced as usize], *kind, raw));
        detections += d;
        if masks != expected.masks {
            eprintln!("interactive: slice {i}: decomposed pipeline disagrees with the program");
            correct = false;
        }
    }

    let t = Traced {
        tracer: &tracer,
        slices: plain.len(),
        detections,
        width: 1,
        cpu_util,
        cpu_util_1t,
        speedup: median(&plain_1t.iter().map(session_ms).collect::<Vec<_>>())
            / median(&plain.iter().map(session_ms).collect::<Vec<_>>()),
    };
    layers::print_table("interactive", &t);
    Outcome {
        correct,
        attempted: plain.len() as u64 * 3,
        failed: 0,
        metrics: layers::metrics(&t),
        report: Metrics::default(),
    }
}
