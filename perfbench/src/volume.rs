//! `volume`: Mode B jobs over a TIFF stack written at set-up.
//!
//! Each job is `run_job(JobSpec::Batch { input: TiffVolumeFile, .. })`
//! with a mask TIFF output, timed from the call (which opens the TIFF)
//! until the mask TIFF is on disk. One pass runs at all cores, a second
//! at one thread. The timed jobs keep no checkpoint journal: it syncs
//! every record to disk, and on a shared host the disk's sync latency
//! drifts for minutes at a time, which moved whole runs by up to a half.
//! One journaled job per run, untimed, checks the journal, and the traced
//! run times the journal's appends.

use std::path::{Path, PathBuf};
use std::time::Instant;

use zenesis_core::checkpoint::{journal_len, Header, Journal};
use zenesis_core::job::{run_job, InputSpec, JobResult, JobSpec};
use zenesis_core::temporal::refine_boxes;
use zenesis_core::{SliceOutcome, Zenesis, ZenesisConfig};
use zenesis_data::{generate_volume, SampleKind};
use zenesis_image::{BitMask, BoxRegion};
use zenesis_sam::PromptSet;
use zenesis_tiff::{read_mask_tiff, save_mask_volume_tiff, save_tiff_volume_u16, VolumeReader};

use crate::layers::{self, span, Counters, Traced, Tracer};
use crate::pipeline;
use crate::util::{alternate, mean, median, ms_since, Alternated, Metrics, SeedRng};
use crate::{Args, Outcome};

const SIDE: usize = 256;
const DEPTH: usize = 64;
/// Slices with an injected acquisition glitch, so temporal refinement
/// has boxes to replace.
const OUTLIERS: usize = 3;
const KIND: SampleKind = SampleKind::Crystalline;

pub struct Inputs {
    dir: PathBuf,
    stack: PathBuf,
    truths: Vec<BitMask>,
}

pub fn setup(seed: u64) -> Inputs {
    let mut rng = SeedRng::new(seed);
    let volume_seed = rng.next_u64();
    // Outliers away from the first slices, which seed the refinement
    // window.
    let mut outliers: Vec<usize> = Vec::new();
    while outliers.len() < OUTLIERS {
        let z = 8 + (rng.next_u64() % (DEPTH as u64 - 8)) as usize;
        if !outliers.contains(&z) {
            outliers.push(z);
        }
    }
    let v = generate_volume(KIND, SIDE, DEPTH, volume_seed, &outliers);
    let dir = crate::work_dir().join("volume");
    std::fs::create_dir_all(&dir).expect("create the volume work directory");
    let stack = dir.join("stack.tif");
    save_tiff_volume_u16(&v.volume, &stack).expect("write the input TIFF stack");
    Inputs {
        dir,
        stack,
        truths: v.truths,
    }
}

/// One job's wall time and its outputs.
struct Job {
    ms: f64,
    result: JobResult,
    journal_bytes: u64,
}

/// One job; with `journal`, in a fresh checkpoint directory.
fn job(inputs: &Inputs, tag: &str, journal: bool) -> Job {
    let ckpt = inputs.dir.join(format!("ckpt-{tag}"));
    let _ = std::fs::remove_dir_all(&ckpt);
    let spec = JobSpec::Batch {
        input: InputSpec::TiffVolumeFile {
            path: inputs.stack.display().to_string(),
        },
        prompt: KIND.default_prompt().to_string(),
        config: None,
        checkpoint_dir: journal.then(|| ckpt.display().to_string()),
        resume: false,
        masks_out: Some(masks_path(inputs, tag).display().to_string()),
    };
    let t0 = Instant::now();
    let result = run_job(&spec);
    let ms = ms_since(t0);
    let journal_bytes = journal_len(&ckpt);
    let _ = std::fs::remove_dir_all(&ckpt);
    Job {
        ms,
        result,
        journal_bytes,
    }
}

fn masks_path(inputs: &Inputs, tag: &str) -> PathBuf {
    inputs.dir.join(format!("masks-{tag}.tif"))
}

/// Jobs alternating between `threads` and one thread (see
/// [`alternate`]).
fn passes(inputs: &Inputs, threads: usize, budget_s: f64, min_jobs: usize) -> Alternated<Job> {
    alternate(threads, budget_s, min_jobs, |all_cores| {
        job(inputs, if all_cores { "all" } else { "1t" }, false)
    })
}

fn read_masks(path: &Path) -> Result<Vec<BitMask>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    read_mask_tiff(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Check every job against the first one; returns (failed slices,
/// problems).
fn check_jobs(jobs: &[&Job]) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut problems = Vec::new();
    let pixels = |j: &Job| match &j.result {
        JobResult::Volume {
            per_slice_pixels, ..
        } => Some(per_slice_pixels.clone()),
        _ => None,
    };
    let first = jobs.first().and_then(|j| pixels(j));
    for (i, j) in jobs.iter().enumerate() {
        match &j.result {
            JobResult::Volume {
                depth,
                degraded,
                failed: f,
                ..
            } if *depth == DEPTH => failed += (degraded.len() + f.len()) as u64,
            other => problems.push(format!("job {i}: unexpected result {other:?}")),
        }
        if pixels(j) != first {
            problems.push(format!("job {i}: per-slice mask pixels differ from job 0"));
        }
    }
    (failed, problems)
}

/// Each job's wall time per slice.
fn ms_per_slice(jobs: &[Job]) -> Vec<f64> {
    jobs.iter().map(|j| j.ms / DEPTH as f64).collect()
}

pub fn run(args: &Args, inputs: &Inputs, threads: usize) -> Outcome {
    let journaled = job(inputs, "journaled", true);
    let Alternated { all, one, .. } = passes(inputs, threads, args.seconds * 0.85, 2);

    let jobs: Vec<&Job> = [&journaled].into_iter().chain(&all).chain(&one).collect();
    let (failed, mut problems) = check_jobs(&jobs);
    if journaled.journal_bytes == 0 {
        problems.push("the journaled job left an empty checkpoint journal".into());
    }
    let mut iou = 0.0;
    match (
        read_masks(&masks_path(inputs, "all")),
        read_masks(&masks_path(inputs, "1t")),
    ) {
        (Ok(a), Ok(b)) => {
            if a != b {
                problems.push(format!(
                    "mask TIFF at {threads} threads differs from the 1-thread pass"
                ));
            }
            let pages: Vec<usize> = a.iter().map(BitMask::count).collect();
            if !matches!(&all[0].result, JobResult::Volume { per_slice_pixels, .. } if *per_slice_pixels == pages)
            {
                problems
                    .push("mask TIFF pages disagree with the job's per-slice pixel counts".into());
            }
            iou = mean(
                &a.iter()
                    .zip(&inputs.truths)
                    .map(|(m, t)| m.iou(t))
                    .collect::<Vec<_>>(),
            );
        }
        (a, b) => problems.extend(a.err().into_iter().chain(b.err())),
    }
    for p in &problems {
        eprintln!("volume: {p}");
    }

    let slice_ms = median(&ms_per_slice(&all));
    let slice_1t_ms = median(&ms_per_slice(&one));
    let mut e2e = Metrics::default();
    e2e.put("slice_p50_ms", slice_ms, "ms");
    e2e.put("slice_1t_p50_ms", slice_1t_ms, "ms");
    let mut report = Metrics::default();
    report.put("jobs", all.len() as f64, "count");
    report.put("volume_slices_per_s", 1e3 / slice_ms, "1/s");
    report.put("volume_1t_slices_per_s", 1e3 / slice_1t_ms, "1/s");
    report.put("mean_iou", iou, "ratio");
    if let Some(JobResult::Volume { corrections, .. }) = all.first().map(|j| &j.result) {
        report.put("corrections", *corrections as f64, "count");
    }
    Outcome {
        correct: problems.is_empty(),
        attempted: (jobs.len() * DEPTH) as u64,
        failed,
        metrics: e2e,
        report,
    }
}

/// The temporal screen for secondary boxes, as in Mode B's decode pass.
fn is_outlier(b: &BoxRegion, mean_w: f64, mean_h: f64, factor: f64) -> bool {
    let (w, h) = (b.width() as f64, b.height() as f64);
    w > factor * mean_w || h > factor * mean_h || w < mean_w / factor || h < mean_h / factor
}

/// Mode B over the TIFF stack decomposed into per-crate calls: the
/// streamed driver's read → segment → journal stage, temporal
/// refinement, the re-read → re-adapt → decode → journal stage, and the
/// mask TIFF write. Returns the masks and the number of detections.
fn replica(z: &Zenesis, inputs: &Inputs, out: &Path) -> (Vec<BitMask>, usize) {
    let prompt = KIND.default_prompt();
    let reader = VolumeReader::open(&inputs.stack).expect("open the input TIFF stack");
    let (depth, w, h) = (reader.depth(), reader.width(), reader.height());
    let ckpt = inputs.dir.join("ckpt-replica");
    let _ = std::fs::remove_dir_all(&ckpt);
    let config_json = serde_json::to_string(&z.config).expect("config serializes");
    let header = Header::new(depth, w, h, prompt, &config_json);
    let journal = Journal::open(&ckpt, &header, false)
        .expect("open the journal")
        .journal;
    let read = |i: usize| {
        span("bench.tiff.read", || reader.read_slice(i)).expect("read a slice of the input stack")
    };

    let stage1 = zenesis_par::par_map_range(depth, |i| {
        let s = pipeline::segment_slice(z, &read(i), prompt);
        span("bench.core.journal_append", || {
            journal.record_slice(i, &SliceOutcome::Ok, &s.detections, &s.combined)
        });
        s.detections
    });
    let detections = stage1.iter().map(Vec::len).sum();
    let raw_boxes: Vec<Option<BoxRegion>> =
        stage1.iter().map(|d| d.first().map(|d| d.bbox)).collect();
    let (used, _, window_dims) = span("bench.core.temporal_refine", || {
        refine_boxes(&raw_boxes, &z.config.temporal)
    });

    let masks = zenesis_par::par_map_range(depth, |i| {
        let adapted = pipeline::adapt(z, &read(i), false);
        let emb = span("bench.sam.encode", || z.sam().encode_cached(&adapted));
        let decode = |b: BoxRegion| {
            span("bench.sam.decode", || {
                z.sam().segment(&emb, &PromptSet::from_box(b))
            })
        };
        let mut mask = BitMask::new(w, h);
        if let Some(b) = used[i] {
            mask.or_with(&decode(b));
        }
        for d in stage1[i].iter().skip(1) {
            let screened = window_dims[i]
                .is_some_and(|(mw, mh)| is_outlier(&d.bbox, mw, mh, z.config.temporal.size_factor));
            if !screened {
                mask.or_with(&decode(d.bbox));
            }
        }
        span("bench.core.journal_append", || {
            journal.record_mask(i, &mask, false)
        });
        mask
    });
    span("bench.tiff.mask_write", || {
        save_mask_volume_tiff(&masks, out)
    })
    .expect("write the mask TIFF");
    drop(journal);
    let _ = std::fs::remove_dir_all(&ckpt);
    (masks, detections)
}

/// Traced run: untraced jobs at all cores and at one thread, one program
/// job with the program's counters on, then the decomposed replica,
/// untraced and traced in turn.
pub fn trace(args: &Args, inputs: &Inputs, threads: usize) -> Outcome {
    let Alternated {
        all: plain,
        one: plain_1t,
        cpu_util,
        cpu_util_1t,
    } = passes(inputs, threads, args.seconds * 0.4, 1);
    let (cpu_util, cpu_util_1t) = (mean(&cpu_util), mean(&cpu_util_1t));
    let expected = read_masks(&masks_path(inputs, "all"));

    let mut counted = Counters::default();
    let (counted_job, _) = counted.during(|| job(inputs, "counted", true));

    // Each side of a pair has its own pipeline, so each sees the same SAM
    // cache hits.
    let zs = [false, true].map(|_| Zenesis::new(ZenesisConfig::default()));
    let out = inputs.dir.join("masks-replica.tif");
    let mut tracer = Tracer::default();
    let mut detections = 0;
    let mut units = 0;
    let mut correct = matches!(counted_job.result, JobResult::Volume { .. });
    let t_end = Instant::now() + std::time::Duration::from_secs_f64(args.seconds * 0.3);
    while units == 0 || Instant::now() < t_end {
        let (masks, d) = tracer.pair(|traced| replica(&zs[traced as usize], inputs, &out));
        detections += d;
        if expected.as_ref().ok() != Some(&masks) {
            eprintln!("volume: decomposed replica {units} disagrees with the program's masks");
            correct = false;
        }
        units += 1;
    }

    let t = Traced {
        tracer: &tracer,
        slices: units * DEPTH,
        detections,
        width: threads,
        cpu_util,
        cpu_util_1t,
        speedup: median(&plain_1t.iter().map(|j| j.ms).collect::<Vec<_>>())
            / median(&plain.iter().map(|j| j.ms).collect::<Vec<_>>()),
    };
    let totals = tracer.totals();
    let total = |name: &str| totals.get(name).map_or((0.0, 0), |v| (v.0, v.1));
    let slices = (units * DEPTH) as f64;
    let mut report = Metrics::default();
    report.put(
        "tiff.read_ms_per_slice",
        total("bench.tiff.read").0 / slices,
        "ms",
    );
    report.put(
        "tiff.reads_per_slice",
        counted.tiff_slices_read as f64 / DEPTH as f64,
        "count",
    );
    report.put(
        "tiff.mask_write_ms",
        total("bench.tiff.mask_write").0 / units as f64,
        "ms",
    );
    report.put(
        "core.temporal_refine_ms",
        total("bench.core.temporal_refine").0 / units as f64,
        "ms",
    );
    let (append_ms, appends) = total("bench.core.journal_append");
    report.put(
        "core.journal_append_ms",
        append_ms / appends.max(1) as f64,
        "ms",
    );
    report.put(
        "core.journal_bytes",
        counted_job.journal_bytes as f64,
        "bytes",
    );
    layers::print_table("volume", &t);
    Outcome {
        correct,
        attempted: ((plain.len() + plain_1t.len() + 1 + 2 * units) * DEPTH) as u64,
        failed: 0,
        metrics: layers::metrics(&t),
        report,
    }
}
