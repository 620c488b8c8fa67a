//! Per-layer metrics of a traced run, named by crate.
//!
//! Traced runs record `zenesis_obs` spans in the benchmark's own code,
//! around its calls into each crate's public functions; the program gains
//! no instrumentation. The benchmark's span names start with `bench.`,
//! which keeps them apart from the spans the program records itself.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use zenesis_obs::{ObsLevel, SpanId, SpanRecord};

use crate::util::{mean, median, ms_since, ratio, Metrics};

/// Root span of one traced unit of work (a session, a volume, a request).
const UNIT: &str = "bench.unit";
/// Spans directly under a `JOIN` span ran concurrently: only the longest
/// one is on the critical path.
pub const JOIN: &str = "bench.ground|encode";
/// Span names of the layers on a unit's critical path.
const LAYER_SPANS: [&str; 13] = [
    "bench.tiff.read",
    "bench.adapt.destripe",
    "bench.adapt.percentile_stretch",
    "bench.adapt.median",
    "bench.adapt.clahe",
    "bench.adapt.other",
    "bench.ground",
    "bench.sam.encode",
    "bench.sam.decode",
    "bench.image.gate",
    "bench.core.journal_append",
    "bench.core.temporal_refine",
    "bench.tiff.mask_write",
];

/// Run `f` inside span `name`; recorded only while tracing is on.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _s = zenesis_obs::span(name);
    f()
}

/// The program's existing `zenesis_obs` counters the traced run reads.
#[derive(Default)]
pub struct Counters {
    pub cache_hit: u64,
    pub cache_miss: u64,
    pub alloc_reuse: u64,
    pub alloc_fresh: u64,
    pub tiff_slices_read: u64,
}

impl Counters {
    fn read() -> [u64; 5] {
        let c = |name: &'static str| zenesis_obs::counter(name).get();
        [
            c("sam.embed_cache.hit"),
            c("sam.embed_cache.miss"),
            c("tensor.alloc.reuse"),
            c("tensor.alloc.fresh"),
            c("io.tiff.slices_read"),
        ]
    }

    /// Run `f` with recording on and add what the counters moved; the
    /// spans it recorded are returned and cleared from the registry.
    pub fn during<R>(&mut self, f: impl FnOnce() -> R) -> (R, Vec<SpanRecord>) {
        zenesis_obs::set_level(ObsLevel::Spans);
        let before = Counters::read();
        let out = f();
        let after = Counters::read();
        zenesis_obs::set_level(ObsLevel::Off);
        let spans = zenesis_obs::snapshot();
        zenesis_obs::reset_spans();
        let d: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        self.cache_hit += d[0];
        self.cache_miss += d[1];
        self.alloc_reuse += d[2];
        self.alloc_fresh += d[3];
        self.tiff_slices_read += d[4];
        (out, spans)
    }
}

/// The benchmark's spans and the program's counters of every traced
/// unit, and the wall times of the same units run untraced.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<SpanRecord>,
    pub counters: Counters,
    untraced_ms: Vec<f64>,
}

impl Tracer {
    /// Run a unit of work untraced, as `f(false)`, and traced under a
    /// `bench.unit` root span, as `f(true)`; returns the traced result.
    /// The order swaps from one call to the next, so neither side always
    /// runs on the caches the other warmed.
    pub fn pair<R>(&mut self, mut f: impl FnMut(bool) -> R) -> R {
        let traced_first = self.untraced_ms.len() % 2 == 1;
        let untraced = |f: &mut dyn FnMut(bool) -> R| {
            let t0 = Instant::now();
            std::hint::black_box(f(false));
            ms_since(t0)
        };
        if !traced_first {
            self.untraced_ms.push(untraced(&mut f));
        }
        let (out, spans) = self.counters.during(|| span(UNIT, || f(true)));
        self.spans
            .extend(spans.into_iter().filter(|s| s.name.starts_with("bench.")));
        if traced_first {
            self.untraced_ms.push(untraced(&mut f));
        }
        out
    }

    /// Wall milliseconds of each unit, by its root span.
    fn unit_ms(&self) -> Vec<(SpanId, f64)> {
        self.spans
            .iter()
            .filter(|s| s.name == UNIT)
            .map(|s| (s.id, s.dur_ns as f64 / 1e6))
            .collect()
    }

    /// Total milliseconds and call count per span name.
    pub fn totals(&self) -> BTreeMap<&str, (f64, usize)> {
        let mut out: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name != UNIT) {
            let e = out.entry(&*s.name).or_default();
            e.0 += s.dur_ns as f64 / 1e6;
            e.1 += 1;
        }
        out
    }

    /// Critical-path layer milliseconds per unit: the sum of its layer
    /// spans, except that of the spans directly under one `JOIN` span
    /// only the longest counts.
    fn critical_per_unit(&self) -> HashMap<SpanId, f64> {
        let by_id: HashMap<SpanId, &SpanRecord> = self.spans.iter().map(|s| (s.id, s)).collect();
        let unit_of = |s: &SpanRecord| {
            let mut parent = s.parent;
            while let Some(p) = parent.and_then(|p| by_id.get(&p)) {
                if p.name == UNIT {
                    return Some(p.id);
                }
                parent = p.parent;
            }
            None
        };
        let mut out: HashMap<SpanId, f64> = HashMap::new();
        let mut branch_max: HashMap<SpanId, (SpanId, f64)> = HashMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| LAYER_SPANS.contains(&&*s.name))
        {
            let Some(unit) = unit_of(s) else { continue };
            let ms = s.dur_ns as f64 / 1e6;
            match s
                .parent
                .filter(|p| by_id.get(p).is_some_and(|p| p.name == JOIN))
            {
                Some(j) => {
                    let e = branch_max.entry(j).or_insert((unit, 0.0));
                    e.1 = e.1.max(ms);
                }
                None => *out.entry(unit).or_insert(0.0) += ms,
            }
        }
        for (unit, ms) in branch_max.into_values() {
            *out.entry(unit).or_insert(0.0) += ms;
        }
        out
    }
}

/// What a workload's traced run measured.
pub struct Traced<'a> {
    pub tracer: &'a Tracer,
    /// Slices the traced units processed (the per-slice denominator).
    pub slices: usize,
    /// Detections returned by all grounding calls.
    pub detections: usize,
    /// Parallel width of a unit's layer spans (1 unless slices of one
    /// unit run concurrently).
    pub width: usize,
    pub cpu_util: f64,
    pub cpu_util_1t: f64,
    pub speedup: f64,
}

/// The per-layer metrics every workload reports, in the order of
/// `BENCHMARK.json`.
pub fn metrics(t: &Traced) -> Metrics {
    let totals = t.tracer.totals();
    let total = |name: &str| totals.get(name).map_or(0.0, |v| v.0);
    let calls = |name: &str| totals.get(name).map_or(0, |v| v.1) as f64;
    let slices = t.slices as f64;
    let stages = ["destripe", "percentile_stretch", "median", "clahe"];
    let adapt_ms: f64 = stages
        .iter()
        .map(|s| total(&format!("bench.adapt.{s}")))
        .sum::<f64>()
        + total("bench.adapt.other");

    let unit_ms = t.tracer.unit_ms();
    let critical = t.tracer.critical_per_unit();
    let residuals: Vec<f64> = unit_ms
        .iter()
        .map(|(unit, wall)| wall - critical.get(unit).copied().unwrap_or(0.0) / t.width as f64)
        .collect();
    let traced_ms = median(&unit_ms.iter().map(|u| u.1).collect::<Vec<_>>());
    let c = &t.tracer.counters;

    let mut m = Metrics::default();
    m.put("adapt.ms_per_slice", ratio(adapt_ms, slices), "ms");
    for s in stages {
        m.put(
            format!("adapt.stage_ms.{s}"),
            ratio(total(&format!("bench.adapt.{s}")), slices),
            "ms",
        );
    }
    m.put(
        "image.gate_ms",
        ratio(total("bench.image.gate"), calls("bench.image.gate")),
        "ms",
    );
    m.put(
        "ground.ms_per_call",
        ratio(total("bench.ground"), calls("bench.ground")),
        "ms",
    );
    m.put(
        "ground.detections_per_call",
        ratio(t.detections as f64, calls("bench.ground")),
        "count",
    );
    m.put(
        "sam.encode_ms",
        ratio(total("bench.sam.encode"), c.cache_miss as f64),
        "ms",
    );
    m.put(
        "sam.decode_ms_per_box",
        ratio(total("bench.sam.decode"), calls("bench.sam.decode")),
        "ms",
    );
    m.put(
        "sam.boxes_per_slice",
        ratio(calls("bench.sam.decode"), slices),
        "count",
    );
    m.put(
        "sam.embed_cache_hit_ratio",
        ratio(c.cache_hit as f64, (c.cache_hit + c.cache_miss) as f64),
        "ratio",
    );
    m.put(
        "tensor.alloc_reuse_ratio",
        ratio(c.alloc_reuse as f64, (c.alloc_reuse + c.alloc_fresh) as f64),
        "ratio",
    );
    m.put("par.cpu_util", t.cpu_util, "ratio");
    m.put("par.speedup", t.speedup, "ratio");
    m.put("core.unattributed_ms", mean(&residuals), "ms");
    m.put(
        "obs.tracing_overhead_pct",
        (ratio(traced_ms, median(&t.tracer.untraced_ms)) - 1.0) * 100.0,
        "%",
    );
    m
}

/// Print each layer's busy time and the residual as a table.
pub fn print_table(workload: &str, t: &Traced) {
    let unit_ms: Vec<f64> = t.tracer.unit_ms().iter().map(|u| u.1).collect();
    let units = unit_ms.len().max(1) as f64;
    println!(
        "# traced run: {workload} ({} units, {} slices)",
        unit_ms.len(),
        t.slices
    );
    println!(
        "# {:<32} {:>12} {:>8} {:>14}",
        "span", "busy_ms", "calls", "busy_ms/unit"
    );
    for (name, (ms, n)) in t.tracer.totals() {
        println!("# {name:<32} {ms:>12.3} {n:>8} {:>14.3}", ms / units);
    }
    println!(
        "# {:<32} {:>12.3} (mean wall ms per unit, traced)",
        "unit.wall",
        mean(&unit_ms)
    );
    println!(
        "# {:<32} {:>12.3} (median wall ms per unit, tracing off)",
        "unit.wall.untraced",
        median(&t.tracer.untraced_ms)
    );
    println!(
        "# par.cpu_util per pass: all cores {:.3}, 1t {:.3}",
        t.cpu_util, t.cpu_util_1t
    );
}
