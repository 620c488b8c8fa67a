//! Mode A decomposed into its per-crate calls, each inside a benchmark
//! span, for traced runs.
//!
//! The calls and their order mirror `Zenesis::segment_slice` and
//! `Zenesis::segment_adapted`; the traced run checks that the mask built
//! here equals the one the program returns for the same input, so the
//! layer times are those of the program's own work.

use std::sync::Arc;

use zenesis_core::Zenesis;
use zenesis_image::morphology::{dilate, Structuring};
use zenesis_image::{BitMask, Image, Pixel};
use zenesis_sam::{Polarity, PromptSet};

use crate::layers::{span, JOIN};

fn stage_span(name: &str) -> &'static str {
    match name {
        "destripe" => "bench.adapt.destripe",
        "percentile_stretch" => "bench.adapt.percentile_stretch",
        "median" => "bench.adapt.median",
        "clahe" => "bench.adapt.clahe",
        _ => "bench.adapt.other",
    }
}

/// The configured adaptation, one span per `AdaptStage::apply`.
pub fn adapt(z: &Zenesis, raw: &Image<f32>, provenance: bool) -> Image<f32> {
    let mut cur = raw.clone();
    for stage in &z.config.adapt.stages {
        cur = span(stage_span(stage.name()), || stage.apply(&cur));
        if provenance {
            // The per-stage statistics `segment_slice` keeps as provenance.
            std::hint::black_box((cur.min_max(), cur.mean_norm()));
        }
    }
    cur
}

pub struct Segmented {
    pub adapted: Arc<Image<f32>>,
    pub combined: BitMask,
    pub detections: Vec<zenesis_ground::Detection>,
}

/// `Zenesis::segment_slice`: raw pixels → adapted image → mask.
pub fn segment_slice<T: Pixel>(z: &Zenesis, raw: &Image<T>, prompt: &str) -> Segmented {
    let adapted = Arc::new(adapt(z, &raw.to_f32(), true));
    segment_adapted(z, &adapted, prompt)
}

/// `Zenesis::segment_adapted`: grounding ‖ encode, one decode per box,
/// then the relevance gate.
pub fn segment_adapted(z: &Zenesis, adapted: &Arc<Image<f32>>, prompt: &str) -> Segmented {
    let (w, h) = adapted.dims();
    let (grounding, emb) = span(JOIN, || {
        zenesis_par::join(
            || span("bench.ground", || z.dino().ground(adapted, prompt)),
            || span("bench.sam.encode", || z.sam().encode_cached(adapted)),
        )
    });
    let polarity = if grounding.dark_polarity {
        Polarity::Dark
    } else {
        Polarity::Bright
    };
    let mut combined = BitMask::new(w, h);
    for d in &grounding.detections {
        let prompts = PromptSet::from_box(d.bbox).with_polarity(polarity);
        combined.or_with(&span("bench.sam.decode", || {
            z.sam().segment(&emb, &prompts)
        }));
    }
    if let Some(floor) = z.config.relevance_floor {
        let support = span("bench.image.gate", || {
            let support = BitMask::from_threshold(&grounding.relevance_full(w, h), floor);
            dilate(&support, Structuring::Square(grounding.patch / 2))
        });
        combined.and_with(&support);
    }
    // The full-resolution relevance map every `SliceResult` carries.
    std::hint::black_box(grounding.relevance_full(w, h));
    Segmented {
        adapted: Arc::clone(adapted),
        combined,
        detections: grounding.detections,
    }
}
