//! The `produce` workload, and the per-layer replay of the produce path
//! that every traced run performs.
//!
//! A timed pass is `FleetDriver::classify_run` over the fleet on a
//! one-executor cluster of `nproc` cores, then `enrich_fleet`, then the
//! thickness ingest of every beam into a fresh catalog. It loads every
//! produce layer and no serve layer.

use std::path::Path;
use std::time::Instant;

use icesat_atl03::{io as granule_io, preprocess_beam, resample_2m};
use seaice::seasurface::{SeaSurface, SeaSurfaceMethod};
use seaice::stages::TrainedModels;
use seaice::{Artifact, BeamProducts, FreeboardProduct};
use seaice_catalog::obs::parse_exposition;
use seaice_catalog::{Catalog, GridConfig, QuerySummary, TimeKey, TimeRange};
use sparklite::Cluster;

use crate::inputs::{self, Fleet, Layers};
use crate::report::{Outcome, Setup};
use crate::stats::{cpu_s, median, percentile};
use crate::trace::Tracer;

/// What a correct build of the fleet holds: the single-executor
/// reference build's whole-domain summary and per-layer ledgers.
struct Reference {
    summary: QuerySummary,
    ledgers: Vec<(TimeKey, Vec<u64>)>,
    in_domain: usize,
    tiles: usize,
}

fn ledgers(catalog: &Catalog) -> Vec<(TimeKey, Vec<u64>)> {
    catalog
        .layers()
        .into_iter()
        .map(|t| (t, catalog.layer_ledger(t)))
        .collect()
}

pub struct State {
    fleet: Fleet,
    grid: GridConfig,
    reference: Reference,
    reference_products: Vec<BeamProducts>,
}

pub fn setup(seed: u64, dir: &Path, tracer: &Tracer, layers: &mut Layers) -> State {
    let fleet = inputs::fleet(seed, &dir.join("fleet"), tracer, layers);
    let grid = inputs::grid(&fleet.cfg);
    let (products, _) = inputs::classify(&fleet, Cluster::new(1, 1));
    let beams = inputs::enrich(&products);
    let catalog = Catalog::create(&dir.join("reference"), grid).expect("reference catalog");
    catalog
        .ingest_thickness_products(&beams)
        .expect("reference ingest");
    let reference = Reference {
        summary: catalog
            .query_rect(&grid.domain(), TimeRange::all())
            .expect("reference summary"),
        ledgers: ledgers(&catalog),
        in_domain: inputs::in_domain(&grid, &beams),
        tiles: catalog.stats().expect("reference stats").n_tiles,
    };
    State {
        fleet,
        grid,
        reference,
        reference_products: products,
    }
}

fn same_summary(a: &QuerySummary, b: &QuerySummary) -> bool {
    crate::serve::summary_bits(a) == crate::serve::summary_bits(b)
}

pub fn run(state: &State, setup: Setup, seconds: f64, dir: &Path, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::new(setup);
    let fleet = &state.fleet;
    let threads = inputs::threads();
    let traced = tracer.on();
    let domain = state.grid.domain();
    let n_beams = fleet.sources.len();

    let mut pass_s: Vec<(bool, f64)> = Vec::new();
    let mut pass_cpu_s: Vec<f64> = Vec::new();
    // Per pass: the median beam's landing time and the last one's.
    let mut landed_p50_ms: Vec<f64> = Vec::new();
    let mut landed_last_ms: Vec<f64> = Vec::new();
    let mut load_s = Vec::new();
    let mut reduce_s = Vec::new();
    let mut passes_ok = 0usize;
    let start = Instant::now();
    let mut pass = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        pass += 1;
        // The traced run alternates traced and untraced passes, so the
        // tracing overhead is measured on the same process and data.
        let trace_this = traced && pass.is_multiple_of(2);
        tracer.set_on(trace_this);
        let store = inputs::fresh_dir(dir.join("pass"));
        let c0 = cpu_s();
        let t0 = Instant::now();
        let mut landed = Vec::with_capacity(n_beams);
        let catalog = tracer.span("produce.pass", 0, pass, |pid| {
            let (products, report) = tracer.span("sparklite.classify_run", pid, pass, |_| {
                inputs::classify(fleet, Cluster::new(1, threads))
            });
            load_s.push(report.times.load_s);
            reduce_s.push(report.times.reduce_s);
            let beams = tracer.span("products.enrich_fleet", pid, pass, |_| {
                inputs::enrich(&products)
            });
            let catalog = Catalog::create(&store, state.grid).expect("pass catalog");
            for beam in &beams {
                tracer.span("catalog.ingest_thickness_beam", pid, pass, |_| {
                    catalog.ingest_thickness_beam(beam).expect("pass ingest")
                });
                landed.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            catalog
        });
        let elapsed = t0.elapsed().as_secs_f64();
        pass_cpu_s.push(cpu_s() - c0);
        pass_s.push((trace_this, elapsed));
        landed_p50_ms.push(percentile(&landed, 0.5));
        landed_last_ms.push(percentile(&landed, 1.0));

        // Output check (outside the timed pass): the parallel build must
        // equal the single-executor reference bit for bit.
        let summary = catalog
            .query_rect(&domain, TimeRange::all())
            .expect("pass summary");
        let ok = same_summary(&summary, &state.reference.summary)
            && ledgers(&catalog) == state.reference.ledgers
            && summary.n_samples == state.reference.in_domain;
        out.attempted += n_beams as u64;
        if ok {
            passes_ok += 1;
        } else {
            out.failed += n_beams as u64;
        }
    }
    tracer.set_on(traced);
    out.check(
        "parallel builds equal the single-executor reference",
        passes_ok == pass_s.len(),
    );

    let rates: Vec<f64> = pass_s
        .iter()
        .map(|&(_, s)| inputs::GRANULES as f64 / s)
        .collect();
    // CPU time per granule, the median over passes: what a pass costs,
    // leaving out the time the host gave to other work. The wall-clock
    // rate is a per-layer value.
    let granules = inputs::GRANULES as f64;
    let cpu_ms: Vec<f64> = pass_cpu_s.iter().map(|s| s * 1e3 / granules).collect();
    out.e2e("cpu_ms_per_op", median(&cpu_ms));
    out.layers.insert("throughput_per_s", median(&rates));
    // Medians over passes, so one slow pass moves one value, not the
    // result. The tail is the last beam of a pass: when the whole fleet
    // is queryable.
    out.layers.insert("p50_ms", median(&landed_p50_ms));
    out.layers.insert("tail_ms", median(&landed_last_ms));
    out.tail(1.0, n_beams);
    out.info("input.granules", inputs::GRANULES);
    out.info("input.beams", n_beams);
    out.info("input.photons", fleet.photons);
    out.info("input.samples", state.reference.in_domain);
    out.info("store.tiles", state.reference.tiles);
    out.info("store.layers", state.reference.ledgers.len());
    out.info("cluster.threads", threads);
    out.info("produce.passes", pass_s.len());
    let secs: Vec<f64> = pass_s.iter().map(|p| p.1).collect();
    out.info("produce.pass_s", format!("{secs:.3?}"));
    out.info("produce.pass_cpu_s", format!("{pass_cpu_s:.3?}"));
    out.info(
        "produce.op",
        "one (granule, beam) thickness product landed in the catalog; latency from pass start; \
         p50 and tail (last beam) are medians over passes",
    );

    out.layers.insert("sparklite.load_s", median(&load_s));
    out.layers.insert("sparklite.reduce_s", median(&reduce_s));
    if traced {
        let plain: Vec<f64> = pass_s.iter().filter(|p| !p.0).map(|p| p.1).collect();
        let with: Vec<f64> = pass_s.iter().filter(|p| p.0).map(|p| p.1).collect();
        if !plain.is_empty() && !with.is_empty() {
            out.layers.insert(
                "trace_overhead_pct",
                100.0 * (median(&with) / median(&plain) - 1.0),
            );
        }
        let ok = replay(
            fleet,
            state.grid,
            &state.reference_products,
            dir,
            tracer,
            &mut out.layers,
        );
        out.check("per-layer replay reproduces the fleet products", ok);
    }
    out
}

/// Replays the fleet through the public per-layer calls, one span each,
/// and lands the result in a fresh catalog. Fills the produce-layer
/// metrics; returns whether the replay reproduced `expect` exactly.
pub fn replay(
    fleet: &Fleet,
    grid: GridConfig,
    expect: &[BeamProducts],
    dir: &Path,
    tracer: &Tracer,
    layers: &mut Layers,
) -> bool {
    let cfg = &fleet.cfg;
    let bytes = fleet.models.to_bytes().to_vec();
    let mut ms = Layers::new();
    let mut products = Vec::with_capacity(fleet.sources.len());
    let root = tracer.id();
    let root_t0 = tracer.now();
    // Times one layer call into `ms[name]` (milliseconds) and records
    // its span under the replay root.
    let timed = |ms: &mut Layers, name: &'static str, req: u64, f: &mut dyn FnMut()| {
        let id = tracer.id();
        let start = tracer.now();
        let t0 = Instant::now();
        f();
        add(ms, name, t0.elapsed().as_secs_f64() * 1e3);
        tracer.record(id, name, root, req, start, tracer.now());
    };
    for (i, (path, beam)) in fleet.sources.iter().enumerate() {
        let req = i as u64 + 1;
        let mut granule = None;
        timed(&mut ms, "atl03.read_ms", req, &mut || {
            granule = Some(granule_io::read_file(path).expect("granule readable"))
        });
        let granule = granule.expect("read");
        let data = granule.beam(*beam).expect("beam present");
        let mut pre = None;
        timed(&mut ms, "atl03.preprocess_ms", req, &mut || {
            pre = Some(preprocess_beam(data, &cfg.preprocess))
        });
        add(&mut ms, "atl03.photons", data.photons.len() as f64);
        let mut segments = Vec::new();
        timed(&mut ms, "atl03.resample_ms", req, &mut || {
            segments = resample_2m(pre.as_ref().expect("preprocessed"), &cfg.resample)
        });
        add(&mut ms, "atl03.segments", segments.len() as f64);
        let mut models = None;
        timed(&mut ms, "core.model_decode_ms", req, &mut || {
            models = Some(TrainedModels::from_bytes(&bytes).expect("models decode"))
        });
        let mut models = models.expect("decoded");
        let mut classes = Vec::new();
        timed(&mut ms, "nn.infer_ms", req, &mut || {
            classes = models.classify(&segments)
        });
        add(&mut ms, "nn.infer_rows", segments.len() as f64);
        let mut surface = None;
        timed(&mut ms, "core.seasurface_ms", req, &mut || {
            surface = Some(SeaSurface::compute_with_floor_fallback(
                &segments,
                &classes,
                SeaSurfaceMethod::NasaEquation,
                &cfg.window,
            ))
        });
        let surface = surface.expect("surface");
        let mut freeboard = None;
        timed(&mut ms, "core.freeboard_ms", req, &mut || {
            freeboard = Some(FreeboardProduct::from_segments(
                "fleet 2m", &segments, &classes, &surface,
            ))
        });
        let mut class_counts = [0usize; 3];
        for c in &classes {
            class_counts[c.index()] += 1;
        }
        products.push(BeamProducts {
            granule_id: granule.meta.granule_id(),
            beam: *beam,
            n_segments: segments.len(),
            class_counts,
            freeboard: freeboard.expect("freeboard"),
        });
    }
    let mut beams = Vec::new();
    timed(&mut ms, "products.thickness_ms", 0, &mut || {
        beams = inputs::enrich(&products)
    });

    let store = inputs::fresh_dir(dir.join("replay_store"));
    let catalog = Catalog::create(&store, grid).expect("replay catalog");
    let before = parse_exposition(&catalog.expose());
    let mut report = None;
    timed(&mut ms, "catalog.ingest_ms", 0, &mut || {
        report = Some(
            catalog
                .ingest_thickness_products(&beams)
                .expect("replay ingest"),
        )
    });
    let report = report.expect("ingested");
    tracer.record(root, "produce.replay", 0, 0, root_t0, tracer.now());
    let after = parse_exposition(&catalog.expose());
    for (stage, name) in [
        ("project", "catalog.ingest_stage_us.project"),
        ("merge", "catalog.ingest_stage_us.merge"),
        ("persist", "catalog.ingest_stage_us.persist"),
        ("ledger", "catalog.ingest_stage_us.ledger"),
    ] {
        let key = format!("ingest_stage_us_sum_us{{stage=\"{stage}\"}}");
        let diff =
            after.get(&key).copied().unwrap_or(0.0) - before.get(&key).copied().unwrap_or(0.0);
        add(&mut ms, name, diff);
    }
    add(&mut ms, "catalog.ingest_samples", report.n_samples as f64);
    add(&mut ms, "catalog.tiles_written", report.n_tiles as f64);
    let disk = inputs::dir_bytes(&store.join("tiles")) as f64;
    add(
        &mut ms,
        "catalog.bytes_per_sample",
        disk / report.n_samples.max(1) as f64,
    );
    let beams_replayed = fleet.sources.len().max(1) as f64;
    ms.insert(
        "core.model_decode_ms",
        ms["core.model_decode_ms"] / beams_replayed,
    );

    // Busy share of the cluster: per-beam compute the reduce stage runs,
    // over the reduce stage's wall time on every thread.
    let per_beam: f64 = [
        "atl03.preprocess_ms",
        "atl03.resample_ms",
        "nn.infer_ms",
        "core.seasurface_ms",
        "core.freeboard_ms",
    ]
    .iter()
    .map(|k| ms[k])
    .sum();
    if let Some(&reduce) = layers.get("sparklite.reduce_s") {
        let denom = reduce * 1e3 * inputs::threads() as f64;
        if denom > 0.0 {
            ms.insert("sparklite.efficiency", per_beam / denom);
        }
    }
    layers.extend(ms);
    drop(catalog);
    let _ = std::fs::remove_dir_all(&store);
    products.len() == expect.len()
        && products.iter().zip(expect).all(|(a, b)| {
            a.granule_id == b.granule_id
                && a.beam == b.beam
                && a.class_counts == b.class_counts
                && format!("{:?}", a.freeboard.points) == format!("{:?}", b.freeboard.points)
        })
}

fn add(ms: &mut Layers, name: &'static str, v: f64) {
    *ms.entry(name).or_insert(0.0) += v;
}
