//! Seeded inputs shared by every workload: the pipeline configuration,
//! the granule fleet on disk, the trained models, and the products the
//! fleet classifies into.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use icesat_atl03::{io as granule_io, Beam};
use seaice::pipeline::{Pipeline, PipelineConfig};
use seaice::stages::{CuratedTrack, LabeledDataset, TrainedModels};
use seaice::{BeamProducts, FleetDriver};
use seaice_catalog::GridConfig;
use seaice_products::{enrich_fleet, BeamThickness, ClimatologySnow, ThicknessRetrieval};
use sparklite::{Cluster, StageReport};

use crate::trace::Tracer;

/// Granules in the fleet (three strong beams each).
pub const GRANULES: usize = 4;

/// Per-layer values a workload measured, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Full-scale granule geometry: a 20 km track over a 22 km scene.
pub fn config(seed: u64) -> PipelineConfig {
    let mut cfg = PipelineConfig::ross_sea(seed);
    cfg.track_length_m = 20_000.0;
    cfg.scene.half_extent_m = 11_000.0;
    cfg
}

/// The catalog grid: a 40 km half-extent domain at quadtree level 5
/// (32×32 tiles of 2.5 km) with 8×8 cells of 312.5 m per tile.
pub fn grid(cfg: &PipelineConfig) -> GridConfig {
    GridConfig::new(cfg.scene.center, cfg.track_length_m * 2.0, 5, 8).expect("valid grid")
}

/// Threads the fleet cluster runs on (one executor, `nproc` cores).
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The granule fleet on disk plus the models trained for it.
pub struct Fleet {
    pub cfg: PipelineConfig,
    pub sources: Vec<(PathBuf, Beam)>,
    pub models: TrainedModels,
    pub photons: usize,
}

/// Writes the fleet under `dir` and trains one `TrainedModels`
/// (curate → label → fit) on a small coincident track of the same seed.
pub fn fleet(seed: u64, dir: &Path, tracer: &Tracer, layers: &mut Layers) -> Fleet {
    let cfg = config(seed);
    let timed = |name: &'static str, layers: &mut Layers, f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        tracer.span(name, 0, 0, |_| f());
        layers.insert(name, t0.elapsed().as_secs_f64());
    };
    let mut sources = Vec::new();
    timed("core.write_fleet_s", layers, &mut || {
        let pipeline = Pipeline::new(cfg.clone());
        sources = FleetDriver::write_fleet(&pipeline, dir, GRANULES).expect("fleet files");
    });
    let mut track = None;
    timed("core.curate_s", layers, &mut || {
        track = Some(CuratedTrack::curate(PipelineConfig::small(seed)));
    });
    let track = track.expect("curated");
    let mut labeled = None;
    timed("core.label_s", layers, &mut || {
        labeled = Some(LabeledDataset::label(&track))
    });
    let labeled = labeled.expect("labeled");
    let mut models = None;
    timed("nn.train_s", layers, &mut || {
        models = Some(TrainedModels::fit(&track, &labeled));
    });
    layers.insert("nn.train_rows", track.segments.len() as f64);
    let mut photons = 0usize;
    let mut files: Vec<&PathBuf> = sources.iter().map(|(p, _)| p).collect();
    files.dedup();
    for path in files {
        let granule = granule_io::read_file(path).expect("granule readable");
        photons += Beam::STRONG
            .iter()
            .filter_map(|b| granule.beam(*b))
            .map(|b| b.photons.len())
            .sum::<usize>();
    }
    Fleet {
        cfg,
        sources,
        models: models.expect("trained"),
        photons,
    }
}

/// One `classify_run` over the fleet on `cluster`.
pub fn classify(fleet: &Fleet, cluster: Cluster) -> (Vec<BeamProducts>, StageReport) {
    FleetDriver::new(cluster, &fleet.cfg).classify_run(&fleet.sources, &fleet.models)
}

/// Snow depth + hydrostatic thickness for every beam.
pub fn enrich(products: &[BeamProducts]) -> Vec<BeamThickness> {
    enrich_fleet(
        products,
        &ClimatologySnow::antarctic(),
        &ThicknessRetrieval::default(),
    )
    .expect("thickness enrichment")
}

/// Points of `beams` that fall inside the grid domain.
pub fn in_domain(grid: &GridConfig, beams: &[BeamThickness]) -> usize {
    use icesat_geo::{GeoPoint, EPSG_3976};
    beams
        .iter()
        .flat_map(|b| &b.points)
        .filter(|p| {
            grid.locate(EPSG_3976.forward(GeoPoint::new(p.lat, p.lon)))
                .is_some()
        })
        .count()
}

/// A scratch directory inside the benchmark's own tree, emptied first.
pub fn fresh_dir(path: PathBuf) -> PathBuf {
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).expect("scratch dir");
    path
}

/// Total bytes of the files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
