//! Result assembly: metrics by name and unit, provenance, the results
//! file, and the one-line JSON verdict printed last.

use std::fmt::Write as _;
use std::path::Path;

use crate::inputs::Layers;
use crate::stats::{beyond, median};

/// End-to-end metrics every workload reports (untraced runs). Both are
/// CPU times: on a shared 2-core host, wall-clock rates and latencies
/// of the same code swung by more than any bound between runs, so they
/// are per-layer (see `README.md`).
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("cpu_ms_per_op", "ms")];

/// Per-layer metrics every traced run reports. A layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Wall-clock rate and latency of the workload's operations: granules
    // per second and beam landing on `produce`; the highest ladder rate
    // that meets the latency limit, and reads at the nominal rate, on the
    // serve workloads. Wall-clock set-up time.
    ("throughput_per_s", "1/s"),
    ("setup_wall_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    // Produce path (replayed per fleet; setup on the serve workloads).
    ("atl03.read_ms", "ms"),
    ("atl03.preprocess_ms", "ms"),
    ("atl03.photons", "count"),
    ("atl03.resample_ms", "ms"),
    ("atl03.segments", "count"),
    ("core.model_decode_ms", "ms"),
    ("nn.infer_ms", "ms"),
    ("nn.infer_rows", "count"),
    ("core.seasurface_ms", "ms"),
    ("core.freeboard_ms", "ms"),
    ("products.thickness_ms", "ms"),
    ("sparklite.load_s", "s"),
    ("sparklite.reduce_s", "s"),
    ("sparklite.efficiency", "ratio"),
    ("core.write_fleet_s", "s"),
    ("core.curate_s", "s"),
    ("core.label_s", "s"),
    ("nn.train_s", "s"),
    ("nn.train_rows", "count"),
    ("catalog.ingest_ms", "ms"),
    ("catalog.ingest_samples", "count"),
    ("catalog.tiles_written", "count"),
    ("catalog.bytes_per_sample", "bytes"),
    ("catalog.ingest_stage_us.project", "us"),
    ("catalog.ingest_stage_us.merge", "us"),
    ("catalog.ingest_stage_us.persist", "us"),
    ("catalog.ingest_stage_us.ledger", "us"),
    // Serve path.
    ("client.submit_us.rect", "us"),
    ("client.submit_us.cells", "us"),
    ("client.submit_us.point", "us"),
    ("client.wait_us.rect", "us"),
    ("client.wait_us.cells", "us"),
    ("client.wait_us.point", "us"),
    ("wire.request_bytes.rect", "bytes"),
    ("wire.request_bytes.cells", "bytes"),
    ("wire.request_bytes.point", "bytes"),
    ("wire.response_bytes.rect", "bytes"),
    ("wire.response_bytes.cells", "bytes"),
    ("wire.response_bytes.point", "bytes"),
    ("catalog.partials_us.rect", "us"),
    ("catalog.partials_us.cells", "us"),
    ("catalog.partials_us.point", "us"),
    ("catalog.fold_us", "us"),
    ("catalog.samples_per_cell", "ratio"),
    ("catalog.interior_cell_share", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_rate", "ratio"),
    ("tile.decode_us", "us"),
    ("tile.bytes_read", "bytes"),
    ("server.request_us.rect.p50", "us"),
    ("server.request_us.rect.p99", "us"),
    ("server.request_us.cells.p50", "us"),
    ("server.request_us.cells.p99", "us"),
    ("server.request_us.point.p50", "us"),
    ("server.request_us.point.p99", "us"),
    ("server.queue_depth.max", "count"),
    ("server.in_flight.max", "count"),
    ("router.fanout", "count"),
    ("router.routed_us", "us"),
    ("router.max_shard_us", "us"),
    ("server.ingest_us", "us"),
    ("catalog.replace_ms", "ms"),
    ("write.p50_ms", "ms"),
    ("write.p90_ms", "ms"),
    ("write.count", "count"),
    ("client.retries", "count"),
    ("router.degraded", "count"),
    ("server.errors", "count"),
    ("generator.late_p99_ms", "ms"),
    ("read.p99_ms", "ms"),
    // Tracing itself.
    ("trace_overhead_pct", "%"),
    ("untraced_share", "ratio"),
];

/// Wall and CPU times of the repeated set-ups of one run, and the layer
/// metrics the kept set-up measured.
pub struct Setup {
    pub times_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub layers: Layers,
}

/// Everything one workload run measured and checked.
pub struct Outcome {
    pub setup: Setup,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    pub e2e: Vec<(&'static str, f64)>,
    pub layers: Layers,
    pub info: Vec<(String, String)>,
}

impl Outcome {
    pub fn new(mut setup: Setup) -> Outcome {
        let setup_s = median(&setup.cpu_s);
        let mut layers = std::mem::take(&mut setup.layers);
        layers.insert("setup_wall_s", median(&setup.times_s));
        Outcome {
            setup,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            e2e: vec![("setup_s", setup_s)],
            layers,
            info: Vec::new(),
        }
    }

    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks.push((what.to_string(), ok));
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.push((name, value));
    }

    pub fn info(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Records which percentile `tail_ms` is and how many samples stand
    /// behind it and beyond it (per window, where windowed).
    pub fn tail(&mut self, q: f64, n: usize) {
        self.info("tail.percentile", q * 100.0);
        self.info("tail.samples", n);
        self.info("tail.samples_beyond", beyond(n, q));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Renders the human-readable report and the final JSON line; writes the
/// report to `results`. Fails when a metric the contract requires is
/// missing or not finite.
pub fn emit(
    out: &Outcome,
    traced: bool,
    provenance: &[(String, String)],
    results: &Path,
) -> Result<String, String> {
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    let mut valid = true;
    if traced {
        for &(name, unit) in PER_LAYER {
            let v = out.layers.get(name).copied().unwrap_or(0.0);
            valid &= v.is_finite();
            metrics.push((name, unit, v));
        }
    } else {
        for &(name, unit) in &END_TO_END {
            let Some(&(_, v)) = out.e2e.iter().find(|(n, _)| *n == name) else {
                return Err(format!("end-to-end metric {name} was not measured"));
            };
            valid &= v.is_finite() && v > 0.0;
            metrics.push((name, unit, v));
        }
    }
    let mut text = String::new();
    for (k, v) in provenance.iter().chain(&out.info) {
        let _ = writeln!(text, "  {k}: {v}");
    }
    let _ = writeln!(text, "  setup runs, wall (s): {:?}", out.setup.times_s);
    let _ = writeln!(text, "  setup runs, CPU (s): {:?}", out.setup.cpu_s);
    for (what, ok) in &out.checks {
        let _ = writeln!(
            text,
            "  check {}: {what}",
            if *ok { "ok  " } else { "FAIL" }
        );
    }
    let _ = writeln!(
        text,
        "  operations: {} attempted, {} failed",
        out.attempted, out.failed
    );
    for (name, unit, v) in &metrics {
        let _ = writeln!(text, "  {name} = {v} {unit}");
    }
    if !traced {
        // Per-layer values an untraced run measured anyway (latency
        // percentiles, write latency, set-up stages): printed, not gated.
        for &(name, unit) in PER_LAYER {
            if let Some(v) = out.layers.get(name) {
                let _ = writeln!(text, "  {name} = {v} {unit} (per-layer)");
            }
        }
    }
    if let Some(dir) = results.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let _ = std::fs::write(results, &text);

    let correct = valid && out.attempted > 0 && out.correct();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    let json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
    Ok(format!("{text}{json}"))
}
