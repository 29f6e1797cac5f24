//! The serve workloads.
//!
//! - `serve_hot`: seeded reads against one `CatalogServer` whose tile
//!   cache holds every tile, over one connection in the closed loop and
//!   `nproc` pipelined connections (at most 4) in the open loop. The
//!   fold, wire and server queue do the work; there is no disk, router
//!   or write.
//! - `serve_sharded_rw`: reads through a 2-shard `ShardRouter` over
//!   quadkey-prefix shard servers whose tile caches are several times
//!   smaller than their tile sets, beside a stream of served
//!   `IngestMode::Replace` re-ingests of beams the shards already hold.
//!
//! Each run spends 60% of `--seconds` in a closed loop that measures
//! CPU time per operation (`cpu_ms_per_op`), 20% at the workload's
//! nominal rate (latency percentiles, timed from when each read was
//! due) and 20% searching a fixed rate ladder for the rate at which a
//! step meets the workload's tail-latency limit, with no failure and no
//! growing backlog, about half the time.

use std::collections::{BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use icesat_geo::{GeoPoint, MapPoint, EPSG_3976};
use seaice::{Artifact, BeamProducts};
use seaice_catalog::client::partition_thickness;
use seaice_catalog::obs::parse_exposition;
use seaice_catalog::wire::{
    batch_ranges, Request, Response, BATCH_RECORDS, FRAME_HEADER_BYTES, MAX_BATCH_BYTES,
};
use seaice_catalog::{
    Catalog, CatalogClient, CatalogError, CatalogOptions, CatalogServer, CellSummary, ClientConfig,
    GridConfig, IngestMode, MapRect, Pending, QuerySummary, ServerConfig, ShardRouter, ShardSpec,
    Tile, TileCache, TileKey, TilePartial, TileScope, TimeKey, TimeRange,
};
use seaice_products::BeamThickness;
use sparklite::Cluster;

use crate::inputs::{self, Fleet, Layers};
use crate::report::{Outcome, Setup};
use crate::stats::{cpu_s, median, percentile, Rng};
use crate::trace::Tracer;

/// The fixed parameters of one serve workload.
pub struct Spec {
    /// Reads per second in the latency phase.
    pub nominal_qps: f64,
    /// The tail latency a ladder step must meet, milliseconds.
    pub tail_limit_ms: f64,
    /// Served Replace writes per second (0: none).
    pub write_qps: f64,
    /// Largest rect side as a share of the domain side.
    pub max_side: f64,
    pub sharded: bool,
    /// Reads per closed-loop chunk (see `capacity`).
    pub chunk_reads: u64,
}

pub const HOT: Spec = Spec {
    nominal_qps: 600.0,
    tail_limit_ms: 40.0,
    write_qps: 0.0,
    max_side: 0.5,
    sharded: false,
    chunk_reads: 2000,
};

pub const SHARDED_RW: Spec = Spec {
    nominal_qps: 100.0,
    tail_limit_ms: 40.0,
    write_qps: 5.0,
    max_side: 0.25,
    sharded: true,
    chunk_reads: 200,
};

/// The tail percentile reported and judged. p99 swung between runs of
/// the same code by more than any bound allows on a 2-core host; it is
/// kept as the per-layer `read.p99_ms`.
const TAIL_Q: f64 = 0.95;
/// The percentile a ladder probe is judged on: a probe holds 100 to 200
/// reads on `serve_sharded_rw`, too few for a steady p95.
const JUDGE_Q: f64 = 0.9;
/// Share of `--seconds` spent in the closed loop that measures CPU time
/// per operation, and at the nominal rate (in `SEGMENTS` segments); the
/// rest searches the ladder.
const CAPACITY_SHARE: f64 = 0.6;
const NOMINAL_SHARE: f64 = 0.2;
const SEGMENTS: usize = 4;
/// Reads the closed loop keeps in flight on its one connection.
const PIPELINE: usize = 8;
/// The ladder search: a bisection of the whole ladder, then a
/// staircase of longer probes that starts at the bisection's answer and
/// steps up after a probe that meets the limit, down after one that
/// misses it (see `Search`).
const COARSE_PROBES: usize = 8;
const STAIR_PROBES: usize = 10;
/// A coarse probe lasts half a staircase probe: far from the answer its
/// verdict is clear, and the staircase corrects a wrong one.
const COARSE_WEIGHT: f64 = 0.5;
/// Distinct queries in the seeded pool the stream reads, a power of two
/// (see `Stream::index`).
const POOL: usize = 1024;
/// Monthly layers the sharded store holds (2019-06 .. 2019-11).
const MONTHS: u8 = 6;
/// Tile-cache capacity of each shard server (one stripe, so exact).
const SHARD_CACHE: usize = 16;
/// Per-request deadline of every client: a read slower than this fails.
const DEADLINE: Duration = Duration::from_secs(10);

/// The fixed rate ladder shared by both serve workloads: 5% steps from
/// 20 to ~40k reads per second.
pub fn ladder() -> Vec<f64> {
    let mut steps = vec![20.0f64];
    while *steps.last().expect("non-empty") < 40_000.0 {
        let next = steps.last().expect("non-empty") * 1.05;
        steps.push(next);
    }
    steps
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Rect,
    Cells,
    Point,
}

const KINDS: [Kind; 3] = [Kind::Rect, Kind::Cells, Kind::Point];
/// Read mix shares, in `KINDS` order.
const SHARES: [f64; 3] = [0.6, 0.25, 0.15];

impl Kind {
    fn server_kind(self) -> &'static str {
        match self {
            Kind::Rect => "query_rect",
            Kind::Cells => "query_cells",
            Kind::Point => "query_point",
        }
    }
    fn index(self) -> usize {
        KINDS.iter().position(|k| *k == self).expect("known kind")
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Query {
    kind: Kind,
    rect: MapRect,
    point: GeoPoint,
    time: TimeRange,
}

#[derive(Debug)]
pub enum Answer {
    Summary(QuerySummary),
    Cells(Vec<CellSummary>),
    Point(Option<CellSummary>),
}

/// Every field of a summary as raw bits.
pub fn summary_bits(s: &QuerySummary) -> [u64; 15] {
    [
        s.n_samples as u64,
        s.class_counts[0] as u64,
        s.class_counts[1] as u64,
        s.class_counts[2] as u64,
        s.n_ice as u64,
        s.mean_ice_freeboard_m.to_bits(),
        s.min_freeboard_m.to_bits(),
        s.max_freeboard_m.to_bits(),
        s.n_tiles as u64,
        s.n_cells as u64,
        s.n_thickness as u64,
        s.mean_thickness_m.to_bits(),
        s.ivw_mean_thickness_m.to_bits(),
        s.thickness_sigma_m.to_bits(),
        0,
    ]
}

fn cell_bits(c: &CellSummary) -> [u64; 19] {
    let a = &c.agg;
    [
        c.tile.level as u64,
        c.tile.x as u64,
        c.tile.y as u64,
        c.cell as u64,
        c.center.x.to_bits(),
        c.center.y.to_bits(),
        a.n,
        a.class_counts[0],
        a.class_counts[1],
        a.class_counts[2],
        a.ice_n,
        a.ice_sum_m.to_bits(),
        a.min_freeboard_m.to_bits(),
        a.max_freeboard_m.to_bits(),
        a.t_n,
        a.t_sum_m.to_bits(),
        a.t_w_sum.to_bits(),
        a.t_wt_sum.to_bits(),
        a.t_p95_m.to_bits(),
    ]
}

/// FNV-1a over every bit of an answer: equal fingerprints mean a
/// bit-identical answer (up to hash collisions).
fn fingerprint(answer: &Answer) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    match answer {
        Answer::Summary(s) => summary_bits(s).into_iter().for_each(&mut eat),
        Answer::Cells(cells) => {
            eat(1);
            eat(cells.len() as u64);
            cells.iter().flat_map(cell_bits).for_each(&mut eat);
        }
        Answer::Point(p) => {
            eat(2);
            p.iter().flat_map(cell_bits).for_each(&mut eat);
        }
    }
    h
}

fn answer_in_process(catalog: &Catalog, q: &Query) -> Result<Answer, CatalogError> {
    Ok(match q.kind {
        Kind::Rect => Answer::Summary(catalog.query_rect(&q.rect, q.time)?),
        Kind::Cells => Answer::Cells(catalog.query_cells(&q.rect, q.time)?),
        Kind::Point => Answer::Point(catalog.query_point(q.point, q.time)?),
    })
}

/// A submitted read: a pipelined handle, or an answer already in hand
/// (the router answers synchronously).
enum Ticket {
    Summary(Pending<QuerySummary>),
    Cells(Pending<Vec<CellSummary>>),
    Point(Pending<Option<CellSummary>>),
    Ready(Result<Answer, CatalogError>),
}

trait Reader: Send {
    fn submit(&mut self, q: &Query) -> Result<Ticket, CatalogError>;
    fn finish(&mut self, t: Ticket) -> Result<Answer, CatalogError>;
}

impl Reader for CatalogClient {
    fn submit(&mut self, q: &Query) -> Result<Ticket, CatalogError> {
        Ok(match q.kind {
            Kind::Rect => Ticket::Summary(self.submit_query_rect(&q.rect, q.time)?),
            Kind::Cells => Ticket::Cells(self.submit_query_cells(&q.rect, q.time)?),
            Kind::Point => Ticket::Point(self.submit_query_point(q.point, q.time)?),
        })
    }
    fn finish(&mut self, t: Ticket) -> Result<Answer, CatalogError> {
        match t {
            Ticket::Summary(p) => self.wait(p).map(Answer::Summary),
            Ticket::Cells(p) => self.wait(p).map(Answer::Cells),
            Ticket::Point(p) => self.wait(p).map(Answer::Point),
            Ticket::Ready(r) => r,
        }
    }
}

impl Reader for ShardRouter {
    fn submit(&mut self, q: &Query) -> Result<Ticket, CatalogError> {
        Ok(Ticket::Ready(match q.kind {
            Kind::Rect => self.query_rect(&q.rect, q.time).map(Answer::Summary),
            Kind::Cells => self.query_cells(&q.rect, q.time).map(Answer::Cells),
            Kind::Point => self.query_point(q.point, q.time).map(Answer::Point),
        }))
    }
    fn finish(&mut self, t: Ticket) -> Result<Answer, CatalogError> {
        match t {
            Ticket::Ready(r) => r,
            _ => Err(CatalogError::Protocol(
                "router tickets are answered on submit".into(),
            )),
        }
    }
}

/// The read stream: a seeded pool of distinct queries, read in a fixed
/// order.
struct Stream {
    pool: Vec<Query>,
    truth: Vec<u64>,
    /// Stream positions used so far (phases continue the stream).
    next: u64,
}

impl Stream {
    /// The pool entry read at stream position `i`: the pool in
    /// bit-reversed order, so every run of 2^k reads draws evenly from
    /// each kind and size stratum, and a seed changes where reads land,
    /// not how much work a run of them holds.
    fn index(&self, i: u64) -> usize {
        let bits = POOL.trailing_zeros();
        ((i % POOL as u64) as usize).reverse_bits() >> (usize::BITS - bits)
    }
}

/// The seeded query pool. Kinds and rect sizes are stratified (fixed
/// shares, sizes log-uniform from one cell to `max_side` of the
/// domain), and each rect is centred on a seeded sample, so seeds vary
/// where reads land, not how much work the mix holds.
fn make_pool(
    seed: u64,
    grid: &GridConfig,
    beams: &[BeamThickness],
    layers: &[TimeKey],
    spec: &Spec,
) -> Vec<Query> {
    let mut rng = Rng::new(seed ^ 0x5E7E_0001);
    let points: Vec<_> = beams.iter().flat_map(|b| &b.points).collect();
    let domain = grid.domain();
    let side = domain.max.x - domain.min.x;
    let (lo, hi) = (grid.cell_size_m().ln(), (spec.max_side * side).ln());
    let mut pool = Vec::with_capacity(POOL);
    for (kind, share) in KINDS.iter().zip(SHARES) {
        let n = (share * POOL as f64).round() as usize;
        for j in 0..n {
            let anchor = points[rng.below(points.len())];
            let m = EPSG_3976.forward(GeoPoint::new(anchor.lat, anchor.lon));
            let s = (lo + (j as f64 + rng.unit()) / n as f64 * (hi - lo)).exp();
            let rect = MapRect::new(
                MapPoint::new(m.x - s / 2.0, m.y - s / 2.0),
                MapPoint::new(m.x + s / 2.0, m.y + s / 2.0),
            );
            // A multi-layer store is read one monthly layer at a time: a
            // six-layer read costs six times a one-layer read, and that
            // spread of service times alone made the tail and the ladder
            // answer swing between runs. The layers rotate, so the
            // working set is still every layer's tiles.
            let time = if layers.len() > 1 {
                TimeRange::only(layers[rng.below(layers.len())])
            } else {
                TimeRange::all()
            };
            pool.push(Query {
                kind: *kind,
                rect,
                point: GeoPoint::new(anchor.lat, anchor.lon),
                time,
            });
        }
    }
    assert_eq!(pool.len(), POOL, "the shares fill the pool");
    pool
}

/// Re-lands `beams` under monthly granule ids `2019-06 + m`.
fn monthly(beams: &[BeamThickness], month: u8) -> Vec<BeamThickness> {
    beams
        .iter()
        .map(|b| {
            let mut b = b.clone();
            b.granule_id = format!("2019{:02}{}", 6 + month, &b.granule_id[6..]);
            b
        })
        .collect()
}

pub struct State {
    spec: &'static Spec,
    fleet: Fleet,
    grid: GridConfig,
    products: Vec<BeamProducts>,
    stream: Stream,
    /// Served catalogs (one for `serve_hot`, one per shard) and their
    /// directories, scopes and cache capacities.
    catalogs: Vec<Arc<Catalog>>,
    dirs: Vec<PathBuf>,
    scopes: Vec<TileScope>,
    cache: (usize, usize),
    servers: Vec<CatalogServer>,
    clients: Vec<CatalogClient>,
    router: Option<ShardRouter>,
    writers: Vec<CatalogClient>,
    /// Served writes: (shard, beam part) re-ingested with Replace.
    writes: Vec<(usize, BeamThickness)>,
    truth_catalog: Arc<Catalog>,
    tiles: usize,
    samples: usize,
    layers: usize,
}

fn connect(addr: &str) -> CatalogClient {
    CatalogClient::connect_with(
        addr,
        ClientConfig {
            request_deadline: Some(DEADLINE),
            ..ClientConfig::default()
        },
    )
    .expect("client connects")
}

pub fn setup(
    spec: &'static Spec,
    seed: u64,
    dir: &Path,
    tracer: &Tracer,
    layers: &mut Layers,
) -> State {
    let fleet = inputs::fleet(seed, &dir.join("fleet"), tracer, layers);
    let grid = inputs::grid(&fleet.cfg);
    let (products, report) = inputs::classify(&fleet, Cluster::new(1, inputs::threads()));
    layers.insert("sparklite.load_s", report.times.load_s);
    layers.insert("sparklite.reduce_s", report.times.reduce_s);
    let beams = inputs::enrich(&products);

    let (catalogs, dirs, scopes, cache, truth_catalog, writes, months);
    if spec.sharded {
        scopes = vec![
            TileScope::of(&["0", "1"]).expect("scope"),
            TileScope::of(&["2", "3"]).expect("scope"),
        ];
        let layered: Vec<Vec<BeamThickness>> = (0..MONTHS).map(|m| monthly(&beams, m)).collect();
        let truth = Catalog::create_with(
            &dir.join("truth"),
            grid,
            CatalogOptions {
                cache_capacity: 4096,
                ..CatalogOptions::default()
            },
        )
        .expect("truth catalog");
        let mut parts = Vec::new();
        for layer in &layered {
            truth
                .ingest_thickness_products(layer)
                .expect("truth ingest");
            for beam in layer {
                for (j, part) in partition_thickness(&grid, &scopes, beam)
                    .into_iter()
                    .enumerate()
                {
                    if !part.points.is_empty() {
                        parts.push((j, part));
                    }
                }
            }
        }
        dirs = vec![dir.join("shard0"), dir.join("shard1")];
        for (j, d) in dirs.iter().enumerate() {
            let shard = Catalog::create(d, grid).expect("shard catalog");
            for (_, part) in parts.iter().filter(|(k, _)| *k == j) {
                shard.ingest_thickness_beam(part).expect("shard ingest");
            }
        }
        cache = (SHARD_CACHE, 1);
        truth_catalog = Some(Arc::new(truth));
        writes = parts;
        months = MONTHS as usize;
    } else {
        scopes = vec![TileScope::all()];
        dirs = vec![dir.join("store")];
        let store = Catalog::create(&dirs[0], grid).expect("store");
        store
            .ingest_thickness_products(&beams)
            .expect("store ingest");
        let n_tiles = store.stats().expect("stats").n_tiles;
        // Eight stripes of at least 4× the tile count: no stripe can
        // overflow, so every read after warm-up is a cache hit.
        cache = ((8 * n_tiles).max(256), 8);
        writes = Vec::new();
        // The served store is its own truth.
        truth_catalog = None;
        months = 1;
    }
    catalogs = dirs
        .iter()
        .map(|d| {
            Arc::new(
                Catalog::open_with(
                    d,
                    CatalogOptions {
                        cache_capacity: cache.0,
                        cache_stripes: cache.1,
                        ..CatalogOptions::default()
                    },
                )
                .expect("reopen served catalog"),
            )
        })
        .collect::<Vec<_>>();
    let truth_catalog = truth_catalog.unwrap_or_else(|| Arc::clone(&catalogs[0]));
    let stats = truth_catalog.stats().expect("stats");
    let layer_keys = truth_catalog.layers();
    let pool = make_pool(seed, &grid, &beams, &layer_keys, spec);
    // Warm every tile once, then compute the truth in process.
    truth_catalog
        .query_time_range(TimeRange::all())
        .expect("warm");
    let truth: Vec<u64> = pool
        .iter()
        .map(|q| fingerprint(&answer_in_process(&truth_catalog, q).expect("truth answer")))
        .collect();

    let servers: Vec<CatalogServer> = catalogs
        .iter()
        .map(|c| {
            CatalogServer::serve_with(
                Arc::clone(c),
                "127.0.0.1:0",
                // One worker per core: the generator shares the host.
                ServerConfig {
                    allow_writes: spec.sharded,
                    workers: inputs::threads(),
                    ..ServerConfig::default()
                },
            )
            .expect("server starts")
        })
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
    let (clients, router, writers) = if spec.sharded {
        let specs: Vec<ShardSpec> = addrs
            .iter()
            .zip(&scopes)
            .map(|(a, s)| ShardSpec {
                addr: a.clone(),
                scope: s.clone(),
            })
            .collect();
        let router = ShardRouter::connect(&specs).expect("router connects");
        (
            Vec::new(),
            Some(router),
            addrs.iter().map(|a| connect(a)).collect(),
        )
    } else {
        let n = inputs::threads().min(4);
        (
            (0..n).map(|_| connect(&addrs[0])).collect(),
            None,
            Vec::new(),
        )
    };
    let mut state = State {
        spec,
        fleet,
        grid,
        products,
        stream: Stream {
            pool,
            truth,
            next: 0,
        },
        catalogs,
        dirs,
        scopes,
        cache,
        servers,
        clients,
        router,
        writers,
        writes,
        truth_catalog,
        tiles: stats.n_tiles,
        samples: stats.n_samples,
        layers: months,
    };
    // Warm the connections (the truth pass already warmed the caches).
    let warm: Vec<Query> = state.stream.pool.iter().step_by(16).copied().collect();
    for (i, q) in warm.iter().enumerate() {
        let _ = with_reader(&mut state, i, |r| r.submit(q).and_then(|t| r.finish(t)));
    }
    state
}

fn with_reader<R>(state: &mut State, i: usize, f: impl FnOnce(&mut dyn Reader) -> R) -> R {
    match &mut state.router {
        Some(router) => f(router),
        None => {
            let n = state.clients.len();
            f(&mut state.clients[i % n])
        }
    }
}

/// One read's timeline, seconds from the phase start.
#[derive(Debug, Clone, Copy)]
struct Rec {
    kind: Kind,
    due: f64,
    sent: f64,
    submitted: f64,
    wait_start: f64,
    done: f64,
    ok: bool,
    mismatch: bool,
}

impl Rec {
    fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

fn sleep_until(t0: Instant, at: f64) {
    loop {
        let now = t0.elapsed().as_secs_f64();
        if now >= at {
            return;
        }
        // Sleep wakes up late by up to a millisecond or more on a busy
        // host: sleep to within 2 ms of the deadline, then yield.
        let left = at - now;
        if left > 0.002 {
            std::thread::sleep(Duration::from_secs_f64(left - 0.002));
        } else {
            std::thread::yield_now();
        }
    }
}

/// One generator thread: sends its share of the stream on schedule,
/// pipelining when the reader allows, and collects each answer once
/// nothing is due. At most `max_inflight` reads are outstanding, and
/// nothing is sent after `cutoff`: reads still unsent then are counted
/// (second value), so an overloaded step ends on time.
#[allow(clippy::too_many_arguments)]
fn generate(
    reader: &mut dyn Reader,
    stream: &Stream,
    base: u64,
    first: u64,
    step: u64,
    n: u64,
    rate: f64,
    cutoff: f64,
    max_inflight: usize,
    t0: Instant,
    tracer: &Tracer,
) -> (Vec<Rec>, u64) {
    let mut recs = Vec::with_capacity((n / step + 1) as usize);
    let mut inflight: VecDeque<(u64, Rec, Result<Ticket, CatalogError>)> = VecDeque::new();
    let mut next = first;
    let now = || t0.elapsed().as_secs_f64();
    let mut unsent = 0u64;
    loop {
        let due = next as f64 / rate;
        if next < n && now() >= cutoff {
            unsent = (n - next).div_ceil(step);
            next = n;
        }
        if next < n && due <= now() && inflight.len() < max_inflight {
            let q = &stream.pool[stream.index(base + next)];
            let sent = now();
            let ticket = reader.submit(q);
            let answered = matches!(ticket, Ok(Ticket::Ready(_)));
            let rec = Rec {
                kind: q.kind,
                due,
                sent,
                submitted: now(),
                wait_start: 0.0,
                done: 0.0,
                ok: false,
                mismatch: false,
            };
            inflight.push_back((base + next, rec, ticket));
            next += step;
            // A synchronous reader has answered already: collect the read
            // now, so that its latency ends when its answer arrived.
            if !answered {
                continue;
            }
        }
        if let Some((pos, mut rec, ticket)) = inflight.pop_front() {
            rec.wait_start = now();
            let answer = ticket.and_then(|t| reader.finish(t));
            rec.done = now();
            match answer {
                Ok(a) => {
                    rec.mismatch = fingerprint(&a) != stream.truth[stream.index(pos)];
                    rec.ok = !rec.mismatch;
                }
                Err(_) => rec.ok = false,
            }
            if tracer.on() {
                let at = |s: f64| tracer.at(t0) + s;
                let root = tracer.id();
                let req = pos + 1;
                // Between submit and wait the read is in flight (wire,
                // server queue, cache, store) while the generator serves
                // other reads. No span covers it: the server-side layers
                // are not broken down from outside, so it counts as
                // untraced.
                for (name, a, b) in [
                    ("generator.lag", rec.due, rec.sent),
                    ("client.submit", rec.sent, rec.submitted),
                    ("client.wait", rec.wait_start, rec.done),
                ] {
                    tracer.record(tracer.id(), name, root, req, at(a), at(b));
                }
                tracer.record(root, "read", 0, req, at(rec.due), at(rec.done));
            }
            recs.push(rec);
            continue;
        }
        if next >= n {
            return (recs, unsent);
        }
        sleep_until(t0, due);
    }
}

/// Runs the read stream at `rate` for `seconds` (longer if that holds
/// fewer than 20 reads) over every reader. Returns every read's record
/// once all have completed, the count of reads the generator could not
/// send before the cutoff (the end of the phase plus the tail limit),
/// and the phase's length.
fn open_loop(state: &mut State, rate: f64, seconds: f64, tracer: &Tracer) -> (Vec<Rec>, u64, f64) {
    let n = ((rate * seconds).round() as u64).max(20);
    let seconds = n as f64 / rate;
    let base = state.stream.next;
    state.stream.next += n;
    let stream = &state.stream;
    let t0 = Instant::now();
    let mut readers: Vec<&mut dyn Reader> = match &mut state.router {
        Some(r) => vec![r as &mut dyn Reader],
        None => state
            .clients
            .iter_mut()
            .map(|c| c as &mut dyn Reader)
            .collect(),
    };
    let step = readers.len() as u64;
    let limit_s = state.spec.tail_limit_ms / 1e3;
    let cutoff = seconds + limit_s;
    let max_inflight = (rate * limit_s / step as f64).ceil() as usize + 4;
    let (mut recs, mut unsent) = (Vec::new(), 0);
    std::thread::scope(|s| {
        let handles: Vec<_> = readers
            .iter_mut()
            .enumerate()
            .map(|(k, r)| {
                s.spawn(move || {
                    generate(
                        *r,
                        stream,
                        base,
                        k as u64,
                        step,
                        n,
                        rate,
                        cutoff,
                        max_inflight,
                        t0,
                        tracer,
                    )
                })
            })
            .collect();
        for h in handles {
            let (r, u) = h.join().expect("generator thread");
            recs.extend(r);
            unsent += u;
        }
    });
    recs.sort_by(|a, b| a.due.total_cmp(&b.due));
    (recs, unsent, seconds)
}

/// Reads due by `t` that had not completed by `t`.
fn backlog(recs: &[Rec], t: f64) -> usize {
    recs.iter().filter(|r| r.due <= t && r.done > t).count()
}

struct Step {
    rate: f64,
    tail_ms: f64,
    failed: usize,
    backlog_mid: usize,
    backlog_end: usize,
    unsent: u64,
    pass: bool,
}

/// Windows (at most 8) a phase of `n` reads splits into so that each
/// holds at least ten reads beyond the `q` percentile.
fn windows(n: usize, q: f64) -> usize {
    ((n as f64 * (1.0 - q) / 10.0).floor() as usize).clamp(1, 8)
}

/// The median over equal-length windows (by due time) of the `q`
/// percentile of read latency: one stall moves one window, not the
/// result.
fn windowed(recs: &[Rec], seconds: f64, q: f64, n_windows: usize) -> f64 {
    let per: Vec<f64> = (0..n_windows)
        .map(|w| {
            let (a, b) = (
                w as f64 * seconds / n_windows as f64,
                (w + 1) as f64 * seconds / n_windows as f64,
            );
            let lat: Vec<f64> = recs
                .iter()
                .filter(|r| r.due >= a && (r.due < b || w + 1 == n_windows))
                .map(Rec::latency_ms)
                .collect();
            percentile(&lat, q)
        })
        .collect();
    median(&per)
}

fn judge(recs: &[Rec], unsent: u64, rate: f64, seconds: f64, spec: &Spec, conns: usize) -> Step {
    let tail_ms = windowed(recs, seconds, JUDGE_Q, windows(recs.len(), JUDGE_Q));
    let failed = recs.iter().filter(|r| !r.ok).count();
    let backlog_mid = backlog(recs, seconds / 2.0);
    let backlog_end = backlog(recs, seconds);
    // The backlog a step holds, sampled at eight points of its second
    // half; the median ignores a stall at one instant.
    let held: Vec<f64> = (0..8)
        .map(|k| backlog(recs, seconds * (0.5 + k as f64 / 14.0)) as f64)
        .collect();
    // Reads due but unanswered include those in flight; a step whose
    // every read met the limit holds at most `rate × limit` of them.
    let allowed = (rate * spec.tail_limit_ms / 1e3).ceil() as usize + conns;
    let growing = unsent > 0 || median(&held) > allowed as f64;
    Step {
        rate,
        tail_ms,
        failed,
        backlog_mid,
        backlog_end,
        unsent,
        pass: failed == 0 && tail_ms <= spec.tail_limit_ms && !growing,
    }
}

/// The state of one run's ladder search.
struct Search {
    /// Bisection bounds: rung `lo` met the limit (-1: none probed yet),
    /// rung `hi` missed it (`len`: none probed yet).
    lo: i64,
    hi: i64,
    /// Staircase probes in order: (rung, met the limit).
    stair: Vec<(usize, bool)>,
    /// The rung the staircase probes next.
    at: usize,
    top: usize,
}

impl Search {
    fn new(rungs: usize) -> Search {
        Search {
            lo: -1,
            hi: rungs as i64,
            stair: Vec::new(),
            at: 0,
            top: rungs - 1,
        }
    }

    fn coarse_next(&self) -> Option<usize> {
        (self.hi - self.lo > 1).then(|| ((self.lo + self.hi) / 2) as usize)
    }

    fn coarse_record(&mut self, rung: usize, pass: bool) {
        if pass {
            self.lo = rung as i64;
        } else {
            self.hi = rung as i64;
        }
        self.at = self.lo.max(0) as usize;
    }

    /// One rung up after a probe that met the limit, one down after one
    /// that missed it; two when the verdict repeats the previous one, so
    /// the walk from a wrong bisection answer is short.
    fn stair_record(&mut self, rung: usize, pass: bool) {
        let repeat = self.stair.last().is_some_and(|s| s.1 == pass);
        self.stair.push((rung, pass));
        let by = if repeat { 2 } else { 1 };
        self.at = if pass {
            (rung + by).min(self.top)
        } else {
            rung.saturating_sub(by)
        };
    }

    /// The rate at which a step meets the limit about half the time:
    /// the median rung of the staircase probes from its first reversal
    /// on, so the walk from the bisection's answer to that rate does not
    /// count. Every rung it reports was probed.
    fn answer(&self, ladder: &[f64]) -> f64 {
        let first = self.stair.first().map(|s| s.1);
        let from = self
            .stair
            .iter()
            .position(|s| Some(s.1) != first)
            .unwrap_or(0);
        let rates: Vec<f64> = self.stair[from..].iter().map(|&(r, _)| ladder[r]).collect();
        median(&rates)
    }
}

/// What the closed loop measured.
struct Capacity {
    /// CPU milliseconds per operation (read or write), one per chunk.
    cpu_ms_per_op: Vec<f64>,
    reads: Vec<Rec>,
    /// Latency of each served write, call to reply, milliseconds.
    write_ms: Vec<f64>,
    writes_failed: usize,
    seconds: f64,
}

/// The closed loop: chunks of `chunk_reads` reads from the seeded
/// stream, over one connection that keeps `PIPELINE` reads in flight
/// (the router, one read at a time, on `serve_sharded_rw`), until
/// `seconds` have passed. On `serve_sharded_rw` a served Replace write
/// follows every `nominal_qps / write_qps` reads, the nominal mix. A
/// chunk does a fixed amount of work, so its CPU time per operation
/// does not depend on how fast the host ran it; nothing sleeps or spins
/// while waiting. Every answer is checked against the truth.
fn capacity(state: &mut State, seconds: f64) -> Capacity {
    let spec = state.spec;
    let reads_per_write = if spec.write_qps > 0.0 {
        (spec.nominal_qps / spec.write_qps).round() as u64
    } else {
        0
    };
    let mut next = state.stream.next;
    let State {
        stream,
        router,
        clients,
        writers,
        writes,
        ..
    } = state;
    let reader: &mut dyn Reader = match router {
        Some(r) => r,
        None => &mut clients[0],
    };
    let mut out = Capacity {
        cpu_ms_per_op: Vec::new(),
        reads: Vec::new(),
        write_ms: Vec::new(),
        writes_failed: 0,
        seconds: 0.0,
    };
    let t0 = Instant::now();
    let now = || t0.elapsed().as_secs_f64();
    type Flight = (u64, Rec, Result<Ticket, CatalogError>);
    let collect = |reader: &mut dyn Reader, (pos, mut rec, ticket): Flight| {
        rec.wait_start = now();
        let answer = ticket.and_then(|t| reader.finish(t));
        rec.done = now();
        if let Ok(a) = answer {
            rec.mismatch = fingerprint(&a) != stream.truth[stream.index(pos)];
            rec.ok = !rec.mismatch;
        }
        rec
    };
    while out.cpu_ms_per_op.is_empty() || now() < seconds {
        let base = next;
        next += spec.chunk_reads;
        let mut ops = 0u64;
        let mut inflight: VecDeque<Flight> = VecDeque::new();
        let c0 = cpu_s();
        for pos in base..base + spec.chunk_reads {
            let q = &stream.pool[stream.index(pos)];
            let sent = now();
            let ticket = reader.submit(q);
            let rec = Rec {
                kind: q.kind,
                due: sent,
                sent,
                submitted: now(),
                wait_start: 0.0,
                done: 0.0,
                ok: false,
                mismatch: false,
            };
            inflight.push_back((pos, rec, ticket));
            if inflight.len() >= PIPELINE {
                let done = inflight.pop_front().expect("in flight");
                out.reads.push(collect(reader, done));
            }
            ops += 1;
            if reads_per_write > 0 && (pos + 1) % reads_per_write == 0 {
                let (shard, part) = &writes[out.write_ms.len() % writes.len()];
                let sent = now();
                let r = writers[*shard].ingest_thickness_beam_with(part, IngestMode::Replace);
                out.write_ms.push((now() - sent) * 1e3);
                let ok = matches!(r, Ok(rep) if rep.n_samples == part.points.len() && rep.n_replaced == part.points.len());
                out.writes_failed += usize::from(!ok);
                ops += 1;
            }
        }
        while let Some(done) = inflight.pop_front() {
            out.reads.push(collect(reader, done));
        }
        out.cpu_ms_per_op.push((cpu_s() - c0) * 1e3 / ops as f64);
    }
    out.seconds = now();
    state.stream.next = next;
    out
}

/// Served Replace writes at a fixed rate until `stop`; returns each
/// write's latency from when it was due and whether it succeeded.
fn write_loop(
    writers: &mut [CatalogClient],
    writes: &[(usize, BeamThickness)],
    rate: f64,
    stop: &AtomicBool,
    tracer: &Tracer,
) -> Vec<(f64, bool)> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    let mut i = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let due = i as f64 / rate;
        sleep_until(t0, due);
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let (shard, part) = &writes[i as usize % writes.len()];
        let start = tracer.now();
        let r = writers[*shard].ingest_thickness_beam_with(part, IngestMode::Replace);
        let done = t0.elapsed().as_secs_f64();
        tracer.record(tracer.id(), "write", 0, 0, start, tracer.now());
        let ok = matches!(r, Ok(rep) if rep.n_samples == part.points.len() && rep.n_replaced == part.points.len());
        out.push(((done - due) * 1e3, ok));
        i += 1;
    }
    out
}

/// Samples the servers' queue-depth and in-flight gauges until `stop`.
fn sample_gauges(servers: &[CatalogServer], stop: &AtomicBool) -> (i64, i64) {
    let gauges: Vec<_> = servers
        .iter()
        .map(|s| {
            (
                s.registry().gauge("server_worker_queue_depth"),
                s.registry().gauge("server_requests_in_flight"),
            )
        })
        .collect();
    let (mut queue, mut inflight) = (0i64, 0i64);
    while !stop.load(Ordering::Relaxed) {
        for (q, f) in &gauges {
            queue = queue.max(q.get());
            inflight = inflight.max(f.get());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    (queue, inflight)
}

fn scrape(clients: &mut [CatalogClient]) -> Vec<std::collections::BTreeMap<String, f64>> {
    clients
        .iter_mut()
        .map(|c| parse_exposition(&c.introspect().unwrap_or_default()))
        .collect()
}

fn diff_sum(
    before: &[std::collections::BTreeMap<String, f64>],
    after: &[std::collections::BTreeMap<String, f64>],
    key: &str,
) -> f64 {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| a.get(key).copied().unwrap_or(0.0) - b.get(key).copied().unwrap_or(0.0))
        .sum()
}

pub fn run(mut state: State, setup: Setup, seconds: f64, dir: &Path, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::new(setup);
    let spec = state.spec;
    let traced = tracer.on();
    let conns = if spec.sharded { 1 } else { state.clients.len() };

    // Introspection goes over dedicated connections opened now (the
    // generator connections stay busy with the stream).
    let addrs: Vec<String> = state.servers.iter().map(|s| s.addr().to_string()).collect();
    let mut probes: Vec<CatalogClient> = addrs.iter().map(|a| connect(a)).collect();
    let before = scrape(&mut probes);
    let router_before = state
        .router
        .as_ref()
        .map(|r| parse_exposition(&r.registry().expose()));

    // The closed loop runs first, while no writer or sampler thread adds
    // work of its own to the CPU time it measures.
    let cap = capacity(&mut state, seconds * CAPACITY_SHARE);
    out.e2e("cpu_ms_per_op", median(&cap.cpu_ms_per_op));
    out.info("capacity.chunks", cap.cpu_ms_per_op.len());
    out.info("capacity.chunk_reads", spec.chunk_reads);
    out.info("capacity.pipeline", if spec.sharded { 1 } else { PIPELINE });
    out.info("capacity.reads", cap.reads.len());
    out.info("capacity.writes", cap.write_ms.len());
    out.info("capacity.reads_per_s", cap.reads.len() as f64 / cap.seconds);
    out.info(
        "capacity.cpu_ms_per_op",
        format!("{:.5?}", cap.cpu_ms_per_op),
    );

    let stop = AtomicBool::new(false);
    let nominal_s = seconds * NOMINAL_SHARE;
    let segment_s = nominal_s / SEGMENTS as f64;
    let ladder_s = seconds - nominal_s - seconds * CAPACITY_SHARE;
    let mut writers = std::mem::take(&mut state.writers);
    let writes = std::mem::take(&mut state.writes);
    let servers = std::mem::take(&mut state.servers);
    let (segments, nominal_unsent, steps, write_recs, gauges) = std::thread::scope(|s| {
        let writer = (spec.write_qps > 0.0).then(|| {
            let (w, ws, stop) = (&mut writers, &writes, &stop);
            s.spawn(move || write_loop(w, ws, spec.write_qps, stop, tracer))
        });
        let sampler = traced.then(|| {
            let (sv, stop) = (&servers, &stop);
            s.spawn(move || sample_gauges(sv, stop))
        });
        // Latency segments at the nominal rate alternate with chunks of
        // the ladder search, so both sample the whole run. In a traced
        // run the first half of the segments runs untraced and the rest
        // traced; their p50s give the tracing overhead.
        let ladder = ladder();
        let step_s = ladder_s / (COARSE_PROBES as f64 * COARSE_WEIGHT + STAIR_PROBES as f64);
        let mut segments: Vec<Vec<Rec>> = Vec::new();
        let mut nominal_unsent = 0u64;
        let mut steps = Vec::new();
        let mut search = Search::new(ladder.len());
        let mut probe = |state: &mut State, rung: usize, seconds: f64| {
            let rate = ladder[rung];
            let (recs, unsent, span) = open_loop(state, rate, seconds, tracer);
            let step = judge(&recs, unsent, rate, span, spec, conns);
            let pass = step.pass;
            steps.push((step, recs));
            pass
        };
        for round in 0..SEGMENTS {
            if traced {
                tracer.set_on(round >= SEGMENTS / 2);
            }
            let (recs, unsent, _) = open_loop(&mut state, spec.nominal_qps, segment_s, tracer);
            segments.push(recs);
            nominal_unsent += unsent;
            // The search runs in chunks between segments: the bisection
            // after the first, the staircase in halves after the next two.
            match round {
                0 => {
                    while let Some(rung) = search.coarse_next() {
                        let pass = probe(&mut state, rung, step_s * COARSE_WEIGHT);
                        search.coarse_record(rung, pass);
                    }
                }
                r if r < SEGMENTS - 1 => {
                    for _ in 0..STAIR_PROBES / (SEGMENTS - 2) {
                        let rung = search.at;
                        let pass = probe(&mut state, rung, step_s);
                        search.stair_record(rung, pass);
                    }
                }
                _ => {}
            }
        }
        tracer.set_on(traced);
        stop.store(true, Ordering::Relaxed);
        let write_recs = writer
            .map(|h| h.join().expect("writer thread"))
            .unwrap_or_default();
        let gauges = sampler.map(|h| h.join().expect("sampler thread"));
        let coarse = search.lo.max(0) as usize;
        out.info("ladder.bisection_answer_per_s", ladder[coarse]);
        let rungs: Vec<f64> = search.stair.iter().map(|&(r, _)| ladder[r]).collect();
        out.info("ladder.staircase_per_s", format!("{rungs:.1?}"));
        out.layers
            .insert("throughput_per_s", search.answer(&ladder));
        (segments, nominal_unsent, steps, write_recs, gauges)
    });
    state.servers = servers;
    state.writers = writers;
    state.writes = writes;

    let after = scrape(&mut probes);
    // Latency statistics: the median over segments of each segment's
    // percentile.
    let per_segment = |q: f64| -> Vec<f64> {
        segments
            .iter()
            .map(|seg| percentile(&seg.iter().map(Rec::latency_ms).collect::<Vec<_>>(), q))
            .collect()
    };
    let (p50s, tails) = (per_segment(0.5), per_segment(TAIL_Q));
    out.layers.insert("p50_ms", median(&p50s));
    out.layers.insert("tail_ms", median(&tails));
    out.tail(TAIL_Q, segments.iter().map(Vec::len).min().unwrap_or(0));
    out.info("nominal.segment_p50_ms", format!("{p50s:.4?}"));
    out.info("nominal.segment_tail_ms", format!("{tails:.4?}"));
    let pooled: Vec<f64> = segments.iter().flatten().map(Rec::latency_ms).collect();
    let p99 = percentile(&pooled, 0.99);
    out.info("nominal.p99_ms", p99);
    out.layers.insert("read.p99_ms", p99);
    if traced {
        let half = SEGMENTS / 2;
        let (plain, with) = (median(&p50s[..half]), median(&p50s[half..]));
        out.layers
            .insert("trace_overhead_pct", 100.0 * (with / plain - 1.0));
    }
    let nominal: Vec<Rec> = segments.concat();

    // Operations: every read of every phase, and every write.
    let ladder_recs: Vec<&Rec> = steps.iter().flat_map(|(_, r)| r).collect();
    let reads: Vec<&Rec> = nominal
        .iter()
        .chain(ladder_recs.iter().copied())
        .chain(&cap.reads)
        .collect();
    let mismatches = reads.iter().filter(|r| r.mismatch).count();
    let read_failures = reads.iter().filter(|r| !r.ok).count();
    let write_failures = write_recs.iter().filter(|w| !w.1).count() + cap.writes_failed;
    out.attempted += (reads.len() + write_recs.len() + cap.write_ms.len()) as u64;
    out.failed += (read_failures + write_failures) as u64;
    out.check(
        "every read answered bit-identically to the in-process truth",
        mismatches == 0,
    );
    out.info("reads.mismatched", mismatches);
    out.info("reads.failed", read_failures);
    out.info("writes.failed", write_failures);

    let late: Vec<f64> = nominal.iter().map(|r| (r.sent - r.due) * 1e3).collect();
    let late_p99 = percentile(&late, 0.99);
    out.info("nominal.rate_per_s", spec.nominal_qps);
    out.info("nominal.reads", nominal.len());
    out.info("nominal.generator_late_p99_ms", late_p99);
    let ends: Vec<usize> = segments.iter().map(|seg| backlog(seg, segment_s)).collect();
    out.info("nominal.backlog_end", format!("{ends:?}"));
    out.info("nominal.unsent_at_cutoff", nominal_unsent);
    out.info("ladder.tail_limit_ms", spec.tail_limit_ms);
    for (step, _) in &steps {
        out.info(
            &format!("ladder.step_{:.1}", step.rate),
            format!(
                "{} (tail {:.3} ms, failed {}, backlog mid {} end {}, unsent {})",
                if step.pass { "meets" } else { "misses" },
                step.tail_ms,
                step.failed,
                step.backlog_mid,
                step.backlog_end,
                step.unsent
            ),
        );
    }
    out.info(
        "generator.threads",
        conns + usize::from(spec.write_qps > 0.0),
    );
    out.info(
        "generator.connections",
        if spec.sharded {
            state.scopes.len() + state.writers.len()
        } else {
            conns
        },
    );
    out.info("input.granules", inputs::GRANULES);
    out.info("input.photons", state.fleet.photons);
    out.info("store.tiles", state.tiles);
    out.info("store.layers", state.layers);
    out.info(
        "store.tiles_per_layer",
        state.tiles as f64 / state.layers as f64,
    );
    out.info("store.samples", state.samples);
    out.info("cache.capacity_per_server", state.cache.0);
    out.info("cache.stripes", state.cache.1);
    let per_server_tiles = state.tiles as f64 / state.catalogs.len() as f64;
    out.info(
        "cache.working_set_over_capacity",
        per_server_tiles / state.cache.0 as f64,
    );

    let l = &mut out.layers;
    l.insert("generator.late_p99_ms", late_p99);
    let hits = diff_sum(&before, &after, "tile_cache_hits_total");
    let misses = diff_sum(&before, &after, "tile_cache_misses_total");
    l.insert("cache.hits", hits);
    l.insert("cache.misses", misses);
    l.insert(
        "cache.evictions",
        diff_sum(&before, &after, "tile_cache_evictions_total"),
    );
    l.insert(
        "cache.hit_rate",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    l.insert(
        "server.errors",
        diff_sum(&before, &after, "server_errors_total"),
    );
    for (q, names) in [
        (
            "p50",
            [
                "server.request_us.rect.p50",
                "server.request_us.cells.p50",
                "server.request_us.point.p50",
            ],
        ),
        (
            "p99",
            [
                "server.request_us.rect.p99",
                "server.request_us.cells.p99",
                "server.request_us.point.p99",
            ],
        ),
    ] {
        for kind in KINDS {
            let key = format!(
                "server_request_us_{q}_us{{kind=\"{}\"}}",
                kind.server_kind()
            );
            let v = after
                .iter()
                .filter_map(|m| m.get(&key).copied())
                .fold(0.0, f64::max);
            l.insert(per_kind(kind, names), v);
        }
    }
    if spec.sharded {
        let key = "server_request_us_p50_us{kind=\"ingest_thickness\"}";
        l.insert(
            "server.ingest_us",
            after
                .iter()
                .filter_map(|m| m.get(key).copied())
                .fold(0.0, f64::max),
        );
    }
    // Every served write of the run: those of the closed loop, between
    // reads, and those of the fixed-rate writer, beside them.
    let wlat: Vec<f64> = write_recs
        .iter()
        .map(|w| w.0)
        .chain(cap.write_ms.iter().copied())
        .collect();
    if !wlat.is_empty() {
        l.insert("write.p50_ms", percentile(&wlat, 0.5));
        l.insert("write.p90_ms", percentile(&wlat, 0.9));
        l.insert("write.count", wlat.len() as f64);
        out.info("writes.count", wlat.len());
        out.info("writes.p50_ms", percentile(&wlat, 0.5));
        out.info("writes.p90_ms", percentile(&wlat, 0.9));
    }
    let l = &mut out.layers;
    let client_regs: Vec<String> = match &state.router {
        Some(r) => vec![r.registry().expose()],
        None => state
            .clients
            .iter()
            .map(|c| c.registry().expose())
            .collect(),
    };
    let retries: f64 = client_regs
        .iter()
        .map(|t| {
            parse_exposition(t)
                .get("client_retries_total")
                .copied()
                .unwrap_or(0.0)
        })
        .sum();
    l.insert("client.retries", retries);
    if let (Some(r), Some(b)) = (&state.router, &router_before) {
        let a = parse_exposition(&r.registry().expose());
        let key = "router_degraded_total";
        l.insert(
            "router.degraded",
            a.get(key).copied().unwrap_or(0.0) - b.get(key).copied().unwrap_or(0.0),
        );
    }
    if let Some((queue, inflight)) = gauges {
        l.insert("server.queue_depth.max", queue as f64);
        l.insert("server.in_flight.max", inflight as f64);
    }
    if traced {
        for kind in KINDS {
            let of: Vec<&Rec> = nominal.iter().filter(|r| r.kind == kind).collect();
            let submit: Vec<f64> = of.iter().map(|r| (r.submitted - r.sent) * 1e6).collect();
            let wait: Vec<f64> = of.iter().map(|r| (r.done - r.wait_start) * 1e6).collect();
            l.insert(
                per_kind(
                    kind,
                    [
                        "client.submit_us.rect",
                        "client.submit_us.cells",
                        "client.submit_us.point",
                    ],
                ),
                median(&submit),
            );
            l.insert(
                per_kind(
                    kind,
                    [
                        "client.wait_us.rect",
                        "client.wait_us.cells",
                        "client.wait_us.point",
                    ],
                ),
                median(&wait),
            );
        }
        if spec.sharded {
            let routed: Vec<f64> = nominal
                .iter()
                .map(|r| (r.submitted - r.sent) * 1e6)
                .collect();
            l.insert("router.routed_us", median(&routed));
        }
        replay(&mut state, &mut out, tracer);
    }

    // After the run: the stores validate and still answer as in setup
    // (Replace re-ingests converge to the same content).
    let valid = state.catalogs.iter().all(|c| c.validate().is_ok());
    out.check("served stores pass Catalog::validate after the run", valid);
    let mut unchanged = 0usize;
    let checks = 64.min(state.stream.pool.len());
    for i in 0..checks {
        let q = state.stream.pool[i];
        let want = state.stream.truth[i];
        let got = with_reader(&mut state, i, |r| r.submit(&q).and_then(|t| r.finish(t)));
        unchanged += usize::from(matches!(got, Ok(a) if fingerprint(&a) == want));
    }
    out.attempted += checks as u64;
    out.failed += (checks - unchanged) as u64;
    out.check("stores answer unchanged after the run", unchanged == checks);
    if let Some(router) = &mut state.router {
        let want = state
            .truth_catalog
            .query_time_range(TimeRange::all())
            .expect("truth layers");
        let got = router.query_time_range(TimeRange::all());
        let same = matches!(&got, Ok(g) if g.len() == want.len()
            && g.iter().zip(&want).all(|(a, b)| a.0 == b.0 && summary_bits(&a.1) == summary_bits(&b.1)));
        out.attempted += 1;
        out.failed += u64::from(!same);
        out.check(
            "routed per-layer summaries equal the monolithic truth",
            same,
        );
    }

    if traced {
        let (fleet, grid, products) = (&state.fleet, state.grid, &state.products);
        let ok = crate::produce::replay(fleet, grid, products, dir, tracer, &mut out.layers);
        out.check("per-layer replay reproduces the fleet products", ok);
    }
    drop(probes);
    shutdown(state);
    out
}

fn per_kind(kind: Kind, names: [&'static str; 3]) -> &'static str {
    names[kind.index()]
}

/// Encoded size of `payload` in one frame.
fn frame_bytes(payload: usize) -> usize {
    FRAME_HEADER_BYTES + payload
}

/// Bytes of the streamed response a server sends for `records`.
fn batched_bytes<T: seaice::artifact::Codec + Clone>(
    records: &[T],
    wrap: impl Fn(Vec<T>) -> Response,
) -> usize {
    let mut total = frame_bytes(
        Response::Done {
            n_records: records.len() as u64,
        }
        .to_bytes()
        .len(),
    );
    for range in batch_ranges(records, BATCH_RECORDS, MAX_BATCH_BYTES) {
        total += frame_bytes(wrap(records[range].to_vec()).to_bytes().len());
    }
    total
}

/// What one shard's store answers in the replay.
enum ShardAnswer {
    Partials(Vec<TilePartial>),
    Cells(Vec<CellSummary>),
    Point(Option<CellSummary>),
}

/// In-process replay of the stream against catalogs opened on the same
/// stores with the same cache capacity, timing the store's own calls,
/// plus a mirror tile cache that times the tile loads a miss costs.
fn replay(state: &mut State, out: &mut Outcome, tracer: &Tracer) {
    let catalogs: Vec<Catalog> = state
        .dirs
        .iter()
        .map(|d| {
            Catalog::open_with(
                d,
                CatalogOptions {
                    cache_capacity: state.cache.0,
                    cache_stripes: state.cache.1,
                    ..CatalogOptions::default()
                },
            )
            .expect("replay catalog")
        })
        .collect();
    let mirror = TileCache::new(state.cache.0, state.cache.1);
    let root = tracer.id();
    let root_t0 = tracer.now();
    let tiles_dirs: Vec<PathBuf> = state.dirs.iter().map(|d| d.join("tiles")).collect();
    let grid = state.grid;
    let all_layers = state.truth_catalog.layers();
    let path_of = |j: usize, key: &TileKey| {
        tiles_dirs[j].join(format!(
            "{:04}{:02}_{}.tile",
            key.time.year,
            key.time.month,
            key.tile.quadkey()
        ))
    };
    let (mut decode_us, mut decodes, mut bytes_read) = (0.0f64, 0usize, 0u64);
    let mut load = |j: usize, key: TileKey, count: bool| -> Option<Arc<Tile>> {
        if let Some(t) = mirror.get(&key) {
            return Some(t);
        }
        let span_t0 = tracer.now();
        let bytes = std::fs::read(path_of(j, &key)).ok()?;
        let t0 = Instant::now();
        let tile = Arc::new(Tile::from_bytes(&bytes).ok()?);
        tracer.record(tracer.id(), "tile.load", root, 0, span_t0, tracer.now());
        if count {
            decode_us += t0.elapsed().as_secs_f64() * 1e6;
            decodes += 1;
            bytes_read += bytes.len() as u64;
        }
        mirror.insert(key, Arc::clone(&tile));
        Some(tile)
    };
    if !state.spec.sharded {
        // The served cache was warm before timing started; so is the mirror.
        for layer in &all_layers {
            for tile in grid.tiles_overlapping(&grid.domain()) {
                let _ = load(0, TileKey { time: *layer, tile }, false);
            }
        }
    }
    let n = 2000u64.min(state.stream.next);
    let mut partials_us: [Vec<f64>; 3] = Default::default();
    let (mut fold_us, mut max_shard_us, mut fanout) = (Vec::new(), Vec::new(), Vec::new());
    let (mut req_bytes, mut resp_bytes): ([Vec<f64>; 3], [Vec<f64>; 3]) = Default::default();
    let (mut examined, mut answered, mut touched, mut interior) = (0usize, 0usize, 0usize, 0usize);
    let half = grid.cell_size_m() / 2.0;
    for i in 0..n {
        let q = state.stream.pool[state.stream.index(i)];
        let k = q.kind.index();
        let candidates = match q.kind {
            Kind::Point => grid
                .locate(EPSG_3976.forward(q.point))
                .map(|(t, _)| vec![t])
                .unwrap_or_default(),
            _ => grid.tiles_overlapping(&q.rect),
        };
        let owners: Vec<usize> = (0..catalogs.len())
            .filter(|&j| candidates.iter().any(|t| state.scopes[j].matches(t)))
            .collect();
        fanout.push(owners.len() as f64);
        let layers: Vec<TimeKey> = all_layers
            .iter()
            .copied()
            .filter(|t| q.time.contains(*t))
            .collect();
        // The tile loads this read costs, through the mirror cache.
        let mut tiles = Vec::new();
        for &j in &owners {
            for layer in &layers {
                for tile in candidates.iter().filter(|t| state.scopes[j].matches(t)) {
                    if let Some(t) = load(
                        j,
                        TileKey {
                            time: *layer,
                            tile: *tile,
                        },
                        true,
                    ) {
                        tiles.push(t);
                    }
                }
            }
        }
        let (mut sum_us, mut slowest) = (0.0f64, 0.0f64);
        let mut parts: Vec<TilePartial> = Vec::new();
        let mut resp = 0usize;
        for &j in &owners {
            let scope = &state.scopes[j];
            let t0 = Instant::now();
            let span_t0 = tracer.now();
            let answer = match q.kind {
                Kind::Rect => ShardAnswer::Partials(
                    catalogs[j]
                        .query_rect_partials(&q.rect, q.time, scope)
                        .expect("replay partials"),
                ),
                Kind::Cells => ShardAnswer::Cells(
                    catalogs[j]
                        .query_cells_scoped(&q.rect, q.time, scope)
                        .expect("replay cells"),
                ),
                Kind::Point => ShardAnswer::Point(
                    catalogs[j]
                        .query_point_scoped(q.point, q.time, scope)
                        .expect("replay point"),
                ),
            };
            let us = t0.elapsed().as_secs_f64() * 1e6;
            tracer.record(
                tracer.id(),
                "catalog.partials",
                root,
                i + 1,
                span_t0,
                tracer.now(),
            );
            sum_us += us;
            slowest = slowest.max(us);
            // The frames this exchange puts on the wire, rebuilt with the
            // wire encoders.
            let span_t0 = tracer.now();
            let request = match q.kind {
                Kind::Rect => Request::QueryRect {
                    rect: q.rect,
                    time: q.time,
                    scope: scope.clone(),
                },
                Kind::Cells => Request::QueryCells {
                    rect: q.rect,
                    time: q.time,
                    scope: scope.clone(),
                },
                Kind::Point => Request::QueryPoint {
                    point: q.point,
                    time: q.time,
                    scope: scope.clone(),
                },
            };
            req_bytes[k].push(frame_bytes(request.to_bytes().len()) as f64);
            resp += match answer {
                ShardAnswer::Partials(p) => {
                    let bytes = batched_bytes(&p, Response::TileBatch);
                    parts.extend(p);
                    bytes
                }
                ShardAnswer::Cells(c) => batched_bytes(&c, Response::CellBatch),
                ShardAnswer::Point(p) => frame_bytes(Response::Point(p).to_bytes().len()),
            };
            tracer.record(
                tracer.id(),
                "wire.encode",
                root,
                i + 1,
                span_t0,
                tracer.now(),
            );
        }
        partials_us[k].push(sum_us);
        max_shard_us.push(slowest);
        resp_bytes[k].push(resp as f64);
        if q.kind == Kind::Rect {
            let t0 = Instant::now();
            let span_t0 = tracer.now();
            let summary = QuerySummary::from_partials(parts);
            fold_us.push(t0.elapsed().as_secs_f64() * 1e6);
            tracer.record(
                tracer.id(),
                "catalog.fold",
                root,
                i + 1,
                span_t0,
                tracer.now(),
            );
            // Samples the scan examines per cell it answers, and the
            // share of touched cells lying wholly inside the rect.
            examined += tiles.iter().map(|t| t.samples().len()).sum::<usize>();
            answered += summary.n_cells;
            let mut cells = BTreeSet::new();
            for t in &tiles {
                for &cell in t.cells().keys() {
                    cells.insert((t.id, cell));
                }
            }
            for (tile, cell) in cells {
                let c = grid.cell_center(tile, cell);
                touched += 1;
                let inside = q.rect.contains(MapPoint::new(c.x - half, c.y - half))
                    && q.rect
                        .contains(MapPoint::new(c.x + half - 1e-6, c.y + half - 1e-6));
                interior += usize::from(inside);
            }
        }
    }
    tracer.record(root, "serve.replay", 0, 0, root_t0, tracer.now());
    let l = &mut out.layers;
    for kind in KINDS {
        let k = kind.index();
        l.insert(
            per_kind(
                kind,
                [
                    "catalog.partials_us.rect",
                    "catalog.partials_us.cells",
                    "catalog.partials_us.point",
                ],
            ),
            median(&partials_us[k]),
        );
        l.insert(
            per_kind(
                kind,
                [
                    "wire.request_bytes.rect",
                    "wire.request_bytes.cells",
                    "wire.request_bytes.point",
                ],
            ),
            median(&req_bytes[k]),
        );
        l.insert(
            per_kind(
                kind,
                [
                    "wire.response_bytes.rect",
                    "wire.response_bytes.cells",
                    "wire.response_bytes.point",
                ],
            ),
            median(&resp_bytes[k]),
        );
    }
    l.insert("catalog.fold_us", median(&fold_us));
    l.insert(
        "catalog.samples_per_cell",
        examined as f64 / answered.max(1) as f64,
    );
    l.insert(
        "catalog.interior_cell_share",
        interior as f64 / touched.max(1) as f64,
    );
    l.insert(
        "tile.decode_us",
        if decodes > 0 {
            decode_us / decodes as f64
        } else {
            0.0
        },
    );
    l.insert("tile.bytes_read", bytes_read as f64 / n.max(1) as f64);
    if state.spec.sharded {
        l.insert("router.fanout", median(&fanout));
        l.insert("router.max_shard_us", median(&max_shard_us));
        // The same Replace, in process on the served catalogs.
        let mut replace_ms = Vec::new();
        for (j, part) in state.writes.iter().take(12) {
            let t0 = Instant::now();
            state.catalogs[*j]
                .ingest_thickness_beam_with(part, IngestMode::Replace)
                .expect("in-process replace");
            replace_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        l.insert("catalog.replace_ms", median(&replace_ms));
    }
}

fn shutdown(state: State) {
    let State {
        servers,
        clients,
        router,
        writers,
        ..
    } = state;
    drop(clients);
    drop(router);
    drop(writers);
    for s in servers {
        s.shutdown();
    }
}

impl State {
    /// Stops every server and drops every connection.
    pub fn close(self) {
        shutdown(self);
    }
}
