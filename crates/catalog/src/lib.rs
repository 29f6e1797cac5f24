//! `seaice-catalog` — the serve path of the pipeline: an ingest-once,
//! query-many store for the paper's end products.
//!
//! The produce path ([`seaice::stages`] + [`seaice::fleet`]) turns raw
//! ATL03 granules into per-beam 2 m classifications and freeboards.
//! Downstream consumers — gridded thickness reconstruction, snow-depth
//! downscaling, any map-facing service — need those products queryable
//! by *where* and *when* without re-running the pipeline. This crate
//! provides that layer:
//!
//! - [`grid`] — quadtree tile addressing over a configurable-resolution
//!   EPSG-3976 grid ([`TileId`] quadkeys, [`GridConfig`]), plus monthly
//!   temporal layer keys ([`TimeKey`]) for the paper's Table II/V-style
//!   composites;
//! - [`tile`] — tile contents: canonically sorted segment-level samples
//!   and per-cell freeboard/ice-type aggregates, persisted with the same
//!   overflow-hardened tag+version binary conventions as
//!   [`seaice::artifact`];
//! - [`cache`] — the lock-striped LRU tile cache concurrent readers go
//!   through;
//! - [`store`] — [`Catalog`]: sharded rayon-parallel ingest, atomic tile
//!   replacement, and the query API (bbox, rect, point, time-range,
//!   gridded cells, summary stats), plus [`CatalogSink`] wiring
//!   [`seaice::FleetDriver`] straight into a catalog.
//!
//! - [`mod@compact`] — offline compaction: rewrite a catalog at a new grid
//!   (re-binning every sample), fold monthly layers into seasonal ones,
//!   and retire segment detail past a retention horizon while frozen
//!   per-cell aggregates keep answering composites;
//! - [`query`] — one definition per query kind (rect, bbox, point,
//!   time-range, cells): its wire request, scoped store call, owner
//!   cover, answer decoding, merge and fold, shared by every layer
//!   below and by [`Catalog::query`];
//! - [`wire`] / [`server`] / [`client`] — the serve front-end: a framed
//!   TCP protocol over [`seaice::artifact`] conventions (spec in
//!   `docs/PROTOCOL.md`), a threaded [`server::CatalogServer`], a
//!   [`client::CatalogClient`] mirroring the query API, and a
//!   [`client::ShardRouter`] that fans queries out over quadkey-prefix
//!   shards and merges bit-identically;
//! - [`lease`] — the cross-process writer-lease protocol (owner id +
//!   heartbeat mtime + stale-lease takeover) behind
//!   [`Catalog::create_writer`] / [`Catalog::open_writer`];
//! - [`fault`] — deterministic fault injection (seeded per-site fault
//!   plans, crash hooks in the persist path, an in-process chaos TCP
//!   proxy) behind zero-cost no-op defaults, powering the chaos
//!   acceptance suite (`tests/chaos.rs`).
//!
//! The headline invariant: ingest order never changes what queries
//! return, bit for bit; re-ingesting a source is idempotent
//! ([`IngestMode::Skip`] is a byte-stable no-op, [`IngestMode::Replace`]
//! converges to the fresh-build state); readers racing a live ingest
//! always observe internally consistent tile snapshots (see
//! `tests/concurrent_stress.rs`); and a query answered over the network
//! — one server or a routed shard fleet — is bit-identical to the same
//! query in process (see `tests/served_equivalence.rs`).
//!
//! The failure-model counterpart (see `DESIGN.md` §"Failure model"):
//! under injected connection refusal, stalls, truncation, byte
//! corruption, latency, and mid-persist crashes, a served query either
//! completes bit-identically or fails with a typed
//! [`CatalogError::Timeout`] / [`CatalogError::RetriesExhausted`] /
//! [`CatalogError::Degraded`] — never a hang, a panic, or a silently
//! wrong answer (see `tests/chaos.rs`).

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod compact;
pub mod fault;
pub mod grid;
pub mod lease;
pub mod query;
pub mod server;
pub mod store;
pub mod tile;
pub mod wire;

pub use cache::{CacheStats, TileCache, TileKey};
pub use client::{
    BreakerState, CatalogClient, ClientConfig, Pending, ReplicaSpec, RetryPolicy, Routed,
    RouterConfig, ShardRouter, ShardSpec,
};
pub use compact::{compact, CompactionConfig, CompactionReport, LayerMap};
pub use fault::{ChaosProxy, FaultAction, FaultPlan};
pub use grid::{GridConfig, MapRect, TileId, TileScope, TimeKey, TimeRange};
pub use lease::{LeaseOptions, LeaseRecord, WriterLease};
pub use query::{Answer, BboxQuery, CellsQuery, PointQuery, Query, RectQuery, TimeRangeQuery};
pub use server::{CatalogServer, ServerConfig, ServerStats};
pub use store::{
    Catalog, CatalogOptions, CatalogSink, CatalogStats, CellSummary, IngestMode, IngestReport,
    QuerySummary, TilePartial,
};
pub use tile::{CatalogManifest, CellAggregate, LayerLedger, SampleRecord, Tile};

/// The observability toolkit the catalog instruments itself with
/// (metric registry, histograms, tracing) — re-exported so servers and
/// clients can be scraped without naming `seaice-obs` directly.
pub use seaice_obs as obs;

/// Errors from catalog operations.
#[derive(Debug)]
pub enum CatalogError {
    /// Underlying file I/O failure.
    Io(std::io::Error),
    /// A tile or manifest failed to encode/decode.
    Artifact(seaice::ArtifactError),
    /// A granule id did not carry a parseable `YYYYMM` prefix.
    BadGranuleId(String),
    /// A catalog directory was opened with a different grid than it was
    /// built with.
    GridMismatch,
    /// An internal invariant was violated (corrupt store or logic bug).
    Corrupt(&'static str),
    /// Another writer holds a fresh lease on the directory (the typed
    /// loser error of the writer-lease protocol, [`lease`]).
    LeaseHeld {
        /// Owner id recorded in the current lease.
        owner: String,
        /// How long ago that lease last heartbeat.
        age: std::time::Duration,
    },
    /// This writer's lease has gone stale or been taken over; the
    /// instance self-fences and refuses further writes.
    LeaseLost,
    /// A `Replace` ingest met a source whose samples were retired into
    /// frozen base aggregates by a compaction retention horizon. The
    /// frozen contribution cannot be separated back out, so replacing
    /// the source would double-count it; the ingest is refused.
    ArchivedSource {
        /// Stable id of the archived source.
        source: u64,
    },
    /// A wire-protocol violation (malformed frame, unexpected response,
    /// misconfigured shard map) on the serve path.
    Protocol(String),
    /// A served request failed catalog-side; carries the remote error
    /// frame's code and rendered message.
    Remote {
        /// Protocol error code (see `docs/PROTOCOL.md` §3.8).
        code: u16,
        /// Human-readable remote error description.
        message: String,
    },
    /// Thickness enrichment rejected its inputs before ingest (see
    /// [`seaice_products::ProductError`]) — nothing was written.
    Product(seaice_products::ProductError),
    /// A served request exceeded its configured deadline
    /// ([`client::ClientConfig::request_deadline`]). The connection is
    /// torn down (the exchange may be mid-stream) and rebuilt on the
    /// next attempt.
    Timeout {
        /// The deadline that expired.
        after: std::time::Duration,
    },
    /// Every attempt allowed by the [`client::RetryPolicy`] failed with
    /// a transport-class error; carries the final attempt's error.
    RetriesExhausted {
        /// Attempts made (including the first).
        attempts: u32,
        /// The error the final attempt died with.
        last: Box<CatalogError>,
    },
    /// A routed query could not reach any replica for one or more
    /// scopes. Strict query methods return this typed error;
    /// [`client::ShardRouter::routed`] instead returns a
    /// [`client::Routed`] value naming the same scopes so callers can
    /// use the partial answer.
    Degraded {
        /// The unreachable scopes, in shard-map order.
        missing: Vec<grid::TileScope>,
    },
    /// A scripted [`fault::FaultPlan`] crash fired at this site: the
    /// operation was abandoned mid-flight exactly as a process death
    /// there would leave it. Test-harness only; never produced without
    /// an injected plan.
    FaultInjected(&'static str),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::Io(e) => write!(f, "catalog io error: {e}"),
            CatalogError::Artifact(e) => write!(f, "catalog artifact error: {e}"),
            CatalogError::BadGranuleId(id) => {
                write!(f, "granule id '{id}' has no YYYYMM acquisition prefix")
            }
            CatalogError::GridMismatch => {
                write!(f, "catalog grid differs from the manifest's grid")
            }
            CatalogError::Corrupt(what) => write!(f, "catalog corrupt: {what}"),
            CatalogError::LeaseHeld { owner, age } => write!(
                f,
                "writer lease held by '{owner}' (heartbeat {:.1}s ago)",
                age.as_secs_f64()
            ),
            CatalogError::LeaseLost => {
                write!(f, "writer lease lost (stale or taken over); writes fenced")
            }
            CatalogError::ArchivedSource { source } => write!(
                f,
                "source {source:#018x} was retired into frozen aggregates by retention; \
                 replacing it would double-count its contribution"
            ),
            CatalogError::Protocol(what) => write!(f, "catalog protocol error: {what}"),
            CatalogError::Remote { code, message } => {
                write!(f, "catalog server error {code}: {message}")
            }
            CatalogError::Product(e) => write!(f, "catalog product error: {e}"),
            CatalogError::Timeout { after } => {
                write!(f, "request deadline exceeded ({:.3}s)", after.as_secs_f64())
            }
            CatalogError::RetriesExhausted { attempts, last } => {
                write!(f, "all {attempts} attempts failed; last error: {last}")
            }
            CatalogError::Degraded { missing } => {
                let scopes: Vec<String> = missing
                    .iter()
                    .map(|s| {
                        if s.is_all() {
                            "<all>".to_string()
                        } else {
                            s.prefixes().join("|")
                        }
                    })
                    .collect();
                write!(
                    f,
                    "degraded: no reachable replica for scope(s) [{}]",
                    scopes.join(", ")
                )
            }
            CatalogError::FaultInjected(site) => {
                write!(f, "injected fault: simulated crash at '{site}'")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<std::io::Error> for CatalogError {
    fn from(e: std::io::Error) -> Self {
        CatalogError::Io(e)
    }
}

impl From<seaice::ArtifactError> for CatalogError {
    fn from(e: seaice::ArtifactError) -> Self {
        CatalogError::Artifact(e)
    }
}

impl From<seaice_products::ProductError> for CatalogError {
    fn from(e: seaice_products::ProductError) -> Self {
        CatalogError::Product(e)
    }
}

/// FNV-1a over a byte stream — the one stable hash used for sample
/// source ids and shard/stripe ownership (never the std hasher, whose
/// per-process randomisation would break cross-run reproducibility).
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
