//! Remote catalog access: a framed TCP client and the quadkey-prefix
//! shard router.
//!
//! [`CatalogClient`] speaks the `docs/PROTOCOL.md` wire protocol to one
//! [`crate::server::CatalogServer`] and mirrors the [`crate::Catalog`]
//! query API. [`ShardRouter`] composes several clients into one logical
//! catalog: each shard owns a set of quadkey prefixes ([`TileScope`]),
//! the router sends a query to the shards whose tiles it could touch
//! and merges their answers with the *same fold* a local query uses —
//! so the routed answer is bit-identical to running the query on a
//! single in-process catalog holding all the data (pinned by
//! `tests/served_equivalence.rs`). Both run every query kind through one
//! generic path ([`CatalogClient::query`] / [`CatalogClient::submit`],
//! [`ShardRouter::routed`]) over the kind's definition in
//! [`crate::query`]; the typed `query_<kind>` methods are one-line calls
//! into it.
//!
//! The client speaks wire v3 (`SIRQ`/`SIRS` v3): every request frame
//! carries a fresh request id, and the server may answer in-flight
//! requests **out of order**. The `submit*` methods expose that
//! directly — each returns a typed [`Pending`] handle, many can be
//! outstanding on one connection, and [`CatalogClient::wait`] collects
//! them in any order (frames for other requests are demultiplexed into
//! their slots as they arrive). The plain query methods are a sync
//! facade over the same machinery (submit immediately followed by
//! wait), so a non-pipelining caller sees exactly the
//! one-exchange-at-a-time behaviour. Pipelined answers are
//! bit-identical to in-process queries (pinned by
//! `tests/pipelined_equivalence.rs`).
//!
//! Both layers degrade gracefully instead of hanging (pinned by
//! `tests/chaos.rs`):
//!
//! - [`ClientConfig`] gives every request a wall-clock deadline
//!   (surfacing as a typed [`CatalogError::Timeout`]) and a
//!   [`RetryPolicy`] — bounded attempts with exponential backoff and
//!   seeded jitter. Query RPCs are read-only and the write RPCs are
//!   idempotent per granule/beam (a [`IngestMode::Skip`] re-ingest
//!   counts duplicates instead of double-applying them), so a retry
//!   can never corrupt the store; the sync facade transparently
//!   reconnects and re-runs the request on transport-class failures.
//!   Pipelined requests are *not* transparently retried: a transport
//!   failure fails every outstanding [`Pending`] on that connection
//!   with a typed error and the caller decides what to re-submit.
//! - [`ShardRouter`] accepts **replica groups** per scope
//!   ([`ReplicaSpec`]) and fails over within a group. A per-replica
//!   circuit breaker trips after consecutive transport failures
//!   (`Open`), stops sending traffic there, and recovers through
//!   half-open probes — either lazily after a cooldown or eagerly via a
//!   background [`crate::wire::Request::Ping`] prober thread
//!   ([`RouterConfig::probe_interval`]). When *no* replica for an owned
//!   scope is reachable, [`ShardRouter::routed`] returns a typed
//!   [`Routed`] value naming the missing scopes; the strict methods turn
//!   the same situation into [`CatalogError::Degraded`].

use std::collections::{BTreeMap, BTreeSet};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use icesat_geo::{BoundingBox, GeoPoint, EPSG_3976};
use seaice::freeboard::FreeboardProduct;
use seaice_obs::{next_trace_id, Counter, Histogram, MetricRegistry, Trace, TraceLog, TraceReport};

use crate::fault::splitmix64;
use crate::grid::{GridConfig, MapRect, TileId, TileScope, TimeKey, TimeRange};
use crate::query::{
    scalar, unexpected, Answer, BboxQuery, CellsQuery, Output, PointQuery, Query, RectQuery,
    TimeRangeQuery,
};
use crate::server::ServerStats;
use crate::store::{CatalogStats, CellSummary, IngestMode, IngestReport, QuerySummary};
use crate::wire::{self, Request, Response};
use crate::CatalogError;
use seaice_products::BeamThickness;

/// Socket read-timeout tick: how often a blocked read wakes to check
/// the request deadline. Purely a polling granularity — data that
/// arrives sooner is returned immediately.
const READ_TICK: Duration = Duration::from_millis(25);

// ---------------------------------------------------------------------------
// Resilience configuration.
// ---------------------------------------------------------------------------

/// Bounded-retry schedule: exponential backoff with seeded jitter.
///
/// Retrying is *always* safe against a catalog server — queries are
/// read-only and served writes are idempotent per granule/beam — so the
/// only judgement in this policy is how long to keep trying. The jitter
/// is seeded (not wall-clock random) so a fault schedule replays
/// identically under the chaos harness.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per request, including the first (`>= 1`).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Cap on any single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the ±25% jitter applied to each backoff.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// No retries: one attempt, fail on the first transport error (the
    /// default — identical to the pre-resilience client).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter_seed: 0,
        }
    }

    /// `max_attempts` total attempts with a 10 ms → 200 ms backoff
    /// ramp.
    pub fn attempts(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            jitter_seed: 0x5eed_cafe,
        }
    }

    /// The backoff to sleep before attempt number `attempt` (1-based
    /// retry ordinal: attempt 0 is the first try and never sleeps).
    /// Exponential in the ordinal, capped, with deterministic ±25%
    /// jitter drawn from the seed and the ordinal.
    pub fn backoff(&self, attempt: u32) -> Duration {
        if attempt == 0 || self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.max_backoff);
        let mut state = self
            .jitter_seed
            .wrapping_add((attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let r = splitmix64(&mut state);
        // Jitter factor in [0.75, 1.25): full-throughput retries from
        // many clients must not re-collide on the same tick.
        let factor = 0.75 + (r % 1000) as f64 / 2000.0;
        Duration::from_secs_f64(exp.as_secs_f64() * factor)
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::none()
    }
}

/// Connection and per-request resilience settings for a
/// [`CatalogClient`].
#[derive(Debug, Clone, Default)]
pub struct ClientConfig {
    /// TCP connect timeout; `None` uses the OS default (which can be
    /// minutes — set this when talking to possibly-dead hosts).
    pub connect_timeout: Option<Duration>,
    /// Wall-clock deadline for one request attempt (send + full
    /// response stream). Expiry tears the connection down and surfaces
    /// as [`CatalogError::Timeout`] (possibly wrapped in
    /// [`CatalogError::RetriesExhausted`]). `None` waits forever.
    pub request_deadline: Option<Duration>,
    /// Retry schedule for transport-class failures.
    pub retry: RetryPolicy,
    /// When set, every request mints a fresh trace id
    /// ([`seaice_obs::next_trace_id`]), carries it in the wire frame so
    /// the server's span log picks it up, and records client-side spans
    /// (`backoff` / `connect` / `exchange`) retrievable via
    /// [`CatalogClient::last_trace`]. Off by default: untraced requests
    /// send trace id 0 and skip all span bookkeeping.
    pub trace: bool,
    /// Metric registry the client's counters and latency histograms
    /// register into; pass a catalog/server registry clone to merge
    /// into one scrape. The default is a fresh private registry.
    pub registry: MetricRegistry,
}

impl ClientConfig {
    /// A production-shaped preset: 1 s connect timeout, 2 s request
    /// deadline, 3 attempts.
    pub fn resilient() -> ClientConfig {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(1)),
            request_deadline: Some(Duration::from_secs(2)),
            retry: RetryPolicy::attempts(3),
            ..ClientConfig::default()
        }
    }
}

/// Pre-registered handles for the client's request metrics.
#[derive(Clone)]
struct ClientMetrics {
    /// Attempts started, including first tries (`client_attempts_total`).
    attempts: Counter,
    /// Attempts that were retries (`client_retries_total`).
    retries: Counter,
    /// Attempts that died on the request deadline
    /// (`client_deadline_hits_total`).
    deadline_hits: Counter,
    /// Wall clock of each successful exchange (`client_request_us`).
    request_us: Histogram,
}

impl ClientMetrics {
    fn new(registry: &MetricRegistry) -> ClientMetrics {
        ClientMetrics {
            attempts: registry.counter("client_attempts_total"),
            retries: registry.counter("client_retries_total"),
            deadline_hits: registry.counter("client_deadline_hits_total"),
            request_us: registry.histogram("client_request_us"),
        }
    }
}

/// A request deadline in flight: the expiry instant plus the configured
/// budget (kept so the typed error can name it).
#[derive(Debug, Clone, Copy)]
struct Deadline {
    at: Option<Instant>,
    budget: Duration,
}

impl Deadline {
    fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// Why a response stream ended early: the deadline, if it expired,
    /// else the server hanging up.
    fn stream_ended(&self) -> CatalogError {
        if self.expired() {
            CatalogError::Timeout { after: self.budget }
        } else {
            CatalogError::Protocol("server closed the connection mid-exchange".into())
        }
    }
}

// ---------------------------------------------------------------------------
// Request multiplexing.
// ---------------------------------------------------------------------------

/// Accumulation slot of one in-flight request: streamed batch frames
/// pile up until the completing frame (anything that isn't a batch —
/// `Done`, a scalar, or an error) arrives.
#[derive(Default)]
struct Slot {
    batches: Vec<Response>,
    done: Option<Response>,
}

/// Client-side multiplexer state: the request-id allocator and the
/// in-flight slots frames demultiplex into.
#[derive(Default)]
struct Mux {
    next_id: u64,
    pending: BTreeMap<u64, Slot>,
    /// Why the in-flight set was cleared, when a transport failure
    /// killed a connection with requests outstanding — waits on the
    /// orphaned handles surface this instead of a confusing
    /// "unknown id".
    poisoned: Option<String>,
}

impl Mux {
    fn alloc_id(&mut self) -> u64 {
        // Ids start at 1: id 0 is the unmultiplexed sentinel the
        // manifest handshake uses.
        self.next_id += 1;
        self.next_id
    }
}

/// A typed handle to one pipelined request submitted with a
/// `submit*` method. Redeem it with [`CatalogClient::wait`] — in any
/// order relative to other outstanding handles. Dropping a `Pending`
/// without waiting leaks its slot until the connection turns over
/// (harmless, but the response is read and discarded), hence
/// `#[must_use]`.
#[must_use = "a pipelined request completes only when waited on"]
pub struct Pending<T> {
    id: u64,
    finish: Finish<T>,
}

/// The completing step of a request: turns its batch frames and its
/// completing frame into the typed answer.
type Finish<T> = fn(Vec<Response>, Response) -> Result<T, CatalogError>;

/// Decodes and folds the answer of query `Q`.
fn finish_query<Q: Query>(
    batches: Vec<Response>,
    done: Response,
) -> Result<Output<Q>, CatalogError> {
    Ok(Q::Answer::decode(batches, done)?.fold())
}

fn finish_pong(batches: Vec<Response>, done: Response) -> Result<ServerStats, CatalogError> {
    match scalar(batches, done)? {
        Response::Pong(stats) => Ok(stats),
        other => Err(unexpected(&other)),
    }
}

fn finish_metrics(batches: Vec<Response>, done: Response) -> Result<String, CatalogError> {
    match scalar(batches, done)? {
        Response::Metrics(text) => Ok(text),
        other => Err(unexpected(&other)),
    }
}

fn finish_ingested(batches: Vec<Response>, done: Response) -> Result<IngestReport, CatalogError> {
    match scalar(batches, done)? {
        Response::Ingested(report) => Ok(report),
        other => Err(unexpected(&other)),
    }
}

/// A client connection to one catalog server.
///
/// The plain query methods run one exchange at a time; the `submit*` /
/// [`CatalogClient::wait`] pair pipelines many requests on this one
/// connection (the server answers them concurrently and possibly out
/// of order). The handle itself is `&mut self` — open one client per
/// thread for thread-level concurrency. The constructor performs the
/// manifest handshake, so the grid is available immediately.
///
/// ```
/// use std::sync::Arc;
/// use seaice_catalog::{Catalog, CatalogClient, CatalogServer, GridConfig, TimeRange};
/// use icesat_geo::MapPoint;
///
/// let dir = std::env::temp_dir().join(format!("client_doc_{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let grid = GridConfig::around(MapPoint::new(0.0, -1_000_000.0), 50_000.0);
/// let catalog = Arc::new(Catalog::create(&dir, grid).unwrap());
/// let server = CatalogServer::serve(catalog, "127.0.0.1:0").unwrap();
///
/// let mut client = CatalogClient::connect(&server.addr().to_string()).unwrap();
/// let domain = client.grid().domain(); // from the manifest handshake
/// let summary = client.query_rect(&domain, TimeRange::all()).unwrap();
/// assert_eq!(summary.n_samples, 0); // empty store, served answer
///
/// server.shutdown();
/// # let _ = std::fs::remove_dir_all(&dir);
/// ```
pub struct CatalogClient {
    addr: String,
    /// `None` between a transport failure and the next attempt's
    /// reconnect.
    stream: Option<TcpStream>,
    /// `None` only before the first successful handshake.
    grid: Option<GridConfig>,
    config: ClientConfig,
    metrics: ClientMetrics,
    /// Request-id allocator and in-flight demultiplexing slots.
    mux: Mux,
    /// Ring of completed traced-request reports (newest last); empty
    /// unless [`ClientConfig::trace`] is on.
    trace_log: TraceLog,
}

/// Completed traced requests a client keeps for inspection.
const CLIENT_TRACE_LOG_CAP: usize = 32;

impl CatalogClient {
    /// Connects with default (non-resilient) configuration and performs
    /// the manifest handshake.
    pub fn connect(addr: &str) -> Result<CatalogClient, CatalogError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// [`CatalogClient::connect`] with explicit resilience settings;
    /// the initial connect + handshake runs under the same retry policy
    /// as requests.
    pub fn connect_with(addr: &str, config: ClientConfig) -> Result<CatalogClient, CatalogError> {
        let metrics = ClientMetrics::new(&config.registry);
        let mut client = CatalogClient {
            addr: addr.to_string(),
            stream: None,
            grid: None,
            config,
            metrics,
            mux: Mux::default(),
            trace_log: TraceLog::new(CLIENT_TRACE_LOG_CAP),
        };
        // Forces connect + handshake under the retry policy.
        client.with_retry(|_, _, _| Ok(()))?;
        Ok(client)
    }

    /// The served catalog's grid (from the connect-time handshake).
    pub fn grid(&self) -> &GridConfig {
        // `connect` only returns a client after the manifest handshake
        // succeeds, and nothing ever clears `grid`, so this is unreachable.
        // sanity: allow(panic_path) -- handshake completion is a construction invariant
        self.grid.as_ref().expect("handshake completed at connect")
    }

    /// Health probe: the server's serving counters, via
    /// [`Request::Ping`].
    pub fn ping(&mut self) -> Result<ServerStats, CatalogError> {
        self.exchange(&Request::Ping, finish_pong)
    }

    /// Full metric snapshot of the server, via
    /// [`Request::Introspect`]: sorted Prometheus-style exposition text
    /// (parse with [`seaice_obs::parse_exposition`]). Against a
    /// pre-introspection server this surfaces as
    /// [`CatalogError::Remote`] with `ERR_BAD_REQUEST` — the connection
    /// stays usable.
    pub fn introspect(&mut self) -> Result<String, CatalogError> {
        self.exchange(&Request::Introspect, finish_metrics)
    }

    /// The metric registry this client records into.
    pub fn registry(&self) -> &MetricRegistry {
        &self.config.registry
    }

    /// The newest completed traced request, when [`ClientConfig::trace`]
    /// is on.
    pub fn last_trace(&self) -> Option<TraceReport> {
        self.trace_log.recent().pop()
    }

    /// Completed traced requests, oldest first (bounded ring).
    pub fn recent_traces(&self) -> Vec<TraceReport> {
        self.trace_log.recent()
    }

    // -- Resilient transport ---------------------------------------------

    /// True for failures where the exchange may not have completed and
    /// the connection can't be trusted: worth a reconnect + retry
    /// (always safe: queries are read-only and served writes are
    /// idempotent). [`CatalogError::Remote`] is *not* transport-class —
    /// the server answered; the error is deterministic and the
    /// connection is at a clean frame boundary.
    fn is_transport(e: &CatalogError) -> bool {
        matches!(
            e,
            CatalogError::Io(_)
                | CatalogError::Protocol(_)
                | CatalogError::Artifact(_)
                | CatalogError::Timeout { .. }
        )
    }

    /// Runs `f` against a connected client, reconnecting and retrying
    /// on transport-class failures per the [`RetryPolicy`]. With
    /// retries exhausted, fails typed: the raw error when only one
    /// attempt was allowed (pre-resilience behaviour), otherwise
    /// [`CatalogError::RetriesExhausted`].
    ///
    /// `f` receives the trace id to carry in its request frame: 0
    /// (untraced) unless [`ClientConfig::trace`] minted one. Traced
    /// requests record `backoff` / `connect` / `exchange` spans and land
    /// their report in the client's trace ring whether they succeed or
    /// exhaust retries.
    fn with_retry<T>(
        &mut self,
        mut f: impl FnMut(&mut Self, Deadline, u64) -> Result<T, CatalogError>,
    ) -> Result<T, CatalogError> {
        let trace = self.config.trace.then(|| Trace::new(next_trace_id()));
        let trace_id = trace.as_ref().map_or(0, |t| t.id());
        let finish = |trace: Option<Trace>, log: &TraceLog| {
            if let Some(t) = trace {
                log.push(t.report());
            }
        };
        let attempts = self.config.retry.max_attempts.max(1);
        let mut last: Option<CatalogError> = None;
        for attempt in 0..attempts {
            self.metrics.attempts.inc();
            if attempt > 0 {
                self.metrics.retries.inc();
                let _span = trace.as_ref().map(|t| t.span("backoff"));
                std::thread::sleep(self.config.retry.backoff(attempt));
            }
            {
                let _span = trace.as_ref().map(|t| t.span("connect"));
                if let Err(e) = self.ensure_connected() {
                    last = Some(e);
                    continue;
                }
            }
            let deadline = self.deadline();
            let t0 = Instant::now();
            let outcome = {
                let _span = trace.as_ref().map(|t| t.span("exchange"));
                f(self, deadline, trace_id)
            };
            match outcome {
                Ok(v) => {
                    self.metrics.request_us.record(t0.elapsed());
                    finish(trace, &self.trace_log);
                    return Ok(v);
                }
                Err(e) if Self::is_transport(&e) => {
                    if matches!(e, CatalogError::Timeout { .. }) {
                        self.metrics.deadline_hits.inc();
                    }
                    // The stream may be mid-exchange: poison it so the
                    // next attempt reconnects (killing any pipelined
                    // requests that were sharing the connection).
                    self.poison_connection(
                        "a sync exchange hit a transport failure and retried on a fresh \
                         connection; pipelined requests on the old one are lost",
                    );
                    last = Some(e);
                }
                Err(e) => {
                    finish(trace, &self.trace_log);
                    return Err(e);
                }
            }
        }
        finish(trace, &self.trace_log);
        let Some(last) = last else {
            return Err(CatalogError::Protocol(
                "retry loop exited without recording an attempt".into(),
            ));
        };
        if attempts == 1 {
            Err(last)
        } else {
            Err(CatalogError::RetriesExhausted {
                attempts,
                last: Box::new(last),
            })
        }
    }

    /// Drops the stream and fails every in-flight pipelined request
    /// typed: later waits on their handles report `why`.
    fn poison_connection(&mut self, why: &str) {
        self.stream = None;
        if !self.mux.pending.is_empty() {
            self.mux.pending.clear();
            self.mux.poisoned = Some(why.to_string());
        }
    }

    fn deadline(&self) -> Deadline {
        Deadline {
            at: self.config.request_deadline.map(|d| Instant::now() + d),
            budget: self.config.request_deadline.unwrap_or(Duration::ZERO),
        }
    }

    /// Connects (honouring the connect timeout) and performs the
    /// manifest handshake if the stream is currently poisoned. Across
    /// reconnects the grid must not change — a shard silently replaced
    /// by one serving different data is a misconfiguration, not
    /// something to paper over.
    fn ensure_connected(&mut self) -> Result<(), CatalogError> {
        if self.stream.is_some() {
            return Ok(());
        }
        let mut stream = match self.config.connect_timeout {
            Some(timeout) => {
                let mut last: Option<std::io::Error> = None;
                let mut connected = None;
                for sockaddr in self.addr.as_str().to_socket_addrs()? {
                    match TcpStream::connect_timeout(&sockaddr, timeout) {
                        Ok(s) => {
                            connected = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                connected.ok_or_else(|| {
                    CatalogError::Io(last.unwrap_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::AddrNotAvailable,
                            "address resolved to nothing",
                        )
                    }))
                })?
            }
            None => TcpStream::connect(&self.addr)?,
        };
        let _ = stream.set_nodelay(true);
        // The read tick is what lets a blocked read observe the request
        // deadline; writes get the whole deadline budget outright.
        let _ = stream.set_read_timeout(Some(READ_TICK));
        let _ = stream.set_write_timeout(self.config.request_deadline);
        // Handshake on the local stream; it is only stored (making the
        // connection visible to submits) once the handshake succeeds.
        let deadline = self.deadline();
        wire::write_message(&mut stream, &Request::Manifest)?;
        let grid = match Self::read_response(&mut stream, deadline)? {
            Response::Manifest(grid) => grid,
            other => return Err(unexpected(&other)),
        };
        if self.grid.is_some_and(|prev| prev != grid) {
            return Err(CatalogError::Protocol(
                "server grid changed across a reconnect".into(),
            ));
        }
        self.grid = Some(grid);
        self.stream = Some(stream);
        Ok(())
    }

    /// Reads one response frame (ignoring its mux ids — used only for
    /// the handshake, the sole exchange on a fresh connection),
    /// honouring the deadline; maps error frames to
    /// [`CatalogError::Remote`] and deadline expiry to
    /// [`CatalogError::Timeout`].
    fn read_response(stream: &mut TcpStream, deadline: Deadline) -> Result<Response, CatalogError> {
        match wire::read_frame_cancellable(stream, || deadline.expired())? {
            Some(frame) => {
                match <Response as seaice::artifact::Artifact>::from_bytes(&frame.payload)? {
                    Response::Error { code, message } => {
                        Err(CatalogError::Remote { code, message })
                    }
                    response => Ok(response),
                }
            }
            None => Err(deadline.stream_ended()),
        }
    }

    // -- The pipelined core ----------------------------------------------

    /// Writes `request` on the connection under a fresh request id and
    /// registers its demultiplexing slot. Does *not* read anything —
    /// the returned handle is redeemed by [`CatalogClient::wait`], in
    /// any order relative to other outstanding handles. A write failure
    /// poisons the connection (every outstanding handle fails typed).
    fn submit_with<T>(
        &mut self,
        request: &Request,
        trace_id: u64,
        finish: Finish<T>,
    ) -> Result<Pending<T>, CatalogError> {
        self.ensure_connected()?;
        let id = self.mux.alloc_id();
        let Some(stream) = self.stream.as_mut() else {
            return Err(CatalogError::Protocol(
                "connection vanished between connect and submit".into(),
            ));
        };
        if let Err(e) = wire::write_message_mux(stream, request, id, trace_id) {
            self.poison_connection(
                "a pipelined submit failed mid-write; the connection and every request \
                 in flight on it are lost",
            );
            return Err(e);
        }
        self.mux.pending.insert(id, Slot::default());
        Ok(Pending { id, finish })
    }

    /// [`CatalogClient::submit_with`] minting a trace id when
    /// [`ClientConfig::trace`] is on (the server's span log picks it
    /// up; client-side spans only cover sync exchanges).
    fn submit_traced<T>(
        &mut self,
        request: &Request,
        finish: Finish<T>,
    ) -> Result<Pending<T>, CatalogError> {
        let trace_id = if self.config.trace {
            next_trace_id()
        } else {
            0
        };
        self.submit_with(request, trace_id, finish)
    }

    /// Blocks until `pending`'s request completes and returns its typed
    /// answer. Frames belonging to *other* in-flight requests are
    /// demultiplexed into their slots along the way, so handles may be
    /// waited on in any order — including an order different from
    /// completion order on the server. A transport failure (or
    /// deadline expiry) fails every outstanding request on the
    /// connection typed; an error *frame* fails only this request and
    /// the connection stays usable.
    pub fn wait<T>(&mut self, pending: Pending<T>) -> Result<T, CatalogError> {
        let deadline = self.deadline();
        self.wait_deadline(pending, deadline)
    }

    /// [`CatalogClient::wait`] under an explicit, possibly
    /// already-running deadline (the sync facade shares one deadline
    /// across its submit and wait).
    fn wait_deadline<T>(
        &mut self,
        pending: Pending<T>,
        deadline: Deadline,
    ) -> Result<T, CatalogError> {
        loop {
            match self.mux.pending.get(&pending.id) {
                None => {
                    let why = self.mux.poisoned.clone().unwrap_or_else(|| {
                        "request is not in flight (already waited on?)".to_string()
                    });
                    return Err(CatalogError::Protocol(why));
                }
                Some(slot) if slot.done.is_some() => {
                    let slot = self.mux.pending.remove(&pending.id).unwrap_or_default();
                    let Some(done) = slot.done else {
                        return Err(CatalogError::Protocol(
                            "request slot lost its completion between observation and \
                             removal"
                                .into(),
                        ));
                    };
                    if let Response::Error { code, message } = done {
                        return Err(CatalogError::Remote { code, message });
                    }
                    return (pending.finish)(slot.batches, done);
                }
                Some(_) => {}
            }
            let Some(stream) = self.stream.as_mut() else {
                let why = "connection lost with pipelined requests in flight; re-submit on a \
                     fresh connection"
                    .to_string();
                self.poison_connection(&why);
                return Err(CatalogError::Protocol(why));
            };
            match wire::read_frame_cancellable(stream, || deadline.expired()) {
                Ok(Some(frame)) => {
                    if let Err(e) = self.dispatch_frame(frame) {
                        self.poison_connection(
                            "an undecodable or misrouted response frame poisoned the \
                             connection; every request in flight on it is lost",
                        );
                        return Err(e);
                    }
                }
                Ok(None) => {
                    let e = deadline.stream_ended();
                    self.poison_connection(if matches!(e, CatalogError::Timeout { .. }) {
                        "the request deadline expired with pipelined requests in flight"
                    } else {
                        "the server closed the connection with pipelined requests in flight"
                    });
                    return Err(e);
                }
                Err(e) => {
                    self.poison_connection(
                        "a transport failure killed the connection; every request in \
                         flight on it is lost",
                    );
                    return Err(e);
                }
            }
        }
    }

    /// Routes one received frame into its request's slot. Batch frames
    /// accumulate; any other frame completes the slot. A frame for an
    /// id that is not in flight is a protocol violation (the stream
    /// cannot be trusted).
    fn dispatch_frame(&mut self, frame: wire::Frame) -> Result<(), CatalogError> {
        let response = <Response as seaice::artifact::Artifact>::from_bytes(&frame.payload)?;
        let Some(slot) = self.mux.pending.get_mut(&frame.request_id) else {
            return Err(CatalogError::Protocol(format!(
                "response frame for request id {} which is not in flight",
                frame.request_id
            )));
        };
        match response {
            Response::TileBatch(_) | Response::LayerBatch(_) | Response::CellBatch(_) => {
                slot.batches.push(response)
            }
            done => slot.done = Some(done),
        }
        Ok(())
    }

    /// Number of pipelined requests currently in flight.
    pub fn in_flight(&self) -> usize {
        self.mux.pending.len()
    }

    // -- Queries ----------------------------------------------------------

    /// Sends `request` and completes it through `finish` (with
    /// deadline, reconnect, and retry per the config) — the sync facade
    /// over one submit + wait. A retry re-runs the whole exchange from
    /// scratch (partial streams are discarded).
    fn exchange<T>(&mut self, request: &Request, finish: Finish<T>) -> Result<T, CatalogError> {
        self.with_retry(|client, deadline, trace_id| {
            let pending = client.submit_with(request, trace_id, finish)?;
            client.wait_deadline(pending, deadline)
        })
    }

    /// Served [`crate::Catalog::query`] — same fold, same bits.
    pub fn query<Q: Query>(&mut self, query: &Q) -> Result<Output<Q>, CatalogError> {
        let answer = self.exchange(&query.request(TileScope::all()), Q::Answer::decode)?;
        Ok(answer.fold())
    }

    /// Pipelined [`CatalogClient::query`]: submits without reading;
    /// redeem with [`CatalogClient::wait`].
    pub fn submit<Q: Query>(&mut self, query: &Q) -> Result<Pending<Output<Q>>, CatalogError> {
        self.submit_traced(&query.request(TileScope::all()), finish_query::<Q>)
    }

    /// Served [`crate::Catalog::query_rect`].
    pub fn query_rect(
        &mut self,
        rect: &MapRect,
        time: TimeRange,
    ) -> Result<QuerySummary, CatalogError> {
        self.query(&RectQuery { rect: *rect, time })
    }

    /// Served [`crate::Catalog::query_bbox`].
    pub fn query_bbox(
        &mut self,
        bbox: &BoundingBox,
        time: TimeRange,
    ) -> Result<QuerySummary, CatalogError> {
        self.query(&BboxQuery { bbox: *bbox, time })
    }

    /// Served [`crate::Catalog::query_point`].
    pub fn query_point(
        &mut self,
        point: GeoPoint,
        time: TimeRange,
    ) -> Result<Option<CellSummary>, CatalogError> {
        self.query(&PointQuery { point, time })
    }

    /// Served [`crate::Catalog::query_time_range`].
    pub fn query_time_range(
        &mut self,
        time: TimeRange,
    ) -> Result<Vec<(TimeKey, QuerySummary)>, CatalogError> {
        self.query(&TimeRangeQuery { time })
    }

    /// Served [`crate::Catalog::query_cells`].
    pub fn query_cells(
        &mut self,
        rect: &MapRect,
        time: TimeRange,
    ) -> Result<Vec<CellSummary>, CatalogError> {
        self.query(&CellsQuery { rect: *rect, time })
    }

    /// Pipelined [`CatalogClient::query_rect`].
    pub fn submit_query_rect(
        &mut self,
        rect: &MapRect,
        time: TimeRange,
    ) -> Result<Pending<QuerySummary>, CatalogError> {
        self.submit(&RectQuery { rect: *rect, time })
    }

    /// Pipelined [`CatalogClient::query_point`].
    pub fn submit_query_point(
        &mut self,
        point: GeoPoint,
        time: TimeRange,
    ) -> Result<Pending<Option<CellSummary>>, CatalogError> {
        self.submit(&PointQuery { point, time })
    }

    /// Pipelined [`CatalogClient::query_time_range`].
    pub fn submit_query_time_range(
        &mut self,
        time: TimeRange,
    ) -> Result<Pending<Vec<(TimeKey, QuerySummary)>>, CatalogError> {
        self.submit(&TimeRangeQuery { time })
    }

    /// Pipelined [`CatalogClient::query_cells`].
    pub fn submit_query_cells(
        &mut self,
        rect: &MapRect,
        time: TimeRange,
    ) -> Result<Pending<Vec<CellSummary>>, CatalogError> {
        self.submit(&CellsQuery { rect: *rect, time })
    }

    // -- Store-wide RPCs -------------------------------------------------

    /// Scoped counters + chronological layer list.
    pub fn scoped_stats(
        &mut self,
        scope: &TileScope,
    ) -> Result<(CatalogStats, Vec<TimeKey>), CatalogError> {
        match self.exchange(
            &Request::Stats {
                scope: scope.clone(),
            },
            scalar,
        )? {
            Response::Stats { stats, layers } => Ok((stats, layers)),
            other => Err(unexpected(&other)),
        }
    }

    /// Scoped full-store invariant check; returns tiles checked.
    pub fn validate_scoped(&mut self, scope: &TileScope) -> Result<usize, CatalogError> {
        match self.exchange(
            &Request::Validate {
                scope: scope.clone(),
            },
            scalar,
        )? {
            Response::Done { n_records } => Ok(n_records as usize),
            other => Err(unexpected(&other)),
        }
    }

    /// Served [`crate::Catalog::stats`].
    pub fn stats(&mut self) -> Result<CatalogStats, CatalogError> {
        Ok(self.scoped_stats(&TileScope::all())?.0)
    }

    /// Served [`crate::Catalog::validate`].
    pub fn validate(&mut self) -> Result<(), CatalogError> {
        self.validate_scoped(&TileScope::all()).map(|_| ())
    }

    // -- Served writes ----------------------------------------------------

    /// Served [`crate::Catalog::ingest_beam`]: streams one beam's
    /// freeboard product at the server, which merges it under its own
    /// writer lease. Skip-mode duplicate policy (idempotent, so the
    /// configured retry policy is safe to apply).
    pub fn ingest_beam(
        &mut self,
        granule_id: &str,
        beam_index: usize,
        product: &FreeboardProduct,
    ) -> Result<IngestReport, CatalogError> {
        self.ingest_beam_with(granule_id, beam_index, product, IngestMode::Skip)
    }

    /// [`CatalogClient::ingest_beam`] with an explicit re-ingest
    /// policy. A read-only server ([`crate::ServerConfig::allow_writes`]
    /// off) answers with a typed [`CatalogError::Remote`] carrying
    /// [`crate::wire::ERR_READ_ONLY`].
    pub fn ingest_beam_with(
        &mut self,
        granule_id: &str,
        beam_index: usize,
        product: &FreeboardProduct,
        mode: IngestMode,
    ) -> Result<IngestReport, CatalogError> {
        self.exchange(
            &Request::IngestSamples {
                granule_id: granule_id.to_string(),
                beam: beam_index as u32,
                mode,
                product: product.clone(),
            },
            finish_ingested,
        )
    }

    /// Served [`crate::Catalog::ingest_thickness_beam`]: Skip-mode
    /// duplicate policy.
    pub fn ingest_thickness_beam(
        &mut self,
        beam: &BeamThickness,
    ) -> Result<IngestReport, CatalogError> {
        self.ingest_thickness_beam_with(beam, IngestMode::Skip)
    }

    /// [`CatalogClient::ingest_thickness_beam`] with an explicit
    /// re-ingest policy.
    pub fn ingest_thickness_beam_with(
        &mut self,
        beam: &BeamThickness,
        mode: IngestMode,
    ) -> Result<IngestReport, CatalogError> {
        self.exchange(
            &Request::IngestThickness {
                mode,
                beam: beam.clone(),
            },
            finish_ingested,
        )
    }

    // -- The pipelined submit API -----------------------------------------

    /// Pipelined [`CatalogClient::ping`].
    pub fn submit_ping(&mut self) -> Result<Pending<ServerStats>, CatalogError> {
        self.submit_traced(&Request::Ping, finish_pong)
    }

    /// Pipelined [`CatalogClient::introspect`].
    pub fn submit_introspect(&mut self) -> Result<Pending<String>, CatalogError> {
        self.submit_traced(&Request::Introspect, finish_metrics)
    }

    /// Pipelined [`CatalogClient::ingest_beam_with`]: the server
    /// answers ingest RPCs concurrently with queries in flight on this
    /// same connection.
    pub fn submit_ingest_beam(
        &mut self,
        granule_id: &str,
        beam_index: usize,
        product: &FreeboardProduct,
        mode: IngestMode,
    ) -> Result<Pending<IngestReport>, CatalogError> {
        self.submit_traced(
            &Request::IngestSamples {
                granule_id: granule_id.to_string(),
                beam: beam_index as u32,
                mode,
                product: product.clone(),
            },
            finish_ingested,
        )
    }
}

// ---------------------------------------------------------------------------
// Shard routing.
// ---------------------------------------------------------------------------

/// One shard of a sharded catalog deployment: a server address plus the
/// quadkey prefixes it owns.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Server address (`host:port`).
    pub addr: String,
    /// The quadkey prefixes this shard owns.
    pub scope: TileScope,
}

impl ShardSpec {
    /// A spec from an address and prefix strings.
    pub fn new(addr: impl Into<String>, prefixes: &[&str]) -> Result<ShardSpec, CatalogError> {
        Ok(ShardSpec {
            addr: addr.into(),
            scope: TileScope::of(prefixes)?,
        })
    }
}

/// One scope of a replicated deployment: every address serves the same
/// data for the same quadkey prefixes; the router fails over between
/// them.
#[derive(Debug, Clone)]
pub struct ReplicaSpec {
    /// Replica server addresses (`host:port`), preference order.
    pub addrs: Vec<String>,
    /// The quadkey prefixes this replica group owns.
    pub scope: TileScope,
}

impl ReplicaSpec {
    /// A spec from addresses and prefix strings.
    pub fn new(addrs: &[&str], prefixes: &[&str]) -> Result<ReplicaSpec, CatalogError> {
        Ok(ReplicaSpec {
            addrs: addrs.iter().map(|a| a.to_string()).collect(),
            scope: TileScope::of(prefixes)?,
        })
    }
}

/// Router-level resilience settings.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Per-replica-connection settings (deadline, retry, connect
    /// timeout).
    pub client: ClientConfig,
    /// Consecutive transport failures that trip a replica's breaker
    /// open.
    pub breaker_threshold: u32,
    /// How long an open breaker blocks traffic before allowing one
    /// half-open probe attempt.
    pub breaker_cooldown: Duration,
    /// When set, a background thread pings tripped replicas at this
    /// interval and closes their breakers as soon as they answer —
    /// recovery without waiting for live traffic to probe.
    pub probe_interval: Option<Duration>,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            client: ClientConfig::default(),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(1),
            probe_interval: None,
        }
    }
}

/// Circuit-breaker state of one replica connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: traffic flows.
    Closed,
    /// Tripped: traffic is blocked until the cooldown elapses.
    Open,
    /// Cooldown elapsed: the next request (or background ping) is a
    /// probe — success closes the breaker, failure re-opens it.
    HalfOpen,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
}

/// Shared state-transition counters
/// (`router_breaker_transitions_total{to="…"}`) — one set per router,
/// shared by every replica's breaker.
#[derive(Clone)]
struct BreakerMetrics {
    to_closed: Counter,
    to_open: Counter,
    to_half_open: Counter,
}

impl BreakerMetrics {
    fn new(registry: &MetricRegistry) -> BreakerMetrics {
        let to = |s| registry.counter_with("router_breaker_transitions_total", &[("to", s)]);
        BreakerMetrics {
            to_closed: to("closed"),
            to_open: to("open"),
            to_half_open: to("half_open"),
        }
    }
}

/// Per-replica circuit breaker: trips open after
/// [`RouterConfig::breaker_threshold`] consecutive transport failures,
/// blocks traffic for the cooldown, then lets a single half-open probe
/// decide. Shared (`Arc`) between the query path and the background
/// prober.
struct Breaker {
    threshold: u32,
    cooldown: Duration,
    inner: Mutex<BreakerInner>,
    metrics: BreakerMetrics,
}

impl Breaker {
    fn new(threshold: u32, cooldown: Duration, metrics: BreakerMetrics) -> Breaker {
        Breaker {
            threshold: threshold.max(1),
            cooldown,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
            }),
            metrics,
        }
    }

    /// May traffic flow? Flips `Open` → `HalfOpen` once the cooldown
    /// elapses (the caller becomes the probe).
    fn allows(&self) -> bool {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match g.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                let cooled = g.opened_at.is_some_and(|at| at.elapsed() >= self.cooldown);
                if cooled {
                    g.state = BreakerState::HalfOpen;
                    self.metrics.to_half_open.inc();
                }
                cooled
            }
        }
    }

    fn on_success(&self) {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if g.state != BreakerState::Closed {
            self.metrics.to_closed.inc();
        }
        g.state = BreakerState::Closed;
        g.consecutive_failures = 0;
        g.opened_at = None;
    }

    fn on_failure(&self) {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        g.consecutive_failures += 1;
        if g.state == BreakerState::HalfOpen || g.consecutive_failures >= self.threshold {
            if g.state != BreakerState::Open {
                self.metrics.to_open.inc();
            }
            g.state = BreakerState::Open;
            g.opened_at = Some(Instant::now());
        }
    }

    fn state(&self) -> BreakerState {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).state
    }
}

struct Replica {
    addr: String,
    /// `None` until (re)connected; dropped on transport failure.
    client: Option<CatalogClient>,
    breaker: Arc<Breaker>,
}

struct Group {
    scope: TileScope,
    replicas: Vec<Replica>,
}

/// How a replica group answered (or didn't).
enum GroupOutcome<T> {
    /// Some replica answered.
    Ok(T),
    /// Every replica was unreachable (transport-class failures or
    /// breakers open): the scope is missing from the answer.
    Unreachable,
    /// A reachable replica answered with a catalog-side error —
    /// deterministic, so it propagates instead of degrading.
    Failed(CatalogError),
}

/// A routed answer that may be missing scopes: `value` covers every
/// reachable scope, `missing` names (in shard-map order) the scopes no
/// replica could answer for. The strict query methods return
/// [`CatalogError::Degraded`] instead; this type is for callers that
/// prefer a partial answer over none.
#[derive(Debug, Clone)]
pub struct Routed<T> {
    /// The answer over every reachable scope.
    pub value: T,
    /// Scopes with no reachable replica (empty = complete).
    pub missing: Vec<TileScope>,
}

impl<T> Routed<T> {
    /// True when every owned scope answered.
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty()
    }

    /// The value if complete, else a typed [`CatalogError::Degraded`]
    /// naming the missing scopes.
    pub fn into_complete(self) -> Result<T, CatalogError> {
        if self.missing.is_empty() {
            Ok(self.value)
        } else {
            Err(CatalogError::Degraded {
                missing: self.missing,
            })
        }
    }
}

/// A client-side router over shard servers that answers queries
/// bit-identically to one in-process catalog holding all the data.
///
/// Construction verifies the shard map: scopes must be pairwise
/// disjoint (no prefix may contain another's), every shard must serve
/// the same grid, and — when the prefix lengths make the check cheap —
/// the scopes must jointly cover the whole quadkey space at the grid's
/// level, so no tile silently belongs to nobody.
///
/// Each scope may be served by several replicas
/// ([`ShardRouter::connect_replicated`]): queries fail over within the
/// group, per-replica circuit breakers keep traffic off dead servers,
/// and an optional background prober pings tripped replicas back into
/// rotation. [`ShardRouter::routed`] returns [`Routed`] partial answers
/// naming unreachable scopes; the other query methods demand
/// completeness and fail with [`CatalogError::Degraded`] otherwise.
pub struct ShardRouter {
    groups: Vec<Group>,
    grid: GridConfig,
    config: RouterConfig,
    prober: Option<Prober>,
    /// Routed answers that came back missing at least one scope
    /// (`router_degraded_total`).
    degraded: Counter,
}

struct Prober {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Drop for ShardRouter {
    fn drop(&mut self) {
        if let Some(prober) = self.prober.as_mut() {
            prober.stop.store(true, Ordering::SeqCst);
            if let Some(handle) = prober.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

impl ShardRouter {
    /// Connects to every shard (one replica each, default resilience)
    /// and verifies the shard map. Any unreachable shard fails the
    /// construction.
    pub fn connect(specs: &[ShardSpec]) -> Result<ShardRouter, CatalogError> {
        let groups: Vec<ReplicaSpec> = specs
            .iter()
            .map(|s| ReplicaSpec {
                addrs: vec![s.addr.clone()],
                scope: s.scope.clone(),
            })
            .collect();
        Self::connect_replicated(&groups, RouterConfig::default())
    }

    /// Connects a replicated deployment and verifies the shard map. At
    /// least one replica per scope must be reachable (the grid must be
    /// learnable for every scope); the rest start with tripped breakers
    /// and rejoin via half-open probes.
    pub fn connect_replicated(
        specs: &[ReplicaSpec],
        config: RouterConfig,
    ) -> Result<ShardRouter, CatalogError> {
        if specs.is_empty() {
            return Err(CatalogError::Protocol("no shards configured".into()));
        }
        let label = |spec: &ReplicaSpec| spec.addrs.join("|");
        for spec in specs {
            if spec.addrs.is_empty() {
                return Err(CatalogError::Protocol(
                    "a replica group has no addresses".into(),
                ));
            }
            if spec.scope.is_all() && specs.len() > 1 {
                return Err(CatalogError::Protocol(format!(
                    "shard {} owns everything but is not the only shard",
                    label(spec)
                )));
            }
        }
        for (i, a) in specs.iter().enumerate() {
            for b in specs.iter().skip(i + 1) {
                if a.scope.overlaps(&b.scope) {
                    return Err(CatalogError::Protocol(format!(
                        "shard scopes overlap: {} and {}",
                        label(a),
                        label(b)
                    )));
                }
            }
        }
        let breaker_metrics = BreakerMetrics::new(&config.client.registry);
        let degraded = config.client.registry.counter("router_degraded_total");
        let mut groups = Vec::with_capacity(specs.len());
        let mut grid: Option<GridConfig> = None;
        for spec in specs {
            let mut replicas = Vec::with_capacity(spec.addrs.len());
            let mut connected_any = false;
            let mut last_err: Option<CatalogError> = None;
            for addr in &spec.addrs {
                let breaker = Arc::new(Breaker::new(
                    config.breaker_threshold,
                    config.breaker_cooldown,
                    breaker_metrics.clone(),
                ));
                match CatalogClient::connect_with(addr, config.client.clone()) {
                    Ok(client) => {
                        match grid {
                            None => grid = Some(*client.grid()),
                            Some(g) if g != *client.grid() => {
                                return Err(CatalogError::Protocol(
                                    "shards disagree on the catalog grid".into(),
                                ))
                            }
                            Some(_) => {}
                        }
                        connected_any = true;
                        replicas.push(Replica {
                            addr: addr.clone(),
                            client: Some(client),
                            breaker,
                        });
                    }
                    Err(e) => {
                        breaker.on_failure();
                        last_err = Some(e);
                        replicas.push(Replica {
                            addr: addr.clone(),
                            client: None,
                            breaker,
                        });
                    }
                }
            }
            if !connected_any {
                return Err(last_err.unwrap_or_else(|| {
                    CatalogError::Protocol(format!(
                        "shard {} lists no replica addresses",
                        label(spec)
                    ))
                }));
            }
            groups.push(Group {
                scope: spec.scope.clone(),
                replicas,
            });
        }
        let Some(grid) = grid else {
            return Err(CatalogError::Protocol(
                "router configured with no shards: no grid to route against".into(),
            ));
        };
        // A prefix longer than the grid level can never match a tile —
        // that shard's tiles would silently belong to nobody.
        for (i, group) in groups.iter().enumerate() {
            if let Some(p) = group
                .scope
                .prefixes()
                .iter()
                .find(|p| p.len() > grid.level as usize)
            {
                return Err(CatalogError::Protocol(format!(
                    "shard {} prefix '{p}' is deeper than the grid level {}",
                    label(&specs[i]),
                    grid.level
                )));
            }
        }
        let mut router = ShardRouter {
            groups,
            grid,
            config,
            prober: None,
            degraded,
        };
        router.check_covering()?;
        router.spawn_prober();
        Ok(router)
    }

    /// Starts the background half-open prober when configured: pings
    /// every non-`Closed` replica each interval over a fresh throwaway
    /// connection (sockets are never shared across threads) and closes
    /// its breaker on a pong.
    fn spawn_prober(&mut self) {
        let Some(interval) = self.config.probe_interval else {
            return;
        };
        let targets: Vec<(String, Arc<Breaker>)> = self
            .groups
            .iter()
            .flat_map(|g| {
                g.replicas
                    .iter()
                    .map(|r| (r.addr.clone(), Arc::clone(&r.breaker)))
            })
            .collect();
        let mut probe_config = self.config.client.clone();
        probe_config.retry = RetryPolicy::none();
        probe_config.connect_timeout = probe_config
            .connect_timeout
            .or(Some(Duration::from_millis(500)));
        probe_config.request_deadline = probe_config
            .request_deadline
            .or(Some(Duration::from_secs(1)));
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let tick = Duration::from_millis(20);
            let mut since_probe = Duration::ZERO;
            loop {
                if thread_stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(tick);
                since_probe += tick;
                if since_probe < interval {
                    continue;
                }
                since_probe = Duration::ZERO;
                for (addr, breaker) in &targets {
                    if thread_stop.load(Ordering::SeqCst) {
                        return;
                    }
                    if breaker.state() == BreakerState::Closed {
                        continue;
                    }
                    let pong = CatalogClient::connect_with(addr, probe_config.clone())
                        .and_then(|mut probe| probe.ping());
                    match pong {
                        Ok(_) => breaker.on_success(),
                        Err(_) => breaker.on_failure(),
                    }
                }
            }
        });
        self.prober = Some(Prober {
            stop,
            handle: Some(handle),
        });
    }

    /// Rejects shard maps that leave level-`L` quadkeys unowned, where
    /// `L` is the longest configured prefix (already verified to be
    /// within the grid level). Skipped only when a single shard owns
    /// everything or the check would enumerate more than 4^8 keys.
    fn check_covering(&self) -> Result<(), CatalogError> {
        if self.groups.len() == 1 && self.groups[0].scope.is_all() {
            return Ok(());
        }
        let max_len = self
            .groups
            .iter()
            .flat_map(|g| g.scope.prefixes().iter())
            .map(|p| p.len())
            .max()
            .unwrap_or(0);
        if max_len == 0 || max_len > 8 {
            return Ok(());
        }
        let mut key = vec![b'0'; max_len];
        for mut i in 0..(1usize << (2 * max_len)) {
            for digit in key.iter_mut().rev() {
                *digit = b'0' + (i & 3) as u8;
                i >>= 2;
            }
            // sanity: allow(panic_path) -- every byte of `key` was written as `b'0' + (i & 3)` just above, so the slice is always ASCII
            let key_str = std::str::from_utf8(&key).expect("ascii digits");
            let owners = self
                .groups
                .iter()
                .filter(|g| {
                    g.scope
                        .prefixes()
                        .iter()
                        .any(|p| key_str.starts_with(p.as_str()))
                })
                .count();
            if owners != 1 {
                return Err(CatalogError::Protocol(format!(
                    "quadkey prefix '{key_str}' is owned by {owners} shards (want exactly 1)"
                )));
            }
        }
        Ok(())
    }

    /// The shared grid (from the shard manifests).
    pub fn grid(&self) -> &GridConfig {
        &self.grid
    }

    /// Number of scopes (replica groups) routed over.
    pub fn n_shards(&self) -> usize {
        self.groups.len()
    }

    /// The metric registry the router's breaker-transition and
    /// degraded-answer counters record into (shared with its replica
    /// clients via [`RouterConfig::client`]).
    pub fn registry(&self) -> &MetricRegistry {
        &self.config.client.registry
    }

    /// Groups owning at least one of `candidates` (indices).
    fn owners_of(&self, candidates: &[TileId]) -> Vec<usize> {
        (0..self.groups.len())
            .filter(|&i| candidates.iter().any(|t| self.groups[i].scope.matches(t)))
            .collect()
    }

    /// Runs `run` against the replicas of group `gi`, failing over in
    /// preference order. Breakers gate which replicas see traffic;
    /// transport failures trip them, catalog-side errors don't (the
    /// server *answered*).
    fn group_call<T>(
        &mut self,
        gi: usize,
        run: impl Fn(&mut CatalogClient, &TileScope) -> Result<T, CatalogError>,
    ) -> GroupOutcome<T> {
        let client_config = self.config.client.clone();
        let grid = self.grid;
        let group = &mut self.groups[gi];
        let scope = group.scope.clone();
        let mut reachable_err: Option<CatalogError> = None;
        for replica in group.replicas.iter_mut() {
            if !replica.breaker.allows() {
                continue;
            }
            if replica.client.is_none() {
                match CatalogClient::connect_with(&replica.addr, client_config.clone()) {
                    Ok(client) if *client.grid() == grid => replica.client = Some(client),
                    Ok(_) => {
                        // A replica serving a different grid is not a
                        // failover target — misrouted data is worse
                        // than a missing scope.
                        replica.breaker.on_failure();
                        continue;
                    }
                    Err(_) => {
                        replica.breaker.on_failure();
                        continue;
                    }
                }
            }
            let Some(client) = replica.client.as_mut() else {
                continue;
            };
            match run(client, &scope) {
                Ok(v) => {
                    replica.breaker.on_success();
                    return GroupOutcome::Ok(v);
                }
                Err(e)
                    if CatalogClient::is_transport(&e)
                        || matches!(e, CatalogError::RetriesExhausted { .. }) =>
                {
                    replica.breaker.on_failure();
                    replica.client = None;
                }
                Err(e) => {
                    // Reachable but failing catalog-side: deterministic,
                    // still worth trying a healthier replica.
                    replica.breaker.on_success();
                    reachable_err = Some(e);
                }
            }
        }
        match reachable_err {
            Some(e) => GroupOutcome::Failed(e),
            None => GroupOutcome::Unreachable,
        }
    }

    /// Fans `run` out to the groups in `owners`, collecting per-group
    /// results and the scopes that were unreachable.
    fn fan_out<T>(
        &mut self,
        owners: Vec<usize>,
        run: impl Fn(&mut CatalogClient, &TileScope) -> Result<T, CatalogError>,
    ) -> Result<(Vec<T>, Vec<TileScope>), CatalogError> {
        let mut results = Vec::with_capacity(owners.len());
        let mut missing = Vec::new();
        for i in owners {
            match self.group_call(i, &run) {
                GroupOutcome::Ok(v) => results.push(v),
                GroupOutcome::Unreachable => missing.push(self.groups[i].scope.clone()),
                GroupOutcome::Failed(e) => return Err(e),
            }
        }
        if !missing.is_empty() {
            self.degraded.inc();
        }
        Ok((results, missing))
    }

    /// Routes any [`Query`] with degradation: sends it to every group
    /// owning a tile it may touch, merges the reachable answers
    /// bit-identically, and names the unreachable scopes.
    pub fn routed<Q: Query>(&mut self, query: &Q) -> Result<Routed<Output<Q>>, CatalogError> {
        let owners = match query.cover(&self.grid) {
            Some(tiles) => self.owners_of(&tiles),
            None => (0..self.groups.len()).collect(),
        };
        let (parts, missing) = self.fan_out(owners, |c, scope| {
            c.exchange(&query.request(scope.clone()), Q::Answer::decode)
        })?;
        Ok(Routed {
            value: Q::Answer::merge(parts)?.fold(),
            missing,
        })
    }

    /// Routed [`crate::Catalog::query`]: every owner scope must be
    /// reachable.
    pub fn query<Q: Query>(&mut self, query: &Q) -> Result<Output<Q>, CatalogError> {
        self.routed(query)?.into_complete()
    }

    /// Routed [`crate::Catalog::query_rect`].
    pub fn query_rect(
        &mut self,
        rect: &MapRect,
        time: TimeRange,
    ) -> Result<QuerySummary, CatalogError> {
        self.query(&RectQuery { rect: *rect, time })
    }

    /// Routed [`crate::Catalog::query_bbox`].
    pub fn query_bbox(
        &mut self,
        bbox: &BoundingBox,
        time: TimeRange,
    ) -> Result<QuerySummary, CatalogError> {
        self.query(&BboxQuery { bbox: *bbox, time })
    }

    /// Routed [`crate::Catalog::query_point`] — exactly one shard owns the
    /// point's tile.
    pub fn query_point(
        &mut self,
        point: GeoPoint,
        time: TimeRange,
    ) -> Result<Option<CellSummary>, CatalogError> {
        self.query(&PointQuery { point, time })
    }

    /// Routed [`crate::Catalog::query_time_range`].
    pub fn query_time_range(
        &mut self,
        time: TimeRange,
    ) -> Result<Vec<(TimeKey, QuerySummary)>, CatalogError> {
        self.query(&TimeRangeQuery { time })
    }

    /// Routed [`crate::Catalog::query_cells`].
    pub fn query_cells(
        &mut self,
        rect: &MapRect,
        time: TimeRange,
    ) -> Result<Vec<CellSummary>, CatalogError> {
        self.query(&CellsQuery { rect: *rect, time })
    }

    /// Routed [`crate::Catalog::stats`]: tile/sample counts sum across
    /// shards, layer sets union, cache counters sum.
    pub fn stats(&mut self) -> Result<CatalogStats, CatalogError> {
        let owners: Vec<usize> = (0..self.groups.len()).collect();
        let (per_shard, missing) = self.fan_out(owners, |c, scope| c.scoped_stats(scope))?;
        let mut n_tiles = 0usize;
        let mut n_samples = 0usize;
        let mut n_thickness = 0usize;
        let mut cache = crate::cache::CacheStats::default();
        let mut layers: BTreeSet<TimeKey> = BTreeSet::new();
        for (stats, shard_layers) in per_shard {
            n_tiles += stats.n_tiles;
            n_samples += stats.n_samples;
            n_thickness += stats.n_thickness;
            cache.hits += stats.cache.hits;
            cache.misses += stats.cache.misses;
            cache.evictions += stats.cache.evictions;
            layers.extend(shard_layers);
        }
        Routed {
            value: CatalogStats {
                n_layers: layers.len(),
                n_tiles,
                n_samples,
                n_thickness,
                cache,
            },
            missing,
        }
        .into_complete()
    }

    /// Routed [`crate::Catalog::validate`]; returns total tiles checked.
    pub fn validate(&mut self) -> Result<usize, CatalogError> {
        let owners: Vec<usize> = (0..self.groups.len()).collect();
        let (per_shard, missing) = self.fan_out(owners, |c, scope| c.validate_scoped(scope))?;
        Routed {
            value: per_shard.into_iter().sum(),
            missing,
        }
        .into_complete()
    }
}

// ---------------------------------------------------------------------------
// Shard-partitioned ingest.
// ---------------------------------------------------------------------------

/// Splits `points` by the scope owning each point's tile, in order
/// (see [`partition_product`]).
fn split_by_scope<P: Copy>(
    grid: &GridConfig,
    scopes: &[TileScope],
    points: &[P],
    position: impl Fn(&P) -> GeoPoint,
) -> Vec<Vec<P>> {
    let mut outputs: Vec<Vec<P>> = vec![Vec::new(); scopes.len()];
    for p in points {
        let Some((tile, _)) = grid.locate(EPSG_3976.forward(position(p))) else {
            continue;
        };
        if let Some(j) = scopes.iter().position(|s| s.matches(&tile)) {
            outputs[j].push(*p);
        }
    }
    outputs
}

/// Splits one beam product into per-shard products by the owning scope
/// of each point's tile: point `i` of the input lands in output `j` iff
/// `scopes[j]` owns the tile its projected position falls in. Points
/// outside the grid domain (or outside every scope) are dropped —
/// exactly the points a direct [`crate::Catalog::ingest_beam`] would
/// count out of domain. Relative point order is preserved, so per-shard
/// catalogs ingest the same canonical samples a monolithic catalog would.
pub fn partition_product(
    grid: &GridConfig,
    scopes: &[TileScope],
    product: &FreeboardProduct,
) -> Vec<FreeboardProduct> {
    split_by_scope(grid, scopes, &product.points, |p| {
        GeoPoint::new(p.lat, p.lon)
    })
    .into_iter()
    .map(|points| FreeboardProduct {
        name: product.name.clone(),
        points,
    })
    .collect()
}

/// [`partition_product`] over a fleet run's per-beam products: returns
/// one product list per scope, ready for per-shard
/// [`crate::Catalog::ingest_beam`] calls keyed by the original granule/beam.
pub fn partition_products(
    grid: &GridConfig,
    scopes: &[TileScope],
    products: &[seaice::fleet::BeamProducts],
) -> Vec<Vec<(String, usize, FreeboardProduct)>> {
    let mut out: Vec<Vec<(String, usize, FreeboardProduct)>> = vec![Vec::new(); scopes.len()];
    for bp in products {
        let split = partition_product(grid, scopes, &bp.freeboard);
        for (j, product) in split.into_iter().enumerate() {
            if !product.points.is_empty() {
                out[j].push((bp.granule_id.clone(), bp.beam.index(), product));
            }
        }
    }
    out
}

/// [`partition_product`] for thickness-enriched beams: the snow and
/// thickness fields travel verbatim, for per-shard
/// [`crate::Catalog::ingest_thickness_beam`] calls.
pub fn partition_thickness(
    grid: &GridConfig,
    scopes: &[TileScope],
    beam: &BeamThickness,
) -> Vec<BeamThickness> {
    split_by_scope(grid, scopes, &beam.points, |p| GeoPoint::new(p.lat, p.lon))
        .into_iter()
        .map(|points| BeamThickness {
            granule_id: beam.granule_id.clone(),
            beam: beam.beam,
            snow_model: beam.snow_model.clone(),
            points,
        })
        .collect()
}
