//! The catalog wire protocol: length-prefixed frames carrying
//! artifact-tagged request/response messages.
//!
//! This module is the single normative implementation of the protocol
//! specified in `docs/PROTOCOL.md`. The framing reuses the
//! [`seaice::artifact`] conventions end to end — every frame payload is
//! a magic-tagged, versioned, overflow-hardened binary message — so a
//! server can reject foreign or future traffic before decoding a single
//! field, and a non-Rust client can be written from the spec alone.
//!
//! Layering (protocol v2 — framing revision 3):
//!
//! - **Frame**: `u32` little-endian payload length, `u64` little-endian
//!   FNV-1a checksum of the request id, trace id, and payload, `u64`
//!   little-endian **request id** (the multiplexing key: every response
//!   frame echoes the id of the request it answers, so one connection
//!   carries many requests concurrently and responses may interleave
//!   and complete out of order), `u64` little-endian **trace id** (0 =
//!   untraced; a client-minted id echoed by every response frame of the
//!   exchange, so one request can be followed client → router → shard
//!   server), then the payload. Payloads are capped at
//!   [`MAX_FRAME_BYTES`]; both ends drop the connection on oversized
//!   frames. The checksum exists for the failure model: a flipped bit
//!   anywhere in a frame must surface as a typed protocol error, never
//!   decode into a silently wrong answer (or misroute a response to the
//!   wrong in-flight request). Artifact magic/version checks alone
//!   cannot promise that, because a flip inside an `f64` field still
//!   decodes.
//! - **Message**: one framed [`Request`] (`SIRQ` v3) or [`Response`]
//!   (`SIRS` v3). Version 3 is protocol v2: the frame header gained the
//!   request id and the message set gained the served-write RPCs
//!   ([`Request::IngestSamples`] / [`Request::IngestThickness`] /
//!   [`Response::Ingested`]), so both message versions were bumped
//!   together — a v2 peer fails the version check instead of
//!   mis-framing the longer header. (Version 2 was the thickness
//!   revision; version 1 pre-dated thickness.)
//! - **Exchange**: one request, then one or more response frames
//!   carrying its request id. Streamed record responses (tile
//!   partials, layer partials, cell summaries) arrive as batch frames
//!   terminated by [`Response::Done`] carrying the total record count
//!   as an integrity check; scalar responses are a single frame.
//!   Errors arrive as [`Response::Error`] frames and terminate the
//!   exchange. **Ordering contract**: frames of one exchange arrive in
//!   order; frames of different exchanges may interleave arbitrarily,
//!   and exchanges complete in any order. A client that never
//!   pipelines (at most one id in flight) observes exactly the v1
//!   behaviour.

use std::io::{Read, Write};

use icesat_geo::{BoundingBox, GeoPoint};
use seaice::artifact::{Artifact, ArtifactError, Codec, Reader, Writer};
use seaice::freeboard::FreeboardProduct;
use seaice_products::BeamThickness;

use crate::cache::CacheStats;
use crate::grid::{GridConfig, MapRect, TileScope, TimeKey, TimeRange};
use crate::server::ServerStats;
use crate::store::{CatalogStats, CellSummary, IngestMode, IngestReport, TilePartial};
use crate::tile::CellAggregate;
use crate::CatalogError;

/// Hard cap on a frame payload; both ends reject bigger frames.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// Records per streamed batch frame (server-side chunking).
pub const BATCH_RECORDS: usize = 256;

/// Byte budget for the record payload of one streamed batch frame. Well
/// under [`MAX_FRAME_BYTES`], so a batch message (records + vec length +
/// artifact framing) can never hit the cap even if a future record type
/// grows — the server chunks on whichever of this and [`BATCH_RECORDS`]
/// bites first.
pub const MAX_BATCH_BYTES: usize = 1 << 20;

/// Protocol error code: the request frame failed to decode.
pub const ERR_BAD_REQUEST: u16 = 1;
/// Protocol error code: unsupported request tag or version.
pub const ERR_BAD_VERSION: u16 = 2;
/// Protocol error code: the catalog failed to answer.
pub const ERR_CATALOG: u16 = 3;
/// Protocol error code: a write RPC hit a server not configured to
/// accept served writes ([`crate::ServerConfig::allow_writes`]).
pub const ERR_READ_ONLY: u16 = 4;
/// Protocol error code: a request frame reused a request id that is
/// still in flight on the same connection.
pub const ERR_DUP_REQUEST: u16 = 5;

/// Bytes of a frame header: `u32` length, `u64` checksum, `u64`
/// request id, `u64` trace id.
pub const FRAME_HEADER_BYTES: usize = 28;

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

/// One decoded frame: the payload plus its header ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The artifact-framed message bytes.
    pub payload: Vec<u8>,
    /// Multiplexing key: which in-flight request this frame belongs to
    /// (0 on pre-mux exchanges like the sync handshake).
    pub request_id: u64,
    /// Distributed-tracing id (0 = untraced).
    pub trace_id: u64,
}

/// FNV-1a checksum of a frame's request id, trace id, and payload, as
/// carried in the frame header. Single-bit flips anywhere in the
/// header or payload are detected (see the
/// `every_single_bit_flip_is_detected` test), which is what lets the
/// failure model promise "typed error or bit-identical answer" —
/// corruption can never decode into plausible numbers. The ids are
/// covered so a flipped request-id bit cannot silently route a
/// response to the wrong in-flight request, and a flipped trace-id bit
/// cannot mislabel a timing breakdown.
pub fn frame_checksum(request_id: u64, trace_id: u64, payload: &[u8]) -> u64 {
    crate::fnv1a(
        request_id
            .to_le_bytes()
            .into_iter()
            .chain(trace_id.to_le_bytes())
            .chain(payload.iter().copied()),
    )
}

/// Reads the little-endian `u32` at byte offset `off`, as a typed
/// protocol error when `buf` is too short — header parsing must never
/// panic on attacker-controlled input.
fn le_u32(buf: &[u8], off: usize) -> Result<u32, CatalogError> {
    let bytes: [u8; 4] = buf
        .get(off..off + 4)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| {
            CatalogError::Protocol(format!("frame header truncated at byte offset {off}"))
        })?;
    Ok(u32::from_le_bytes(bytes))
}

/// Reads the little-endian `u64` at byte offset `off`: [`le_u32`].
fn le_u64(buf: &[u8], off: usize) -> Result<u64, CatalogError> {
    let bytes: [u8; 8] = buf
        .get(off..off + 8)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| {
            CatalogError::Protocol(format!("frame header truncated at byte offset {off}"))
        })?;
    Ok(u64::from_le_bytes(bytes))
}

/// Writes one untraced, unmultiplexed frame (both ids 0):
/// [`write_frame_mux`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), CatalogError> {
    write_frame_mux(w, payload, 0, 0)
}

/// Encodes one frame (header + payload) into a byte vector — the
/// building block the event-loop server queues into per-connection
/// write buffers. Same cap/typed-error contract as [`write_frame_mux`].
pub fn encode_frame(
    payload: &[u8],
    request_id: u64,
    trace_id: u64,
) -> Result<Vec<u8>, CatalogError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(CatalogError::Protocol(format!(
            "refusing to write a {}-byte frame (cap {MAX_FRAME_BYTES})",
            payload.len()
        )));
    }
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_checksum(request_id, trace_id, payload).to_le_bytes());
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&trace_id.to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Writes one length-prefixed, checksummed frame carrying `request_id`
/// (the multiplexing key; 0 on unmultiplexed exchanges) and `trace_id`
/// (0 = untraced). An oversized payload is a typed
/// [`CatalogError::Protocol`] error *before* anything hits the socket
/// — writing it would poison the connection, because the peer rejects
/// the length prefix and drops the stream mid-exchange.
pub fn write_frame_mux(
    w: &mut impl Write,
    payload: &[u8],
    request_id: u64,
    trace_id: u64,
) -> Result<(), CatalogError> {
    let frame = encode_frame(payload, request_id, trace_id)?;
    w.write_all(&frame).map_err(CatalogError::Io)
}

/// Reads one length-prefixed frame, blocking, discarding the ids.
/// `Ok(None)` is a clean end-of-stream at a frame boundary; EOF inside
/// a frame, an oversized length, or I/O failure are errors.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, CatalogError> {
    Ok(read_frame_cancellable(r, || false)?.map(|f| f.payload))
}

/// [`read_frame`] for sockets with a read timeout: on a timeout that
/// lands *between* frames, `should_stop` decides whether to keep
/// waiting (`false`) or end the stream cleanly (`true`). A timeout
/// inside a frame keeps reading (the peer is mid-send) unless
/// `should_stop` asks to abandon the connection. Returns the full
/// [`Frame`] (payload + request id + trace id).
pub fn read_frame_cancellable(
    r: &mut impl Read,
    mut should_stop: impl FnMut() -> bool,
) -> Result<Option<Frame>, CatalogError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    match read_full(r, &mut header, &mut should_stop)? {
        ReadOutcome::Complete => {}
        ReadOutcome::CleanEof | ReadOutcome::Stopped => return Ok(None),
        ReadOutcome::TruncatedEof => {
            return Err(CatalogError::Protocol(
                "connection closed mid-header".into(),
            ))
        }
    }
    let len = payload_len(&header)?;
    let mut payload = vec![0u8; len];
    match read_full(r, &mut payload, &mut should_stop)? {
        ReadOutcome::Complete => {}
        ReadOutcome::Stopped => return Ok(None),
        ReadOutcome::CleanEof | ReadOutcome::TruncatedEof => {
            return Err(CatalogError::Protocol("connection closed mid-frame".into()))
        }
    }
    checked_frame(&header, payload).map(Some)
}

/// The payload length a frame header declares, refusing hostile
/// lengths before any payload byte is awaited.
fn payload_len(header: &[u8]) -> Result<usize, CatalogError> {
    let len = le_u32(header, 0)? as usize;
    if len > MAX_FRAME_BYTES {
        return Err(CatalogError::Protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    Ok(len)
}

/// Assembles a frame from its header and payload, verifying the
/// checksum over the ids and payload.
fn checked_frame(header: &[u8], payload: Vec<u8>) -> Result<Frame, CatalogError> {
    let expected = le_u64(header, 4)?;
    let request_id = le_u64(header, 12)?;
    let trace_id = le_u64(header, 20)?;
    let got = frame_checksum(request_id, trace_id, &payload);
    if got != expected {
        return Err(CatalogError::Protocol(format!(
            "frame checksum mismatch (header {expected:#018x}, payload {got:#018x}): \
             corrupted stream"
        )));
    }
    Ok(Frame {
        payload,
        request_id,
        trace_id,
    })
}

/// Extracts one complete frame from the front of an accumulation
/// buffer (the nonblocking server's per-connection read buffer).
/// Returns the frame and the bytes consumed, `Ok(None)` when the
/// buffer does not yet hold a complete frame, and a typed error on an
/// oversized length prefix or checksum mismatch — frame-level
/// violations the caller answers by dropping the connection.
pub fn try_extract_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, CatalogError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    // Reject a hostile length before waiting for bytes that are never
    // coming — the cap check must not need the whole header.
    let len = payload_len(buf)?;
    if buf.len() < FRAME_HEADER_BYTES + len {
        return Ok(None);
    }
    let payload = buf
        .get(FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len)
        .ok_or_else(|| {
            CatalogError::Protocol(format!(
                "frame buffer shorter than its declared {len}-byte payload"
            ))
        })?;
    let frame = checked_frame(buf, payload.to_vec())?;
    Ok(Some((frame, FRAME_HEADER_BYTES + len)))
}

enum ReadOutcome {
    Complete,
    /// EOF before the first byte of this read.
    CleanEof,
    /// EOF after some bytes.
    TruncatedEof,
    /// `should_stop` asked to abandon the wait.
    Stopped,
}

/// Fills `buf`, retrying timeout errors, consulting `should_stop` on
/// each timeout tick.
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    should_stop: &mut impl FnMut() -> bool,
) -> Result<ReadOutcome, CatalogError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::CleanEof
                } else {
                    ReadOutcome::TruncatedEof
                })
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if should_stop() {
                    return Ok(ReadOutcome::Stopped);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(CatalogError::Io(e)),
        }
    }
    Ok(ReadOutcome::Complete)
}

/// Frames and writes one artifact-framed message (oversized messages
/// fail typed, see [`write_frame`]).
pub fn write_message<M: Artifact>(w: &mut impl Write, message: &M) -> Result<(), CatalogError> {
    write_frame(w, &message.to_bytes())
}

/// [`write_message`] carrying both a request id and a trace id — the
/// multiplexed send both ends of protocol v2 use.
pub fn write_message_mux<M: Artifact>(
    w: &mut impl Write,
    message: &M,
    request_id: u64,
    trace_id: u64,
) -> Result<(), CatalogError> {
    write_frame_mux(w, &message.to_bytes(), request_id, trace_id)
}

/// Splits `records` into batch index ranges respecting both the record
/// cap and the byte budget: a batch closes when it holds `max_records`
/// or when adding the next record's encoded size would push its record
/// payload past `max_bytes`. Every range is non-empty (a single record
/// larger than the budget still travels — alone), ranges tile
/// `0..records.len()` in order, and the split depends only on the
/// records, so re-chunking is deterministic.
pub fn batch_ranges<T: Codec>(
    records: &[T],
    max_records: usize,
    max_bytes: usize,
) -> Vec<std::ops::Range<usize>> {
    let max_records = max_records.max(1);
    let mut ranges = Vec::new();
    let mut start = 0usize;
    let mut bytes = 0usize;
    for (i, record) in records.iter().enumerate() {
        let mut scratch = Writer::new();
        record.encode(&mut scratch);
        let size = scratch.finish().len();
        let full = i - start >= max_records || (i > start && bytes + size > max_bytes);
        if full {
            ranges.push(start..i);
            start = i;
            bytes = 0;
        }
        bytes += size;
    }
    if start < records.len() {
        ranges.push(start..records.len());
    }
    ranges
}

/// Reads and decodes one message; `Ok(None)` at clean end-of-stream.
pub fn read_message<M: Artifact>(r: &mut impl Read) -> Result<Option<M>, CatalogError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(payload) => Ok(Some(M::from_bytes(&payload)?)),
    }
}

// ---------------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------------

/// One client request (`SIRQ` v3). Every query carries the
/// [`TileScope`] it is restricted to — the shard router sends each
/// shard its owned prefixes, so a tile is answered by exactly one
/// shard even when shard stores overlap.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// The catalog's grid (the handshake — a client needs it for
    /// tile-cover planning and point routing).
    Manifest,
    /// Per-tile partials of a projected-rect summary query.
    QueryRect {
        /// Query rectangle, EPSG-3976 metres.
        rect: MapRect,
        /// Temporal layers included.
        time: TimeRange,
        /// Tiles the responder may touch.
        scope: TileScope,
    },
    /// Per-tile partials of a geographic bounding-box summary query.
    QueryBbox {
        /// Geographic query box.
        bbox: BoundingBox,
        /// Temporal layers included.
        time: TimeRange,
        /// Tiles the responder may touch.
        scope: TileScope,
    },
    /// The aggregated cell under a geographic point.
    QueryPoint {
        /// Probe point.
        point: GeoPoint,
        /// Temporal layers merged (chronological).
        time: TimeRange,
        /// Tiles the responder may touch.
        scope: TileScope,
    },
    /// Per-layer, per-tile partials over a time range.
    QueryTimeRange {
        /// Temporal layers included.
        time: TimeRange,
        /// Tiles the responder may touch.
        scope: TileScope,
    },
    /// The gridded composite over a projected rect.
    QueryCells {
        /// Query rectangle, EPSG-3976 metres.
        rect: MapRect,
        /// Temporal layers merged per cell (chronological).
        time: TimeRange,
        /// Tiles the responder may touch.
        scope: TileScope,
    },
    /// Scoped store counters + layer list.
    Stats {
        /// Tiles counted.
        scope: TileScope,
    },
    /// Scoped full-store invariant check.
    Validate {
        /// Tiles checked.
        scope: TileScope,
    },
    /// Health probe: answers [`Response::Pong`] with the server's
    /// serving counters. Cheap (no catalog access) — this is what
    /// circuit-breaker half-open probes send. A pre-Ping v2 server
    /// answers it with [`ERR_BAD_REQUEST`]; the connection survives.
    Ping,
    /// Observability scrape: answers [`Response::Metrics`] with the
    /// server's full metric snapshot in text exposition format —
    /// per-request-kind latency histograms, error/cache/ingest/lease
    /// counters, and recent traced-request breakdowns — instead of the
    /// fixed `ServerStats` counters. Like Ping, a pre-Introspect v2
    /// server answers [`ERR_BAD_REQUEST`] and the connection survives.
    Introspect,
    /// Served write: ingest one beam's freeboard product under the
    /// server's own writer lease — a thin producer streams products at
    /// a shard server instead of needing an in-process leased writer.
    /// Answers [`Response::Ingested`]. A server without
    /// [`crate::ServerConfig::allow_writes`] answers [`ERR_READ_ONLY`]
    /// and the connection survives. Safe to retry: the catalog's
    /// source-identity idempotency ([`IngestMode::Skip`] re-runs are
    /// byte-stable no-ops, [`IngestMode::Replace`] converges) makes a
    /// duplicate delivery harmless.
    IngestSamples {
        /// ATL03-style granule id (leading `YYYYMM` selects the layer).
        granule_id: String,
        /// Beam index in `0..6` ([`icesat_atl03::Beam::index`]).
        beam: u32,
        /// Re-ingest policy for an already-seen `(granule, beam)`.
        mode: IngestMode,
        /// The freeboard product to merge.
        product: FreeboardProduct,
    },
    /// Served write of a thickness-enriched beam
    /// ([`seaice_products::BeamThickness`]); same lease, idempotency,
    /// and read-only-server semantics as [`Request::IngestSamples`].
    IngestThickness {
        /// Re-ingest policy for an already-seen `(granule, beam)`.
        mode: IngestMode,
        /// The enriched beam to merge.
        beam: BeamThickness,
    },
}

impl Codec for Request {
    fn encode(&self, w: &mut Writer) {
        match self {
            Request::Manifest => w.put_u8(0),
            Request::QueryRect { rect, time, scope } => {
                w.put_u8(1);
                rect.encode(w);
                time.encode(w);
                scope.encode(w);
            }
            Request::QueryBbox { bbox, time, scope } => {
                w.put_u8(2);
                bbox.encode(w);
                time.encode(w);
                scope.encode(w);
            }
            Request::QueryPoint { point, time, scope } => {
                w.put_u8(3);
                point.encode(w);
                time.encode(w);
                scope.encode(w);
            }
            Request::QueryTimeRange { time, scope } => {
                w.put_u8(4);
                time.encode(w);
                scope.encode(w);
            }
            Request::QueryCells { rect, time, scope } => {
                w.put_u8(5);
                rect.encode(w);
                time.encode(w);
                scope.encode(w);
            }
            Request::Stats { scope } => {
                w.put_u8(6);
                scope.encode(w);
            }
            Request::Validate { scope } => {
                w.put_u8(7);
                scope.encode(w);
            }
            Request::Ping => w.put_u8(8),
            Request::Introspect => w.put_u8(9),
            Request::IngestSamples {
                granule_id,
                beam,
                mode,
                product,
            } => {
                w.put_u8(10);
                granule_id.encode(w);
                w.put_u32(*beam);
                mode.encode(w);
                product.encode(w);
            }
            Request::IngestThickness { mode, beam } => {
                w.put_u8(11);
                mode.encode(w);
                beam.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(match r.take_u8()? {
            0 => Request::Manifest,
            1 => Request::QueryRect {
                rect: MapRect::decode(r)?,
                time: TimeRange::decode(r)?,
                scope: TileScope::decode(r)?,
            },
            2 => Request::QueryBbox {
                bbox: BoundingBox::decode(r)?,
                time: TimeRange::decode(r)?,
                scope: TileScope::decode(r)?,
            },
            3 => Request::QueryPoint {
                point: GeoPoint::decode(r)?,
                time: TimeRange::decode(r)?,
                scope: TileScope::decode(r)?,
            },
            4 => Request::QueryTimeRange {
                time: TimeRange::decode(r)?,
                scope: TileScope::decode(r)?,
            },
            5 => Request::QueryCells {
                rect: MapRect::decode(r)?,
                time: TimeRange::decode(r)?,
                scope: TileScope::decode(r)?,
            },
            6 => Request::Stats {
                scope: TileScope::decode(r)?,
            },
            7 => Request::Validate {
                scope: TileScope::decode(r)?,
            },
            8 => Request::Ping,
            9 => Request::Introspect,
            10 => Request::IngestSamples {
                granule_id: String::decode(r)?,
                beam: r.take_u32()?,
                mode: IngestMode::decode(r)?,
                product: FreeboardProduct::decode(r)?,
            },
            11 => Request::IngestThickness {
                mode: IngestMode::decode(r)?,
                beam: BeamThickness::decode(r)?,
            },
            _ => return Err(ArtifactError::Invalid("request kind")),
        })
    }
}

impl Artifact for Request {
    const TAG: [u8; 4] = *b"SIRQ";
    const VERSION: u16 = 3;
}

// ---------------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------------

/// One server response frame (`SIRS` v3).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The catalog's grid (answers [`Request::Manifest`]).
    Manifest(GridConfig),
    /// A batch of per-tile summary partials (rect/bbox queries).
    TileBatch(Vec<TilePartial>),
    /// A batch of per-layer, per-tile partials (time-range queries).
    LayerBatch(Vec<(TimeKey, TilePartial)>),
    /// A batch of gridded composite cells (cell queries).
    CellBatch(Vec<CellSummary>),
    /// The aggregated cell under a probe point, if any.
    Point(Option<CellSummary>),
    /// Scoped counters + chronological layer list.
    Stats {
        /// Scoped store counters.
        stats: CatalogStats,
        /// Scoped temporal layers, chronological.
        layers: Vec<TimeKey>,
    },
    /// Terminates a streamed response; `n_records` is the total record
    /// count across the preceding batches (integrity check). Also the
    /// success reply to [`Request::Validate`], where it carries the
    /// number of tiles checked.
    Done {
        /// Total records streamed before this frame.
        n_records: u64,
    },
    /// The request failed; terminates the exchange.
    Error {
        /// Protocol error code (`ERR_*`).
        code: u16,
        /// Human-readable description.
        message: String,
    },
    /// Health-probe reply (answers [`Request::Ping`]): a snapshot of
    /// the server's serving counters.
    Pong(ServerStats),
    /// Observability scrape reply (answers [`Request::Introspect`]):
    /// the server's metric snapshot as sorted text-exposition lines
    /// (`name{label="v"} value`), parseable with
    /// `seaice_obs::parse_exposition`.
    Metrics(String),
    /// Served-write reply (answers [`Request::IngestSamples`] /
    /// [`Request::IngestThickness`]): what the leased merge did.
    Ingested(IngestReport),
}

impl Codec for Response {
    fn encode(&self, w: &mut Writer) {
        match self {
            Response::Manifest(grid) => {
                w.put_u8(0);
                grid.encode(w);
            }
            Response::TileBatch(batch) => {
                w.put_u8(1);
                batch.encode(w);
            }
            Response::LayerBatch(batch) => {
                w.put_u8(2);
                batch.encode(w);
            }
            Response::CellBatch(batch) => {
                w.put_u8(3);
                batch.encode(w);
            }
            Response::Point(cell) => {
                w.put_u8(4);
                cell.encode(w);
            }
            Response::Stats { stats, layers } => {
                w.put_u8(5);
                stats.encode(w);
                layers.encode(w);
            }
            Response::Done { n_records } => {
                w.put_u8(6);
                w.put_u64(*n_records);
            }
            Response::Error { code, message } => {
                w.put_u8(7);
                w.put_u16(*code);
                message.encode(w);
            }
            Response::Pong(stats) => {
                w.put_u8(8);
                stats.encode(w);
            }
            Response::Metrics(text) => {
                w.put_u8(9);
                text.encode(w);
            }
            Response::Ingested(report) => {
                w.put_u8(10);
                report.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(match r.take_u8()? {
            0 => Response::Manifest(GridConfig::decode(r)?),
            1 => Response::TileBatch(Vec::decode(r)?),
            2 => Response::LayerBatch(Vec::decode(r)?),
            3 => Response::CellBatch(Vec::decode(r)?),
            4 => Response::Point(Option::decode(r)?),
            5 => Response::Stats {
                stats: CatalogStats::decode(r)?,
                layers: Vec::decode(r)?,
            },
            6 => Response::Done {
                n_records: r.take_u64()?,
            },
            7 => Response::Error {
                code: r.take_u16()?,
                message: String::decode(r)?,
            },
            8 => Response::Pong(ServerStats::decode(r)?),
            9 => Response::Metrics(String::decode(r)?),
            10 => Response::Ingested(IngestReport::decode(r)?),
            _ => return Err(ArtifactError::Invalid("response kind")),
        })
    }
}

impl Artifact for Response {
    const TAG: [u8; 4] = *b"SIRS";
    const VERSION: u16 = 3;
}

// ---------------------------------------------------------------------------
// Codec impls for the payload records that cross the wire.
// ---------------------------------------------------------------------------

impl Codec for CellSummary {
    fn encode(&self, w: &mut Writer) {
        self.tile.encode(w);
        w.put_u32(self.cell);
        self.center.encode(w);
        self.agg.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(CellSummary {
            tile: crate::grid::TileId::decode(r)?,
            cell: r.take_u32()?,
            center: icesat_geo::MapPoint::decode(r)?,
            agg: CellAggregate::decode(r)?,
        })
    }
}

impl Codec for CacheStats {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_u64(self.evictions);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(CacheStats {
            hits: r.take_u64()?,
            misses: r.take_u64()?,
            evictions: r.take_u64()?,
        })
    }
}

impl Codec for ServerStats {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.connections);
        w.put_u64(self.requests);
        w.put_u64(self.records_streamed);
        w.put_u64(self.errors);
        w.put_u64(self.idle_dropped);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(ServerStats {
            connections: r.take_u64()?,
            requests: r.take_u64()?,
            records_streamed: r.take_u64()?,
            errors: r.take_u64()?,
            idle_dropped: r.take_u64()?,
        })
    }
}

impl Codec for IngestMode {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            IngestMode::Skip => 0,
            IngestMode::Replace => 1,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(match r.take_u8()? {
            0 => IngestMode::Skip,
            1 => IngestMode::Replace,
            _ => return Err(ArtifactError::Invalid("ingest mode")),
        })
    }
}

impl Codec for IngestReport {
    fn encode(&self, w: &mut Writer) {
        self.n_samples.encode(w);
        self.n_out_of_domain.encode(w);
        self.n_skipped.encode(w);
        self.n_replaced.encode(w);
        self.n_tiles.encode(w);
        self.n_layers.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(IngestReport {
            n_samples: usize::decode(r)?,
            n_out_of_domain: usize::decode(r)?,
            n_skipped: usize::decode(r)?,
            n_replaced: usize::decode(r)?,
            n_tiles: usize::decode(r)?,
            n_layers: usize::decode(r)?,
        })
    }
}

impl Codec for CatalogStats {
    fn encode(&self, w: &mut Writer) {
        self.n_layers.encode(w);
        self.n_tiles.encode(w);
        self.n_samples.encode(w);
        self.n_thickness.encode(w);
        self.cache.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(CatalogStats {
            n_layers: usize::decode(r)?,
            n_tiles: usize::decode(r)?,
            n_samples: usize::decode(r)?,
            n_thickness: usize::decode(r)?,
            cache: CacheStats::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{TileId, TimeKey};
    use icesat_geo::MapPoint;

    fn partial() -> TilePartial {
        TilePartial {
            tile: TileId::new(3, 2, 5).unwrap(),
            n_samples: 12,
            class_counts: [5, 4, 3],
            n_ice: 9,
            ice_sum_m: 2.25,
            min_freeboard_m: -0.02,
            max_freeboard_m: 0.61,
            n_cells: 4,
            t_n: 6,
            t_sum_m: 9.5,
            t_w_sum: 30.0,
            t_wt_sum: 48.0,
        }
    }

    fn roundtrip<M: Artifact + PartialEq + std::fmt::Debug>(m: &M) {
        let mut buf: Vec<u8> = Vec::new();
        write_message(&mut buf, m).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let back: M = read_message(&mut cursor).unwrap().expect("one message");
        assert_eq!(&back, m);
        assert!(
            matches!(read_message::<M>(&mut cursor), Ok(None)),
            "clean EOF"
        );
    }

    /// One request of every kind.
    fn requests() -> Vec<Request> {
        let scope = TileScope::of(&["0", "31"]).unwrap();
        let rect = MapRect::new(MapPoint::new(-1.0, -2.0), MapPoint::new(3.0, 4.0));
        let time = TimeRange::only(TimeKey::new(2019, 11).unwrap());
        vec![
            Request::Manifest,
            Request::QueryRect {
                rect,
                time,
                scope: scope.clone(),
            },
            Request::QueryBbox {
                bbox: icesat_geo::BoundingBox::ROSS_SEA,
                time,
                scope: scope.clone(),
            },
            Request::QueryPoint {
                point: GeoPoint::new(-74.0, -163.0),
                time,
                scope: scope.clone(),
            },
            Request::QueryTimeRange {
                time: TimeRange::all(),
                scope: scope.clone(),
            },
            Request::QueryCells {
                rect,
                time,
                scope: scope.clone(),
            },
            Request::Stats {
                scope: scope.clone(),
            },
            Request::Validate { scope },
            Request::Ping,
            Request::Introspect,
            Request::IngestSamples {
                granule_id: "20191104195311_05000211".into(),
                beam: 2,
                mode: crate::store::IngestMode::Replace,
                product: seaice::freeboard::FreeboardProduct {
                    name: "wire roundtrip".into(),
                    points: vec![seaice::freeboard::FreeboardPoint {
                        along_track_m: 12.0,
                        lat: -74.25,
                        lon: -163.5,
                        freeboard_m: 0.31,
                        class: icesat_scene::SurfaceClass::ThickIce,
                    }],
                },
            },
            Request::IngestThickness {
                mode: crate::store::IngestMode::Skip,
                beam: seaice_products::BeamThickness {
                    granule_id: "20191104195311_05000211".into(),
                    beam: icesat_atl03::Beam::Gt2l,
                    snow_model: "climatology".into(),
                    points: vec![seaice_products::ProductPoint {
                        along_track_m: 12.0,
                        lat: -74.25,
                        lon: -163.5,
                        freeboard_m: 0.31,
                        class: icesat_scene::SurfaceClass::ThickIce,
                        snow_depth_m: 0.12,
                        snow_sigma_m: 0.04,
                        thickness_m: 1.7,
                        thickness_sigma_m: 0.5,
                    }],
                },
            },
        ]
    }

    #[test]
    fn requests_roundtrip_through_frames() {
        for request in requests() {
            roundtrip(&request);
        }
    }

    #[test]
    fn mux_frames_carry_and_checksum_both_ids() {
        let message = Request::Ping;
        let mut buf = Vec::new();
        write_message_mux(&mut buf, &message, 41, 0xDEAD_BEEF_CAFE_F00D).unwrap();
        let frame = read_frame_cancellable(&mut std::io::Cursor::new(buf.clone()), || false)
            .unwrap()
            .expect("one frame");
        assert_eq!(frame.request_id, 41);
        assert_eq!(frame.trace_id, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(Request::from_bytes(&frame.payload).unwrap(), message);
        // An unmultiplexed, untraced write reads back with both ids 0.
        let mut plain = Vec::new();
        write_message(&mut plain, &message).unwrap();
        let f = read_frame_cancellable(&mut std::io::Cursor::new(plain), || false)
            .unwrap()
            .expect("one frame");
        assert_eq!((f.request_id, f.trace_id), (0, 0));
        // Any single-bit flip of the request-id or trace-id field is
        // caught by the checksum — a corrupted request id can never
        // route a response to the wrong in-flight exchange, and a
        // corrupted trace id can never mislabel a breakdown.
        for byte in 12..FRAME_HEADER_BYTES {
            for bit in 0..8 {
                let mut corrupt = buf.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    read_frame(&mut std::io::Cursor::new(corrupt)).is_err(),
                    "header-id flip byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn try_extract_frame_handles_partial_and_hostile_buffers() {
        let mut buf = Vec::new();
        write_message_mux(&mut buf, &Request::Ping, 7, 9).unwrap();
        write_message_mux(&mut buf, &Request::Manifest, 8, 0).unwrap();
        // Every strict prefix short of the first frame is incomplete.
        let first_len = {
            let (frame, consumed) = try_extract_frame(&buf).unwrap().expect("complete frame");
            assert_eq!((frame.request_id, frame.trace_id), (7, 9));
            assert_eq!(Request::from_bytes(&frame.payload).unwrap(), Request::Ping);
            consumed
        };
        for cut in 0..first_len {
            assert!(
                try_extract_frame(&buf[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes should be incomplete"
            );
        }
        // Consuming the first frame leaves the second extractable.
        let (frame, consumed) = try_extract_frame(&buf[first_len..])
            .unwrap()
            .expect("second frame");
        assert_eq!(frame.request_id, 8);
        assert_eq!(first_len + consumed, buf.len());
        // Hostile length prefix fails before the header completes.
        assert!(try_extract_frame(&u32::MAX.to_le_bytes()).is_err());
        // A flipped payload bit fails typed.
        let mut corrupt = buf.clone();
        corrupt[FRAME_HEADER_BYTES] ^= 0x10;
        assert!(try_extract_frame(&corrupt).is_err());
    }

    /// One response of every kind.
    fn responses() -> Vec<Response> {
        let cell = CellSummary {
            tile: TileId::new(2, 1, 1).unwrap(),
            cell: 17,
            center: MapPoint::new(100.0, -200.0),
            agg: CellAggregate {
                n: 3,
                class_counts: [1, 1, 1],
                ice_n: 2,
                ice_sum_m: 0.5,
                min_freeboard_m: 0.0,
                max_freeboard_m: 0.4,
                t_n: 2,
                t_sum_m: 3.2,
                t_w_sum: 12.5,
                t_wt_sum: 20.0,
                t_p95_m: 1.9,
            },
        };
        vec![
            Response::Manifest(GridConfig::ross_sea()),
            Response::TileBatch(vec![partial(), partial()]),
            Response::LayerBatch(vec![(TimeKey::new(2019, 9).unwrap(), partial())]),
            Response::CellBatch(vec![cell]),
            Response::Point(Some(cell)),
            Response::Point(None),
            Response::Stats {
                stats: CatalogStats {
                    n_layers: 2,
                    n_tiles: 5,
                    n_samples: 1234,
                    n_thickness: 321,
                    cache: CacheStats {
                        hits: 10,
                        misses: 3,
                        evictions: 1,
                    },
                },
                layers: vec![
                    TimeKey::new(2019, 9).unwrap(),
                    TimeKey::new(2019, 11).unwrap(),
                ],
            },
            Response::Done { n_records: 42 },
            Response::Error {
                code: ERR_CATALOG,
                message: "boom".into(),
            },
            Response::Pong(ServerStats {
                connections: 4,
                requests: 100,
                records_streamed: 5000,
                errors: 2,
                idle_dropped: 1,
            }),
            Response::Metrics("server_requests_total{kind=\"query_rect\"} 7\n".into()),
            Response::Ingested(IngestReport {
                n_samples: 420,
                n_out_of_domain: 3,
                n_skipped: 0,
                n_replaced: 17,
                n_tiles: 9,
                n_layers: 1,
            }),
        ]
    }

    #[test]
    fn responses_roundtrip_through_frames() {
        for response in responses() {
            roundtrip(&response);
        }
    }

    /// Exact v3 frames (request id 7, trace id `0x0102030405060708`) of
    /// [`requests`] then [`responses`], in order. A round trip cannot
    /// catch an encoding change made on both sides at once; these bytes
    /// can. A deliberate wire change bumps the message version and
    /// `docs/PROTOCOL.md` along with them.
    const GOLDEN_FRAMES: [&str; 24] = [
        "0700000074c0bd70235a78180700000000000000080706050403020153495251030000",
        "40000000d3e845e0e0e870a10700000000000000080706050403020153495251030001000000000000f0bf00000000000000c000000000000008400000000000001040e3070be3070b02000000000000000100000030020000003331",
        "40000000bc73efd83c1bc400070000000000000008070605040302015349525103000200000000008066c000000000008061c000000000008053c000000000008051c0e3070be3070b02000000000000000100000030020000003331",
        "3000000048ffcc41124d34fd070000000000000008070605040302015349525103000300000000008052c000000000006064c0e3070be3070b02000000000000000100000030020000003331",
        "20000000aa6eabe402fe18090700000000000000080706050403020153495251030004000001ffff0c02000000000000000100000030020000003331",
        "4000000057f6b4ca988ee3c50700000000000000080706050403020153495251030005000000000000f0bf00000000000000c000000000000008400000000000001040e3070be3070b02000000000000000100000030020000003331",
        "1a0000006901bdb512ea1dbd070000000000000008070605040302015349525103000602000000000000000100000030020000003331",
        "1a000000fc3d452445f9d231070000000000000008070605040302015349525103000702000000000000000100000030020000003331",
        "07000000dcb2bd70235278180700000000000000080706050403020153495251030008",
        "070000008fb4bd70235378180700000000000000080706050403020153495251030009",
        "6200000059c47b98623ec155070000000000000008070605040302015349525103000a1700000032303139313130343139353331315f303530303032313102000000010e0000007769726520726f756e64747269700100000000000000000000000000284000000000009052c000000000007064c0d7a3703d0ad7d33f00",
        "7c00000023f52e326aede41f070000000000000008070605040302015349525103000b001700000032303139313130343139353331315f3035303030323131020b000000636c696d61746f6c6f67790100000000000000000000000000284000000000009052c000000000007064c0d7a3703d0ad7d33f00b81e85eb51b8be3f7b14ae47e17aa43f333333333333fb3f000000000000e03f",
        "2200000047ce048ce4e1c03e07000000000000000807060504030201534952530300003c7cd5cc613422c1cc0cd8ae250239c100000000006a2841044000",
        "f1000000bfa2523642958bcb070000000000000008070605040302015349525303000102000000000000000302000000050000000c00000000000000050000000000000004000000000000000300000000000000090000000000000000000000000002407b14ae47e17a94bf85eb51b81e85e33f0400000000000000060000000000000000000000000023400000000000003e4000000000000048400302000000050000000c00000000000000050000000000000004000000000000000300000000000000090000000000000000000000000002407b14ae47e17a94bf85eb51b81e85e33f0400000000000000060000000000000000000000000023400000000000003e400000000000004840",
        "83000000c662caa6dd140ece07000000000000000807060504030201534952530300020100000000000000e307090302000000050000000c00000000000000050000000000000004000000000000000300000000000000090000000000000000000000000002407b14ae47e17a94bf85eb51b81e85e33f0400000000000000060000000000000000000000000023400000000000003e400000000000004840",
        "9400000065e0a81a3598efe40700000000000000080706050403020153495253030003010000000000000002010000000100000011000000000000000000594000000000000069c003000000000000000100000000000000010000000000000001000000000000000200000000000000000000000000e03f00000000000000009a9999999999d93f02000000000000009a9999999999094000000000000029400000000000003440666666666666fe3f",
        "8d000000e8c2428c99dc1f8807000000000000000807060504030201534952530300040102010000000100000011000000000000000000594000000000000069c003000000000000000100000000000000010000000000000001000000000000000200000000000000000000000000e03f00000000000000009a9999999999d93f02000000000000009a9999999999094000000000000029400000000000003440666666666666fe3f",
        "08000000823fd8e5ae7c7ceb070000000000000008070605040302015349525303000400",
        "4d0000003cac79806951dbe3070000000000000008070605040302015349525303000502000000000000000500000000000000d20400000000000041010000000000000a00000000000000030000000000000001000000000000000200000000000000e30709e3070b",
        "0f0000007a35492053aeb0c907000000000000000807060504030201534952530300062a00000000000000",
        "110000008f7ad35232f55e000700000000000000080706050403020153495253030007030004000000626f6f6d",
        "2f000000845e94a592403a02070000000000000008070605040302015349525303000804000000000000006400000000000000881300000000000002000000000000000100000000000000",
        "36000000cec84b833ed5930107000000000000000807060504030201534952530300092b0000007365727665725f72657175657374735f746f74616c7b6b696e643d2271756572795f72656374227d20370a",
        "37000000f16451eab19a3d74070000000000000008070605040302015349525303000aa40100000000000003000000000000000000000000000000110000000000000009000000000000000100000000000000",
    ];

    #[test]
    fn frames_match_golden_v3_bytes() {
        let requests = requests()
            .into_iter()
            .map(|m| (format!("{m:?}"), m.to_bytes()));
        let responses = responses()
            .into_iter()
            .map(|m| (format!("{m:?}"), m.to_bytes()));
        let messages: Vec<_> = requests.chain(responses).collect();
        assert_eq!(
            messages.len(),
            GOLDEN_FRAMES.len(),
            "one golden frame per message"
        );
        for ((what, payload), golden) in messages.iter().zip(GOLDEN_FRAMES) {
            let frame = encode_frame(payload, 7, 0x0102_0304_0506_0708).unwrap();
            let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, golden, "{what}");
        }
    }

    /// The failure-model keystone: flip any single bit of a framed
    /// message — header length, header checksum, or payload — and the
    /// read must fail typed. Without the frame checksum a flip inside
    /// an `f64` field decodes silently into a wrong answer; this test
    /// is why the chaos suite can promise bit-identical-or-typed-error
    /// under byte corruption.
    #[test]
    fn every_single_bit_flip_is_detected() {
        let message = Response::TileBatch(vec![partial(), partial()]);
        let mut clean = Vec::new();
        write_message(&mut clean, &message).unwrap();
        let back: Response = read_message(&mut std::io::Cursor::new(clean.clone()))
            .unwrap()
            .expect("clean frame reads back");
        assert_eq!(back, message);
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut corrupt = clean.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    read_message::<Response>(&mut std::io::Cursor::new(corrupt)).is_err(),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    /// Release-exercised (CI runs this suite with `--release`): the
    /// frame cap must hold without `debug_assert!` — an oversized
    /// payload is a typed protocol error, not a poisoned connection.
    #[test]
    fn oversized_frame_write_fails_typed_before_touching_the_stream() {
        let payload = vec![0u8; MAX_FRAME_BYTES + 1];
        let mut sink: Vec<u8> = Vec::new();
        match write_frame(&mut sink, &payload) {
            Err(CatalogError::Protocol(_)) => {}
            other => panic!("expected a typed protocol error, got {other:?}"),
        }
        assert!(sink.is_empty(), "nothing was written");
        // A message crossing the cap fails the same way.
        let message = Response::Error {
            code: ERR_CATALOG,
            message: "x".repeat(MAX_FRAME_BYTES),
        };
        assert!(matches!(
            write_message(&mut sink, &message),
            Err(CatalogError::Protocol(_))
        ));
        assert!(sink.is_empty());
    }

    /// An unchunked encoding of this many partials would cross the 4 MiB
    /// frame cap; the byte-budget chunking must keep every batch frame
    /// under it (and the record cap) while covering every record in
    /// order.
    #[test]
    fn oversized_batches_chunk_under_the_frame_cap() {
        let records: Vec<TilePartial> = (0..60_000)
            .map(|i| {
                let mut p = partial();
                p.n_samples = i;
                p
            })
            .collect();
        let mut one = Writer::new();
        records.encode(&mut one);
        assert!(
            one.finish().len() > MAX_FRAME_BYTES,
            "workload must exceed the cap unchunked"
        );
        let ranges = batch_ranges(&records, usize::MAX, MAX_BATCH_BYTES);
        assert!(ranges.len() > 1);
        let mut covered = 0usize;
        for range in &ranges {
            assert_eq!(range.start, covered, "ranges tile in order");
            covered = range.end;
            let frame = Response::TileBatch(records[range.clone()].to_vec()).to_bytes();
            assert!(frame.len() <= MAX_FRAME_BYTES, "batch frame over the cap");
            // Round-trips like any other frame.
            let mut buf = Vec::new();
            write_frame(&mut buf, &frame).unwrap();
            assert!(read_frame(&mut std::io::Cursor::new(buf))
                .unwrap()
                .is_some());
        }
        assert_eq!(covered, records.len(), "every record travels");
        // The record cap still bites when it is the tighter bound.
        let small = batch_ranges(&records[..1000], BATCH_RECORDS, MAX_BATCH_BYTES);
        assert!(small.iter().all(|r| r.len() <= BATCH_RECORDS));
        // Degenerate inputs stay sane.
        assert!(batch_ranges::<TilePartial>(&[], BATCH_RECORDS, MAX_BATCH_BYTES).is_empty());
        let lone = batch_ranges(&records[..1], 4, 1);
        assert_eq!(lone, vec![0..1], "a record above the budget travels alone");
    }

    #[test]
    fn hostile_frames_error_not_panic() {
        // Oversized length prefix.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(buf)),
            Err(CatalogError::Protocol(_))
        ));
        // Truncated header.
        assert!(read_frame(&mut std::io::Cursor::new(vec![1u8, 0])).is_err());
        // Truncated payload.
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_le_bytes());
        buf.extend_from_slice(&[1, 2, 3]);
        assert!(read_frame(&mut std::io::Cursor::new(buf)).is_err());
        // Wrong magic in an otherwise valid frame.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"XXXX\x01\x00\x00").unwrap();
        assert!(matches!(
            read_message::<Request>(&mut std::io::Cursor::new(buf)),
            Err(CatalogError::Artifact(ArtifactError::BadMagic))
        ));
        // Future version.
        let mut payload = Vec::new();
        payload.extend_from_slice(b"SIRQ");
        payload.extend_from_slice(&4u16.to_le_bytes());
        payload.push(0);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        assert!(matches!(
            read_message::<Request>(&mut std::io::Cursor::new(buf)),
            Err(CatalogError::Artifact(ArtifactError::BadVersion(4)))
        ));
        // Superseded versions: v1 (pre-thickness payload layouts) and
        // v2 (pre-mux framing, no request ids or write RPCs).
        for old in [1u16, 2] {
            let mut payload = Vec::new();
            payload.extend_from_slice(b"SIRQ");
            payload.extend_from_slice(&old.to_le_bytes());
            payload.push(0);
            let mut buf = Vec::new();
            write_frame(&mut buf, &payload).unwrap();
            match read_message::<Request>(&mut std::io::Cursor::new(buf)) {
                Err(CatalogError::Artifact(ArtifactError::BadVersion(v))) => assert_eq!(v, old),
                other => panic!("superseded v{old} decoded as {other:?}"),
            }
        }
        // Truncated request body inside a well-formed frame.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"SIRQ\x03\x00").unwrap();
        assert!(read_message::<Request>(&mut std::io::Cursor::new(buf)).is_err());
    }
}
