//! One definition per query kind.
//!
//! Each of the five query kinds (rect, bbox, point, time-range, cells)
//! is a small struct implementing [`Query`]: its wire request, its
//! scoped [`Catalog`] kernel, and the tiles it may touch (which decide
//! the shard groups that own it). Its per-scope answer implements
//! [`Answer`]: how the answer's frames go out and decode, how answers of
//! disjoint shard scopes merge, and the fold the caller sees.
//!
//! Every layer runs on these two traits ([`Catalog::query`], the
//! server's one query arm, [`crate::CatalogClient::query`] /
//! [`crate::CatalogClient::submit`], [`crate::ShardRouter::routed`]),
//! so the answer is the same fold, bit for bit, on every path. The
//! typed `query_<kind>` methods are one-line calls into it.

use std::collections::{BTreeMap, BTreeSet};

use icesat_geo::{BoundingBox, GeoPoint, EPSG_3976};
use seaice::artifact::Codec;

use crate::grid::{GridConfig, MapRect, TileId, TileScope, TimeKey, TimeRange};
use crate::store::{Catalog, CellSummary, QuerySummary, TilePartial};
use crate::wire::{self, Request, Response, BATCH_RECORDS, MAX_BATCH_BYTES};
use crate::CatalogError;

mod sealed {
    pub trait Sealed {}
}

/// One query kind: its wire request, its scoped store call, and the
/// tiles it may touch. Sealed: the five kinds below are the whole set.
pub trait Query: sealed::Sealed {
    /// What one scope answers with.
    type Answer: Answer;

    /// The wire request asking a server for this query over `scope`.
    fn request(&self, scope: TileScope) -> Request;

    /// The store kernel answering this query over `scope`.
    fn scoped(&self, catalog: &Catalog, scope: &TileScope) -> Result<Self::Answer, CatalogError>;

    /// The tiles of `grid` this query may touch; the router sends it to
    /// every group owning one of them. `None` means every tile.
    fn cover(&self, grid: &GridConfig) -> Option<Vec<TileId>>;
}

/// What a caller of query `Q` gets back.
pub type Output<Q> = <<Q as Query>::Answer as Answer>::Output;

/// Where an answer's response frames go, in order.
pub type Sink<'a> = dyn FnMut(Response) -> Result<(), CatalogError> + 'a;

/// A per-scope answer: how it crosses the wire, merges across shards,
/// and folds into the caller-facing value. Sealed, like [`Query`].
pub trait Answer: Sized + sealed::Sealed {
    /// The folded, caller-facing value.
    type Output;

    /// Sends the response frames carrying this answer, the terminal
    /// frame last. Returns the number of streamed records.
    fn send(self, sink: &mut Sink<'_>) -> Result<u64, CatalogError>;

    /// Rebuilds an answer from one exchange's batch frames and its
    /// completing frame.
    fn decode(batches: Vec<Response>, done: Response) -> Result<Self, CatalogError>;

    /// Merges the answers of disjoint shard scopes. A record two shards
    /// both answered is a misconfigured shard map, not a bigger answer.
    fn merge(parts: Vec<Self>) -> Result<Self, CatalogError>;

    /// The caller-facing fold.
    fn fold(self) -> Self::Output;
}

/// Summary of every sample whose projected position falls in `rect`
/// ([`Catalog::query_rect`]).
#[derive(Debug, Clone, Copy)]
pub struct RectQuery {
    /// Query rectangle, EPSG-3976 metres.
    pub rect: MapRect,
    /// Temporal layers included.
    pub time: TimeRange,
}

/// Summary of every sample inside a geographic bounding box
/// ([`Catalog::query_bbox`]).
#[derive(Debug, Clone, Copy)]
pub struct BboxQuery {
    /// Geographic query box.
    pub bbox: BoundingBox,
    /// Temporal layers included.
    pub time: TimeRange,
}

/// The aggregated cell under a geographic point
/// ([`Catalog::query_point`]).
#[derive(Debug, Clone, Copy)]
pub struct PointQuery {
    /// Probe point.
    pub point: GeoPoint,
    /// Temporal layers merged (chronological).
    pub time: TimeRange,
}

/// Per-layer whole-domain summaries ([`Catalog::query_time_range`]).
#[derive(Debug, Clone, Copy)]
pub struct TimeRangeQuery {
    /// Temporal layers included.
    pub time: TimeRange,
}

/// The gridded composite over a projected rect
/// ([`Catalog::query_cells`]).
#[derive(Debug, Clone, Copy)]
pub struct CellsQuery {
    /// Query rectangle, EPSG-3976 metres.
    pub rect: MapRect,
    /// Temporal layers merged per cell (chronological).
    pub time: TimeRange,
}

impl sealed::Sealed for RectQuery {}
impl sealed::Sealed for BboxQuery {}
impl sealed::Sealed for PointQuery {}
impl sealed::Sealed for TimeRangeQuery {}
impl sealed::Sealed for CellsQuery {}
impl sealed::Sealed for Vec<TilePartial> {}
impl sealed::Sealed for Vec<(TimeKey, Vec<TilePartial>)> {}
impl sealed::Sealed for Vec<CellSummary> {}
impl sealed::Sealed for Option<CellSummary> {}

impl Query for RectQuery {
    type Answer = Vec<TilePartial>;

    fn request(&self, scope: TileScope) -> Request {
        let RectQuery { rect, time } = *self;
        Request::QueryRect { rect, time, scope }
    }

    fn scoped(&self, catalog: &Catalog, scope: &TileScope) -> Result<Self::Answer, CatalogError> {
        catalog.query_rect_partials(&self.rect, self.time, scope)
    }

    fn cover(&self, grid: &GridConfig) -> Option<Vec<TileId>> {
        Some(grid.tiles_overlapping(&self.rect))
    }
}

impl Query for BboxQuery {
    type Answer = Vec<TilePartial>;

    fn request(&self, scope: TileScope) -> Request {
        let BboxQuery { bbox, time } = *self;
        Request::QueryBbox { bbox, time, scope }
    }

    fn scoped(&self, catalog: &Catalog, scope: &TileScope) -> Result<Self::Answer, CatalogError> {
        catalog.query_bbox_partials(&self.bbox, self.time, scope)
    }

    fn cover(&self, grid: &GridConfig) -> Option<Vec<TileId>> {
        Some(grid.tiles_overlapping(&grid.bbox_cover(&self.bbox)))
    }
}

impl Query for PointQuery {
    type Answer = Option<CellSummary>;

    fn request(&self, scope: TileScope) -> Request {
        let PointQuery { point, time } = *self;
        Request::QueryPoint { point, time, scope }
    }

    fn scoped(&self, catalog: &Catalog, scope: &TileScope) -> Result<Self::Answer, CatalogError> {
        catalog.query_point_scoped(self.point, self.time, scope)
    }

    /// The one tile under the point (none outside the domain).
    fn cover(&self, grid: &GridConfig) -> Option<Vec<TileId>> {
        let tile = grid.locate(EPSG_3976.forward(self.point));
        Some(tile.map(|(tile, _)| tile).into_iter().collect())
    }
}

impl Query for TimeRangeQuery {
    type Answer = Vec<(TimeKey, Vec<TilePartial>)>;

    fn request(&self, scope: TileScope) -> Request {
        let time = self.time;
        Request::QueryTimeRange { time, scope }
    }

    fn scoped(&self, catalog: &Catalog, scope: &TileScope) -> Result<Self::Answer, CatalogError> {
        catalog.query_time_range_partials(self.time, scope)
    }

    fn cover(&self, _grid: &GridConfig) -> Option<Vec<TileId>> {
        None
    }
}

impl Query for CellsQuery {
    type Answer = Vec<CellSummary>;

    fn request(&self, scope: TileScope) -> Request {
        let CellsQuery { rect, time } = *self;
        Request::QueryCells { rect, time, scope }
    }

    fn scoped(&self, catalog: &Catalog, scope: &TileScope) -> Result<Self::Answer, CatalogError> {
        catalog.query_cells_scoped(&self.rect, self.time, scope)
    }

    fn cover(&self, grid: &GridConfig) -> Option<Vec<TileId>> {
        Some(grid.tiles_overlapping(&self.rect))
    }
}

/// Per-tile partials of a rect or bbox summary.
impl Answer for Vec<TilePartial> {
    type Output = QuerySummary;

    fn send(self, sink: &mut Sink<'_>) -> Result<u64, CatalogError> {
        send_stream(self, Response::TileBatch, sink)
    }

    fn decode(batches: Vec<Response>, done: Response) -> Result<Self, CatalogError> {
        decode_stream(batches, done, |batch| match batch {
            Response::TileBatch(records) => Ok(records),
            other => Err(unexpected(&other)),
        })
    }

    fn merge(parts: Vec<Self>) -> Result<Self, CatalogError> {
        disjoint(parts.into_iter().flatten(), |p| p.tile, "tile")
    }

    fn fold(self) -> QuerySummary {
        QuerySummary::from_partials(self)
    }
}

/// Per-layer, per-tile partials of a time-range query, chronological.
/// On the wire they travel flattened as `(layer, partial)` records.
impl Answer for Vec<(TimeKey, Vec<TilePartial>)> {
    type Output = Vec<(TimeKey, QuerySummary)>;

    fn send(self, sink: &mut Sink<'_>) -> Result<u64, CatalogError> {
        send_stream(flatten_layers(self).collect(), Response::LayerBatch, sink)
    }

    fn decode(batches: Vec<Response>, done: Response) -> Result<Self, CatalogError> {
        let records = decode_stream(batches, done, |batch| match batch {
            Response::LayerBatch(records) => Ok(records),
            other => Err(unexpected(&other)),
        })?;
        Ok(group_by_layer(records))
    }

    fn merge(parts: Vec<Self>) -> Result<Self, CatalogError> {
        let records = parts.into_iter().flat_map(flatten_layers);
        let records = disjoint(records, |(t, p)| (*t, p.tile), "layer tile")?;
        Ok(group_by_layer(records))
    }

    fn fold(self) -> Vec<(TimeKey, QuerySummary)> {
        self.into_iter()
            .map(|(t, partials)| (t, QuerySummary::from_partials(partials)))
            .collect()
    }
}

/// Gridded composite cells, sorted by `(tile, cell)`.
impl Answer for Vec<CellSummary> {
    type Output = Vec<CellSummary>;

    fn send(self, sink: &mut Sink<'_>) -> Result<u64, CatalogError> {
        send_stream(self, Response::CellBatch, sink)
    }

    fn decode(batches: Vec<Response>, done: Response) -> Result<Self, CatalogError> {
        decode_stream(batches, done, |batch| match batch {
            Response::CellBatch(records) => Ok(records),
            other => Err(unexpected(&other)),
        })
    }

    /// Shard results concatenate (scopes are spatial, so a tile's layers
    /// never split) and sort exactly like the local composite.
    fn merge(parts: Vec<Self>) -> Result<Self, CatalogError> {
        let mut cells = disjoint(parts.into_iter().flatten(), |c| (c.tile, c.cell), "cell")?;
        cells.sort_unstable_by_key(|c| (c.tile, c.cell));
        Ok(cells)
    }

    fn fold(self) -> Vec<CellSummary> {
        self
    }
}

/// The cell under a probe point, if any. A scalar answer: one
/// `Point` frame, no batches.
impl Answer for Option<CellSummary> {
    type Output = Option<CellSummary>;

    fn send(self, sink: &mut Sink<'_>) -> Result<u64, CatalogError> {
        sink(Response::Point(self))?;
        Ok(0)
    }

    fn decode(batches: Vec<Response>, done: Response) -> Result<Self, CatalogError> {
        match scalar(batches, done)? {
            Response::Point(cell) => Ok(cell),
            other => Err(unexpected(&other)),
        }
    }

    /// Exactly one group owns the point's tile, so at most one shard
    /// may find a cell.
    fn merge(parts: Vec<Self>) -> Result<Self, CatalogError> {
        let cells = disjoint(parts.into_iter().flatten(), |_| (), "point")?;
        Ok(cells.into_iter().next())
    }

    fn fold(self) -> Option<CellSummary> {
        self
    }
}

/// Concatenates the records of disjoint scopes, refusing any `key` two
/// scopes both answered for.
fn disjoint<T, K: Ord>(
    records: impl IntoIterator<Item = T>,
    key: impl Fn(&T) -> K,
    what: &str,
) -> Result<Vec<T>, CatalogError> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for record in records {
        if !seen.insert(key(&record)) {
            return Err(CatalogError::Protocol(format!(
                "two shards answered for the same {what}"
            )));
        }
        out.push(record);
    }
    Ok(out)
}

/// One `(layer, partial)` record per partial, chronological.
fn flatten_layers(
    layers: Vec<(TimeKey, Vec<TilePartial>)>,
) -> impl Iterator<Item = (TimeKey, TilePartial)> {
    layers
        .into_iter()
        .flat_map(|(t, partials)| partials.into_iter().map(move |p| (t, p)))
}

/// Groups `(layer, partial)` records by layer, chronological.
fn group_by_layer(records: Vec<(TimeKey, TilePartial)>) -> Vec<(TimeKey, Vec<TilePartial>)> {
    let mut by_layer: BTreeMap<TimeKey, Vec<TilePartial>> = BTreeMap::new();
    for (t, p) in records {
        by_layer.entry(t).or_default().push(p);
    }
    by_layer.into_iter().collect()
}

/// Streams `records` as `frame` batch frames plus a `Done` trailer
/// carrying the record count. Chunking honours both the record cap and
/// the per-frame byte budget, so no batch can ever hit the frame cap and
/// poison the connection. Batches are carved off by moving (no
/// per-record clone); the ranges tile the records front to back.
fn send_stream<T: Codec>(
    records: Vec<T>,
    frame: fn(Vec<T>) -> Response,
    sink: &mut Sink<'_>,
) -> Result<u64, CatalogError> {
    let total = records.len() as u64;
    let ranges = wire::batch_ranges(&records, BATCH_RECORDS, MAX_BATCH_BYTES);
    let mut records = records;
    for range in ranges {
        let rest = records.split_off(range.len());
        let batch = std::mem::replace(&mut records, rest);
        sink(frame(batch))?;
    }
    sink(Response::Done { n_records: total })?;
    Ok(total)
}

/// Collects the records of a streamed exchange: `unbatch` must accept
/// every batch frame, and the completing `Done` trailer must count
/// them all.
fn decode_stream<T>(
    batches: Vec<Response>,
    done: Response,
    unbatch: fn(Response) -> Result<Vec<T>, CatalogError>,
) -> Result<Vec<T>, CatalogError> {
    let Response::Done { n_records } = done else {
        return Err(unexpected(&done));
    };
    let mut records = Vec::new();
    for batch in batches {
        records.append(&mut unbatch(batch)?);
    }
    if records.len() as u64 != n_records {
        return Err(CatalogError::Protocol(format!(
            "stream advertised {n_records} records but carried {}",
            records.len()
        )));
    }
    Ok(records)
}

/// The completing frame of a scalar exchange, where no batch frame may
/// precede the answer.
pub(crate) fn scalar(batches: Vec<Response>, done: Response) -> Result<Response, CatalogError> {
    if let Some(stray) = batches.into_iter().next() {
        return Err(unexpected(&stray));
    }
    Ok(done)
}

/// A response frame that does not belong where it arrived.
pub(crate) fn unexpected(response: &Response) -> CatalogError {
    CatalogError::Protocol(format!("unexpected response frame: {response:?}"))
}
