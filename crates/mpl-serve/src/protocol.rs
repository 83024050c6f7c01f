//! The typed request/response vocabulary of the wire protocol, and its
//! JSON encoding.
//!
//! Every frame on the wire is one JSON object with a `"type"` field.  This
//! module converts between those objects and the typed [`Request`] /
//! [`Response`] enums, so the server, the client, the benchmarks and the
//! tests all agree on one schema — and the property tests can round-trip
//! arbitrary values through encode → chunked transport → decode.
//!
//! Failures are [`ServeError`]s: the decomposition pipeline's typed
//! [`ConfigError`] / [`DecomposeError`] values are carried as-is (not
//! stringly re-invented), and protocol/parse/io problems get their own
//! variants.  On the wire an error becomes an `"error"` frame with a
//! machine-checkable [`ErrorCode`] plus the human-readable message.

use mpl_core::{
    ColorAlgorithm, ConfigError, DecomposeError, FieldError, Json, JsonRecord, LayoutCounters,
    MemoStats,
};
use mpl_hier::HierStats;
use mpl_tile::TileStats;
use std::fmt;

/// Where a submitted layout's geometry comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutSource {
    /// Inline text in the workspace's line-oriented layout format
    /// (`# layout <name>` header + one rectangle per line).
    Text(String),
    /// A base64-encoded GDSII stream.
    GdsBase64(String),
    /// A path on the **server's** filesystem (text or GDSII,
    /// auto-detected) — for clients co-located with the layout store.
    Path(String),
}

/// Which persistent executor the server should drain this layout on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorChoice {
    /// The server's shared thread pool (the default).
    #[default]
    Pool,
    /// The serial executor.
    Serial,
}

impl ExecutorChoice {
    /// The wire name (`"pool"` / `"serial"`).
    pub fn as_str(self) -> &'static str {
        match self {
            ExecutorChoice::Pool => "pool",
            ExecutorChoice::Serial => "serial",
        }
    }

    /// Parses a wire name.
    pub fn from_wire(name: &str) -> Result<Self, ServeError> {
        match name {
            "pool" => Ok(ExecutorChoice::Pool),
            "serial" => Ok(ExecutorChoice::Serial),
            other => Err(ServeError::Protocol(format!(
                "unknown executor {other:?} (expected \"serial\" or \"pool\")"
            ))),
        }
    }
}

/// One `submit` request: a layout plus its per-request decomposition
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Client-chosen tag echoed on every response frame for this layout.
    pub id: String,
    /// The layout geometry.
    pub source: LayoutSource,
    /// Mask count K (validated server-side; a bad value comes back as a
    /// typed `config` error).
    pub k: usize,
    /// The color-assignment engine.
    pub algorithm: ColorAlgorithm,
    /// Stitch weight α.
    pub alpha: f64,
    /// Which persistent executor drains this layout.
    pub executor: ExecutorChoice,
    /// Stream per-component `progress` frames while the layout colors.
    pub progress: bool,
    /// Re-verify same-mask spacing server-side and report the violation
    /// count on the result frame.
    pub verify: bool,
    /// Decompose through the halo-aware tiler with square windows of this
    /// edge length in nm (`None` = untiled).  Non-positive values come back
    /// as typed `config` errors.
    pub tile_size: Option<i64>,
    /// Explicit halo width in nm around each tile window.  Requires
    /// `tile_size`; must be at least the coloring distance.
    pub halo: Option<i64>,
    /// Decompose through the cell-level hierarchical driver: GDS sources
    /// keep their instance provenance, each distinct cell body colors once
    /// and instance boundaries reconcile.  Mutually exclusive with
    /// `tile_size`/`halo` (a typed `config` error).  Sources without a
    /// hierarchy (text layouts) degenerate to the ordinary memoized run.
    pub hier: bool,
    /// Soft deadline in milliseconds, measured from acceptance.  Once it
    /// expires, components not yet started are skipped and running engines
    /// stop at their next amortised poll; the `result` frame then reports
    /// `deadline_exceeded` alongside the partial coloring.  `None` = no
    /// deadline.
    pub deadline_ms: Option<u64>,
}

impl SubmitRequest {
    /// A submission with the protocol defaults (K=4, SDP+Backtrack,
    /// α=0.1, pool executor, no progress streaming, no verification).
    pub fn new(id: impl Into<String>, source: LayoutSource) -> Self {
        SubmitRequest {
            id: id.into(),
            source,
            k: 4,
            algorithm: ColorAlgorithm::SdpBacktrack,
            alpha: 0.1,
            executor: ExecutorChoice::default(),
            progress: false,
            verify: false,
            tile_size: None,
            halo: None,
            hier: false,
            deadline_ms: None,
        }
    }
}

/// A client-to-server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit one layout for decomposition.
    Submit(SubmitRequest),
    /// Cancel an earlier submission of **this connection** by its id —
    /// queued submissions skip wholesale, in-flight ones stop at the
    /// engines' next amortised poll, and either way the submission resolves
    /// with a terminal `cancelled` frame.  Cancelling an unknown or
    /// already-finished id answers a non-fatal typed error
    /// ([`ErrorCode::Cancel`]); the connection stays usable.
    Cancel {
        /// The id of the submission to cancel.
        id: String,
    },
    /// Liveness probe; the server answers with [`Response::Pong`].
    Ping,
    /// Ask the whole server (not just this connection) to stop accepting
    /// work and exit once the current batch drains.
    Shutdown,
}

/// One layout's decomposition record: the payload of a `result` frame,
/// and the per-layout object every front end prints.
///
/// [`fields`](ResultPayload::fields) lists its keys once.  The frame wraps
/// them in `type`, `id` and `colors`; `qpl-decompose --json` prints them
/// plus its local extras, `--connect --json` prints `id` plus them, and the
/// `workload` reports splice them into their rows.  A local run becomes a
/// record through [`from_run`](ResultPayload::from_run).
#[derive(Debug, Clone, PartialEq)]
pub struct ResultPayload {
    /// The submission's client-chosen id.
    pub id: String,
    /// The layout's name.
    pub layout: String,
    /// Mask count K.
    pub k: usize,
    /// Engine name (the paper's column header, e.g. `"Linear"`).
    pub algorithm: String,
    /// Executor that drained the layout (e.g. `"serial"`, `"threads:4"`).
    pub executor: String,
    /// Decomposition-graph vertices.
    pub vertices: usize,
    /// Conflict edges of the decomposition graph (decodes as zero when
    /// absent).
    pub conflict_edges: usize,
    /// Stitch-candidate edges of the decomposition graph (decodes as zero
    /// when absent).
    pub stitch_edges: usize,
    /// Independent components.
    pub components: usize,
    /// Unresolved conflicts.
    pub conflicts: usize,
    /// Inserted stitches.
    pub stitches: usize,
    /// Weighted objective `conflicts + α · stitches`.
    pub cost: f64,
    /// Seconds spent planning the layout: building its decomposition graph
    /// and component tasks (decodes as zero when absent).
    pub graph_seconds: f64,
    /// Seconds from batch start until this layout's last component
    /// finished.
    pub color_seconds: f64,
    /// One mask index per decomposition-graph vertex — the full coloring,
    /// so clients can compare served results bit-for-bit with local runs.
    pub colors: Vec<u8>,
    /// Same-mask spacing violations found by server-side re-verification
    /// (present only when the submission set `verify`).
    pub spacing_violations: Option<usize>,
    /// The layout's simplify/bound counters, spliced flat after
    /// `color_seconds` (each decodes as zero when absent, so frames from
    /// servers predating a counter keep parsing).
    pub counters: LayoutCounters,
    /// Components stamped from the server's shared memo cache (a cache hit
    /// or an in-batch duplicate).  `None` when the run had no cache.
    pub memo_hits: Option<usize>,
    /// Components the engine actually colored under the memo cache.
    /// `None` when the run had no cache.
    pub memo_misses: Option<usize>,
    /// `true` when an explicit `cancel` stopped this submission's work
    /// mid-run but it still resolved with a (partial) result frame.
    /// Decodes as `false` when absent, so frames from older servers — and
    /// undisturbed warm-path frames, which omit the flag — keep parsing.
    pub cancelled: bool,
    /// `true` when the submission's `deadline_ms` expired while it ran:
    /// the coloring is partial (skipped components wear mask 0).  Decodes
    /// as `false` when absent.
    pub deadline_exceeded: bool,
    /// Components that actually reached an engine (or the memo cache)
    /// before any cancellation or deadline stopped the run.  Decodes as
    /// `components − components_skipped` when absent.
    pub components_completed: usize,
    /// Components skipped wholesale because the request was cancelled or
    /// its deadline expired before they started.  Decodes as zero when
    /// absent.
    pub components_skipped: usize,
    /// Tiling statistics (present only when the submission set
    /// `tile_size`).
    pub tiles: Option<TileStats>,
    /// Hierarchy statistics (present only when the submission set `hier`).
    pub hierarchy: Option<HierStats>,
}

impl ResultPayload {
    /// The record's keys, in order: every key of a `result` frame but
    /// `type`, `id` and `colors`.  Optional parts appear only when set —
    /// `spacing_violations` after a verification, the memo counts under a
    /// cache, the cancellation fields on a disturbed run (so undisturbed
    /// frames stay byte-identical to older servers'), `tiles` or
    /// `hierarchy` for a tiled or hierarchical run.
    pub fn fields(&self) -> Vec<(&'static str, Json)> {
        let mut pairs = vec![
            ("layout", self.layout.as_str().into()),
            ("k", self.k.into()),
            ("algorithm", self.algorithm.as_str().into()),
            ("executor", self.executor.as_str().into()),
            ("vertices", self.vertices.into()),
            ("conflict_edges", self.conflict_edges.into()),
            ("stitch_edges", self.stitch_edges.into()),
            ("components", self.components.into()),
            ("conflicts", self.conflicts.into()),
            ("stitches", self.stitches.into()),
            ("cost", self.cost.into()),
            ("graph_seconds", self.graph_seconds.into()),
            ("color_seconds", self.color_seconds.into()),
        ];
        pairs.extend(self.counters.fields());
        if let Some(violations) = self.spacing_violations {
            pairs.push(("spacing_violations", violations.into()));
        }
        if let Some(hits) = self.memo_hits {
            pairs.push(("memo_hits", hits.into()));
        }
        if let Some(misses) = self.memo_misses {
            pairs.push(("memo_misses", misses.into()));
        }
        if self.cancelled {
            pairs.push(("cancelled", true.into()));
        }
        if self.deadline_exceeded {
            pairs.push(("deadline_exceeded", true.into()));
        }
        if self.components_skipped > 0 || self.components_completed != self.components {
            pairs.push(("components_completed", self.components_completed.into()));
            pairs.push(("components_skipped", self.components_skipped.into()));
        }
        if let Some(tiles) = &self.tiles {
            pairs.push(("tiles", tiles.to_json()));
        }
        if let Some(hierarchy) = &self.hierarchy {
            pairs.push(("hierarchy", hierarchy.to_json()));
        }
        pairs
    }

    /// Reads a `result` frame back: `id`, `colors` and the keys of
    /// [`fields`](ResultPayload::fields).  Absent optional parts, flags and
    /// zero-default counts decode as an undisturbed run without them.
    fn from_frame(json: &Json) -> Result<Self, ServeError> {
        let colors = field(json, "colors")?
            .as_array()
            .ok_or_else(|| ServeError::Protocol("field \"colors\" must be an array".to_string()))?
            .iter()
            .map(|value| {
                value
                    .as_usize()
                    .filter(|&color| color <= u8::MAX as usize)
                    .map(|color| color as u8)
                    .ok_or_else(|| {
                        ServeError::Protocol(
                            "field \"colors\" must hold mask indices 0..=255".to_string(),
                        )
                    })
            })
            .collect::<Result<Vec<u8>, _>>()?;
        let optional_count = |key: &str| -> Result<Option<usize>, ServeError> {
            match json.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(value) => value.as_usize().map(Some).ok_or_else(|| {
                    ServeError::Protocol(format!("field {key:?} must be a non-negative integer"))
                }),
            }
        };
        let flag = |key: &str| -> Result<bool, ServeError> {
            match json.get(key) {
                None | Some(Json::Null) => Ok(false),
                Some(value) => value.as_bool().ok_or_else(|| {
                    ServeError::Protocol(format!("field {key:?} must be a boolean"))
                }),
            }
        };
        let components = usize_field(json, "components")?;
        let components_skipped = optional_count("components_skipped")?.unwrap_or(0);
        Ok(ResultPayload {
            id: string_field(json, "id")?,
            layout: string_field(json, "layout")?,
            k: usize_field(json, "k")?,
            algorithm: string_field(json, "algorithm")?,
            executor: string_field(json, "executor")?,
            vertices: usize_field(json, "vertices")?,
            conflict_edges: json.count_field("conflict_edges", Some(0))?,
            stitch_edges: json.count_field("stitch_edges", Some(0))?,
            components,
            conflicts: usize_field(json, "conflicts")?,
            stitches: usize_field(json, "stitches")?,
            cost: f64_field(json, "cost")?,
            graph_seconds: match json.get("graph_seconds") {
                None | Some(Json::Null) => 0.0,
                Some(_) => f64_field(json, "graph_seconds")?,
            },
            color_seconds: f64_field(json, "color_seconds")?,
            colors,
            counters: LayoutCounters::from_fields(json)?,
            spacing_violations: optional_count("spacing_violations")?,
            memo_hits: optional_count("memo_hits")?,
            memo_misses: optional_count("memo_misses")?,
            cancelled: flag("cancelled")?,
            deadline_exceeded: flag("deadline_exceeded")?,
            components_completed: optional_count("components_completed")?
                .unwrap_or_else(|| components.saturating_sub(components_skipped)),
            components_skipped,
            tiles: optional_record(json, "tiles")?,
            hierarchy: optional_record(json, "hierarchy")?,
        })
    }
}

/// Machine-checkable category of an error frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed frame, unknown type, missing/ill-typed field.
    Protocol,
    /// The layout payload failed to parse (bad text, truncated GDS, …).
    Parse,
    /// An invalid decomposer configuration ([`ConfigError`]).
    Config,
    /// Planning failed ([`DecomposeError`], e.g. a degenerate shape).
    Decompose,
    /// A server-side I/O failure (e.g. an unreadable `path` submission).
    Io,
    /// A `cancel` frame named an unknown or already-finished submission.
    /// Non-fatal: the connection stays usable.
    Cancel,
}

impl ErrorCode {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Protocol => "protocol",
            ErrorCode::Parse => "parse",
            ErrorCode::Config => "config",
            ErrorCode::Decompose => "decompose",
            ErrorCode::Io => "io",
            ErrorCode::Cancel => "cancel",
        }
    }

    /// Parses a wire name.
    pub fn from_wire(name: &str) -> Result<Self, ServeError> {
        match name {
            "protocol" => Ok(ErrorCode::Protocol),
            "parse" => Ok(ErrorCode::Parse),
            "config" => Ok(ErrorCode::Config),
            "decompose" => Ok(ErrorCode::Decompose),
            "io" => Ok(ErrorCode::Io),
            "cancel" => Ok(ErrorCode::Cancel),
            other => Err(ServeError::Protocol(format!(
                "unknown error code {other:?}"
            ))),
        }
    }
}

/// A server-to-client frame.
// One `Response` exists per decoded frame, never in bulk, so the size
// spread between `Result` (which carries the full per-mask summary and
// now the tile stats) and the small control frames costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A submission was accepted and queued for the next batch.
    Queued {
        /// The submission's id.
        id: String,
        /// The layout's name.
        layout: String,
        /// Decomposition-graph vertices.
        vertices: usize,
        /// Independent components (= the `total` of progress frames).
        components: usize,
    },
    /// `done` of `total` components of a submission have colored.
    Progress {
        /// The submission's id.
        id: String,
        /// Components finished so far (strictly increasing).
        done: usize,
        /// Total components of the layout.
        total: usize,
    },
    /// `done` of `total` tile sub-problems of a tiled submission have
    /// decomposed (only streamed when the submission set `tile_size` and
    /// `progress`).
    TileProgress {
        /// The submission's id.
        id: String,
        /// Tile sub-problems finished so far (strictly increasing).
        done: usize,
        /// Total tile sub-problems of the layout (spanning-component
        /// pieces plus one slot for all window-resident components).
        total: usize,
    },
    /// `done` of `total` hierarchical pieces of a submission have
    /// decomposed (only streamed when the submission set `hier` and
    /// `progress`).
    HierProgress {
        /// The submission's id.
        id: String,
        /// Pieces finished so far (strictly increasing).
        done: usize,
        /// Total pieces of the layout (instance pieces, boundary pieces
        /// and one slot for all resident components).
        total: usize,
    },
    /// A submission finished; the full coloring and statistics.
    Result(ResultPayload),
    /// A submission was cancelled by an explicit `cancel` frame — the
    /// terminal frame for that id (no `result` follows).  Components that
    /// completed before the token fired stay counted; skipped ones never
    /// reached an engine.
    Cancelled {
        /// The submission's id.
        id: String,
        /// Components that finished before the cancellation took effect.
        components_completed: usize,
        /// Components skipped because the cancellation beat their start.
        components_skipped: usize,
        /// Branch-and-bound nodes the exact engine expanded before it
        /// observed the cancellation — the work-counter bound fault tests
        /// assert cancellation latency with, instead of wall-clock.
        bnb_nodes: u64,
    },
    /// A request failed.  The connection stays open.
    Error {
        /// The submission's id, when the failing frame carried one.
        id: Option<String>,
        /// Machine-checkable category.
        code: ErrorCode,
        /// Human-readable description.
        message: String,
    },
    /// Answer to [`Request::Ping`], carrying the server's shared
    /// memo-cache statistics when one is attached plus lifetime usage
    /// counters of the optional decomposition drivers.
    Pong {
        /// Statistics of the server's shared memo cache.
        cache: Option<MemoStats>,
        /// Layouts decomposed through the hierarchical driver so far.
        hier_runs: u64,
        /// Layouts decomposed through the halo-aware tiler so far.
        tile_runs: u64,
        /// Frames currently queued across all connections' bounded output
        /// queues (a gauge, not a lifetime counter).
        queued_frames: u64,
        /// Lifetime progress frames dropped by output-queue overflow
        /// (result/error/cancelled frames are never dropped).
        dropped_progress: u64,
        /// Lifetime submissions resolved by an explicit `cancel`.
        cancelled_requests: u64,
        /// Lifetime submissions whose `deadline_ms` expired mid-run.
        deadline_exceeded_requests: u64,
    },
    /// Acknowledges [`Request::Shutdown`]; the server exits afterwards.
    ShuttingDown,
}

/// A service failure: either a carried-through typed pipeline error or a
/// protocol-level problem.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Malformed frame, unknown type, missing or ill-typed field.
    Protocol(String),
    /// The layout payload failed to parse.
    Parse(String),
    /// The decomposition pipeline's typed configuration error.
    Config(ConfigError),
    /// The decomposition pipeline's typed planning error.
    Decompose(DecomposeError),
    /// A server-side I/O failure.
    Io(String),
}

impl ServeError {
    /// The wire category of this error.
    pub fn code(&self) -> ErrorCode {
        match self {
            ServeError::Protocol(_) => ErrorCode::Protocol,
            ServeError::Parse(_) => ErrorCode::Parse,
            ServeError::Config(_) => ErrorCode::Config,
            ServeError::Decompose(DecomposeError::Config(_)) => ErrorCode::Config,
            ServeError::Decompose(_) => ErrorCode::Decompose,
            ServeError::Io(_) => ErrorCode::Io,
        }
    }

    /// Renders this error as the `error` frame for `id`.
    pub fn to_response(&self, id: Option<String>) -> Response {
        Response::Error {
            id,
            code: self.code(),
            message: self.to_string(),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Protocol(message)
            | ServeError::Parse(message)
            | ServeError::Io(message) => f.write_str(message),
            ServeError::Config(error) => write!(f, "{error}"),
            ServeError::Decompose(error) => write!(f, "{error}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Config(error) => Some(error),
            ServeError::Decompose(error) => Some(error),
            _ => None,
        }
    }
}

impl From<ConfigError> for ServeError {
    fn from(error: ConfigError) -> Self {
        ServeError::Config(error)
    }
}

impl From<FieldError> for ServeError {
    fn from(error: FieldError) -> Self {
        ServeError::Protocol(error.to_string())
    }
}

impl From<DecomposeError> for ServeError {
    fn from(error: DecomposeError) -> Self {
        match error {
            DecomposeError::Config(config) => ServeError::Config(config),
            other => ServeError::Decompose(other),
        }
    }
}

/// The wire name of an engine (the `--algorithm` alias the CLI also
/// accepts).
pub fn algorithm_wire_name(algorithm: ColorAlgorithm) -> &'static str {
    match algorithm {
        ColorAlgorithm::Ilp => "ilp",
        ColorAlgorithm::SdpBacktrack => "sdp-backtrack",
        ColorAlgorithm::SdpGreedy => "sdp-greedy",
        ColorAlgorithm::Linear => "linear",
    }
}

fn field<'a>(json: &'a Json, key: &str) -> Result<&'a Json, ServeError> {
    json.get(key)
        .ok_or_else(|| ServeError::Protocol(format!("missing field {key:?}")))
}

fn string_field(json: &Json, key: &str) -> Result<String, ServeError> {
    field(json, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| ServeError::Protocol(format!("field {key:?} must be a string")))
}

fn usize_field(json: &Json, key: &'static str) -> Result<usize, ServeError> {
    Ok(json.count_field(key, None)?)
}

fn f64_field(json: &Json, key: &str) -> Result<f64, ServeError> {
    field(json, key)?
        .as_f64()
        .ok_or_else(|| ServeError::Protocol(format!("field {key:?} must be a number")))
}

/// The stats record under `key`; absent or `null` decodes as `None`.
fn optional_record<T: JsonRecord>(json: &Json, key: &str) -> Result<Option<T>, ServeError> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(value) => Ok(Some(T::from_fields(value)?)),
    }
}

/// An optional distance-in-nm field: any integer decodes (including
/// non-positive ones, so the server can answer with the pipeline's typed
/// `config` error instead of a generic protocol error).
fn optional_nm_field(json: &Json, key: &str) -> Result<Option<i64>, ServeError> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(value) => value
            .as_f64()
            .filter(|nm| nm.fract() == 0.0 && nm.abs() < i64::MAX as f64)
            .map(|nm| Some(nm as i64))
            .ok_or_else(|| {
                ServeError::Protocol(format!("field {key:?} must be an integer distance in nm"))
            }),
    }
}

/// Decodes a client frame.
///
/// # Errors
///
/// [`ServeError::Protocol`] describing the first violated expectation.
pub fn decode_request(json: &Json) -> Result<Request, ServeError> {
    let frame_type = string_field(json, "type")?;
    match frame_type.as_str() {
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "cancel" => Ok(Request::Cancel {
            id: string_field(json, "id")?,
        }),
        "submit" => {
            let id = string_field(json, "id")?;
            let sources: Vec<LayoutSource> = [
                ("layout_text", LayoutSource::Text as fn(String) -> _),
                ("gds_base64", LayoutSource::GdsBase64 as fn(String) -> _),
                ("path", LayoutSource::Path as fn(String) -> _),
            ]
            .iter()
            .filter_map(|(key, build)| {
                json.get(key).map(|value| {
                    value
                        .as_str()
                        .map(|text| build(text.to_string()))
                        .ok_or_else(|| {
                            ServeError::Protocol(format!("field {key:?} must be a string"))
                        })
                })
            })
            .collect::<Result<_, _>>()?;
            let source =
                match sources.len() {
                    1 => sources.into_iter().next().expect("length checked"),
                    0 => return Err(ServeError::Protocol(
                        "submit needs exactly one of \"layout_text\", \"gds_base64\" or \"path\""
                            .to_string(),
                    )),
                    _ => {
                        return Err(ServeError::Protocol(
                            "submit got more than one layout source".to_string(),
                        ))
                    }
                };
            let mut submit = SubmitRequest::new(id, source);
            if json.get("k").is_some() {
                submit.k = usize_field(json, "k")?;
            }
            if let Some(value) = json.get("algorithm") {
                let name = value.as_str().ok_or_else(|| {
                    ServeError::Protocol("field \"algorithm\" must be a string".to_string())
                })?;
                submit.algorithm =
                    ColorAlgorithm::from_cli_name(name).map_err(ServeError::Protocol)?;
            }
            if json.get("alpha").is_some() {
                submit.alpha = f64_field(json, "alpha")?;
            }
            if let Some(value) = json.get("executor") {
                let name = value.as_str().ok_or_else(|| {
                    ServeError::Protocol("field \"executor\" must be a string".to_string())
                })?;
                submit.executor = ExecutorChoice::from_wire(name)?;
            }
            if let Some(value) = json.get("progress") {
                submit.progress = value.as_bool().ok_or_else(|| {
                    ServeError::Protocol("field \"progress\" must be a boolean".to_string())
                })?;
            }
            if let Some(value) = json.get("verify") {
                submit.verify = value.as_bool().ok_or_else(|| {
                    ServeError::Protocol("field \"verify\" must be a boolean".to_string())
                })?;
            }
            submit.tile_size = optional_nm_field(json, "tile_size")?;
            submit.halo = optional_nm_field(json, "halo")?;
            if let Some(value) = json.get("hier") {
                submit.hier = value.as_bool().ok_or_else(|| {
                    ServeError::Protocol("field \"hier\" must be a boolean".to_string())
                })?;
            }
            submit.deadline_ms = match json.get("deadline_ms") {
                None | Some(Json::Null) => None,
                Some(value) => Some(value.as_usize().map(|ms| ms as u64).ok_or_else(|| {
                    ServeError::Protocol(
                        "field \"deadline_ms\" must be a non-negative integer".to_string(),
                    )
                })?),
            };
            Ok(Request::Submit(submit))
        }
        other => Err(ServeError::Protocol(format!(
            "unknown request type {other:?}"
        ))),
    }
}

/// Encodes a client frame.
pub fn encode_request(request: &Request) -> Json {
    match request {
        Request::Ping => Json::object(vec![("type", Json::string("ping"))]),
        Request::Shutdown => Json::object(vec![("type", Json::string("shutdown"))]),
        Request::Cancel { id } => Json::object(vec![
            ("type", Json::string("cancel")),
            ("id", Json::string(id.clone())),
        ]),
        Request::Submit(submit) => {
            let mut pairs = vec![
                ("type", Json::string("submit")),
                ("id", Json::string(submit.id.clone())),
            ];
            let (source_key, source_value) = match &submit.source {
                LayoutSource::Text(text) => ("layout_text", text),
                LayoutSource::GdsBase64(data) => ("gds_base64", data),
                LayoutSource::Path(path) => ("path", path),
            };
            pairs.push((source_key, Json::string(source_value.clone())));
            pairs.push(("k", Json::Number(submit.k as f64)));
            pairs.push((
                "algorithm",
                Json::string(algorithm_wire_name(submit.algorithm)),
            ));
            pairs.push(("alpha", Json::Number(submit.alpha)));
            pairs.push(("executor", Json::string(submit.executor.as_str())));
            pairs.push(("progress", Json::Bool(submit.progress)));
            pairs.push(("verify", Json::Bool(submit.verify)));
            if let Some(tile_size) = submit.tile_size {
                pairs.push(("tile_size", Json::Number(tile_size as f64)));
            }
            if let Some(halo) = submit.halo {
                pairs.push(("halo", Json::Number(halo as f64)));
            }
            pairs.push(("hier", Json::Bool(submit.hier)));
            if let Some(deadline_ms) = submit.deadline_ms {
                pairs.push(("deadline_ms", Json::Number(deadline_ms as f64)));
            }
            Json::object(pairs)
        }
    }
}

/// Decodes a server frame.
///
/// # Errors
///
/// [`ServeError::Protocol`] describing the first violated expectation.
pub fn decode_response(json: &Json) -> Result<Response, ServeError> {
    let frame_type = string_field(json, "type")?;
    match frame_type.as_str() {
        "pong" => {
            let cache = optional_record(json, "cache")?;
            // Absent counters (old servers) decode as zero.
            Ok(Response::Pong {
                cache,
                hier_runs: json.count_field("hier_runs", Some(0))?,
                tile_runs: json.count_field("tile_runs", Some(0))?,
                queued_frames: json.count_field("queued_frames", Some(0))?,
                dropped_progress: json.count_field("dropped_progress", Some(0))?,
                cancelled_requests: json.count_field("cancelled_requests", Some(0))?,
                deadline_exceeded_requests: json
                    .count_field("deadline_exceeded_requests", Some(0))?,
            })
        }
        "shutting_down" => Ok(Response::ShuttingDown),
        "queued" => Ok(Response::Queued {
            id: string_field(json, "id")?,
            layout: string_field(json, "layout")?,
            vertices: usize_field(json, "vertices")?,
            components: usize_field(json, "components")?,
        }),
        "progress" => Ok(Response::Progress {
            id: string_field(json, "id")?,
            done: usize_field(json, "done")?,
            total: usize_field(json, "total")?,
        }),
        "tile_progress" => Ok(Response::TileProgress {
            id: string_field(json, "id")?,
            done: usize_field(json, "done")?,
            total: usize_field(json, "total")?,
        }),
        "hier_progress" => Ok(Response::HierProgress {
            id: string_field(json, "id")?,
            done: usize_field(json, "done")?,
            total: usize_field(json, "total")?,
        }),
        "cancelled" => Ok(Response::Cancelled {
            id: string_field(json, "id")?,
            components_completed: usize_field(json, "components_completed")?,
            components_skipped: usize_field(json, "components_skipped")?,
            bnb_nodes: json.count_field("bnb_nodes", None)?,
        }),
        "error" => {
            let id = match json.get("id") {
                None | Some(Json::Null) => None,
                Some(value) => Some(value.as_str().map(str::to_string).ok_or_else(|| {
                    ServeError::Protocol("field \"id\" must be a string".to_string())
                })?),
            };
            Ok(Response::Error {
                id,
                code: ErrorCode::from_wire(&string_field(json, "code")?)?,
                message: string_field(json, "message")?,
            })
        }
        "result" => ResultPayload::from_frame(json).map(Response::Result),
        other => Err(ServeError::Protocol(format!(
            "unknown response type {other:?}"
        ))),
    }
}

/// Encodes a server frame.
pub fn encode_response(response: &Response) -> Json {
    match response {
        Response::Pong {
            cache,
            hier_runs,
            tile_runs,
            queued_frames,
            dropped_progress,
            cancelled_requests,
            deadline_exceeded_requests,
        } => {
            let mut pairs = vec![("type", Json::string("pong"))];
            if let Some(cache) = cache {
                pairs.push(("cache", cache.to_json()));
            }
            pairs.push(("hier_runs", Json::Number(*hier_runs as f64)));
            pairs.push(("tile_runs", Json::Number(*tile_runs as f64)));
            pairs.push(("queued_frames", Json::Number(*queued_frames as f64)));
            pairs.push(("dropped_progress", Json::Number(*dropped_progress as f64)));
            pairs.push((
                "cancelled_requests",
                Json::Number(*cancelled_requests as f64),
            ));
            pairs.push((
                "deadline_exceeded_requests",
                Json::Number(*deadline_exceeded_requests as f64),
            ));
            Json::object(pairs)
        }
        Response::ShuttingDown => Json::object(vec![("type", Json::string("shutting_down"))]),
        Response::Queued {
            id,
            layout,
            vertices,
            components,
        } => Json::object(vec![
            ("type", Json::string("queued")),
            ("id", Json::string(id.clone())),
            ("layout", Json::string(layout.clone())),
            ("vertices", Json::Number(*vertices as f64)),
            ("components", Json::Number(*components as f64)),
        ]),
        Response::Progress { id, done, total } => Json::object(vec![
            ("type", Json::string("progress")),
            ("id", Json::string(id.clone())),
            ("done", Json::Number(*done as f64)),
            ("total", Json::Number(*total as f64)),
        ]),
        Response::TileProgress { id, done, total } => Json::object(vec![
            ("type", Json::string("tile_progress")),
            ("id", Json::string(id.clone())),
            ("done", Json::Number(*done as f64)),
            ("total", Json::Number(*total as f64)),
        ]),
        Response::HierProgress { id, done, total } => Json::object(vec![
            ("type", Json::string("hier_progress")),
            ("id", Json::string(id.clone())),
            ("done", Json::Number(*done as f64)),
            ("total", Json::Number(*total as f64)),
        ]),
        Response::Cancelled {
            id,
            components_completed,
            components_skipped,
            bnb_nodes,
        } => Json::object(vec![
            ("type", Json::string("cancelled")),
            ("id", Json::string(id.clone())),
            (
                "components_completed",
                Json::Number(*components_completed as f64),
            ),
            (
                "components_skipped",
                Json::Number(*components_skipped as f64),
            ),
            ("bnb_nodes", Json::Number(*bnb_nodes as f64)),
        ]),
        Response::Error { id, code, message } => {
            let mut pairs = vec![("type", Json::string("error"))];
            if let Some(id) = id {
                pairs.push(("id", Json::string(id.clone())));
            }
            pairs.push(("code", Json::string(code.as_str())));
            pairs.push(("message", Json::string(message.clone())));
            Json::object(pairs)
        }
        Response::Result(payload) => {
            let mut pairs = vec![
                ("type", Json::string("result")),
                ("id", Json::string(payload.id.clone())),
            ];
            pairs.extend(payload.fields());
            pairs.push((
                "colors",
                Json::Array(
                    payload
                        .colors
                        .iter()
                        .map(|&color| Json::Number(f64::from(color)))
                        .collect(),
                ),
            ));
            Json::object(pairs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(request: Request) {
        let json = encode_request(&request);
        let reparsed = Json::parse(&json.to_string()).expect("writer emits valid JSON");
        assert_eq!(decode_request(&reparsed).expect("decodes"), request);
    }

    fn round_trip_response(response: Response) {
        let json = encode_response(&response);
        let reparsed = Json::parse(&json.to_string()).expect("writer emits valid JSON");
        assert_eq!(decode_response(&reparsed).expect("decodes"), response);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Ping);
        round_trip_request(Request::Shutdown);
        let mut submit = SubmitRequest::new("a", LayoutSource::Text("# layout x\n".into()));
        submit.k = 5;
        submit.algorithm = ColorAlgorithm::Linear;
        submit.alpha = 0.25;
        submit.executor = ExecutorChoice::Serial;
        submit.progress = true;
        submit.verify = true;
        submit.tile_size = Some(2_000);
        submit.halo = Some(100);
        round_trip_request(Request::Submit(submit));
        let mut hier = SubmitRequest::new("h", LayoutSource::GdsBase64("AAECAw==".into()));
        hier.hier = true;
        round_trip_request(Request::Submit(hier));
        round_trip_request(Request::Submit(SubmitRequest::new(
            "gds \"quoted\"",
            LayoutSource::GdsBase64("AAECAw==".into()),
        )));
        round_trip_request(Request::Submit(SubmitRequest::new(
            "p",
            LayoutSource::Path("/tmp/x.gds".into()),
        )));
        let mut deadlined = SubmitRequest::new("d", LayoutSource::Text("# layout d\n".into()));
        deadlined.deadline_ms = Some(1_500);
        round_trip_request(Request::Submit(deadlined));
        round_trip_request(Request::Cancel { id: "j1".into() });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Pong {
            cache: None,
            hier_runs: 0,
            tile_runs: 0,
            queued_frames: 0,
            dropped_progress: 0,
            cancelled_requests: 0,
            deadline_exceeded_requests: 0,
        });
        round_trip_response(Response::Pong {
            cache: Some(MemoStats {
                entries: 12,
                capacity: 65_536,
                hits: 40,
                misses: 14,
                evictions: 2,
                bytes: 9_000,
            }),
            hier_runs: 3,
            tile_runs: 7,
            queued_frames: 5,
            dropped_progress: 11,
            cancelled_requests: 2,
            deadline_exceeded_requests: 1,
        });
        round_trip_response(Response::ShuttingDown);
        round_trip_response(Response::Queued {
            id: "7".into(),
            layout: "chip".into(),
            vertices: 10,
            components: 3,
        });
        round_trip_response(Response::Progress {
            id: "7".into(),
            done: 2,
            total: 3,
        });
        round_trip_response(Response::TileProgress {
            id: "7".into(),
            done: 5,
            total: 9,
        });
        round_trip_response(Response::HierProgress {
            id: "7".into(),
            done: 3,
            total: 13,
        });
        round_trip_response(Response::Error {
            id: None,
            code: ErrorCode::Protocol,
            message: "bad frame".into(),
        });
        round_trip_response(Response::Error {
            id: Some("x".into()),
            code: ErrorCode::Config,
            message: "mask count K must be in 2..=255, got 0".into(),
        });
        round_trip_response(Response::Result(ResultPayload {
            id: "7".into(),
            layout: "chip".into(),
            k: 4,
            algorithm: "Linear".into(),
            executor: "threads:2".into(),
            vertices: 4,
            conflict_edges: 7,
            stitch_edges: 3,
            components: 2,
            conflicts: 1,
            stitches: 2,
            cost: 1.2,
            graph_seconds: 0.125,
            color_seconds: 0.25,
            colors: vec![0, 3, 2, 1],
            counters: LayoutCounters {
                hidden_vertices: 2,
                kernel_vertices: 2,
                simplify_rounds: 1,
                bound_improvements: 3,
            },
            spacing_violations: Some(1),
            memo_hits: Some(1),
            memo_misses: Some(1),
            cancelled: false,
            deadline_exceeded: false,
            components_completed: 2,
            components_skipped: 0,
            tiles: Some(TileStats {
                grid_x: 3,
                grid_y: 2,
                tiles: 6,
                tiled_components: 1,
                resident_components: 1,
                shared_vertices: 5,
                permuted_tiles: 2,
                recolored_vertices: 1,
                cross_conflicts_before: 2,
                cross_conflicts_after: 0,
            }),
            hierarchy: None,
        }));
        round_trip_response(Response::Result(ResultPayload {
            id: "9".into(),
            layout: "sram".into(),
            k: 4,
            algorithm: "SDP+Backtrack".into(),
            executor: "threads:2".into(),
            vertices: 96,
            conflict_edges: 180,
            stitch_edges: 40,
            components: 1,
            conflicts: 0,
            stitches: 4,
            cost: 0.4,
            graph_seconds: 0.5,
            color_seconds: 0.1,
            colors: vec![0, 1, 2, 3],
            counters: LayoutCounters {
                hidden_vertices: 64,
                kernel_vertices: 32,
                simplify_rounds: 2,
                bound_improvements: 0,
            },
            spacing_violations: Some(0),
            memo_hits: Some(15),
            memo_misses: Some(1),
            cancelled: false,
            deadline_exceeded: false,
            components_completed: 1,
            components_skipped: 0,
            tiles: None,
            hierarchy: Some(HierStats {
                instances: 16,
                cells: 1,
                nested_inherited: 3,
                resident_components: 0,
                split_components: 1,
                instance_pieces: 16,
                boundary_vertices: 12,
                permuted_pieces: 9,
                recolored_vertices: 2,
                cross_conflicts_before: 1,
                cross_conflicts_after: 0,
            }),
        }));
        round_trip_response(Response::Result(ResultPayload {
            id: "8".into(),
            layout: "plain".into(),
            k: 4,
            algorithm: "Linear".into(),
            executor: "serial".into(),
            vertices: 1,
            conflict_edges: 0,
            stitch_edges: 0,
            components: 1,
            conflicts: 0,
            stitches: 0,
            cost: 0.0,
            graph_seconds: 0.0,
            color_seconds: 0.0,
            colors: vec![0],
            counters: LayoutCounters {
                hidden_vertices: 1,
                kernel_vertices: 0,
                simplify_rounds: 1,
                bound_improvements: 0,
            },
            spacing_violations: None,
            memo_hits: None,
            memo_misses: None,
            cancelled: false,
            deadline_exceeded: false,
            components_completed: 1,
            components_skipped: 0,
            tiles: None,
            hierarchy: None,
        }));
        // A disturbed (deadline-expired, partially-cancelled) result.
        round_trip_response(Response::Result(ResultPayload {
            id: "t".into(),
            layout: "late".into(),
            k: 4,
            algorithm: "ILP".into(),
            executor: "serial".into(),
            vertices: 9,
            conflict_edges: 12,
            stitch_edges: 0,
            components: 5,
            conflicts: 3,
            stitches: 0,
            cost: 3.0,
            graph_seconds: 0.0625,
            color_seconds: 0.001,
            colors: vec![0; 9],
            counters: LayoutCounters {
                hidden_vertices: 0,
                kernel_vertices: 0,
                simplify_rounds: 0,
                bound_improvements: 0,
            },
            spacing_violations: None,
            memo_hits: None,
            memo_misses: None,
            cancelled: true,
            deadline_exceeded: true,
            components_completed: 2,
            components_skipped: 3,
            tiles: None,
            hierarchy: None,
        }));
        round_trip_response(Response::Cancelled {
            id: "j9".into(),
            components_completed: 4,
            components_skipped: 6,
            bnb_nodes: 1_024,
        });
    }

    #[test]
    fn result_frames_without_simplify_counters_decode_as_zero() {
        // Frames from servers predating the simplification counters omit
        // them entirely; they must decode as zeros, not errors.
        let json = Json::parse(
            r#"{"type":"result","id":"8","layout":"plain","k":4,"algorithm":"Linear","executor":"serial","vertices":1,"components":1,"conflicts":0,"stitches":0,"cost":0.0,"color_seconds":0.0,"colors":[0]}"#,
        )
        .expect("valid JSON");
        let Response::Result(payload) = decode_response(&json).expect("decodes") else {
            panic!("expected a result frame");
        };
        assert_eq!(payload.counters.hidden_vertices, 0);
        assert_eq!(payload.counters.kernel_vertices, 0);
        assert_eq!(payload.counters.simplify_rounds, 0);
        assert_eq!(payload.counters.bound_improvements, 0);
        // So do the graph's edge counts and planning time.
        assert_eq!(payload.conflict_edges, 0);
        assert_eq!(payload.stitch_edges, 0);
        assert_eq!(payload.graph_seconds, 0.0);
        // Cancellation fields follow the same rule: absent = undisturbed.
        assert!(!payload.cancelled);
        assert!(!payload.deadline_exceeded);
        assert_eq!(payload.components_completed, 1);
        assert_eq!(payload.components_skipped, 0);
    }

    #[test]
    fn undisturbed_result_frames_omit_the_cancellation_fields() {
        // Warm-path frames must stay byte-identical to pre-cancellation
        // servers: no `cancelled` / `deadline_exceeded` /
        // `components_completed` / `components_skipped` keys at all.
        let payload = ResultPayload {
            id: "w".into(),
            layout: "warm".into(),
            k: 4,
            algorithm: "Linear".into(),
            executor: "serial".into(),
            vertices: 2,
            conflict_edges: 2,
            stitch_edges: 0,
            components: 2,
            conflicts: 0,
            stitches: 0,
            cost: 0.0,
            graph_seconds: 0.0,
            color_seconds: 0.0,
            colors: vec![0, 1],
            counters: LayoutCounters {
                hidden_vertices: 0,
                kernel_vertices: 0,
                simplify_rounds: 0,
                bound_improvements: 0,
            },
            spacing_violations: None,
            memo_hits: None,
            memo_misses: None,
            cancelled: false,
            deadline_exceeded: false,
            components_completed: 2,
            components_skipped: 0,
            tiles: None,
            hierarchy: None,
        };
        let wire = encode_response(&Response::Result(payload)).to_string();
        for key in [
            "cancelled",
            "deadline_exceeded",
            "components_completed",
            "components_skipped",
        ] {
            assert!(!wire.contains(key), "{key} leaked into {wire}");
        }
    }

    #[test]
    fn hierarchy_objects_without_nested_inherited_decode_as_zero() {
        // Same back-compat rule inside the nested hierarchy object.
        let json = Json::parse(
            r#"{"type":"result","id":"9","layout":"h","k":4,"algorithm":"Linear","executor":"serial","vertices":1,"components":1,"conflicts":0,"stitches":0,"cost":0.0,"color_seconds":0.0,"colors":[0],"hierarchy":{"instances":2,"cells":1,"resident_components":1,"split_components":0,"instance_pieces":0,"boundary_vertices":0,"permuted_pieces":0,"recolored_vertices":0,"cross_conflicts_before":0,"cross_conflicts_after":0}}"#,
        )
        .expect("valid JSON");
        let Response::Result(payload) = decode_response(&json).expect("decodes") else {
            panic!("expected a result frame");
        };
        let hierarchy = payload.hierarchy.expect("hierarchy present");
        assert_eq!(hierarchy.instances, 2);
        assert_eq!(hierarchy.nested_inherited, 0);
    }

    #[test]
    fn bare_pong_frames_decode_without_cache_stats() {
        // Old servers answer `{"type":"pong"}`; the absent (or null) cache
        // object must decode as None.
        for frame in [r#"{"type":"pong"}"#, r#"{"type":"pong","cache":null}"#] {
            let json = Json::parse(frame).expect("valid JSON");
            assert_eq!(
                decode_response(&json).expect("decodes"),
                Response::Pong {
                    cache: None,
                    hier_runs: 0,
                    tile_runs: 0,
                    queued_frames: 0,
                    dropped_progress: 0,
                    cancelled_requests: 0,
                    deadline_exceeded_requests: 0,
                },
                "{frame}"
            );
        }
    }

    #[test]
    fn submit_defaults_apply_when_fields_are_omitted() {
        let json = Json::parse(r##"{"type":"submit","id":"d","layout_text":"# layout d\n"}"##)
            .expect("valid JSON");
        let Request::Submit(submit) = decode_request(&json).expect("decodes") else {
            panic!("expected submit");
        };
        assert_eq!(submit.k, 4);
        assert_eq!(submit.algorithm, ColorAlgorithm::SdpBacktrack);
        assert_eq!(submit.alpha, 0.1);
        assert_eq!(submit.executor, ExecutorChoice::Pool);
        assert!(!submit.progress);
        assert!(!submit.verify);
        assert_eq!(submit.tile_size, None);
        assert_eq!(submit.halo, None);
        assert!(!submit.hier);
    }

    #[test]
    fn tiling_fields_decode_as_raw_nm_integers() {
        // Non-positive distances must decode: the server answers them with
        // the pipeline's typed `config` error, not a protocol error.
        let json = Json::parse(
            r##"{"type":"submit","id":"t","layout_text":"# layout t\n","tile_size":-5,"halo":0}"##,
        )
        .expect("valid JSON");
        let Request::Submit(submit) = decode_request(&json).expect("decodes") else {
            panic!("expected submit");
        };
        assert_eq!(submit.tile_size, Some(-5));
        assert_eq!(submit.halo, Some(0));
    }

    #[test]
    fn malformed_requests_are_typed_protocol_errors() {
        for (bad, needle) in [
            (r#"{"id":"x"}"#, "missing field \"type\""),
            (r#"{"type":"nope"}"#, "unknown request type"),
            (r#"{"type":"submit","id":"x"}"#, "exactly one of"),
            (
                r#"{"type":"submit","id":"x","layout_text":"a","path":"b"}"#,
                "more than one layout source",
            ),
            (
                r#"{"type":"submit","layout_text":"a"}"#,
                "missing field \"id\"",
            ),
            (
                r#"{"type":"submit","id":"x","layout_text":"a","k":-1}"#,
                "non-negative integer",
            ),
            (
                r#"{"type":"submit","id":"x","layout_text":"a","algorithm":"magic"}"#,
                "unknown algorithm",
            ),
            (
                r#"{"type":"submit","id":"x","layout_text":"a","executor":"gpu"}"#,
                "unknown executor",
            ),
            (
                r#"{"type":"submit","id":"x","layout_text":"a","progress":"yes"}"#,
                "must be a boolean",
            ),
            (
                r#"{"type":"submit","id":"x","layout_text":"a","tile_size":"big"}"#,
                "must be an integer distance in nm",
            ),
            (
                r#"{"type":"submit","id":"x","layout_text":"a","tile_size":400.5}"#,
                "must be an integer distance in nm",
            ),
            (
                r#"{"type":"submit","id":"x","layout_text":"a","hier":"yes"}"#,
                "field \"hier\" must be a boolean",
            ),
            (
                r#"{"type":"submit","id":"x","layout_text":"a","deadline_ms":-5}"#,
                "field \"deadline_ms\" must be a non-negative integer",
            ),
            (r#"{"type":"cancel"}"#, "missing field \"id\""),
            (r#"{"type":7}"#, "must be a string"),
        ] {
            let json = Json::parse(bad).expect("valid JSON");
            let error = decode_request(&json).expect_err(bad);
            assert_eq!(error.code(), ErrorCode::Protocol, "{bad}");
            assert!(error.to_string().contains(needle), "{bad}: {error}");
        }
    }

    #[test]
    fn pipeline_errors_keep_their_types_and_map_to_codes() {
        let config: ServeError = ConfigError::MaskCount { k: 0 }.into();
        assert_eq!(config.code(), ErrorCode::Config);
        assert!(config.to_string().contains("got 0"));

        // DecomposeError::Config flattens to the config code…
        let nested: ServeError = DecomposeError::Config(ConfigError::ThreadCount).into();
        assert_eq!(nested.code(), ErrorCode::Config);
        // …while genuine planning failures keep the decompose code.
        let planning: ServeError = DecomposeError::DegenerateShape { shape: 3 }.into();
        assert_eq!(planning.code(), ErrorCode::Decompose);
        assert!(matches!(
            planning.to_response(Some("q".into())),
            Response::Error {
                code: ErrorCode::Decompose,
                ..
            }
        ));
        assert!(std::error::Error::source(&planning).is_some());
    }

    /// A `result` frame with every optional part present — tiles,
    /// hierarchy, the graph's edge counts and planning time, the four
    /// simplify/bound counters, memo counts,
    /// `spacing_violations` and the cancel/deadline fields — exactly as the
    /// encoder writes it.
    const PINNED_RESULT: &str = r#"{"type":"result","id":"pin-1","layout":"pinned \"chip\"","k":4,"algorithm":"Linear","executor":"threads:2","vertices":9,"conflict_edges":14,"stitch_edges":3,"components":4,"conflicts":1,"stitches":2,"cost":1.2,"graph_seconds":0.125,"color_seconds":0.25,"hidden_vertices":5,"kernel_vertices":3,"simplify_rounds":2,"bound_improvements":7,"spacing_violations":1,"memo_hits":1,"memo_misses":3,"cancelled":true,"deadline_exceeded":true,"components_completed":3,"components_skipped":1,"tiles":{"grid_x":3,"grid_y":2,"tiles":6,"tiled_components":1,"resident_components":2,"shared_vertices":11,"permuted_tiles":4,"recolored_vertices":1,"cross_conflicts_before":2,"cross_conflicts_after":1},"hierarchy":{"instances":16,"cells":2,"nested_inherited":3,"resident_components":1,"split_components":1,"instance_pieces":16,"boundary_vertices":12,"permuted_pieces":9,"recolored_vertices":2,"cross_conflicts_before":5,"cross_conflicts_after":1},"colors":[0,1,2,3,0,1,2,3,1]}"#;

    /// A `pong` frame with the cache statistics and every health counter.
    const PINNED_PONG: &str = r#"{"type":"pong","cache":{"entries":12,"capacity":65536,"hits":40,"misses":14,"evictions":2,"bytes":9000},"hier_runs":3,"tile_runs":7,"queued_frames":5,"dropped_progress":11,"cancelled_requests":2,"deadline_exceeded_requests":1}"#;

    fn decode_text(frame: &str) -> Result<Response, ServeError> {
        decode_response(&Json::parse(frame).expect("valid JSON"))
    }

    /// `frame` without `key`, removed from the nested `object` when one is
    /// named and from the frame itself otherwise.
    fn without(frame: &str, object: Option<&str>, key: &str) -> Json {
        let mut json = Json::parse(frame).expect("valid JSON");
        let Json::Object(pairs) = &mut json else {
            panic!("frames are objects");
        };
        match object {
            None => pairs.retain(|(name, _)| name != key),
            Some(object) => {
                for (name, value) in pairs.iter_mut() {
                    if let (true, Json::Object(inner)) = (name == object, value) {
                        inner.retain(|(name, _)| name != key);
                    }
                }
            }
        }
        json
    }

    #[test]
    fn result_and_pong_frame_bytes_are_pinned() {
        // Decoding a frame and encoding it again must reproduce it byte for
        // byte: key order, number formatting and escaping are the wire.
        for frame in [PINNED_RESULT, PINNED_PONG] {
            let response = decode_text(frame).expect("pinned frames decode");
            assert_eq!(
                crate::codec::encode_frame(&encode_response(&response)),
                format!("{frame}\n")
            );
        }
        let Ok(Response::Result(payload)) = decode_text(PINNED_RESULT) else {
            panic!("expected a result frame");
        };
        assert_eq!(payload.layout, "pinned \"chip\"");
        assert_eq!(payload.spacing_violations, Some(1));
        assert_eq!(payload.tiles.expect("tiles").shared_vertices, 11);
        assert_eq!(payload.hierarchy.expect("hierarchy").nested_inherited, 3);
        let Ok(Response::Pong { cache, .. }) = decode_text(PINNED_PONG) else {
            panic!("expected a pong frame");
        };
        assert_eq!(cache.expect("cache").bytes, 9_000);
    }

    #[test]
    fn stats_objects_name_each_missing_key_in_a_protocol_error() {
        for (frame, object) in [
            (PINNED_RESULT, "tiles"),
            (PINNED_RESULT, "hierarchy"),
            (PINNED_PONG, "cache"),
        ] {
            let full = Json::parse(frame).expect("valid JSON");
            let Some(Json::Object(pairs)) = full.get(object) else {
                panic!("{object} is an object");
            };
            for (key, _) in pairs {
                let decoded = decode_response(&without(frame, Some(object), key));
                if key == "nested_inherited" {
                    // Absent on frames from older servers: decodes as zero.
                    let response = decoded.expect("absent nested_inherited decodes");
                    let nested = encode_response(&response)
                        .get(object)
                        .and_then(|stats| stats.get(key))
                        .cloned();
                    assert_eq!(nested, Some(Json::Number(0.0)));
                } else {
                    let error = decoded.expect_err(key);
                    assert_eq!(error.code(), ErrorCode::Protocol, "{object}.{key}");
                    assert!(
                        error.to_string().contains(&format!("{key:?}")),
                        "{object}.{key}: {error}"
                    );
                }
            }
        }
    }

    #[test]
    fn result_frames_without_a_flat_counter_decode_it_as_zero() {
        for key in [
            "conflict_edges",
            "stitch_edges",
            "graph_seconds",
            "hidden_vertices",
            "kernel_vertices",
            "simplify_rounds",
            "bound_improvements",
        ] {
            let response = decode_response(&without(PINNED_RESULT, None, key)).expect(key);
            let mut expected = Json::parse(PINNED_RESULT).expect("valid JSON");
            if let Json::Object(pairs) = &mut expected {
                for (name, value) in pairs.iter_mut() {
                    if name == key {
                        *value = Json::Number(0.0);
                    }
                }
            }
            assert_eq!(encode_response(&response), expected, "{key}");
        }
    }
}
