//! A streaming decomposition service over
//! [`DecompositionSession`](mpl_core::DecompositionSession).
//!
//! The decomposition pipeline is batch-first: a session coalesces the
//! component tasks of many layouts into one largest-first queue and drains
//! it on a shared executor.  This crate puts a long-running TCP front end
//! on top: clients stream `submit` requests, the server coalesces whatever
//! is pending into shared batches on its persistent executors, and each
//! layout's progress and final coloring stream back to the connection that
//! submitted it.  Everything is plain `std` — no crates.io dependencies —
//! like the rest of the workspace.
//!
//! The crate also holds the one driver dispatch of every front end:
//! [`run_layouts`] runs a session's batch hierarchically, tiled or plain
//! and returns one [`LayoutRun`] (result plus the `tiles` or `hierarchy`
//! statistics) per layout.  The server's batches, `qpl-decompose` and
//! `workload --batch` all run through it, and all report a layout as one
//! record, [`ResultPayload`] ([`ResultPayload::from_run`] builds it,
//! [`ResultPayload::fields`] lists its keys once).
//!
//! # Wire protocol
//!
//! One frame = one JSON object per line, terminated by `\n` (a trailing
//! `\r` is tolerated, and frames have a configurable size cap), written in
//! the compact `{}` form of the workspace's one JSON type,
//! [`mpl_core::Json`] (re-exported here as [`Json`]).  TCP chunk
//! boundaries carry no meaning: the [`codec::FrameDecoder`] reassembles
//! frames however the bytes arrive.  Every frame has a `"type"` field.
//!
//! Client → server ([`protocol::Request`]):
//!
//! ```text
//! {"type":"submit","id":"j1","layout_text":"# layout a\n0 0 0 20 20\n",
//!  "k":4,"algorithm":"linear","alpha":0.1,"executor":"pool",
//!  "progress":true,"verify":true,"deadline_ms":5000}
//! {"type":"cancel","id":"j1"}
//! {"type":"ping"}
//! {"type":"shutdown"}
//! ```
//!
//! A `submit` carries exactly one layout source — `layout_text` (the
//! workspace's text format), `gds_base64` (a base64 GDSII stream) or
//! `path` (a file on the server) — plus optional per-request parameters:
//! `k` (default 4), `algorithm` (`ilp` | `sdp-backtrack` | `sdp-greedy` |
//! `linear`, default `sdp-backtrack`), `alpha` (default 0.1), `executor`
//! (`pool` | `serial`, default `pool`), `progress` (stream per-component
//! ticks, default false), `verify` (server-side spacing re-check,
//! default false) and `deadline_ms` (soft compute budget, measured from
//! acceptance; omitted = none).  The `id` is an arbitrary client-chosen
//! string echoed on every frame about that submission.
//!
//! # Deadlines and cancellation
//!
//! Both ride the same [`CancelToken`](mpl_core::CancelToken), polled by
//! every engine on its existing amortised clock checks: components that
//! have not started are skipped, components in flight stop at the next
//! poll, and components already colored keep their colors.  The two
//! resolve differently at the terminal frame:
//!
//! * a `cancel` frame for a pending id fires its token, and the
//!   submission resolves with a single terminal `cancelled` frame —
//!   `{"type":"cancelled","id":"j1","components_completed":2,
//!   "components_skipped":7,"bnb_nodes":412}` — in place of its `result`.
//!   Exactly one terminal frame is sent however the cancel races
//!   completion; cancelling an unknown or already-resolved id answers a
//!   non-fatal typed error with code `cancel`.
//! * an expired `deadline_ms` without an explicit cancel resolves as a
//!   partial `result` carrying `"deadline_exceeded":true` (and
//!   `"cancelled":true` per component in its stats), with
//!   `components_completed` / `components_skipped` counting the split.
//!   Skipped components report the all-zero coloring.
//!
//! A reader that disconnects auto-cancels every submission still pending
//! on that connection — with the reader gone, nothing could cancel or
//! collect them any more.
//!
//! # Output backpressure
//!
//! Each connection owns a bounded output queue
//! ([`ServerConfig::output_queue_frames`]) drained by a dedicated writer
//! thread.  When a slow or stalled reader fills it, progress-class frames
//! (`progress`, `tile_progress`, `hier_progress`) are dropped first —
//! newest first, counted in `dropped_progress` — and `queued` / `result`
//! / `cancelled` / `error` frames are never dropped: producers briefly
//! wait for space instead, and the write timeout
//! ([`ServerConfig::write_timeout`]) remains the last-resort guard that
//! declares a connection dead.
//!
//! Server → client ([`protocol::Response`]), per submission in order:
//!
//! ```text
//! {"type":"queued","id":"j1","layout":"a","vertices":9,"components":3}
//! {"type":"progress","id":"j1","done":1,"total":3}      (opt-in, per component)
//! {"type":"result","id":"j1","layout":"a","k":4,"algorithm":"Linear",
//!  "executor":"threads:2","vertices":9,"conflict_edges":11,
//!  "stitch_edges":1,"components":3,"conflicts":0,"stitches":1,
//!  "cost":0.1,"graph_seconds":0.001,"color_seconds":0.002,
//!  "hidden_vertices":9,"kernel_vertices":0,"simplify_rounds":3,
//!  "bound_improvements":0,"spacing_violations":0,"memo_hits":1,
//!  "memo_misses":2,"colors":[0,1,2,0,3,1,2,0,1]}
//! ```
//!
//! Between `type`/`id` and `colors` a `result` frame carries the layout's
//! record ([`ResultPayload::fields`]), the same keys in the same order as
//! each layout object of `qpl-decompose --json` (which adds local extras)
//! and `--connect --json` (which adds `id`).  `conflict_edges`,
//! `stitch_edges` and `graph_seconds` (planning time) decode as zero when
//! absent.  `hidden_vertices` … `bound_improvements` are the layout's
//! [`LayoutCounters`](mpl_core::LayoutCounters), spliced flat; a frame
//! lacking one decodes it as zero.  `memo_hits` / `memo_misses` count the
//! layout's components stamped from (respectively colored into) the
//! server's shared translation-canonical memo cache — see the `mpl-memo`
//! crate and the memoization section of the workspace README.  Tiled and
//! hierarchical submissions add a `tiles` or `hierarchy` object: the
//! [`TileStats`](mpl_tile::TileStats) or [`HierStats`](mpl_hier::HierStats)
//! record, under the same key list and key as the CLI's `--json` and the
//! `workload` reports (every key required, except the hierarchy's
//! `nested_inherited`, which decodes as zero when absent).
//!
//! or, when anything goes wrong, a typed error frame that leaves the
//! connection usable:
//!
//! ```text
//! {"type":"error","id":"j1","code":"config",
//!  "message":"invalid configuration: mask count K must be in 2..=255, got 0"}
//! ```
//!
//! Error `code`s ([`protocol::ErrorCode`]): `protocol` (malformed frame or
//! field), `parse` (bad layout text / truncated GDS), `config` (the
//! pipeline's typed [`ConfigError`](mpl_core::ConfigError)), `decompose`
//! (planning failures such as degenerate shapes), `io` (unreadable
//! server-side `path`) and `cancel` (a `cancel` frame naming an unknown or
//! already-resolved id — non-fatal).  `ping` answers with the shared memo
//! cache's statistics ([`MemoStats`](mpl_core::MemoStats)) plus the
//! server's usage and health counters —
//! `{"type":"pong","cache":{"entries":3,"capacity":65536,"hits":7,
//! "misses":3,"evictions":0,"bytes":1544},"hier_runs":0,"tile_runs":0,
//! "queued_frames":0,"dropped_progress":0,"cancelled_requests":0,
//! "deadline_exceeded_requests":0}` — where `hier_runs` / `tile_runs`
//! count layouts decomposed through the hierarchical / tiled drivers,
//! `queued_frames` is the current depth summed over every connection's
//! output queue, `dropped_progress` counts progress-class frames shed to
//! backpressure, and the last two count submissions that resolved
//! `cancelled` / deadline-expired.
//! `shutdown` answers `{"type":"shutting_down"}` before the server drains
//! its last batch and exits; concurrent `shutdown` frames from different
//! connections shut the server down exactly once.
//!
//! # Transport
//!
//! Every accepted socket gets `TCP_NODELAY` and the write timeout before
//! its writer thread starts (the writer's cloned handle shares both).  The
//! writer sends each frame whole with one `write_all`, so Nagle's
//! algorithm could only hold a complete frame back: a `result` written
//! right after its `queued` frame would wait for the client's delayed ACK
//! of `queued` (about 40 ms).  The option is unconditional; no client
//! benefits from the delay.
//!
//! To measure the service as a client sees it, `workload --serve ADDR` in
//! the `mpl-bench` crate reports requests/sec and nearest-rank
//! p50/p90/p99 latency, each request's latency running from its submit
//! being sent to its terminal frame arriving.
//!
//! # Determinism
//!
//! Components are independent by construction, so a layout's coloring is a
//! function of the layout and its parameters alone: whatever batch the
//! scheduler coalesces a submission into, however submissions interleave
//! across connections, and whichever executor drains them, the served
//! result is bit-identical to a direct
//! [`DecompositionSession`](mpl_core::DecompositionSession) run
//! (`tests/serve_integration.rs` at the workspace root pins this for all
//! four engines).
//!
//! # Quick start
//!
//! ```
//! use mpl_serve::client::Client;
//! use mpl_serve::protocol::{LayoutSource, Request, Response, SubmitRequest};
//! use mpl_serve::server::{Server, ServerConfig};
//!
//! let handle = Server::spawn(&ServerConfig::default())?; // ephemeral port
//! let mut client = Client::connect(handle.addr())?;
//! let layout = "# layout demo\n0 0 0 20 20\n1 100 0 120 20\n";
//! client.send(&Request::Submit(SubmitRequest::new(
//!     "demo",
//!     LayoutSource::Text(layout.to_string()),
//! )))?;
//! loop {
//!     match client.recv()? {
//!         Response::Result(result) => {
//!             assert_eq!(result.id, "demo");
//!             assert_eq!(result.conflicts, 0);
//!             break;
//!         }
//!         Response::Error { message, .. } => panic!("{message}"),
//!         _ => {} // queued / progress
//!     }
//! }
//! client.shutdown()?;
//! handle.join();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod base64;
pub mod client;
pub mod codec;
pub mod protocol;
mod run;
pub mod server;

pub use client::{Client, ClientError};
pub use codec::{encode_frame, FrameDecoder, FrameError};
/// The wire's JSON value type is the workspace's one `Json`
/// ([`mpl_core::Json`]); it is re-exported here because the codec and the
/// protocol functions take and return it.
pub use mpl_core::{Json, JsonParseError};
pub use protocol::{
    algorithm_wire_name, decode_request, decode_response, encode_request, encode_response,
    ErrorCode, ExecutorChoice, LayoutSource, Request, Response, ResultPayload, ServeError,
    SubmitRequest,
};
pub use run::{run_layouts, LayoutRun};
pub use server::{Server, ServerConfig, ServerHandle};
