//! The streaming decomposition server.
//!
//! One listener thread accepts TCP connections; each connection gets a
//! reader thread that parses newline-delimited JSON frames and answers
//! protocol errors immediately.  Accepted `submit` requests are planned on
//! the connection thread (so parse/config errors surface before anything
//! queues) and handed to the single **scheduler** thread, which coalesces
//! everything pending into one [`DecompositionSession`] batch per (tiling,
//! hierarchy) request and drains it on the server's persistent thread pool,
//! the scheduler thread coloring as one of its workers.  While a
//! batch runs, each finished component streams a `progress` frame back to
//! its submission's connection through one [`Progress`] sink; the final
//! `result` frame carries the full coloring.
//!
//! Submissions that arrive while a batch is draining simply pile up and
//! form the next batch — incremental submission never blocks on execution.
//! The session is reused across batches ([`DecompositionSession::clear`]),
//! so every submission the server ever accepts gets a unique
//! [`LayoutId`].
//!
//! Back-pressure: every connection owns a **bounded output queue** drained
//! by a dedicated writer thread.  The scheduler enqueues frames instead of
//! writing sockets, so a slow client never blocks it directly.  On
//! overflow, progress frames (`progress` / `tile_progress` /
//! `hier_progress`) are dropped first — incoming ones when the queue is
//! full, queued ones to make room for a result — and result / error /
//! cancelled frames are **never** dropped: when the queue is all
//! non-droppable frames the sender waits, bounded by the writer thread's
//! own progress or death.  A stalled client's writer thread fails with the
//! socket [`write_timeout`](ServerConfig::write_timeout) once the socket
//! buffer fills, which marks the connection dead, empties its queue and
//! releases any waiting sender — everyone else's results keep flowing.
//!
//! Cancellation: every submission carries an
//! [`mpl_core::CancelToken`]; an optional `deadline_ms` arms its deadline,
//! and a `cancel` frame from the submitting connection fires it explicitly.
//! Fired tokens make not-yet-started components skip and running engines
//! stop at their next amortised poll, so the submission still resolves with
//! exactly one terminal frame: `cancelled` for an explicit cancel, or a
//! `result` carrying `deadline_exceeded` and the completed/skipped split
//! for an expired deadline.  A reader that disconnects auto-cancels that
//! connection's pending submissions.
//!
//! A submission's tiling fields ([`TileConfig::from_request`]) and its
//! configuration are checked before its source is read, and every
//! source loads as the CLI loads it: a `path` through
//! [`mpl_gds::layout_from_bytes`], a `gds_base64` stream through
//! [`mpl_gds::layout_with_hierarchy`].  Each batch runs through
//! [`run_layouts`], the dispatch the CLI and `workload --batch` share.
//!
//! Submissions may opt into the halo-aware tiler (`tile_size` on the
//! `submit` frame): such layouts decompose through the tiled driver,
//! stream a `tile_progress` frame as each tile piece finishes instead of
//! per-component `progress`, and report a `tiles` statistics object on
//! their `result` frame.
//!
//! Submissions may instead opt into cell-level hierarchical decomposition
//! (`hier` on the `submit` frame, mutually exclusive with tiling): GDS
//! sources keep their instance provenance, decompose through the
//! hierarchical driver, stream a `hier_progress` frame as each piece
//! finishes, and report a `hierarchy` statistics object on their `result`
//! frame.  Flat submissions drop the hierarchy as soon as the source
//! loads.  Sources without a hierarchy (text layouts) degenerate to the
//! ordinary memoized run.  `pong` frames carry lifetime
//! `hier_runs`/`tile_runs` usage counters alongside the shared memo-cache
//! statistics.

use crate::codec::{encode_frame, FrameDecoder, FrameError, DEFAULT_MAX_FRAME_LEN};
use crate::protocol::{
    decode_request, encode_response, ErrorCode, LayoutSource, Request, Response, ResultPayload,
    ServeError, SubmitRequest,
};
use crate::run::run_layouts;
use mpl_core::Json;
use mpl_core::{
    verify_spacing, CancelToken, ConfigError, Decomposer, DecomposerConfig, DecompositionPlan,
    DecompositionSession, LayoutId, MemoCache, Progress, ThreadPoolExecutor, TileConfig,
};
use mpl_gds::{layout_from_bytes, layout_with_hierarchy, GdsLibrary, LayerMap, ReadOptions};
use mpl_layout::{io, Layout, LayoutHierarchy, Technology};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

/// Locks a mutex, recovering the guard from a poisoned lock.  Every mutex
/// in this server protects plain queue/flag state that is valid at every
/// intermediate step, so a thread that panicked while holding one leaves
/// nothing half-mutated — recovering beats cascading the panic into every
/// other connection.
fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The cancel tokens of one connection's unresolved submissions, keyed by
/// the client-chosen id.  Shared between the connection's reader thread
/// (which registers submissions and serves `cancel` frames) and the
/// scheduler (which retires entries as terminal frames go out).
type CancelRegistry = Arc<Mutex<HashMap<String, CancelToken>>>;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Worker threads of the persistent pool, the scheduler thread
    /// included (≥ 1; one thread colors every submission on the scheduler
    /// thread).  They color components; planning a large submission runs
    /// on every available CPU ([`mpl_geometry::range_count`]) whatever this
    /// says.
    pub pool_threads: usize,
    /// Maximum accepted frame length in bytes.
    pub max_frame_len: usize,
    /// Maximum time one blocking socket write may stall before the
    /// connection is declared dead (`None` = block forever).  Writes run
    /// on per-connection writer threads, so a stalled client only wedges
    /// its own writer — but until that write times out, its bounded queue
    /// can fill and make the scheduler wait to enqueue non-droppable
    /// frames; the timeout bounds that wait too.
    pub write_timeout: Option<Duration>,
    /// Capacity (in frames) of each connection's bounded output queue
    /// (≥ 1).  On overflow, progress frames are dropped first; result,
    /// error and cancelled frames are never dropped.
    pub output_queue_frames: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            pool_threads: 2,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            write_timeout: Some(Duration::from_secs(30)),
            output_queue_frames: 256,
        }
    }
}

/// A submission accepted by a connection, waiting for the next batch.
struct Pending {
    plan: DecompositionPlan,
    submit: SubmitRequest,
    /// The validated tiling request (`None` = untiled).
    tiling: Option<TileConfig>,
    /// Instance provenance of a `hier` submission whose source carried a
    /// hierarchy (`None` for flat submissions and text sources).
    hierarchy: Option<Arc<LayoutHierarchy>>,
    writer: ConnectionWriter,
    /// The submission's cancel token: its deadline armed from
    /// `deadline_ms`, fired explicitly by a `cancel` frame, or fired by
    /// the reader disconnecting.
    cancel: CancelToken,
    /// The submitting connection's registry, so the scheduler can retire
    /// the entry when the terminal frame goes out.
    registry: CancelRegistry,
}

/// State shared between the listener, connections and the scheduler.
struct Shared {
    pending: Mutex<Vec<Pending>>,
    wake: Condvar,
    shutdown: AtomicBool,
    pool: ThreadPoolExecutor,
    max_frame_len: usize,
    write_timeout: Option<Duration>,
    addr: SocketAddr,
    technology: Technology,
    /// One memo cache for the whole server, of
    /// [`MemoCache::DEFAULT_CAPACITY`] colorings: every batch of every
    /// connection probes and fills it, so repeated submissions (and
    /// translated copies of earlier layouts) are stamped instead of
    /// re-colored.
    memo: Arc<MemoCache>,
    /// Lifetime count of layouts decomposed through the hierarchical
    /// driver, reported on `pong` frames.
    hier_runs: AtomicU64,
    /// Lifetime count of layouts decomposed through the halo-aware tiler,
    /// reported on `pong` frames.
    tile_runs: AtomicU64,
    /// Gauges and counters of the bounded per-connection output queues,
    /// reported on `pong` frames.
    writer_metrics: Arc<WriterMetrics>,
    /// Lifetime count of submissions resolved by an explicit `cancel`.
    cancelled_requests: AtomicU64,
    /// Lifetime count of submissions whose deadline expired mid-run.
    deadline_exceeded_requests: AtomicU64,
    /// Capacity of each connection's bounded output queue.
    output_queue_frames: usize,
}

impl Shared {
    /// Queues a planned submission for the next batch.  Returns `false`
    /// when shutdown has begun and the scheduler can no longer be relied
    /// on to drain it — the flag is checked under the queue lock, and
    /// [`begin_shutdown`](Shared::begin_shutdown) sets it under the same
    /// lock, so an accepted submission is always either drained by the
    /// scheduler's final wave or rejected here, never silently dropped.
    fn enqueue(&self, pending: Pending) -> bool {
        let mut queue = lock_recovering(&self.pending);
        if self.shutting_down() {
            return false;
        }
        queue.push(pending);
        self.wake.notify_one();
        true
    }

    /// Flags shutdown and unblocks both the scheduler (condvar) and the
    /// accept loop (a throwaway connection to ourselves).  Idempotent:
    /// simultaneous `shutdown` frames from several connections flag, wake
    /// and poke exactly once — later callers see the swapped flag and
    /// return, so no second poke can race the listener's close and land on
    /// whatever rebinds the port.
    fn begin_shutdown(&self) {
        {
            // Under the queue lock: see `enqueue` for the invariant.
            let _queue = lock_recovering(&self.pending);
            if self.shutdown.swap(true, Ordering::AcqRel) {
                return;
            }
        }
        self.wake.notify_all();
        // `TcpListener::incoming` has no timeout; poke it awake.  A
        // wildcard bind (0.0.0.0 / ::) is not connectable on every
        // platform, so aim the poke at the loopback of the same family.
        let mut poke = self.addr;
        if poke.ip().is_unspecified() {
            poke.set_ip(match poke {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        drop(TcpStream::connect(poke));
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

/// Server-wide gauges and counters of the bounded per-connection output
/// queues, reported on `pong` frames.
#[derive(Debug, Default)]
struct WriterMetrics {
    /// Frames currently queued across every live connection (a gauge).
    queued_frames: AtomicU64,
    /// Lifetime progress frames dropped by queue overflow.
    dropped_progress: AtomicU64,
}

/// One frame waiting in a connection's bounded output queue.
struct QueuedFrame {
    bytes: String,
    /// Progress frames are droppable under back-pressure; result, error
    /// and cancelled frames are not.
    droppable: bool,
}

/// State shared between a connection's frame senders (reader thread,
/// scheduler) and its dedicated writer thread.
struct WriterShared {
    state: Mutex<WriterState>,
    /// Wakes the writer thread: a frame queued, a sender gone, or death.
    readable: Condvar,
    /// Wakes blocked senders: queue space freed, or death.
    writable: Condvar,
    capacity: usize,
    metrics: Arc<WriterMetrics>,
}

struct WriterState {
    queue: VecDeque<QueuedFrame>,
    /// Live [`ConnectionWriter`] handles.  The writer thread drains the
    /// queue and exits once this reaches zero — which also closes the
    /// socket, so a half-closed client reading to EOF sees every frame
    /// queued before the last handle dropped.
    senders: usize,
    /// Set by the writer thread on the first failed write.  The queue is
    /// emptied (a partial frame may be on the wire; the stream has lost
    /// frame synchronisation) and later sends drop silently.
    dead: bool,
}

impl WriterShared {
    /// Empties the queue after the connection died, keeping the
    /// queued-frames gauge honest.
    fn clear_queue(&self, state: &mut WriterState) {
        self.metrics
            .queued_frames
            .fetch_sub(state.queue.len() as u64, Ordering::Relaxed);
        state.queue.clear();
    }
}

/// A shareable handle enqueueing frames onto one connection's bounded
/// output queue.
///
/// A dedicated writer thread drains the queue, so the scheduler never
/// blocks on a socket.  When the queue is full, progress frames are
/// dropped — the incoming one, or queued ones to make room for a
/// non-droppable frame — and result/error/cancelled frames are never
/// dropped: the sender waits for space, bounded by the writer thread's own
/// progress or death (a stalled client's write fails with the socket write
/// timeout, marking the connection dead and releasing every waiter).
struct ConnectionWriter {
    shared: Arc<WriterShared>,
}

impl Clone for ConnectionWriter {
    fn clone(&self) -> Self {
        lock_recovering(&self.shared.state).senders += 1;
        ConnectionWriter {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for ConnectionWriter {
    fn drop(&mut self) {
        let mut state = lock_recovering(&self.shared.state);
        state.senders -= 1;
        if state.senders == 0 {
            drop(state);
            // The writer thread drains what is queued, then exits.
            self.shared.readable.notify_all();
        }
    }
}

impl ConnectionWriter {
    /// Spawns the connection's writer thread around a cloned stream.
    fn spawn(stream: TcpStream, capacity: usize, metrics: Arc<WriterMetrics>) -> Option<Self> {
        let shared = Arc::new(WriterShared {
            state: Mutex::new(WriterState {
                queue: VecDeque::new(),
                senders: 1,
                dead: false,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            capacity: capacity.max(1),
            metrics,
        });
        let thread_shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("mpl-serve-writer".to_string())
            .spawn(move || writer_loop(stream, &thread_shared))
            .ok()?;
        Some(ConnectionWriter { shared })
    }

    fn send(&self, response: &Response) {
        let droppable = matches!(
            response,
            Response::Progress { .. }
                | Response::TileProgress { .. }
                | Response::HierProgress { .. }
        );
        let bytes = encode_frame(&encode_response(response));
        let shared = &*self.shared;
        let mut state = lock_recovering(&shared.state);
        loop {
            if state.dead {
                return;
            }
            if state.queue.len() < shared.capacity {
                state.queue.push_back(QueuedFrame { bytes, droppable });
                shared.metrics.queued_frames.fetch_add(1, Ordering::Relaxed);
                shared.readable.notify_one();
                return;
            }
            if droppable {
                // Queue full: progress is the overflow policy's first
                // victim, and an incoming tick is the staleness-cheapest
                // one to lose.
                shared
                    .metrics
                    .dropped_progress
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
            // Make room for a non-droppable frame by evicting queued
            // progress ticks.
            let before = state.queue.len();
            state.queue.retain(|frame| !frame.droppable);
            let evicted = (before - state.queue.len()) as u64;
            if evicted > 0 {
                shared
                    .metrics
                    .dropped_progress
                    .fetch_add(evicted, Ordering::Relaxed);
                shared
                    .metrics
                    .queued_frames
                    .fetch_sub(evicted, Ordering::Relaxed);
                continue;
            }
            // Full of non-droppable frames: wait for the writer thread to
            // deliver one or die trying — both bounded by the socket write
            // timeout.  The wait slice only bounds each nap, not progress.
            state = shared
                .writable
                .wait_timeout(state, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// Drains one connection's output queue onto its socket until every sender
/// is gone (clean drain) or a write fails (the connection is dead).
fn writer_loop(mut stream: TcpStream, shared: &WriterShared) {
    loop {
        let frame = {
            let mut state = lock_recovering(&shared.state);
            loop {
                if let Some(frame) = state.queue.pop_front() {
                    break frame;
                }
                if state.dead || state.senders == 0 {
                    return;
                }
                state = shared
                    .readable
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        shared.metrics.queued_frames.fetch_sub(1, Ordering::Relaxed);
        shared.writable.notify_all();
        if stream.write_all(frame.bytes.as_bytes()).is_err() {
            let mut state = lock_recovering(&shared.state);
            state.dead = true;
            shared.clear_queue(&mut state);
            drop(state);
            shared.writable.notify_all();
            return;
        }
    }
}

/// One batch member: its request, its connection's writer, its cancel
/// token, and the registry entry to retire once the terminal frame is out.
struct Active {
    submit: SubmitRequest,
    writer: ConnectionWriter,
    cancel: CancelToken,
    registry: CancelRegistry,
}

/// Builds one progress frame from a submission id, `done` and `total`.
type ProgressFrame = fn(String, usize, usize) -> Response;

/// Streams progress frames for one running batch: `progress` per
/// component, `tile_progress` per tile piece or `hier_progress` per
/// hierarchical piece.
struct BatchSink<'a> {
    submissions: &'a HashMap<LayoutId, Active>,
    frame: ProgressFrame,
}

impl Progress for BatchSink<'_> {
    fn done(&self, layout: LayoutId, done: usize, total: usize) {
        if let Some(active) = self.submissions.get(&layout) {
            if active.submit.progress {
                active
                    .writer
                    .send(&(self.frame)(active.submit.id.clone(), done, total));
            }
        }
    }
}

/// The streaming decomposition server (see the crate-level documentation
/// for the wire protocol).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener.  The server does not accept connections until
    /// [`run`](Server::run) (or [`spawn`](Server::spawn) internally) is
    /// called.
    ///
    /// # Errors
    ///
    /// Any bind failure, or a zero `pool_threads`.
    pub fn bind(config: &ServerConfig) -> std::io::Result<Server> {
        let pool = ThreadPoolExecutor::new(config.pool_threads).map_err(|error| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, error.to_string())
        })?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                pending: Mutex::new(Vec::new()),
                wake: Condvar::new(),
                shutdown: AtomicBool::new(false),
                pool,
                max_frame_len: config.max_frame_len,
                write_timeout: config.write_timeout,
                addr,
                technology: Technology::nm20(),
                memo: Arc::new(MemoCache::new(MemoCache::DEFAULT_CAPACITY)),
                hier_runs: AtomicU64::new(0),
                tile_runs: AtomicU64::new(0),
                writer_metrics: Arc::new(WriterMetrics::default()),
                cancelled_requests: AtomicU64::new(0),
                deadline_exceeded_requests: AtomicU64::new(0),
                output_queue_frames: config.output_queue_frames.max(1),
            }),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Runs the accept loop on the calling thread until a client sends a
    /// `shutdown` request, then drains the last batch and returns.
    pub fn run(self) {
        let scheduler_shared = Arc::clone(&self.shared);
        let scheduler = thread::Builder::new()
            .name("mpl-serve-scheduler".to_string())
            .spawn(move || scheduler_loop(scheduler_shared))
            .expect("spawn scheduler thread");

        for stream in self.listener.incoming() {
            if self.shared.shutting_down() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let shared = Arc::clone(&self.shared);
            // Connection threads are detached: they exit on client EOF and
            // must not delay shutdown.
            let _ = thread::Builder::new()
                .name("mpl-serve-connection".to_string())
                .spawn(move || connection_loop(&shared, stream));
        }
        scheduler.join().expect("scheduler thread panicked");
    }

    /// Binds and runs the server on a background thread, returning a
    /// handle with the bound address.
    ///
    /// # Errors
    ///
    /// Propagates [`Server::bind`] failures.
    pub fn spawn(config: &ServerConfig) -> std::io::Result<ServerHandle> {
        let server = Server::bind(config)?;
        let addr = server.local_addr();
        let thread = thread::Builder::new()
            .name("mpl-serve-listener".to_string())
            .spawn(move || server.run())?;
        Ok(ServerHandle { addr, thread })
    }
}

/// A running [`Server`] on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    thread: thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sends a `shutdown` request and waits for the server to exit.
    ///
    /// # Errors
    ///
    /// Any I/O failure while delivering the request; the server thread is
    /// still joined.
    pub fn shutdown(self) -> std::io::Result<()> {
        let deliver = (|| -> std::io::Result<()> {
            let mut stream = TcpStream::connect(self.addr)?;
            stream.write_all(
                encode_frame(&Json::object(vec![("type", Json::string("shutdown"))])).as_bytes(),
            )?;
            // Half-close the write side so the server's connection thread
            // sees EOF and hangs up after acknowledging — then draining to
            // EOF here confirms the request reached the server without the
            // two sides waiting on each other.
            stream.shutdown(std::net::Shutdown::Write)?;
            let mut sink = [0u8; 256];
            while stream.read(&mut sink)? > 0 {}
            Ok(())
        })();
        self.thread.join().expect("server thread panicked");
        deliver
    }

    /// Waits for the server to exit without requesting it — for callers
    /// that already delivered a `shutdown` frame over their own connection.
    pub fn join(self) {
        self.thread.join().expect("server thread panicked");
    }
}

/// Sets the socket options of an accepted connection.  Options belong to
/// the socket, so the writer thread's `try_clone` handle shares them.
///
/// * The write timeout is the stalled-client guard: the writer thread's
///   `write_all` fails with `TimedOut`/`WouldBlock` instead of blocking
///   forever behind a full socket buffer.
/// * `TCP_NODELAY` turns Nagle's algorithm off.  The writer sends each
///   frame whole with one `write_all`, so Nagle could only hold a complete
///   frame back: a `result` written right after its `queued` frame would
///   wait for the client's delayed ACK of `queued` (about 40 ms).
fn configure_accepted(stream: &TcpStream, write_timeout: Option<Duration>) -> std::io::Result<()> {
    stream.set_write_timeout(write_timeout)?;
    stream.set_nodelay(true)
}

/// Reads frames from one connection until EOF, a fatal framing error, or a
/// read failure — then auto-cancels whatever the connection still has
/// pending: with the reader gone, nothing can cancel or collect those
/// submissions any more, so their remaining work is wasted.
fn connection_loop(shared: &Shared, stream: TcpStream) {
    if configure_accepted(&stream, shared.write_timeout).is_err() {
        return;
    }
    let Ok(clone) = stream.try_clone() else {
        return;
    };
    let Some(writer) = ConnectionWriter::spawn(
        clone,
        shared.output_queue_frames,
        Arc::clone(&shared.writer_metrics),
    ) else {
        return;
    };
    let registry: CancelRegistry = Arc::new(Mutex::new(HashMap::new()));
    read_frames(shared, &writer, &registry, stream);
    // Terminal frames for the cancelled submissions still flow: the
    // scheduler and any queued `Pending`s hold writer clones, and the
    // writer thread drains its queue before closing the socket, so a
    // half-closed client reading to EOF sees them all.
    let tokens: Vec<CancelToken> = lock_recovering(&registry).values().cloned().collect();
    for token in tokens {
        token.cancel();
    }
}

/// The read half of [`connection_loop`]: parses frames until the peer goes
/// away or commits a fatal framing offence.
fn read_frames(
    shared: &Shared,
    writer: &ConnectionWriter,
    registry: &CancelRegistry,
    mut stream: TcpStream,
) {
    let mut decoder = FrameDecoder::with_max_frame_len(shared.max_frame_len);
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => {
                    if frame.trim().is_empty() {
                        continue;
                    }
                    handle_frame(shared, writer, registry, &frame);
                }
                Ok(None) => break,
                Err(error @ (FrameError::NotUtf8 | FrameError::Oversized { .. })) => {
                    // The bad frame was discarded; the stream is still
                    // newline-synchronised, so the connection survives.
                    writer.send(&ServeError::Protocol(error.to_string()).to_response(None));
                }
                Err(error @ FrameError::TooLong { .. }) => {
                    // No resynchronisation point exists; drop the peer.
                    writer.send(&ServeError::Protocol(error.to_string()).to_response(None));
                    return;
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(read) => decoder.push(&chunk[..read]),
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

fn handle_frame(
    shared: &Shared,
    writer: &ConnectionWriter,
    registry: &CancelRegistry,
    frame: &str,
) {
    let json = match Json::parse(frame) {
        Ok(json) => json,
        Err(error) => {
            writer.send(&ServeError::Protocol(error.to_string()).to_response(None));
            return;
        }
    };
    // Attribute errors to the frame's id when one is present, even if the
    // rest of the frame is malformed.
    let id = json.get("id").and_then(Json::as_str).map(str::to_string);
    match decode_request(&json) {
        Err(error) => writer.send(&error.to_response(id)),
        Ok(Request::Ping) => {
            writer.send(&Response::Pong {
                cache: Some(shared.memo.stats()),
                hier_runs: shared.hier_runs.load(Ordering::Relaxed),
                tile_runs: shared.tile_runs.load(Ordering::Relaxed),
                queued_frames: shared.writer_metrics.queued_frames.load(Ordering::Relaxed),
                dropped_progress: shared
                    .writer_metrics
                    .dropped_progress
                    .load(Ordering::Relaxed),
                cancelled_requests: shared.cancelled_requests.load(Ordering::Relaxed),
                deadline_exceeded_requests: shared
                    .deadline_exceeded_requests
                    .load(Ordering::Relaxed),
            });
        }
        Ok(Request::Shutdown) => {
            writer.send(&Response::ShuttingDown);
            shared.begin_shutdown();
        }
        Ok(Request::Cancel { id }) => {
            // Fire the token; the terminal `cancelled` frame comes from
            // the scheduler when it retires the submission, so exactly one
            // terminal frame exists however the cancel races completion.
            let token = lock_recovering(registry).get(&id).cloned();
            match token {
                Some(token) => token.cancel(),
                None => writer.send(&Response::Error {
                    id: Some(id),
                    code: ErrorCode::Cancel,
                    message: "no such submission pending on this connection \
                              (unknown id, or it already resolved)"
                        .to_string(),
                }),
            }
        }
        Ok(Request::Submit(submit)) => match plan_submission(shared, &submit) {
            Err(error) => writer.send(&error.to_response(Some(submit.id))),
            Ok((plan, tiling, hierarchy)) => {
                // The deadline clock starts at acceptance, after the
                // planning work this connection already did.
                let cancel = match submit.deadline_ms {
                    Some(ms) => CancelToken::after(Duration::from_millis(ms)),
                    None => CancelToken::new(),
                };
                // Register before queueing so a cancel racing right
                // behind the queued ack finds its token.
                lock_recovering(registry).insert(submit.id.clone(), cancel.clone());
                writer.send(&Response::Queued {
                    id: submit.id.clone(),
                    layout: plan.layout_name().to_string(),
                    vertices: plan.graph().vertex_count(),
                    components: plan.tasks().len(),
                });
                let id = submit.id.clone();
                let accepted = shared.enqueue(Pending {
                    plan,
                    submit,
                    tiling,
                    hierarchy,
                    writer: writer.clone(),
                    cancel,
                    registry: Arc::clone(registry),
                });
                if !accepted {
                    // Shutdown won the race after the queued frame went
                    // out; a terminal error beats a submission that would
                    // silently never resolve.
                    lock_recovering(registry).remove(&id);
                    writer.send(
                        &ServeError::Protocol(
                            "server is shutting down; submission not accepted".to_string(),
                        )
                        .to_response(Some(id)),
                    );
                }
            }
        },
    }
}

/// A validated submission, ready to queue: the plan plus its optional
/// tiling and hierarchy attachments.
type PlannedSubmission = (
    DecompositionPlan,
    Option<TileConfig>,
    Option<Arc<LayoutHierarchy>>,
);

/// Validates a submission's request fields, resolves its layout source and
/// plans it — every failure is a typed [`ServeError`] answered on the
/// submitting connection before anything queues.  The tiling fields and
/// the configuration are checked first, so a submission they reject costs
/// no read, parse or graph build.
fn plan_submission(
    shared: &Shared,
    submit: &SubmitRequest,
) -> Result<PlannedSubmission, ServeError> {
    let tiling = TileConfig::from_request(submit.tile_size, submit.halo, submit.hier)?;
    let config = DecomposerConfig::k_patterning(submit.k, shared.technology)
        .with_algorithm(submit.algorithm)
        .with_alpha(submit.alpha);
    config.validate()?;
    // `run_tiled` re-checks this per plan; rejecting here routes the typed
    // error to the submitting client instead of failing the whole batch.
    if let Some(halo) = tiling.and_then(|tiling| tiling.halo) {
        if halo < shared.technology.coloring_distance(submit.k) {
            return Err(ConfigError::TileHalo { halo: halo.value() }.into());
        }
    }
    let (layout, hierarchy) = load_source(&submit.source)?;
    // Only a hierarchical run reads the hierarchy.
    let hierarchy = hierarchy.filter(|_| submit.hier).map(Arc::new);
    let plan = Decomposer::new(config)
        .plan(&layout)
        .map_err(ServeError::from)?;
    Ok((plan, tiling, hierarchy))
}

/// Loads a submission's layout plus, for GDS sources, its instance
/// provenance (text sources have none, and the hierarchical driver
/// degenerates to the plain memoized run for them).
fn load_source(source: &LayoutSource) -> Result<(Layout, Option<LayoutHierarchy>), ServeError> {
    match source {
        LayoutSource::Text(text) => io::from_text(text)
            .map(|layout| (layout, None))
            .map_err(|error| ServeError::Parse(format!("cannot parse layout text: {error}"))),
        LayoutSource::GdsBase64(data) => {
            let bytes = crate::base64::decode(data)
                .map_err(|error| ServeError::Parse(format!("cannot decode gds_base64: {error}")))?;
            let library = GdsLibrary::from_bytes(&bytes)
                .map_err(|error| ServeError::Parse(format!("cannot parse GDS stream: {error}")))?;
            layout_with_hierarchy(&library, &LayerMap::all(), &ReadOptions::default())
                .map(|(layout, hierarchy)| (layout, Some(hierarchy)))
                .map_err(|error| ServeError::Parse(format!("cannot convert GDS stream: {error}")))
        }
        LayoutSource::Path(path) => {
            let bytes = std::fs::read(path)
                .map_err(|error| ServeError::Io(format!("cannot read {path}: {error}")))?;
            layout_from_bytes(path, &bytes, &LayerMap::all(), &ReadOptions::default())
                .map_err(|error| ServeError::Parse(error.to_string()))
        }
    }
}

/// Drains pending submissions into coalesced batches until shutdown.
fn scheduler_loop(shared: Arc<Shared>) {
    // One reusable session for every batch: ids stay unique across all the
    // batches this server ever runs, and every batch shares the server's
    // one memo cache.
    let mut session = DecompositionSession::new().with_memo(Arc::clone(&shared.memo));
    loop {
        let drained = {
            let mut pending = lock_recovering(&shared.pending);
            while pending.is_empty() && !shared.shutting_down() {
                pending = shared
                    .wake
                    .wait(pending)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if pending.is_empty() {
                return; // shutdown with nothing left to drain
            }
            std::mem::take(&mut *pending)
        };
        run_wave(&shared, &mut session, drained);
    }
}

/// Runs one drained wave of submissions: one session batch per (tiling
/// request, hierarchy flag) pair that has work, in first-seen order — a
/// session can only apply one [`TileConfig`] per batch, and hierarchical
/// batches drain through a different driver with different progress
/// frames, so mixed groups never share one.
fn run_wave(shared: &Shared, session: &mut DecompositionSession, drained: Vec<Pending>) {
    let mut groups: Vec<(_, Vec<Pending>)> = Vec::new();
    for pending in drained {
        let key = (pending.tiling, pending.submit.hier);
        match groups.iter_mut().find(|(group_key, _)| *group_key == key) {
            Some((_, group)) => group.push(pending),
            None => groups.push((key, vec![pending])),
        }
    }
    for ((tiling, hier), group) in groups {
        session.set_tiling(tiling);
        run_batch(shared, session, group, hier);
    }
}

fn run_batch(shared: &Shared, session: &mut DecompositionSession, group: Vec<Pending>, hier: bool) {
    let mut submissions: HashMap<LayoutId, Active> = HashMap::with_capacity(group.len());
    for pending in group {
        let id = session.submit(pending.plan);
        session.set_hierarchy(id, pending.hierarchy);
        session.set_cancel(id, Some(pending.cancel.clone()));
        submissions.insert(
            id,
            Active {
                submit: pending.submit,
                writer: pending.writer,
                cancel: pending.cancel,
                registry: pending.registry,
            },
        );
    }
    // Each driver streams its own progress frame and counts its own runs.
    let (frame, usage): (ProgressFrame, Option<&AtomicU64>) =
        match (hier, session.tiling().is_some()) {
            (true, _) => (
                |id, done, total| Response::HierProgress { id, done, total },
                Some(&shared.hier_runs),
            ),
            (false, true) => (
                |id, done, total| Response::TileProgress { id, done, total },
                Some(&shared.tile_runs),
            ),
            (false, false) => (
                |id, done, total| Response::Progress { id, done, total },
                None,
            ),
        };
    let sink = BatchSink {
        submissions: &submissions,
        frame,
    };
    let runs = match run_layouts(session, &shared.pool, hier, &sink) {
        Ok(runs) => runs,
        Err(error) => {
            // Submission-time validation makes this unreachable in
            // practice; answer every member typed rather than panic.
            let error = ServeError::Config(error);
            for active in submissions.values() {
                lock_recovering(&active.registry).remove(&active.submit.id);
                active
                    .writer
                    .send(&error.to_response(Some(active.submit.id.clone())));
            }
            session.clear();
            return;
        }
    };
    if let Some(usage) = usage {
        usage.fetch_add(runs.len() as u64, Ordering::Relaxed);
    }
    for run in runs {
        let active = &submissions[&run.id];
        // Retire the registry entry first: from here on, a `cancel` for
        // this id is the non-fatal "already resolved" error, and the
        // terminal-frame decision below cannot change under it.
        lock_recovering(&active.registry).remove(&active.submit.id);
        let result = &run.result;
        // Terminal classification happens at emission time, off the token:
        // an explicit cancel wins (terminal `cancelled` frame), a deadline
        // that expired without one resolves as a partial `result`.
        if active.cancel.is_cancelled() {
            shared.cancelled_requests.fetch_add(1, Ordering::Relaxed);
            active.writer.send(&Response::Cancelled {
                id: active.submit.id.clone(),
                components_completed: result.components_completed(),
                components_skipped: result.components_skipped(),
                bnb_nodes: result
                    .component_stats()
                    .iter()
                    .map(|stats| stats.bnb_nodes)
                    .sum(),
            });
            continue;
        }
        if result.deadline_exceeded() {
            shared
                .deadline_exceeded_requests
                .fetch_add(1, Ordering::Relaxed);
        }
        let spacing_violations = active.submit.verify.then(|| {
            let plan = session
                .plan(run.id)
                .expect("session keeps the batch's plans");
            verify_spacing(
                plan.graph(),
                result.colors(),
                shared.technology.coloring_distance(result.k()),
            )
            .len()
        });
        active
            .writer
            .send(&Response::Result(ResultPayload::from_run(
                active.submit.id.clone(),
                &run,
                spacing_violations,
            )));
    }
    session.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A [`ConnectionWriter`] with no writer thread draining it, so the
    /// queue state after `send` is exactly what the overflow policy left.
    fn writer_without_thread(capacity: usize) -> (ConnectionWriter, Arc<WriterMetrics>) {
        let metrics = Arc::new(WriterMetrics::default());
        let shared = Arc::new(WriterShared {
            state: Mutex::new(WriterState {
                queue: VecDeque::new(),
                senders: 1,
                dead: false,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            capacity,
            metrics: Arc::clone(&metrics),
        });
        (ConnectionWriter { shared }, metrics)
    }

    fn progress(done: usize) -> Response {
        Response::Progress {
            id: "p".to_string(),
            done,
            total: 100,
        }
    }

    fn error_frame(tag: &str) -> Response {
        Response::Error {
            id: Some(tag.to_string()),
            code: ErrorCode::Io,
            message: "writer policy test".to_string(),
        }
    }

    #[test]
    fn overflow_drops_the_incoming_progress_frame_first() {
        let (writer, metrics) = writer_without_thread(2);
        for done in 0..5 {
            writer.send(&progress(done));
        }
        let state = lock_recovering(&writer.shared.state);
        assert_eq!(state.queue.len(), 2);
        assert_eq!(metrics.dropped_progress.load(Ordering::Relaxed), 3);
        assert_eq!(metrics.queued_frames.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn a_full_queue_evicts_queued_progress_for_a_nondroppable_frame() {
        let (writer, metrics) = writer_without_thread(2);
        writer.send(&progress(1));
        writer.send(&progress(2));
        writer.send(&error_frame("e1"));
        {
            let state = lock_recovering(&writer.shared.state);
            assert_eq!(state.queue.len(), 1);
            assert!(!state.queue[0].droppable);
        }
        assert_eq!(metrics.dropped_progress.load(Ordering::Relaxed), 2);
        // A second non-droppable frame fits in the freed capacity.
        writer.send(&error_frame("e2"));
        let state = lock_recovering(&writer.shared.state);
        assert_eq!(state.queue.len(), 2);
        assert!(state.queue.iter().all(|frame| !frame.droppable));
        assert_eq!(metrics.queued_frames.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn accepted_sockets_and_their_writer_clones_get_nodelay_and_the_write_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let _client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        // The kernel stores the timeout in scheduler ticks; whole seconds
        // read back exactly at every tick rate.
        let timeout = ServerConfig::default().write_timeout;
        configure_accepted(&accepted, timeout).expect("socket options apply");
        let writer_handle = accepted.try_clone().expect("clone the accepted stream");
        for stream in [&accepted, &writer_handle] {
            assert!(stream.nodelay().unwrap(), "Nagle must be off");
            assert_eq!(stream.write_timeout().unwrap(), timeout);
        }
    }

    #[test]
    fn a_dead_connection_swallows_frames_without_blocking() {
        let (writer, metrics) = writer_without_thread(1);
        lock_recovering(&writer.shared.state).dead = true;
        writer.send(&error_frame("e"));
        writer.send(&progress(1));
        assert_eq!(metrics.queued_frames.load(Ordering::Relaxed), 0);
        assert_eq!(
            lock_recovering(&writer.shared.state).queue.len(),
            0,
            "dead connections accept nothing"
        );
    }
}
