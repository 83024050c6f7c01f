//! The serve-mixed workload: one `qpl-serve --threads 2` process and two
//! closed-loop connections from this process.

use crate::files::push_quality;
use crate::gen::{self, Rng, ServeItem};
use crate::recount::{self, Quality};
use crate::report::{median, quantile, Report};
use mpl_serve::{
    decode_response, encode_frame, encode_request, FrameDecoder, Json, Request, Response,
    ResultPayload, SubmitRequest,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Closed-loop connections of the measured phase.
pub const CONNECTIONS: u64 = 2;

/// Set-up repetitions per run; `setup_s` is their median (one set-up
/// takes about 1.5 s and repeats within 3 %).
const SETUP_REPEATS: usize = 3;

/// A running `qpl-serve` child; killed if dropped before a clean shutdown.
pub struct Server {
    child: Option<Child>,
    pub addr: String,
}

impl Server {
    pub fn spawn(binary: &Path, work: &Path) -> Result<Server, String> {
        let addr_file = work.join("serve.addr");
        let _ = std::fs::remove_file(&addr_file);
        let child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0", "--threads", "2", "--addr-file"])
            .arg(&addr_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut server = Server {
            child: Some(child),
            addr: String::new(),
        };
        // The file is written without a terminator, so an address counts
        // once two reads 5 ms apart agree and it parses.
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut last = None;
        while Instant::now() < deadline {
            let read = std::fs::read_to_string(&addr_file).ok();
            if let Some(addr) = read.as_deref().filter(|a| a.parse::<SocketAddr>().is_ok()) {
                if last.as_deref() == Some(addr) {
                    server.addr = addr.to_string();
                    return Ok(server);
                }
            }
            last = read;
            if let Some(status) = server
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(format!("qpl-serve exited early with {status}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("qpl-serve did not publish its address within 30 s".to_string())
    }

    /// The server's peak resident set size (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().expect("running until shut down").id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("cannot read the server's status: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in the server's status".to_string())
    }

    /// Asks the server to shut down and waits for it to exit cleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Conn::connect(&self.addr)?;
        conn.send(&Request::Shutdown)?;
        loop {
            match conn.recv() {
                Ok(Response::ShuttingDown) | Err(_) => break,
                Ok(_) => continue,
            }
        }
        let child = self.child.as_mut().expect("running until shut down");
        let status = child.wait().map_err(|e| e.to_string())?;
        self.child = None;
        if status.success() {
            Ok(())
        } else {
            Err(format!("qpl-serve exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One protocol connection that counts the bytes it moves.
pub struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    chunk: Vec<u8>,
    pub sent_bytes: usize,
    pub received_bytes: usize,
    /// Received frames, kept only when set (the traced run times the codec
    /// on them afterwards).
    pub frames: Option<Vec<String>>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            decoder: FrameDecoder::new(),
            chunk: vec![0; 64 * 1024],
            sent_bytes: 0,
            received_bytes: 0,
            frames: None,
        })
    }

    pub fn send(&mut self, request: &Request) -> Result<(), String> {
        let frame = encode_frame(&encode_request(request));
        self.sent_bytes += frame.len();
        self.stream
            .write_all(frame.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    pub fn recv(&mut self) -> Result<Response, String> {
        loop {
            if let Some(frame) = self.decoder.next_frame().map_err(|e| e.to_string())? {
                self.received_bytes += frame.len() + 1;
                let json = Json::parse(&frame).map_err(|e| e.to_string())?;
                if let Some(frames) = &mut self.frames {
                    frames.push(frame);
                }
                return decode_response(&json).map_err(|e| e.to_string());
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(read) => self.decoder.push(&self.chunk[..read]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }
}

/// Classifies a response frame for submission `id`: `None` while the
/// submission is still running, otherwise its outcome.  An `error` or
/// `cancelled` frame, or a result flagged `deadline_exceeded` or
/// `cancelled`, fails the operation.
pub fn terminal(response: Response, id: &str) -> Option<Result<ResultPayload, String>> {
    match response {
        Response::Result(result) if result.id == id => {
            Some(if result.deadline_exceeded || result.cancelled {
                Err(format!("{id}: partial result"))
            } else {
                Ok(result)
            })
        }
        Response::Error {
            id: Some(ref got), ..
        }
        | Response::Cancelled { id: ref got, .. }
            if got != id =>
        {
            None
        }
        Response::Error { code, message, .. } => {
            Some(Err(format!("{id}: {} error: {message}", code.as_str())))
        }
        Response::Cancelled { .. } => Some(Err(format!("{id}: cancelled"))),
        _ => None,
    }
}

/// One completed submit round trip.
pub struct Exchange {
    /// When the submit frame was sent.
    pub sent: Instant,
    /// Send → `queued` frame.
    pub queued: Duration,
    /// Send → terminal frame.
    pub total: Duration,
    pub outcome: Result<ResultPayload, String>,
}

pub fn request_for(item: &ServeItem, id: String) -> Request {
    let mut submit = SubmitRequest::new(id, item.source.clone());
    submit.algorithm = item.algorithm;
    submit.tile_size = item.tile_size;
    submit.hier = item.hier;
    Request::Submit(submit)
}

/// Submits `item` and waits for its terminal frame.
pub fn exchange(conn: &mut Conn, item: &ServeItem, id: String) -> Result<Exchange, String> {
    let request = request_for(item, id.clone());
    let start = Instant::now();
    conn.send(&request)?;
    let mut queued = None;
    loop {
        let response = conn.recv()?;
        if matches!(&response, Response::Queued { id: got, .. } if *got == id) {
            queued = Some(start.elapsed());
        }
        if let Some(outcome) = terminal(response, &id) {
            let total = start.elapsed();
            return Ok(Exchange {
                sent: start,
                queued: queued.unwrap_or(total),
                total,
                outcome,
            });
        }
    }
}

fn quality_of(result: &ResultPayload) -> Quality {
    Quality {
        conflicts: result.conflicts,
        stitches: result.stitches,
        cost: result.cost,
    }
}

/// A started server whose shared memo cache has seen every pool entry.
pub struct Warm {
    pub pool: Vec<ServeItem>,
    pub server: Server,
    /// The warm-up result of every pool entry.
    pub reference: Vec<ResultPayload>,
    pub setup_s: f64,
}

/// Generates the pool, starts the server and sends every pool entry once,
/// [`SETUP_REPEATS`] times (all but the last server are shut down).
pub fn setup(binary: &Path, work: &Path, seed: u64) -> Result<Warm, String> {
    let mut times = Vec::new();
    let mut warm = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(Warm { server, .. }) = warm.take() {
            server.shutdown()?;
        }
        let start = Instant::now();
        let pool = gen::serve_pool(seed);
        let server = Server::spawn(binary, work)?;
        let mut conn = Conn::connect(&server.addr)?;
        let mut reference = Vec::with_capacity(pool.len());
        for (index, item) in pool.iter().enumerate() {
            let done = exchange(&mut conn, item, format!("warm-{index}"))?;
            reference.push(done.outcome?);
        }
        times.push(start.elapsed().as_secs_f64());
        warm = Some(Warm {
            pool,
            server,
            reference,
            setup_s: 0.0,
        });
    }
    let mut warm = warm.expect("at least one set-up");
    warm.setup_s = median(&times);
    Ok(warm)
}

/// What one connection of the measured phase saw.
pub struct Record {
    pub item: usize,
    pub exchange: Exchange,
}

/// Runs one closed-loop connection until `deadline`.
fn closed_loop(
    warm: &Warm,
    seed: u64,
    connection: u64,
    deadline: Instant,
    keep_frames: bool,
) -> Result<(Vec<Record>, Conn), String> {
    let mut conn = Conn::connect(&warm.server.addr)?;
    if keep_frames {
        conn.frames = Some(Vec::new());
    }
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(connection));
    let mut records = Vec::new();
    while Instant::now() < deadline {
        let item = gen::pick(&mut rng);
        let id = format!("c{connection}-{}", records.len());
        let exchange = exchange(&mut conn, &warm.pool[item], id)?;
        records.push(Record { item, exchange });
    }
    Ok((records, conn))
}

/// Runs both connections until `seconds` have passed.
pub fn drive(
    warm: &Warm,
    seed: u64,
    seconds: f64,
    keep_frames: bool,
) -> Result<(Vec<Record>, Vec<Conn>, f64), String> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let outcomes: Vec<Result<(Vec<Record>, Conn), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|connection| {
                scope.spawn(move || closed_loop(warm, seed, connection, deadline, keep_frames))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut records = Vec::new();
    let mut conns = Vec::new();
    for outcome in outcomes {
        let (mut r, conn) = outcome?;
        records.append(&mut r);
        conns.push(conn);
    }
    Ok((records, conns, wall))
}

/// The `dropped_progress` counter of the server's `pong`.
pub fn dropped_progress(addr: &str) -> Result<u64, String> {
    let mut conn = Conn::connect(addr)?;
    conn.send(&Request::Ping)?;
    loop {
        if let Response::Pong {
            dropped_progress, ..
        } = conn.recv()?
        {
            return Ok(dropped_progress);
        }
    }
}

/// Checks every served result against the benchmark's recount of the
/// pool entry's warm-up coloring and, as the determinism guard, against
/// that coloring itself; records each request in the ledger.  Returns the
/// completed requests and their vertices.
pub fn check_records(report: &mut Report, warm: &Warm, records: &[Record]) -> (usize, usize) {
    let verdicts: Vec<Result<(), String>> = warm
        .pool
        .iter()
        .zip(&warm.reference)
        .map(|(item, result)| {
            let graph = recount::graph_of(&item.layout);
            recount::check(&graph, &result.colors, &quality_of(result))
                .map_err(|e| format!("{}: {e}", result.layout))
        })
        .collect();
    let (mut completed, mut vertices) = (0, 0);
    for record in records {
        let reference = &warm.reference[record.item];
        let outcome = record.exchange.outcome.clone().and_then(|result| {
            verdicts[record.item].clone()?;
            if result.colors != reference.colors || quality_of(&result) != quality_of(reference) {
                let reason = format!("nondeterministic result for {}", result.layout);
                report.guards.push(reason.clone());
                return Err(reason);
            }
            completed += 1;
            vertices += result.vertices;
            Ok(())
        });
        report.ledger.record(outcome);
    }
    (completed, vertices)
}

/// The untraced serve-mixed run.
pub fn run(
    report: &mut Report,
    binary: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
) -> Result<(), String> {
    let warm = setup(binary, work, seed)?;
    let (records, _, wall) = drive(&warm, seed, seconds, false)?;
    let (completed, vertices) = check_records(report, &warm, &records);
    let peak_rss_mb = warm.server.peak_rss_mb()?;
    warm.server.shutdown()?;
    let latencies_ms: Vec<f64> = records
        .iter()
        .map(|r| r.exchange.total.as_secs_f64() * 1e3)
        .collect();
    let n = latencies_ms.len();
    let quality: Vec<Quality> = warm.reference.iter().map(quality_of).collect();
    report.metric("setup_s", warm.setup_s, "s", SETUP_REPEATS);
    report.metric("vertices_per_s", vertices as f64 / wall, "1/s", n);
    report.metric("requests_per_s", completed as f64 / wall, "1/s", n);
    report.metric("latency_p50_ms", median(&latencies_ms), "ms", n);
    report.metric("latency_p99_ms", quantile(&latencies_ms, 0.99), "ms", n);
    push_quality(report, &quality);
    report.metric("peak_rss_mb", peak_rss_mb, "MiB", n);
    Ok(())
}
