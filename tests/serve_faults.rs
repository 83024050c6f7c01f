//! Fault injection against the `mpl-serve` wire protocol.
//!
//! Where `serve_integration.rs` pins the happy path, this harness attacks
//! the server: readers that stall, connections that die mid-frame, cancel
//! frames racing completion, storms of already-expired deadlines,
//! malformed-frame floods, simultaneous shutdowns and tiny layouts with a
//! huge extent.  The properties
//! asserted are the robustness contract of the serve layer:
//!
//! * the server stays responsive to healthy connections whatever one
//!   misbehaving peer does;
//! * a submission resolves with **exactly one** terminal frame (`result`,
//!   `cancelled` or an id-tagged fatal `error`) — never zero, never two;
//! * result frames are never dropped by output back-pressure;
//! * cancellation takes effect before a not-yet-started component starts,
//!   asserted with work counters (`bnb_nodes`, skip counts), not
//!   wall-clock.

use mpl_layout::{gen, io, Technology};
use mpl_serve::{FrameDecoder, Json, Server, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// A low-level protocol driver: hand-built lines out, raw frames in.
struct RawClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    stashed: Vec<Json>,
}

impl RawClient {
    fn connect(addr: SocketAddr) -> RawClient {
        RawClient {
            stream: TcpStream::connect(addr).expect("connect to test server"),
            decoder: FrameDecoder::new(),
            stashed: Vec::new(),
        }
    }

    fn send_line(&mut self, line: &str) {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write frame");
    }

    fn send_bytes(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write bytes");
    }

    /// Blocks until the next frame arrives and parses it.
    fn recv(&mut self) -> Json {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(frame) = self.decoder.next_frame().expect("well-framed response") {
                if frame.trim().is_empty() {
                    continue;
                }
                return Json::parse(&frame).expect("server frames are valid JSON");
            }
            let read = self.stream.read(&mut chunk).expect("read from server");
            assert!(read > 0, "server closed the connection unexpectedly");
            self.decoder.push(&chunk[..read]);
        }
    }

    /// Skips non-terminal frames until the terminal frame (`result`,
    /// `cancelled` or `error`) for `id` arrives; terminal frames for other
    /// submissions are stashed.
    fn await_terminal(&mut self, id: &str) -> Json {
        if let Some(position) = self
            .stashed
            .iter()
            .position(|frame| frame.get("id").and_then(Json::as_str) == Some(id))
        {
            return self.stashed.remove(position);
        }
        loop {
            let frame = self.recv();
            match frame.get("type").and_then(Json::as_str).expect("type") {
                "queued" | "progress" | "tile_progress" | "hier_progress" | "pong" => continue,
                "result" | "cancelled" | "error" => {
                    if frame.get("id").and_then(Json::as_str) == Some(id) {
                        return frame;
                    }
                    self.stashed.push(frame);
                }
                other => panic!("unexpected frame type {other:?}: {frame}"),
            }
        }
    }
}

fn spawn_server() -> ServerHandle {
    Server::spawn(&ServerConfig::default()).expect("bind ephemeral port")
}

fn row_layout_text(name: &str, seed: u64) -> String {
    io::to_text(&gen::generate_row_layout(
        &gen::RowLayoutConfig::small(name, seed),
        &Technology::nm20(),
    ))
}

/// Builds a `submit` frame through the JSON writer so escaping is always
/// correct.
fn submit_frame(id: &str, layout_text: &str, extras: &[(&str, Json)]) -> String {
    let mut pairs = vec![
        ("type", Json::string("submit")),
        ("id", Json::string(id)),
        ("layout_text", Json::string(layout_text)),
        ("algorithm", Json::string("linear")),
        ("executor", Json::string("serial")),
    ];
    pairs.extend(extras.iter().cloned());
    Json::object(pairs).to_string()
}

fn field(frame: &Json, key: &str) -> usize {
    frame
        .get(key)
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("frame carries {key}: {frame}"))
}

fn pong_counter(pong: &Json, key: &str) -> usize {
    pong.get(key)
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("pong carries {key}: {pong}"))
}

#[test]
fn a_stalled_reader_does_not_block_other_connections_or_lose_results() {
    let handle = Server::spawn(&ServerConfig {
        // Small queue so the stalled connection actually exercises the
        // bounded-queue path while its frames pile up.
        output_queue_frames: 8,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");

    // The stalled connection submits three layouts with progress streaming
    // on, then reads nothing while another connection works.
    let mut stalled = RawClient::connect(handle.addr());
    let stalled_layouts: Vec<String> = (0..3)
        .map(|index| row_layout_text(&format!("stall-{index}"), 40 + index as u64))
        .collect();
    for (index, text) in stalled_layouts.iter().enumerate() {
        stalled.send_line(&submit_frame(
            &format!("stall-{index}"),
            text,
            &[("progress", Json::Bool(true))],
        ));
    }

    // A healthy connection completes several round trips meanwhile — the
    // server must stay responsive whatever the stalled peer's queue does.
    let mut healthy = RawClient::connect(handle.addr());
    for round in 0..4 {
        let id = format!("healthy-{round}");
        healthy.send_line(&submit_frame(&id, &row_layout_text(&id, 90 + round), &[]));
        let frame = healthy.await_terminal(&id);
        assert_eq!(frame.get("type").and_then(Json::as_str), Some("result"));
    }

    // The stalled reader finally drains its socket: every result frame must
    // be there, intact — back-pressure may only have cost progress ticks.
    for index in 0..3 {
        let frame = stalled.await_terminal(&format!("stall-{index}"));
        assert_eq!(
            frame.get("type").and_then(Json::as_str),
            Some("result"),
            "result frames are never dropped: {frame}"
        );
        let colors = frame
            .get("colors")
            .and_then(Json::as_array)
            .expect("full color assignment");
        assert_eq!(colors.len(), field(&frame, "vertices"));
    }
    assert!(stalled.stashed.is_empty(), "no duplicate terminal frames");
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn mid_frame_disconnects_leave_the_server_serving() {
    let handle = spawn_server();

    // Half a frame, then gone.
    let mut torn = RawClient::connect(handle.addr());
    torn.send_bytes(b"{\"type\":\"sub");
    drop(torn);

    // A full valid submit, then half of a second frame, then gone: the
    // accepted submission is auto-cancelled by the reader's EOF.
    let mut torn = RawClient::connect(handle.addr());
    let line = submit_frame("torn", &row_layout_text("torn", 5), &[]);
    torn.send_bytes(format!("{line}\n{{\"type\":\"canc").as_bytes());
    drop(torn);

    // Garbage bytes mid-"frame", then gone.
    let mut torn = RawClient::connect(handle.addr());
    torn.send_bytes(&[0xff, 0x00, 0x80]);
    drop(torn);

    let mut healthy = RawClient::connect(handle.addr());
    healthy.send_line(&submit_frame("after", &row_layout_text("after", 6), &[]));
    let frame = healthy.await_terminal("after");
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("result"));
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn a_tiny_layout_with_a_huge_extent_is_answered_and_the_server_keeps_serving() {
    // 47 bytes: a 10⁹ nm wire and one contact 20 nm above its end. A grid
    // index with one cell per 100 nm of extent would need ~10⁷ cells.
    const LONG_WIRE: &str = "# layout wire\n0 0 0 1000000000 20\n1 0 40 20 60\n";
    assert_eq!(LONG_WIRE.len(), 47);
    let handle = spawn_server();
    let mut client = RawClient::connect(handle.addr());
    client.send_line(&submit_frame("wire", LONG_WIRE, &[]));
    let frame = client.await_terminal("wire");
    assert_eq!(
        frame.get("type").and_then(Json::as_str),
        Some("result"),
        "{frame}"
    );
    assert_eq!(field(&frame, "conflicts"), 0);
    let colors = frame
        .get("colors")
        .and_then(Json::as_array)
        .expect("colors");
    assert_eq!(colors.len(), field(&frame, "vertices"));

    client.send_line(&submit_frame("after", &row_layout_text("after", 8), &[]));
    let frame = client.await_terminal("after");
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("result"));
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn shapes_metres_apart_are_served_without_false_conflicts() {
    // Gaps of 3.1·10⁹ nm and more overflow i64 when squared; the second
    // layout's 10¹³ nm wire coarsens the spatial index until shapes 0 and 1
    // share a cell. Every shape must stay its own component.
    const SHAPES: &str = "# layout far\n0 0 0 20 20\n1 3100000000 0 3100000020 20\n\
                          2 10000000000000 0 10000000000020 20\n";
    const WIRE: &str = "3 0 1000000 10000000000000 1000020\n";
    let handle = spawn_server();
    let mut client = RawClient::connect(handle.addr());
    for (id, text) in [
        ("far", SHAPES.to_string()),
        ("far-wire", format!("{SHAPES}{WIRE}")),
    ] {
        client.send_line(&submit_frame(id, &text, &[("verify", Json::Bool(true))]));
        let frame = client.await_terminal(id);
        assert_eq!(
            frame.get("type").and_then(Json::as_str),
            Some("result"),
            "{frame}"
        );
        assert_eq!(field(&frame, "vertices"), text.lines().count() - 1);
        assert_eq!(field(&frame, "components"), field(&frame, "vertices"));
        assert_eq!(field(&frame, "conflicts"), 0);
        assert_eq!(field(&frame, "spacing_violations"), 0);
    }
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn cancel_completion_races_resolve_with_exactly_one_terminal_frame() {
    let handle = spawn_server();
    let mut client = RawClient::connect(handle.addr());
    let layout = row_layout_text("race", 17);

    for round in 0..12 {
        let id = format!("race-{round}");
        // Submit and cancel in one TCP write: the cancel chases the
        // submission as closely as the protocol allows.
        let submit = submit_frame(&id, &layout, &[]);
        let cancel = Json::object(vec![
            ("type", Json::string("cancel")),
            ("id", Json::string(id.clone())),
        ])
        .to_string();
        client.send_bytes(format!("{submit}\n{cancel}\n").as_bytes());

        let mut components = None;
        let mut terminal = None;
        let mut cancel_errors = 0usize;
        // Read until the terminal frame and a trailing pong barrier: any
        // non-fatal cancel error (the cancel lost the race) is enqueued by
        // the reader before the pong, so draining to the pong observes it.
        client.send_line("{\"type\":\"ping\"}");
        loop {
            let frame = client.recv();
            match frame.get("type").and_then(Json::as_str).expect("type") {
                "queued" => components = Some(field(&frame, "components")),
                "progress" => {}
                "pong" if terminal.is_some() => break,
                "pong" => {
                    // The scheduler has not resolved the submission yet;
                    // keep a second barrier in flight.
                    client.send_line("{\"type\":\"ping\"}");
                }
                "result" | "cancelled" => {
                    assert!(
                        terminal.is_none(),
                        "second terminal frame for {id}: {frame}"
                    );
                    terminal = Some(frame);
                }
                "error" => {
                    assert_eq!(frame.get("code").and_then(Json::as_str), Some("cancel"));
                    assert_eq!(frame.get("id").and_then(Json::as_str), Some(id.as_str()));
                    cancel_errors += 1;
                }
                other => panic!("unexpected frame type {other:?}: {frame}"),
            }
        }

        let terminal = terminal.expect("every submission resolves");
        let components = components.expect("queued frame seen");
        match terminal.get("type").and_then(Json::as_str).unwrap() {
            "cancelled" => {
                // The cancel was processed while the submission was still
                // pending: its counters must cover every component, and a
                // submission cancelled before its batch started must not
                // have burned any search nodes — the work-counter form of
                // "cancellation latency is bounded".
                let completed = field(&terminal, "components_completed");
                let skipped = field(&terminal, "components_skipped");
                assert_eq!(completed + skipped, components);
                if skipped == components {
                    assert_eq!(field(&terminal, "bnb_nodes"), 0);
                }
                assert_eq!(cancel_errors, 0, "cancelled ⇒ the cancel frame hit");
            }
            "result" => {
                // Completion won; the late cancel must have answered with
                // the non-fatal typed error (or raced the retirement and
                // still fired the token — then the terminal would have
                // been `cancelled`, handled above).
                assert_eq!(cancel_errors, 1, "late cancel answers typed error");
            }
            other => panic!("unexpected terminal {other:?}"),
        }
    }
    assert!(client.stashed.is_empty());
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn cancelling_unknown_or_finished_ids_is_a_nonfatal_typed_error() {
    let handle = spawn_server();
    let mut client = RawClient::connect(handle.addr());

    client.send_line("{\"type\":\"cancel\",\"id\":\"never-submitted\"}");
    let frame = client.recv();
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("error"));
    assert_eq!(frame.get("code").and_then(Json::as_str), Some("cancel"));
    assert_eq!(
        frame.get("id").and_then(Json::as_str),
        Some("never-submitted")
    );

    // A finished submission is indistinguishable from an unknown one.
    client.send_line(&submit_frame("done", &row_layout_text("done", 8), &[]));
    let frame = client.await_terminal("done");
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("result"));
    client.send_line("{\"type\":\"cancel\",\"id\":\"done\"}");
    let frame = client.recv();
    assert_eq!(frame.get("code").and_then(Json::as_str), Some("cancel"));

    // The connection survives both errors.
    client.send_line(&submit_frame("again", &row_layout_text("again", 9), &[]));
    let frame = client.await_terminal("again");
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("result"));
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn a_deadline_storm_returns_well_formed_flagged_partial_results() {
    let handle = spawn_server();
    let mut client = RawClient::connect(handle.addr());

    // Every submission's deadline is already expired on acceptance, so
    // every component is skipped at its work-entry poll — no wall-clock
    // sensitivity, pure counter assertions.
    const STORM: usize = 8;
    for index in 0..STORM {
        client.send_line(&submit_frame(
            &format!("storm-{index}"),
            &row_layout_text(&format!("storm-{index}"), 60 + index as u64),
            &[("deadline_ms", Json::Number(0.0))],
        ));
    }
    for index in 0..STORM {
        let frame = client.await_terminal(&format!("storm-{index}"));
        assert_eq!(
            frame.get("type").and_then(Json::as_str),
            Some("result"),
            "a deadline miss is a partial *result*, not an error: {frame}"
        );
        assert_eq!(frame.get("deadline_exceeded"), Some(&Json::Bool(true)));
        // Undisturbed flags stay off the wire: a deadline miss is not a
        // cancellation.
        assert_eq!(frame.get("cancelled"), None);
        let components = field(&frame, "components");
        assert_eq!(field(&frame, "components_skipped"), components);
        assert_eq!(field(&frame, "components_completed"), 0);
        let colors = frame
            .get("colors")
            .and_then(Json::as_array)
            .expect("partial results still carry a full-length color array");
        assert_eq!(colors.len(), field(&frame, "vertices"));
        assert!(colors.iter().all(|color| color.as_usize() == Some(0)));
    }

    client.send_line("{\"type\":\"ping\"}");
    let pong = client.recv();
    assert_eq!(pong.get("type").and_then(Json::as_str), Some("pong"));
    assert!(pong_counter(&pong, "deadline_exceeded_requests") >= STORM);

    // A deadline-free submission on the same connection is unaffected.
    client.send_line(&submit_frame("calm", &row_layout_text("calm", 99), &[]));
    let frame = client.await_terminal("calm");
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("result"));
    assert_eq!(frame.get("deadline_exceeded"), None);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn malformed_frame_floods_yield_typed_errors_and_the_connection_survives() {
    let handle = spawn_server();
    let mut client = RawClient::connect(handle.addr());

    let mut expected_errors = 0usize;
    for round in 0..10 {
        // Unparsable JSON.
        client.send_line(&format!("this is not json #{round}"));
        // Parsable, but not a request.
        client.send_line("{}");
        client.send_line("[1,2,3]");
        client.send_line("{\"type\":\"no-such-frame\"}");
        client.send_line("{\"type\":\"submit\"}");
        expected_errors += 5;
    }
    // A non-UTF-8 frame: discarded, stream survives.
    client.send_bytes(&[0xff, 0xfe, 0xfd, b'\n']);
    expected_errors += 1;

    for count in 0..expected_errors {
        let frame = client.recv();
        assert_eq!(
            frame.get("type").and_then(Json::as_str),
            Some("error"),
            "flood frame {count} answers a typed error: {frame}"
        );
        assert!(frame.get("code").and_then(Json::as_str).is_some());
    }

    // The connection is still newline-synchronised and fully usable.
    client.send_line(&submit_frame("sane", &row_layout_text("sane", 3), &[]));
    let frame = client.await_terminal("sane");
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("result"));
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn an_oversized_frame_is_discarded_and_an_unterminated_one_is_fatal() {
    // A cap far below one TCP segment, so the oversized line arrives whole
    // in a single read and hits the recoverable newline-synchronised path.
    let config = ServerConfig {
        max_frame_len: 64,
        ..ServerConfig::default()
    };

    let handle = Server::spawn(&config).expect("bind ephemeral port");
    let mut client = RawClient::connect(handle.addr());
    client.send_line(&"x".repeat(100));
    let frame = client.recv();
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("error"));
    assert!(
        frame
            .get("message")
            .and_then(Json::as_str)
            .is_some_and(|message| message.contains("64-byte limit")),
        "{frame}"
    );
    // The offending frame was discarded whole: the connection still works.
    client.send_line("{\"type\":\"ping\"}");
    let pong = client.recv();
    assert_eq!(pong.get("type").and_then(Json::as_str), Some("pong"));
    handle.shutdown().expect("clean shutdown");

    // A frame that exceeds the cap with its newline nowhere in sight can
    // never be resynchronised: typed error, then the connection closes.
    let handle = Server::spawn(&config).expect("bind ephemeral port");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(&[b'y'; 200]).expect("write unterminated");
    let mut decoder = FrameDecoder::new();
    let mut chunk = [0u8; 1024];
    let mut saw_error = false;
    loop {
        while let Ok(Some(frame)) = decoder.next_frame() {
            if frame.trim().is_empty() {
                continue;
            }
            let json = Json::parse(&frame).expect("valid frame");
            assert_eq!(json.get("type").and_then(Json::as_str), Some("error"));
            saw_error = true;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(read) => decoder.push(&chunk[..read]),
        }
    }
    assert!(
        saw_error,
        "the fatal framing offence still answers an error"
    );
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn a_reader_disconnect_auto_cancels_that_connections_pending_requests() {
    let handle = spawn_server();

    // An 8×8 block of contacts at a 45 nm pitch: each contact conflicts
    // with 7 to 20 others, so nothing simplifies or divides away, and the
    // exact solver's search on the 64-vertex kernel runs until its 600 s
    // time limit (on a 2-CPU Xeon host a release build had not finished
    // after 120 s).  A submission of it therefore cannot resolve during
    // this test unless its cancel token fires: there is no race with
    // completion.
    let mut block = String::from("# layout doomed\n");
    for index in 0..64 {
        let (x, y) = (45 * (index % 8), 45 * (index / 8));
        block.push_str(&format!("{index} {x} {y} {} {}\n", x + 20, y + 20));
    }
    const DOOMED: usize = 6;

    // Submit the wave and vanish.  Draining the acks first guarantees all
    // six are registered and every byte this connection will ever send
    // has been consumed, so the disconnect cannot race the submits
    // themselves; no result can slip in between the acks.
    let mut doomed = RawClient::connect(handle.addr());
    for index in 0..DOOMED {
        doomed.send_line(
            &Json::object(vec![
                ("type", Json::string("submit")),
                ("id", Json::string(format!("doomed-{index}"))),
                ("layout_text", Json::string(block.clone())),
                ("algorithm", Json::string("ilp")),
                ("executor", Json::string("serial")),
            ])
            .to_string(),
        );
    }
    for _ in 0..DOOMED {
        let ack = doomed.recv();
        assert_eq!(
            ack.get("type").and_then(Json::as_str),
            Some("queued"),
            "{ack}"
        );
    }
    drop(doomed);

    // The disconnect cancels all six; the scheduler counts each as it
    // retires it.  Poll the counter — bounded iterations, no wall-clock
    // assertion on *how fast*.
    let mut observer = RawClient::connect(handle.addr());
    let mut cancelled = 0usize;
    for _ in 0..24_000 {
        observer.send_line("{\"type\":\"ping\"}");
        let pong = observer.recv();
        cancelled = pong_counter(&pong, "cancelled_requests");
        if cancelled >= DOOMED {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        cancelled, DOOMED,
        "every pending submission of the vanished reader was auto-cancelled"
    );

    // And the server keeps serving.
    observer.send_line(&submit_frame("alive", &row_layout_text("alive", 1), &[]));
    let frame = observer.await_terminal("alive");
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("result"));
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn simultaneous_shutdown_frames_from_two_connections_resolve_once() {
    let handle = spawn_server();
    let addr = handle.addr();

    // Both connections exist before either shutdown goes out: the first
    // shutdown closes the listener, so a later connect could be refused.
    let streams: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    let start = Arc::new(Barrier::new(streams.len()));
    let shooters: Vec<_> = streams
        .into_iter()
        .map(|mut stream| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                // Half-close so the server's reader sees EOF and hangs up
                // once the ack has drained, then read to EOF; the ack may
                // or may not arrive before the socket closes, and both
                // are acceptable.  The losing connection may already be
                // closed by the winner's shutdown, so a failed write or
                // half-close is an unacknowledged frame, not a failure.
                let sent = stream.write_all(b"{\"type\":\"shutdown\"}\n").is_ok()
                    && stream.shutdown(std::net::Shutdown::Write).is_ok();
                if !sent {
                    return false;
                }
                let mut decoder = FrameDecoder::new();
                let mut chunk = [0u8; 1024];
                let mut acked = false;
                loop {
                    while let Ok(Some(frame)) = decoder.next_frame() {
                        if !frame.trim().is_empty() {
                            let json = Json::parse(&frame).expect("valid frame");
                            assert_eq!(
                                json.get("type").and_then(Json::as_str),
                                Some("shutting_down")
                            );
                            acked = true;
                        }
                    }
                    match stream.read(&mut chunk) {
                        Ok(0) | Err(_) => return acked,
                        Ok(read) => decoder.push(&chunk[..read]),
                    }
                }
            })
        })
        .collect();

    let acks: Vec<bool> = shooters
        .into_iter()
        .map(|shooter| shooter.join().expect("shutdown client panicked"))
        .collect();
    assert!(
        acks.iter().any(|&acked| acked),
        "at least one shutdown frame is acknowledged"
    );

    // The deterministic part of the regression: the server must come down
    // exactly once, promptly, with no hung listener or scheduler thread.
    handle.join();
}
