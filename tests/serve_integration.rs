//! Black-box integration harness for the `mpl-serve` wire protocol.
//!
//! The server is spawned in-process on an ephemeral port and driven with
//! **raw TCP sockets** (hand-built frames, not the typed client), so these
//! tests pin the protocol itself: frame format, response ordering, typed
//! error codes — and the core acceptance property that results streamed
//! over TCP are **bit-identical** to a direct [`DecompositionSession`] run
//! for all four engines, under interleaved concurrent submissions, and
//! after in-band error responses: every served `result` frame equals the
//! record ([`ResultPayload::from_run`]) of the local run, key for key.

use mpl_core::{
    verify_spacing, ColorAlgorithm, Decomposer, DecomposerConfig, DecompositionSession, JsonRecord,
    LayoutCounters, MemoCache, SerialExecutor, TileConfig,
};
use mpl_geometry::Nm;
use mpl_layout::{gen, io, Layout, LayoutHierarchy, Technology};
use mpl_serve::{
    algorithm_wire_name, base64, encode_response, run_layouts, FrameDecoder, Json, Response,
    ResultPayload, Server, ServerConfig,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A deliberately low-level protocol driver: writes hand-built lines,
/// reads frames straight off the socket.
struct RawClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Terminal frames received while waiting for a different submission:
    /// per-submission ordering is guaranteed by the protocol, cross-
    /// submission ordering (e.g. serial-choice vs pool-choice results of
    /// one wave) is not.
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

    /// Blocks until the next frame arrives and parses it.
    fn recv(&mut self) -> Json {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(frame) = self.decoder.next_frame().expect("well-framed response") {
                return Json::parse(&frame).expect("server frames are valid JSON");
            }
            let read = self.stream.read(&mut chunk).expect("read from server");
            assert!(read > 0, "server closed the connection unexpectedly");
            self.decoder.push(&chunk[..read]);
        }
    }

    /// Skips `queued`/`progress` frames until the terminal frame (`result`,
    /// `cancelled` or `error`) for `id` arrives; terminal frames for other
    /// submissions are stashed for their own `await_terminal` calls.
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
            let frame_type = frame.get("type").and_then(Json::as_str).expect("type");
            match frame_type {
                "queued" | "progress" | "tile_progress" | "hier_progress" => continue,
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

fn spawn_server() -> mpl_serve::ServerHandle {
    Server::spawn(&ServerConfig::default()).expect("bind ephemeral port")
}

/// Builds a `submit` frame through the JSON writer so escaping is always
/// correct, whatever the layout text contains.
fn submit_frame(
    id: &str,
    source_key: &str,
    source_value: &str,
    engine: ColorAlgorithm,
    executor: &str,
) -> String {
    Json::object(vec![
        ("type", Json::string("submit")),
        ("id", Json::string(id)),
        (source_key, Json::string(source_value)),
        ("algorithm", Json::string(algorithm_wire_name(engine))),
        ("executor", Json::string(executor)),
    ])
    .to_string()
}

/// The exact configuration the server builds for a default submission —
/// the baseline runs must match it parameter for parameter.
fn server_side_config(engine: ColorAlgorithm) -> DecomposerConfig {
    DecomposerConfig::k_patterning(4, Technology::nm20()).with_algorithm(engine)
}

fn colors_of(frame: &Json) -> Vec<u8> {
    frame
        .get("colors")
        .and_then(Json::as_array)
        .expect("result carries colors")
        .iter()
        .map(|value| value.as_usize().expect("mask index") as u8)
        .collect()
}

/// How warm the server's shared memo cache is for a submission, compared
/// with the fresh cache of its local baseline.
#[derive(Clone, Copy, PartialEq)]
enum Cache {
    /// The server has seen nothing the baseline has not: the memo counts
    /// must agree too.
    Cold,
    /// Earlier submissions warmed the server's cache: the memo counts may
    /// differ, and so may the simplify/bound work counters, which stamped
    /// components never run up (the colors may not differ).
    Warm,
}

/// Asserts that `frame` is the `result` frame of `baseline`, key for key
/// and in key order — except the submission id, the executor the request
/// chose, the wall-clock seconds and, on a [`Cache::Warm`] server, the memo
/// counts and the [`LayoutCounters`].
fn assert_result_matches(frame: &Json, baseline: &ResultPayload, cache: Cache, context: &str) {
    assert_eq!(
        frame.get("type").and_then(Json::as_str),
        Some("result"),
        "{context}: expected a result frame, got {frame}"
    );
    let mut skipped = vec!["id", "executor", "graph_seconds", "color_seconds"];
    if cache == Cache::Warm {
        skipped.extend(["memo_hits", "memo_misses"]);
        skipped.extend(
            LayoutCounters::default()
                .fields()
                .iter()
                .map(|(key, _)| *key),
        );
    }
    let compared = |json: &Json| -> Vec<(String, Json)> {
        let Json::Object(pairs) = json else {
            panic!("{context}: frames are objects");
        };
        pairs
            .iter()
            .filter(|(key, _)| !skipped.contains(&key.as_str()))
            .cloned()
            .collect()
    };
    // Costs are computed identically on both sides and f64 survives the
    // JSON round trip exactly (shortest-round-trip formatting).
    assert_eq!(
        compared(frame),
        compared(&encode_response(&Response::Result(baseline.clone()))),
        "{context}"
    );
}

fn test_layouts() -> Vec<Layout> {
    let tech = Technology::nm20();
    vec![
        gen::fig1_contact_clique(&tech),
        gen::k5_cluster_layout(&tech),
        gen::generate_row_layout(&gen::RowLayoutConfig::small("serve-row", 11), &tech),
    ]
}

/// The records of a direct (no server) run of `session` through the
/// front ends' dispatch, with the spacing violations a `verify` request
/// reports.
fn local_records(session: &DecompositionSession, hier: bool, verify: bool) -> Vec<ResultPayload> {
    let technology = Technology::nm20();
    run_layouts(session, &SerialExecutor, hier, &())
        .expect("valid run")
        .iter()
        .map(|run| {
            let violations = verify.then(|| {
                let plan = session.plan(run.id).expect("the session keeps its plans");
                let distance = technology.coloring_distance(run.result.k());
                verify_spacing(plan.graph(), run.result.colors(), distance).len()
            });
            ResultPayload::from_run("", run, violations)
        })
        .collect()
}

/// A session that plans `layouts` as the server does for a default
/// submission of `engine`, with a fresh memo cache.
///
/// The cache is fresh because the server always runs memoized — and
/// memoized colorings are a pure function of each component's canonical
/// signature, so a *fresh* local cache reproduces the served bits no
/// matter how warm the server's shared cache is.
fn server_like_session(engine: ColorAlgorithm, layouts: &[Layout]) -> DecompositionSession {
    let decomposer = Decomposer::new(server_side_config(engine));
    let mut session = DecompositionSession::new().with_memo(Arc::new(MemoCache::new(4096)));
    for layout in layouts {
        session
            .submit_layout(&decomposer, layout)
            .expect("valid config");
    }
    session
}

/// Direct baseline: the same layouts through one session on the serial
/// executor.
fn direct_session_results(engine: ColorAlgorithm, layouts: &[Layout]) -> Vec<ResultPayload> {
    local_records(&server_like_session(engine, layouts), false, false)
}

/// One-layout convenience wrapper over [`direct_session_results`].
fn direct_memoized_result(engine: ColorAlgorithm, layout: &Layout) -> ResultPayload {
    direct_session_results(engine, std::slice::from_ref(layout))
        .into_iter()
        .next()
        .expect("one layout, one result")
}

/// The local record of `layout` under a served `tile_size` request.
fn tiled_record(
    engine: ColorAlgorithm,
    layout: &Layout,
    tile_size: i64,
    verify: bool,
) -> ResultPayload {
    let mut session = server_like_session(engine, std::slice::from_ref(layout));
    session.set_tiling(Some(TileConfig::new(Nm(tile_size))));
    local_records(&session, false, verify).remove(0)
}

/// The local record of `layout` under a served `hier` request.
fn hier_record(
    engine: ColorAlgorithm,
    layout: &Layout,
    hierarchy: Option<LayoutHierarchy>,
    verify: bool,
) -> ResultPayload {
    let mut session = server_like_session(engine, std::slice::from_ref(layout));
    let id = session.plans().next().expect("one plan").0;
    session.set_hierarchy(id, hierarchy.map(Arc::new));
    local_records(&session, true, verify).remove(0)
}

#[test]
fn streamed_results_are_bit_identical_to_direct_session_runs_for_all_engines() {
    let handle = spawn_server();
    let layouts = test_layouts();
    for engine in ColorAlgorithm::ALL {
        let baselines = direct_session_results(engine, &layouts);
        let mut client = RawClient::connect(handle.addr());
        // Stream every layout before reading anything back: the server
        // coalesces what it can into shared batches.
        for (index, layout) in layouts.iter().enumerate() {
            let id = format!("{}-{index}", algorithm_wire_name(engine));
            client.send_line(&submit_frame(
                &id,
                "layout_text",
                &io::to_text(layout),
                engine,
                if index % 2 == 0 { "pool" } else { "serial" },
            ));
        }
        for (index, baseline) in baselines.iter().enumerate() {
            let id = format!("{}-{index}", algorithm_wire_name(engine));
            let frame = client.await_terminal(&id);
            assert_result_matches(&frame, baseline, Cache::Warm, &id);
            // The executor that served the layout is reported and honours
            // the per-request choice.
            let executor = frame
                .get("executor")
                .and_then(Json::as_str)
                .expect("executor");
            if index % 2 == 0 {
                assert!(executor.starts_with("threads:"), "pool choice: {executor}");
            } else {
                assert_eq!(executor, "serial");
            }
        }
    }
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn interleaved_concurrent_submissions_do_not_change_any_layout_output() {
    let handle = spawn_server();
    let layouts = test_layouts();
    let engine = ColorAlgorithm::SdpBacktrack;
    let baselines = direct_session_results(engine, &layouts);

    // Phase 1 — two connections submit the same layouts in opposite
    // orders, sequentially, so the scheduler sees interleaved queues.
    let mut forward = RawClient::connect(handle.addr());
    let mut backward = RawClient::connect(handle.addr());
    for (index, layout) in layouts.iter().enumerate() {
        forward.send_line(&submit_frame(
            &format!("fwd-{index}"),
            "layout_text",
            &io::to_text(layout),
            engine,
            "pool",
        ));
    }
    for (index, layout) in layouts.iter().enumerate().rev() {
        backward.send_line(&submit_frame(
            &format!("bwd-{index}"),
            "layout_text",
            &io::to_text(layout),
            engine,
            "pool",
        ));
    }
    for (index, baseline) in baselines.iter().enumerate() {
        let frame = forward.await_terminal(&format!("fwd-{index}"));
        let context = format!("forward order, layout {index}");
        assert_result_matches(&frame, baseline, Cache::Warm, &context);
    }
    for (index, baseline) in baselines.iter().enumerate().rev() {
        let frame = backward.await_terminal(&format!("bwd-{index}"));
        let context = format!("backward order, layout {index}");
        assert_result_matches(&frame, baseline, Cache::Warm, &context);
    }

    // Phase 2 — genuinely concurrent clients racing their submissions.
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for worker in 0..3usize {
            let layouts = &layouts;
            let baselines = &baselines;
            let addr = handle.addr();
            workers.push(scope.spawn(move || {
                let mut client = RawClient::connect(addr);
                // Each worker interleaves its own submission order.
                let order: Vec<usize> = (0..layouts.len())
                    .map(|index| (index + worker) % layouts.len())
                    .collect();
                for &index in &order {
                    client.send_line(&submit_frame(
                        &format!("w{worker}-{index}"),
                        "layout_text",
                        &io::to_text(&layouts[index]),
                        engine,
                        if worker % 2 == 0 { "pool" } else { "serial" },
                    ));
                }
                for &index in &order {
                    let frame = client.await_terminal(&format!("w{worker}-{index}"));
                    assert_result_matches(
                        &frame,
                        &baselines[index],
                        Cache::Warm,
                        &format!("worker {worker}, layout {index}"),
                    );
                }
            }));
        }
        for worker in workers {
            worker.join().expect("concurrent client panicked");
        }
    });
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn gds_base64_submissions_match_local_decomposition_of_the_same_bytes() {
    let handle = spawn_server();
    let tech = Technology::nm20();
    let source = gen::generate_row_layout(&gen::RowLayoutConfig::small("serve-gds", 5), &tech);
    let bytes = mpl_gds::library_from_layout(&source, 1, 0)
        .expect("convert layout")
        .to_bytes()
        .expect("encode GDS");

    // What the server will decompose: the re-read of those exact bytes.
    let library = mpl_gds::GdsLibrary::from_bytes(&bytes).expect("parse GDS");
    let read_back = mpl_gds::layout_from_library(
        &library,
        &mpl_gds::LayerMap::all(),
        &mpl_gds::ReadOptions::default(),
    )
    .expect("convert GDS");
    let engine = ColorAlgorithm::Linear;
    let baseline = direct_memoized_result(engine, &read_back);

    let mut client = RawClient::connect(handle.addr());
    client.send_line(&submit_frame(
        "gds",
        "gds_base64",
        &base64::encode(&bytes),
        engine,
        "pool",
    ));
    let frame = client.await_terminal("gds");
    assert_result_matches(&frame, &baseline, Cache::Cold, "gds round trip");
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn errors_are_typed_and_leave_the_connection_usable() {
    let handle = spawn_server();
    let mut client = RawClient::connect(handle.addr());
    let expect_error = |client: &mut RawClient, id: Option<&str>, code: &str, needle: &str| {
        let frame = client.recv();
        assert_eq!(
            frame.get("type").and_then(Json::as_str),
            Some("error"),
            "expected error frame, got {frame}"
        );
        assert_eq!(frame.get("id").and_then(Json::as_str), id, "{frame}");
        assert_eq!(
            frame.get("code").and_then(Json::as_str),
            Some(code),
            "{frame}"
        );
        let message = frame
            .get("message")
            .and_then(Json::as_str)
            .expect("message");
        assert!(message.contains(needle), "{message:?} lacks {needle:?}");
    };

    // 1. A frame that is not JSON at all.
    client.send_line("this is not json");
    expect_error(&mut client, None, "protocol", "invalid JSON");

    // 2. Valid JSON, unknown request type (id still echoed).
    client.send_line(r#"{"type":"frobnicate","id":"t2"}"#);
    expect_error(&mut client, Some("t2"), "protocol", "unknown request type");

    // 3. K = 0: decodes fine, fails config validation with the pipeline's
    //    typed error.
    let layout_text = io::to_text(&gen::fig1_contact_clique(&Technology::nm20()));
    client.send_line(
        &Json::object(vec![
            ("type", Json::string("submit")),
            ("id", Json::string("t3")),
            ("layout_text", Json::string(layout_text.clone())),
            ("k", Json::Number(0.0)),
        ])
        .to_string(),
    );
    expect_error(
        &mut client,
        Some("t3"),
        "config",
        "mask count K must be in 2..=255",
    );

    // 4. Unknown engine name.
    client.send_line(r#"{"type":"submit","id":"t4","layout_text":"x","algorithm":"warp-drive"}"#);
    expect_error(&mut client, Some("t4"), "protocol", "unknown algorithm");

    // 5. Truncated GDS payload: valid base64 of a cut-off stream.
    let full = mpl_gds::library_from_layout(&gen::k5_cluster_layout(&Technology::nm20()), 1, 0)
        .expect("convert")
        .to_bytes()
        .expect("encode");
    let truncated = base64::encode(&full[..full.len() / 2]);
    client.send_line(
        &Json::object(vec![
            ("type", Json::string("submit")),
            ("id", Json::string("t5")),
            ("gds_base64", Json::string(truncated)),
        ])
        .to_string(),
    );
    expect_error(&mut client, Some("t5"), "parse", "cannot parse GDS stream");

    // 6. Base64 that is not even base64.
    client.send_line(r#"{"type":"submit","id":"t6","gds_base64":"!!!not base64!!!"}"#);
    expect_error(&mut client, Some("t6"), "parse", "cannot decode gds_base64");

    // 7. An unreadable server-side path.
    client.send_line(r#"{"type":"submit","id":"t7","path":"/nonexistent/serve-integration.gds"}"#);
    expect_error(&mut client, Some("t7"), "io", "cannot read");

    // 8. The connection is still fully usable: ping, then a real submission
    //    whose result is bit-identical to the direct run.
    client.send_line(r#"{"type":"ping"}"#);
    assert_eq!(
        client.recv().get("type").and_then(Json::as_str),
        Some("pong")
    );
    let engine = ColorAlgorithm::SdpGreedy;
    let layout = gen::k5_cluster_layout(&Technology::nm20());
    let baseline = direct_memoized_result(engine, &layout);
    client.send_line(&submit_frame(
        "t8",
        "layout_text",
        &io::to_text(&layout),
        engine,
        "serial",
    ));
    let frame = client.await_terminal("t8");
    assert_result_matches(&frame, &baseline, Cache::Cold, "post-error submission");
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn progress_frames_count_every_component_in_order() {
    let handle = spawn_server();
    let tech = Technology::nm20();
    let layout = gen::generate_row_layout(&gen::RowLayoutConfig::small("serve-progress", 3), &tech);
    let mut client = RawClient::connect(handle.addr());
    client.send_line(
        &Json::object(vec![
            ("type", Json::string("submit")),
            ("id", Json::string("p")),
            ("layout_text", Json::string(io::to_text(&layout))),
            ("algorithm", Json::string("linear")),
            ("progress", Json::Bool(true)),
        ])
        .to_string(),
    );

    let queued = client.recv();
    assert_eq!(queued.get("type").and_then(Json::as_str), Some("queued"));
    let total = queued
        .get("components")
        .and_then(Json::as_usize)
        .expect("components");
    assert!(total >= 2, "need a multi-component layout for this test");

    let mut expected_done = 1usize;
    loop {
        let frame = client.recv();
        match frame.get("type").and_then(Json::as_str) {
            Some("progress") => {
                assert_eq!(frame.get("id").and_then(Json::as_str), Some("p"));
                assert_eq!(
                    frame.get("done").and_then(Json::as_usize),
                    Some(expected_done),
                    "progress ticks arrive in order"
                );
                assert_eq!(frame.get("total").and_then(Json::as_usize), Some(total));
                expected_done += 1;
            }
            Some("result") => {
                assert_eq!(
                    expected_done,
                    total + 1,
                    "exactly one progress frame per component before the result"
                );
                break;
            }
            other => panic!("unexpected frame type {other:?}"),
        }
    }
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn empty_layouts_and_session_reuse_across_waves() {
    let handle = spawn_server();
    let mut client = RawClient::connect(handle.addr());
    // An empty layout is legal: zero components, an immediate empty result.
    client.send_line(&submit_frame(
        "e0",
        "layout_text",
        "# layout empty\n",
        ColorAlgorithm::Linear,
        "pool",
    ));
    let frame = client.await_terminal("e0");
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("result"));
    assert_eq!(frame.get("vertices").and_then(Json::as_usize), Some(0));
    assert!(colors_of(&frame).is_empty());

    // Waves submitted strictly after the previous result still work — the
    // server's sessions are reused across batches (unique ids internally).
    let tech = Technology::nm20();
    let layout = gen::fig1_contact_clique(&tech);
    let baseline = direct_memoized_result(ColorAlgorithm::Linear, &layout);
    for wave in 0..3 {
        let id = format!("wave-{wave}");
        client.send_line(&submit_frame(
            &id,
            "layout_text",
            &io::to_text(&layout),
            ColorAlgorithm::Linear,
            "pool",
        ));
        let frame = client.await_terminal(&id);
        // Wave 0 colors into the cache; later waves are stamped from it.
        let cache = if wave == 0 { Cache::Cold } else { Cache::Warm };
        assert_result_matches(&frame, &baseline, cache, &id);
    }
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn ping_reports_cache_statistics_and_resubmissions_are_served_warm() {
    let handle = spawn_server();
    let mut client = RawClient::connect(handle.addr());
    let ping = |client: &mut RawClient| -> Json {
        client.send_line(r#"{"type":"ping"}"#);
        let frame = client.recv();
        assert_eq!(frame.get("type").and_then(Json::as_str), Some("pong"));
        frame
            .get("cache")
            .expect("pong carries cache stats")
            .clone()
    };

    // Fresh server: an empty cache with the default capacity.
    let cold = ping(&mut client);
    assert_eq!(cold.get("entries").and_then(Json::as_usize), Some(0));
    assert_eq!(cold.get("hits").and_then(Json::as_usize), Some(0));
    assert_eq!(cold.get("misses").and_then(Json::as_usize), Some(0));
    assert!(
        cold.get("capacity")
            .and_then(Json::as_usize)
            .expect("capacity")
            >= 1
    );

    let engine = ColorAlgorithm::SdpBacktrack;
    let layout = gen::generate_row_layout(
        &gen::RowLayoutConfig::small("serve-memo", 7),
        &Technology::nm20(),
    );
    let baseline = direct_memoized_result(engine, &layout);
    let submit = |client: &mut RawClient, id: &str, executor: &str| {
        client.send_line(&submit_frame(
            id,
            "layout_text",
            &io::to_text(&layout),
            engine,
            executor,
        ));
    };

    // Cold submission: everything is engine-colored and the result frame
    // says so through its memo counters.
    submit(&mut client, "m-cold", "pool");
    let frame = client.await_terminal("m-cold");
    assert_result_matches(&frame, &baseline, Cache::Cold, "cold submission");
    let components = frame
        .get("components")
        .and_then(Json::as_usize)
        .expect("components");
    let hits = frame
        .get("memo_hits")
        .and_then(Json::as_usize)
        .expect("memo_hits");
    let misses = frame
        .get("memo_misses")
        .and_then(Json::as_usize)
        .expect("memo_misses");
    assert_eq!(hits + misses, components, "every component is accounted");
    assert!(misses > 0, "a cold cache cannot serve hits");

    let after_cold = ping(&mut client);
    let stored = after_cold
        .get("entries")
        .and_then(Json::as_usize)
        .expect("entries");
    assert!(stored > 0, "the cold batch fills the cache");
    assert!(
        after_cold
            .get("misses")
            .and_then(Json::as_usize)
            .expect("misses")
            > 0
    );

    // Warm resubmission — on the *other* executor: the sessions share one
    // cache, every component is stamped, and the bits do not move.
    submit(&mut client, "m-warm", "serial");
    let frame = client.await_terminal("m-warm");
    assert_result_matches(&frame, &baseline, Cache::Warm, "warm resubmission");
    assert_eq!(
        frame.get("memo_hits").and_then(Json::as_usize),
        Some(components),
        "a warm cache serves the whole layout"
    );
    assert_eq!(frame.get("memo_misses").and_then(Json::as_usize), Some(0));

    let after_warm = ping(&mut client);
    assert_eq!(
        after_warm.get("entries").and_then(Json::as_usize),
        Some(stored),
        "a fully-warm batch stores nothing new"
    );
    assert!(
        after_warm
            .get("hits")
            .and_then(Json::as_usize)
            .expect("hits")
            >= components,
        "the warm batch hit once per component"
    );
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn tiled_submissions_stream_tile_progress_and_match_local_tiled_runs() {
    let handle = spawn_server();
    let tech = Technology::nm20();
    let engine = ColorAlgorithm::Linear;
    // One connected component spanning several 300 nm windows.
    let lattice = gen::contact_array(&tech, 12, 12, Nm(70));

    // Local baseline through the same tiler (tiled runs are schedule
    // independent, so the server's pool executor reproduces these bits).
    let baseline = tiled_record(engine, &lattice, 300, true);
    let stats = baseline.tiles.expect("a tiled run reports its tiles");

    let mut client = RawClient::connect(handle.addr());
    client.send_line(
        &Json::object(vec![
            ("type", Json::string("submit")),
            ("id", Json::string("tiled")),
            ("layout_text", Json::string(io::to_text(&lattice))),
            ("algorithm", Json::string(algorithm_wire_name(engine))),
            ("tile_size", Json::Number(300.0)),
            ("progress", Json::Bool(true)),
            ("verify", Json::Bool(true)),
        ])
        .to_string(),
    );

    // Tiled submissions tick per tile sub-problem, not per component.
    let queued = client.recv();
    assert_eq!(queued.get("type").and_then(Json::as_str), Some("queued"));
    let mut expected_done = 1usize;
    let frame = loop {
        let frame = client.recv();
        match frame.get("type").and_then(Json::as_str) {
            Some("tile_progress") => {
                assert_eq!(frame.get("id").and_then(Json::as_str), Some("tiled"));
                assert_eq!(
                    frame.get("done").and_then(Json::as_usize),
                    Some(expected_done),
                    "tile ticks arrive in order"
                );
                expected_done += 1;
            }
            Some("result") => break frame,
            other => panic!("unexpected frame type {other:?}"),
        }
    };
    // The frame carries the same `tiles` object and verification count.
    assert_result_matches(&frame, &baseline, Cache::Cold, "tiled lattice");
    assert_eq!(
        expected_done,
        stats.tiles + usize::from(stats.resident_components > 0) + 1,
        "one tile_progress frame per inner decomposition"
    );
    // Server-side verification agrees with the reconciled conflict count.
    assert_eq!(
        baseline.spacing_violations,
        Some(baseline.conflicts),
        "tiling never hides a spacing violation"
    );

    // A layout that fits one window is bit-identical to its untiled run
    // even when submitted with tiling enabled.
    let clique = gen::fig1_contact_clique(&tech);
    let untiled = direct_memoized_result(engine, &clique);
    let one_window = tiled_record(engine, &clique, 1_000_000, false);
    assert_eq!(one_window.colors, untiled.colors);
    client.send_line(
        &Json::object(vec![
            ("type", Json::string("submit")),
            ("id", Json::string("resident")),
            ("layout_text", Json::string(io::to_text(&clique))),
            ("algorithm", Json::string(algorithm_wire_name(engine))),
            ("tile_size", Json::Number(1_000_000.0)),
        ])
        .to_string(),
    );
    let frame = client.await_terminal("resident");
    assert_result_matches(
        &frame,
        &one_window,
        Cache::Warm,
        "one-window tiled submission",
    );
    let tiles = one_window.tiles.expect("tile stats");
    assert_eq!(tiles.tiles, 0);
    assert_eq!(tiles.resident_components, untiled.components);

    // Invalid tiling requests come back as the pipeline's typed errors.
    let text = || ("layout_text", Json::string(io::to_text(&clique)));
    for (id, extra, needle) in [
        (
            "bad-size",
            vec![text(), ("tile_size", Json::Number(0.0))],
            "tile size must be a positive distance",
        ),
        (
            "bad-halo",
            vec![
                text(),
                ("tile_size", Json::Number(300.0)),
                ("halo", Json::Number(40.0)),
            ],
            "tile halo must be a positive distance",
        ),
        (
            "halo-alone",
            vec![text(), ("halo", Json::Number(100.0))],
            "--halo requires tiling to be enabled",
        ),
        // The tiling fields are checked before the source is read, so a
        // missing file is never opened.
        (
            "bad-size-missing-path",
            vec![
                ("path", Json::string("/nonexistent/qpl-serve-missing.txt")),
                ("tile_size", Json::Number(0.0)),
            ],
            "tile size must be a positive distance",
        ),
        (
            "bad-halo-missing-path",
            vec![
                ("path", Json::string("/nonexistent/qpl-serve-missing.txt")),
                ("tile_size", Json::Number(300.0)),
                ("halo", Json::Number(40.0)),
            ],
            "tile halo must be a positive distance",
        ),
    ] {
        let mut pairs = vec![("type", Json::string("submit")), ("id", Json::string(id))];
        pairs.extend(extra);
        client.send_line(&Json::object(pairs).to_string());
        let frame = client.await_terminal(id);
        assert_eq!(
            frame.get("type").and_then(Json::as_str),
            Some("error"),
            "{id}"
        );
        assert_eq!(
            frame.get("code").and_then(Json::as_str),
            Some("config"),
            "{id}"
        );
        let message = frame
            .get("message")
            .and_then(Json::as_str)
            .expect("message");
        assert!(message.contains(needle), "{id}: {message:?}");
    }
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn hier_submissions_stream_hier_progress_and_match_local_hier_runs() {
    let handle = spawn_server();
    let engine = ColorAlgorithm::Linear;
    // The committed CLI fixture: a 4×3 merged SRAM-like array whose tabs
    // fuse the whole array into one conflict component (see
    // tests/cli_json_golden.rs), submitted as raw GDS bytes.
    let bytes = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/hier_array.gds"
    ))
    .expect("read committed hier fixture");

    // Local baseline through the same hierarchical driver on the bytes the
    // server will decompose.
    let library = mpl_gds::GdsLibrary::from_bytes(&bytes).expect("parse GDS");
    let (layout, hierarchy) = mpl_gds::layout_with_hierarchy(
        &library,
        &mpl_gds::LayerMap::all(),
        &mpl_gds::ReadOptions::default(),
    )
    .expect("convert GDS");
    let baseline = hier_record(engine, &layout, Some(hierarchy), true);

    let mut client = RawClient::connect(handle.addr());
    let ping_counters = |client: &mut RawClient| -> (usize, usize) {
        client.send_line(r#"{"type":"ping"}"#);
        let frame = client.recv();
        assert_eq!(frame.get("type").and_then(Json::as_str), Some("pong"));
        (
            frame
                .get("hier_runs")
                .and_then(Json::as_usize)
                .expect("hier_runs"),
            frame
                .get("tile_runs")
                .and_then(Json::as_usize)
                .expect("tile_runs"),
        )
    };
    assert_eq!(ping_counters(&mut client), (0, 0), "fresh server");

    client.send_line(
        &Json::object(vec![
            ("type", Json::string("submit")),
            ("id", Json::string("hier")),
            ("gds_base64", Json::string(base64::encode(&bytes))),
            ("algorithm", Json::string(algorithm_wire_name(engine))),
            ("hier", Json::Bool(true)),
            ("progress", Json::Bool(true)),
            ("verify", Json::Bool(true)),
        ])
        .to_string(),
    );

    // Hierarchical submissions tick per inner cell piece, not per
    // flat component.
    let queued = client.recv();
    assert_eq!(queued.get("type").and_then(Json::as_str), Some("queued"));
    let mut expected_done = 1usize;
    let frame = loop {
        let frame = client.recv();
        match frame.get("type").and_then(Json::as_str) {
            Some("hier_progress") => {
                assert_eq!(frame.get("id").and_then(Json::as_str), Some("hier"));
                assert_eq!(
                    frame.get("done").and_then(Json::as_usize),
                    Some(expected_done),
                    "hier ticks arrive in order"
                );
                expected_done += 1;
            }
            Some("result") => break frame,
            other => panic!("unexpected frame type {other:?}"),
        }
    };
    assert!(expected_done > 1, "hier runs stream at least one tick");
    // The frame carries the same `hierarchy` object and verification count.
    assert_result_matches(&frame, &baseline, Cache::Cold, "hier array");
    let stats = baseline
        .hierarchy
        .expect("hier runs report hierarchy stats");
    assert_eq!((stats.instances, stats.cells), (12, 1));
    // Server-side verification agrees with the reconciled conflict count.
    assert_eq!(
        baseline.spacing_violations,
        Some(baseline.conflicts),
        "hierarchy never hides a spacing violation"
    );
    assert_eq!(ping_counters(&mut client).0, 1, "one hier run counted");

    // A text source with hier requested degenerates to an ordinary
    // memoized run — there is no hierarchy to exploit — and still counts.
    let tech = Technology::nm20();
    let clique = gen::fig1_contact_clique(&tech);
    let flat = direct_memoized_result(engine, &clique);
    let degenerate = hier_record(engine, &clique, None, false);
    assert_eq!(degenerate.colors, flat.colors);
    client.send_line(
        &Json::object(vec![
            ("type", Json::string("submit")),
            ("id", Json::string("degenerate")),
            ("layout_text", Json::string(io::to_text(&clique))),
            ("algorithm", Json::string(algorithm_wire_name(engine))),
            ("hier", Json::Bool(true)),
        ])
        .to_string(),
    );
    let frame = client.await_terminal("degenerate");
    assert_result_matches(&frame, &degenerate, Cache::Warm, "text source under --hier");
    let stats = degenerate.hierarchy.expect("hier stats still reported");
    assert_eq!(stats.instances, 0);
    assert_eq!(stats.resident_components, flat.components);
    assert_eq!(ping_counters(&mut client).0, 2, "degenerate run counted");

    // Hierarchy and tiling are mutually exclusive, as a typed config error.
    client.send_line(
        &Json::object(vec![
            ("type", Json::string("submit")),
            ("id", Json::string("hier-tiled")),
            ("layout_text", Json::string(io::to_text(&clique))),
            ("hier", Json::Bool(true)),
            ("tile_size", Json::Number(300.0)),
        ])
        .to_string(),
    );
    let frame = client.await_terminal("hier-tiled");
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("error"));
    assert_eq!(frame.get("code").and_then(Json::as_str), Some("config"));
    let message = frame
        .get("message")
        .and_then(Json::as_str)
        .expect("message");
    assert!(
        message.contains("cannot be combined with tiling"),
        "{message:?}"
    );

    // The tile counter is independent of the hier counter.
    client.send_line(
        &Json::object(vec![
            ("type", Json::string("submit")),
            ("id", Json::string("tiled")),
            ("layout_text", Json::string(io::to_text(&clique))),
            ("tile_size", Json::Number(1_000_000.0)),
        ])
        .to_string(),
    );
    client.await_terminal("tiled");
    assert_eq!(ping_counters(&mut client), (2, 1), "counters stay separate");
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn a_client_that_stops_reading_cannot_wedge_other_submissions() {
    // A short write timeout is the regression hook: before the timeout
    // existed, the scheduler's synchronous progress writes blocked forever
    // once the stalled client's socket buffers filled, and every other
    // submission hung behind it.
    let handle = Server::spawn(&ServerConfig {
        write_timeout: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let tech = Technology::nm20();

    // 3000 identical strip clusters, every cluster a real component
    // (isolated vertices would be packed into one trivial task), each
    // streaming a progress frame as the memo stamps it.  The submission id
    // is echoed on every frame, so a kilobytes-long id turns 3000 ticks
    // into ~12 MB of progress — far past socket buffering even with
    // autotuned multi-megabyte send buffers, so once the client stops
    // reading, the scheduler's synchronous writes must block.
    let flood = gen::repeated_strip_array(&tech, 60, 50, 3, Nm(400));
    let jam_id = format!("jam-{}", "x".repeat(4096));
    let mut stalled = RawClient::connect(handle.addr());
    stalled.send_line(
        &Json::object(vec![
            ("type", Json::string("submit")),
            ("id", Json::string(jam_id.as_str())),
            ("layout_text", Json::string(io::to_text(&flood))),
            ("algorithm", Json::string("linear")),
            ("progress", Json::Bool(true)),
        ])
        .to_string(),
    );
    // The stalled client reads until its flood demonstrably streams — the
    // first progress tick — and then goes silent with ~12 MB still to come.
    loop {
        let frame = stalled.recv();
        match frame.get("type").and_then(Json::as_str) {
            Some("queued") => continue,
            Some("progress") => break,
            other => panic!("unexpected frame before the flood: {other:?}"),
        }
    }

    // A healthy client submitted behind the flood still gets its result.
    let layout = gen::fig1_contact_clique(&tech);
    let engine = ColorAlgorithm::SdpGreedy;
    let baseline = direct_memoized_result(engine, &layout);
    let mut healthy = RawClient::connect(handle.addr());
    // Bound the regression failure mode: a wedged scheduler fails this
    // test by read timeout instead of hanging the suite.
    healthy
        .stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set read timeout");
    healthy.send_line(&submit_frame(
        "healthy",
        "layout_text",
        &io::to_text(&layout),
        engine,
        "pool",
    ));
    let frame = healthy.await_terminal("healthy");
    assert_result_matches(
        &frame,
        &baseline,
        Cache::Warm,
        "submission behind a stalled client",
    );
    drop(stalled);
    handle.shutdown().expect("clean shutdown");
}
