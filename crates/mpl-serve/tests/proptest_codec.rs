//! Property tests for the wire codec: arbitrary protocol values must
//! survive encode → split-across-arbitrary-TCP-chunk-boundaries → decode.
//!
//! TCP guarantees byte order but not chunking, so the frame decoder must
//! reassemble identical values no matter where reads split the stream —
//! including splits inside multi-byte UTF-8 sequences and inside escape
//! sequences.  The generated strings deliberately mix quotes, backslashes,
//! control characters, non-BMP code points and JSON-hostile separators.

use mpl_serve::{
    decode_request, decode_response, encode_frame, encode_request, encode_response, ErrorCode,
    ExecutorChoice, FrameDecoder, Json, LayoutSource, Request, Response, ResultPayload,
    SubmitRequest,
};
use proptest::prelude::*;

/// Characters that stress every escaping path: ASCII, the mandatory JSON
/// escapes, control characters, DEL, accented/wide/astral code points and
/// the line separators JavaScript chokes on.
const PALETTE: [char; 16] = [
    'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '漢', '😀',
    '\u{2028}',
];

fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..PALETTE.len(), 0usize..12)
        .prop_map(|indices| indices.into_iter().map(|index| PALETTE[index]).collect())
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        0usize..5,    // variant: 0 ping, 1 shutdown, 2 cancel, 3..4 submit
        arb_string(), // id
        0usize..3,    // source kind
        arb_string(), // source payload
        (0usize..300, 0usize..4, 0i64..40, 0usize..32),
    )
        .prop_map(
            |(variant, id, source_kind, payload, (k, algo, alpha_step, flags))| {
                match variant {
                    0 => Request::Ping,
                    1 => Request::Shutdown,
                    2 => Request::Cancel { id },
                    _ => {
                        let source = match source_kind {
                            0 => LayoutSource::Text(payload),
                            1 => LayoutSource::GdsBase64(payload),
                            _ => LayoutSource::Path(payload),
                        };
                        let mut submit = SubmitRequest::new(id, source);
                        submit.k = k;
                        submit.algorithm = mpl_core::ColorAlgorithm::ALL[algo];
                        // Dyadic steps survive the f64 → JSON → f64 round trip
                        // bit-exactly.
                        submit.alpha = alpha_step as f64 * 0.125;
                        submit.executor = if flags & 1 == 0 {
                            ExecutorChoice::Pool
                        } else {
                            ExecutorChoice::Serial
                        };
                        submit.progress = flags & 2 != 0;
                        submit.verify = flags & 4 != 0;
                        if flags & 8 != 0 {
                            submit.tile_size = Some(1 + flags as i64 * 100);
                            if flags & 16 != 0 {
                                submit.halo = Some(80 + flags as i64);
                            }
                        } else {
                            submit.hier = flags & 16 != 0;
                        }
                        submit.deadline_ms = if alpha_step % 2 == 0 {
                            None
                        } else {
                            Some(alpha_step as u64 * 250)
                        };
                        Request::Submit(submit)
                    }
                }
            },
        )
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        0usize..7,
        arb_string(),
        arb_string(),
        (0usize..1000, 0usize..50, 0usize..20, 0usize..20),
        (0i64..8000, 0usize..6, 0usize..5000, 0usize..500, 0i64..8000),
        prop::collection::vec(0usize..256, 0usize..10),
    )
        .prop_map(
            |(
                variant,
                id,
                text,
                (vertices, components, conflicts, stitches),
                (cost_step, code, conflict_edges, stitch_edges, graph_step),
                colors,
            )| {
                match variant {
                    0 => Response::Pong {
                        cache: if code % 2 == 0 {
                            None
                        } else {
                            Some(mpl_core::MemoStats {
                                entries: components,
                                capacity: vertices.max(1),
                                hits: conflicts as u64,
                                misses: stitches as u64,
                                evictions: code as u64,
                                bytes: vertices * 8,
                            })
                        },
                        hier_runs: conflicts as u64,
                        tile_runs: stitches as u64,
                        queued_frames: vertices as u64,
                        dropped_progress: components as u64,
                        cancelled_requests: code as u64,
                        deadline_exceeded_requests: conflicts as u64,
                    },
                    1 => Response::ShuttingDown,
                    2 => Response::Queued {
                        id,
                        layout: text,
                        vertices,
                        components,
                    },
                    3 => Response::Progress {
                        id,
                        done: conflicts,
                        total: stitches,
                    },
                    4 => Response::Error {
                        id: if code % 2 == 0 { None } else { Some(id) },
                        code: [
                            ErrorCode::Protocol,
                            ErrorCode::Parse,
                            ErrorCode::Config,
                            ErrorCode::Decompose,
                            ErrorCode::Io,
                        ][code % 5],
                        message: text,
                    },
                    5 => Response::Cancelled {
                        id,
                        components_completed: conflicts,
                        components_skipped: stitches,
                        bnb_nodes: vertices as u64,
                    },
                    _ => Response::Result(ResultPayload {
                        id,
                        layout: text.clone(),
                        k: components.max(2),
                        algorithm: text,
                        executor: "serial".to_string(),
                        vertices,
                        conflict_edges,
                        stitch_edges,
                        components,
                        conflicts,
                        stitches,
                        cost: cost_step as f64 * 0.125,
                        graph_seconds: graph_step as f64 * 0.03125,
                        color_seconds: cost_step as f64 * 0.0625,
                        colors: colors.into_iter().map(|color| color as u8).collect(),
                        counters: mpl_core::LayoutCounters {
                            hidden_vertices: vertices / 3,
                            kernel_vertices: vertices - vertices / 3,
                            simplify_rounds: code,
                            bound_improvements: conflicts as u64,
                        },
                        spacing_violations: if code % 3 == 0 { None } else { Some(code) },
                        memo_hits: if code % 2 == 0 { None } else { Some(conflicts) },
                        memo_misses: if code % 2 == 0 { None } else { Some(stitches) },
                        cancelled: code % 2 == 1,
                        deadline_exceeded: code % 3 == 1,
                        components_completed: components - conflicts.min(components),
                        components_skipped: conflicts.min(components),
                        tiles: if code % 2 == 0 {
                            None
                        } else {
                            Some(mpl_tile::TileStats {
                                grid_x: components.max(1),
                                grid_y: code.max(1),
                                tiles: vertices,
                                tiled_components: conflicts,
                                resident_components: stitches,
                                shared_vertices: vertices / 2,
                                permuted_tiles: code,
                                recolored_vertices: conflicts,
                                cross_conflicts_before: stitches,
                                cross_conflicts_after: 0,
                            })
                        },
                        hierarchy: if code % 3 == 0 {
                            None
                        } else {
                            Some(mpl_hier::HierStats {
                                instances: vertices,
                                cells: components.max(1),
                                nested_inherited: vertices / 4,
                                resident_components: stitches,
                                split_components: conflicts,
                                instance_pieces: vertices / 2,
                                boundary_vertices: code,
                                permuted_pieces: conflicts,
                                recolored_vertices: stitches,
                                cross_conflicts_before: code,
                                cross_conflicts_after: 0,
                            })
                        },
                    }),
                }
            },
        )
}

/// Feeds `stream` into a fresh decoder in chunks of the given sizes
/// (cycling), decoding every completed frame with `decode`.
fn transport<T>(
    stream: &[u8],
    sizes: &[usize],
    decode: impl Fn(&Json) -> Result<T, mpl_serve::ServeError>,
) -> Vec<T> {
    let mut decoder = FrameDecoder::new();
    let mut out = Vec::new();
    let mut position = 0usize;
    let mut size_index = 0usize;
    while position < stream.len() {
        let take = sizes[size_index % sizes.len()].min(stream.len() - position);
        decoder.push(&stream[position..position + take]);
        position += take;
        size_index += 1;
        while let Some(frame) = decoder.next_frame().expect("valid framing") {
            let json = Json::parse(&frame).expect("frames are valid JSON");
            out.push(decode(&json).expect("frames decode"));
        }
    }
    assert_eq!(decoder.buffered(), 0, "no partial frame left behind");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_survive_arbitrarily_chunked_transport(
        requests in prop::collection::vec(arb_request(), 1usize..6),
        sizes in prop::collection::vec(1usize..9, 1usize..16),
    ) {
        let stream: String = requests
            .iter()
            .map(|request| encode_frame(&encode_request(request)))
            .collect();
        let decoded = transport(stream.as_bytes(), &sizes, decode_request);
        prop_assert_eq!(decoded, requests);
    }

    #[test]
    fn responses_survive_arbitrarily_chunked_transport(
        responses in prop::collection::vec(arb_response(), 1usize..6),
        sizes in prop::collection::vec(1usize..9, 1usize..16),
    ) {
        let stream: String = responses
            .iter()
            .map(|response| encode_frame(&encode_response(response)))
            .collect();
        let decoded = transport(stream.as_bytes(), &sizes, decode_response);
        prop_assert_eq!(decoded, responses);
    }

    #[test]
    fn json_documents_survive_writer_reader_round_trips(
        texts in prop::collection::vec(arb_string(), 1usize..8),
        numbers in prop::collection::vec(-4000i64..4000, 1usize..8),
    ) {
        // Nested document exercising the writer against the parser with
        // every palette character in both keys and values.
        let pairs: Vec<(String, Json)> = texts
            .iter()
            .enumerate()
            .map(|(index, text)| {
                (
                    format!("{text}#{index}"),
                    Json::Array(vec![
                        Json::String(text.clone()),
                        Json::Number(numbers[index % numbers.len()] as f64 * 0.25),
                        Json::Bool(index % 2 == 0),
                        Json::Null,
                    ]),
                )
            })
            .collect();
        let document = Json::Object(pairs);
        let reparsed = Json::parse(&document.to_string()).expect("writer output parses");
        prop_assert_eq!(reparsed, document);
    }
}
