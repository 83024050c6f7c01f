//! The streaming decomposition service, end to end in one process: spawn a
//! [`Server`] on an ephemeral port, stream several `submit` requests over
//! TCP with different engines, watch per-component progress
//! frames arrive, and verify every served coloring against a direct
//! in-process run.
//!
//! This is the same wire protocol `qpl-serve` exposes; the in-process
//! spawn just makes the example self-contained (point a real deployment's
//! clients at `qpl-serve --addr HOST:PORT` instead, or use
//! `qpl-decompose --connect`).
//!
//! Run with: `cargo run --release --example serve_stream [COUNT]`

use mpl_core::{ColorAlgorithm, Decomposer, DecomposerConfig};
use mpl_layout::{gen, io, Technology};
use mpl_serve::{Client, LayoutSource, Request, Response, Server, ServerConfig, SubmitRequest};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let count: usize = std::env::args()
        .nth(1)
        .map(|value| value.parse())
        .transpose()?
        .unwrap_or(4);
    let tech = Technology::nm20();

    let handle = Server::spawn(&ServerConfig::default())?;
    println!("server listening on {}", handle.addr());

    // A mixed workload: row layouts plus the paper's contact clique, with
    // per-request engine choices.
    let engines = [ColorAlgorithm::Linear, ColorAlgorithm::SdpBacktrack];
    let layouts: Vec<_> = (0..count)
        .map(|index| {
            if index % 3 == 2 {
                gen::fig1_contact_clique(&tech)
            } else {
                gen::generate_row_layout(
                    &gen::RowLayoutConfig::small(format!("stream-{index}"), index as u64 + 1),
                    &tech,
                )
            }
        })
        .collect();

    let mut client = Client::connect(handle.addr())?;
    for (index, layout) in layouts.iter().enumerate() {
        let mut submit =
            SubmitRequest::new(index.to_string(), LayoutSource::Text(io::to_text(layout)));
        submit.algorithm = engines[index % engines.len()];
        submit.progress = true;
        submit.verify = true;
        client.send(&Request::Submit(submit))?;
        println!(
            "submitted {index}: {} via {:?}",
            layout.name(),
            engines[index % engines.len()]
        );
    }

    let mut results = vec![None; layouts.len()];
    let mut remaining = layouts.len();
    while remaining > 0 {
        match client.recv()? {
            Response::Queued { id, components, .. } => {
                println!("  queued {id}: {components} components")
            }
            Response::Progress { id, done, total } => {
                println!("  progress {id}: {done}/{total}")
            }
            Response::Result(payload) => {
                println!(
                    "  result {}: {} conflicts, {} stitches on {} ({} spacing violations)",
                    payload.id,
                    payload.conflicts,
                    payload.stitches,
                    payload.executor,
                    payload
                        .spacing_violations
                        .map_or("?".to_string(), |v| v.to_string()),
                );
                let index: usize = payload.id.parse()?;
                results[index] = Some(payload);
                remaining -= 1;
            }
            Response::Error { id, code, message } => {
                return Err(format!("{id:?} failed with {} error: {message}", code.as_str()).into())
            }
            other => println!("  {other:?}"),
        }
    }

    // Every served coloring is bit-identical to a direct in-process run.
    for (index, layout) in layouts.iter().enumerate() {
        let payload = results[index].as_ref().expect("all results collected");
        let direct = Decomposer::new(
            DecomposerConfig::quadruple(tech).with_algorithm(engines[index % engines.len()]),
        )
        .decompose(layout)?;
        assert_eq!(payload.colors, direct.colors(), "layout {index}");
        assert_eq!(payload.conflicts, direct.conflicts(), "layout {index}");
    }
    println!(
        "all {} served results match their direct runs bit for bit",
        layouts.len()
    );

    client.shutdown()?;
    handle.join();
    println!("server shut down cleanly");
    Ok(())
}
