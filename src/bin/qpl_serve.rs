//! `qpl-serve` — the long-running streaming decomposition server.
//!
//! Wraps [`mpl_serve::Server`] as a binary: binds a TCP listener, prints
//! the bound address, and serves the newline-delimited JSON protocol (see
//! the `mpl-serve` crate documentation) until a client sends a
//! `{"type":"shutdown"}` frame.
//!
//! ```text
//! Usage: qpl-serve [options]
//!
//!   --addr <HOST:PORT>   address to bind (default 127.0.0.1:7878; port 0
//!                        picks an ephemeral port)
//!   --threads <N>        worker threads of the persistent coloring pool,
//!                        the scheduler thread included (default 2; 1
//!                        colors every submission on the scheduler thread)
//!   --addr-file <PATH>   write the bound address to PATH once listening —
//!                        lets scripts using port 0 discover the port
//!   --output-queue-frames <N>
//!                        per-connection bound on frames queued for a slow
//!                        reader (default 256).  When full, progress-class
//!                        frames are shed first; result/error frames are
//!                        never dropped
//! ```
//!
//! The bound address is announced on stderr as `listening on <ADDR>`.

use mpl_core::ConfigError;
use mpl_serve::{Server, ServerConfig};
use std::process::ExitCode;

struct Options {
    config: ServerConfig,
    addr_file: Option<String>,
}

fn parse_options() -> Result<Options, String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..ServerConfig::default()
    };
    let mut addr_file = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--threads" => {
                config.pool_threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("invalid --threads value: {e}"))?;
                if config.pool_threads == 0 {
                    return Err(ConfigError::ThreadCount.to_string());
                }
            }
            "--addr-file" => addr_file = Some(value("--addr-file")?),
            "--output-queue-frames" => {
                config.output_queue_frames = value("--output-queue-frames")?
                    .parse()
                    .map_err(|e| format!("invalid --output-queue-frames value: {e}"))?;
                if config.output_queue_frames == 0 {
                    return Err("--output-queue-frames must be at least 1".to_string());
                }
            }
            "--help" | "-h" => {
                return Err("usage: qpl-serve [--addr HOST:PORT] [--threads N] \
                            [--addr-file PATH] [--output-queue-frames N]"
                    .to_string())
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Options { config, addr_file })
}

fn main() -> ExitCode {
    let options = match parse_options() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::bind(&options.config) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("cannot bind {}: {error}", options.config.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    if let Some(path) = &options.addr_file {
        if let Err(error) = std::fs::write(path, addr.to_string()) {
            eprintln!("cannot write {path}: {error}");
            return ExitCode::FAILURE;
        }
    }
    let shutdown_frame = r#"{"type":"shutdown"}"#;
    eprintln!(
        "listening on {addr} (pool: {} threads; shut down with {shutdown_frame})",
        options.config.pool_threads
    );
    server.run();
    eprintln!("shutdown complete");
    ExitCode::SUCCESS
}
