//! A blocking client for the wire protocol.
//!
//! Wraps one TCP connection with frame encoding/decoding, so front ends
//! (`qpl-decompose --connect`, the `mpl-bench` serve mode, the examples)
//! talk typed [`Request`]s/[`Response`]s instead of raw sockets.  Tests
//! that deliberately send malformed traffic keep using raw sockets.

use crate::codec::{encode_frame, FrameDecoder, DEFAULT_MAX_FRAME_LEN};
use crate::protocol::{decode_response, encode_request, Request, Response, ServeError};
use mpl_core::Json;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A failure while talking to the server.
#[derive(Debug)]
pub enum ClientError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The server closed the connection.
    Disconnected,
    /// The server sent a frame this client cannot understand.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(error) => write!(f, "connection error: {error}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Protocol(message) => write!(f, "bad server frame: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(error: std::io::Error) -> Self {
        ClientError::Io(error)
    }
}

/// One blocking protocol connection.
pub struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
    chunk: Vec<u8>,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Any connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Ok(Client {
            stream: TcpStream::connect(addr)?,
            decoder: FrameDecoder::with_max_frame_len(DEFAULT_MAX_FRAME_LEN),
            chunk: vec![0u8; 64 * 1024],
        })
    }

    /// Sends one request frame.
    ///
    /// # Errors
    ///
    /// Any write failure.
    pub fn send(&mut self, request: &Request) -> std::io::Result<()> {
        self.stream
            .write_all(encode_frame(&encode_request(request)).as_bytes())
    }

    /// Blocks until the next response frame arrives.
    ///
    /// # Errors
    ///
    /// [`ClientError::Disconnected`] on EOF, [`ClientError::Protocol`] on
    /// an unparsable frame, [`ClientError::Io`] on socket failures.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        loop {
            match self.decoder.next_frame() {
                Ok(Some(frame)) => {
                    if frame.trim().is_empty() {
                        continue;
                    }
                    let json = Json::parse(&frame)
                        .map_err(|error| ClientError::Protocol(error.to_string()))?;
                    return decode_response(&json)
                        .map_err(|error: ServeError| ClientError::Protocol(error.to_string()));
                }
                Ok(None) => {}
                Err(error) => return Err(ClientError::Protocol(error.to_string())),
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(ClientError::Disconnected),
                Ok(read) => self.decoder.push(&self.chunk[..read]),
                Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(error) => return Err(ClientError::Io(error)),
            }
        }
    }

    /// Sends `ping` and waits for the `pong`, returning the server's
    /// shared memo-cache statistics when the frame carries them.
    ///
    /// # Errors
    ///
    /// Propagates send/receive failures; a non-`pong` reply is a
    /// [`ClientError::Protocol`].
    pub fn ping(&mut self) -> Result<Option<mpl_core::MemoStats>, ClientError> {
        self.send(&Request::Ping)?;
        match self.recv()? {
            // The usage counters ride the same frame; callers that want
            // them match on `recv()` directly.
            Response::Pong { cache, .. } => Ok(cache),
            other => Err(ClientError::Protocol(format!(
                "expected pong, got {other:?}"
            ))),
        }
    }

    /// Sends a `cancel` frame for an earlier submission of this
    /// connection.  The submission still resolves with exactly one
    /// terminal frame — `cancelled` when the cancel took effect, its
    /// ordinary `result` when completion won the race — and an unknown or
    /// already-finished id answers a non-fatal `cancel`-coded error.
    ///
    /// # Errors
    ///
    /// Any write failure.
    pub fn cancel(&mut self, id: impl Into<String>) -> std::io::Result<()> {
        self.send(&Request::Cancel { id: id.into() })
    }

    /// Sends `shutdown` and waits for the acknowledgement (or EOF, which
    /// also means the server is gone).
    ///
    /// # Errors
    ///
    /// Propagates send failures and protocol violations.
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        self.send(&Request::Shutdown)?;
        loop {
            match self.recv() {
                Ok(Response::ShuttingDown) | Err(ClientError::Disconnected) => return Ok(()),
                Ok(_) => continue, // a straggling frame from earlier work
                Err(error) => return Err(error),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{LayoutSource, SubmitRequest};
    use crate::server::{Server, ServerConfig};
    use mpl_core::{
        ColorAlgorithm, Decomposer, DecomposerConfig, DecompositionSession, MemoCache,
        SerialExecutor,
    };
    use mpl_layout::{gen, io, Technology};
    use std::sync::Arc;

    #[test]
    fn ping_submit_and_shutdown_round_trip() {
        let handle = Server::spawn(&ServerConfig::default()).expect("bind ephemeral port");
        let mut client = Client::connect(handle.addr()).expect("connect");
        let cache = client
            .ping()
            .expect("pong")
            .expect("server reports cache stats");
        assert_eq!(cache.entries, 0);
        assert_eq!(cache.hits, 0);

        let tech = Technology::nm20();
        let layout = gen::fig1_contact_clique(&tech);
        let mut submit = SubmitRequest::new("clique", LayoutSource::Text(io::to_text(&layout)));
        submit.algorithm = ColorAlgorithm::Linear;
        submit.progress = true;
        client.send(&Request::Submit(submit)).expect("send submit");

        let mut queued = false;
        let mut progress_frames = 0usize;
        let payload = loop {
            match client.recv().expect("response") {
                Response::Queued { id, components, .. } => {
                    assert_eq!(id, "clique");
                    assert!(components >= 1);
                    queued = true;
                }
                Response::Progress { id, done, total } => {
                    assert_eq!(id, "clique");
                    assert!(done >= 1 && done <= total);
                    progress_frames += 1;
                }
                Response::Result(payload) => break payload,
                other => panic!("unexpected frame {other:?}"),
            }
        };
        assert!(queued, "queued frame precedes the result");
        assert!(progress_frames >= 1, "progress was requested");
        assert_eq!(payload.id, "clique");
        assert_eq!(payload.k, 4);
        assert_eq!(payload.algorithm, "Linear");

        // Bit-identical to a direct memoized run: the server colors with a
        // shared memo cache, and memoized colorings are a pure function of
        // each component's canonical signature — independent of cache
        // state, so a fresh local cache reproduces the served bits.
        let decomposer = Decomposer::new(
            DecomposerConfig::quadruple(tech).with_algorithm(ColorAlgorithm::Linear),
        );
        let mut session = DecompositionSession::new().with_memo(Arc::new(MemoCache::new(1024)));
        session
            .submit_layout(&decomposer, &layout)
            .expect("valid config");
        let direct = &session.run(&SerialExecutor)[0].1;
        assert_eq!(payload.colors, direct.colors());
        assert_eq!(payload.conflicts, direct.conflicts());

        client.shutdown().expect("clean shutdown");
        handle.join();
    }
}
