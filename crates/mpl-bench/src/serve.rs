//! Client-driven throughput benchmarking of a running `qpl-serve`.
//!
//! [`run_batch_bench`](crate::batch::run_batch_bench) measures the batch
//! engine in-process; this module measures the *service* the way a client
//! fleet sees it — open one connection, stream every layout as a `submit`
//! request, and wait for all results — so the wire protocol, the scheduler
//! coalescing and the socket round trips are all inside the measured
//! window.  [`ServeBenchReport::to_json`] renders the machine-readable
//! `mpl-bench/serve-v3` schema (requests/sec and client-observed latency
//! percentiles alongside the per-request rows, each the record its
//! `result` frame carried) for `BENCH_*.json` archiving, like the batch
//! schema.
//!
//! [`run_serve_bench`] needs a server that is already listening (start one
//! with `qpl-serve`, or in-process via `mpl_serve::Server::spawn`).

use crate::workload::TimedLayout;
use mpl_core::{ColorAlgorithm, Json};
use mpl_layout::io;
use mpl_serve::{Client, LayoutSource, Request, Response, ResultPayload, SubmitRequest};
use std::time::Instant;

/// One request's row of a serve benchmark run: the record the server
/// returned plus the client-observed timings.
#[derive(Debug, Clone)]
pub struct ServeRequestStats {
    /// The path the layout was loaded from (empty for generated layouts).
    pub path: String,
    /// The record of the request's `result` frame, as received (its
    /// `deadline_exceeded` marks a partial result).
    pub record: ResultPayload,
    /// Client-observed seconds from the first submit until this row's
    /// terminal frame arrived.
    pub terminal_seconds: f64,
    /// Client-observed seconds from this row's own submit being sent until
    /// its terminal frame arrived.
    pub latency_seconds: f64,
}

/// The result of one serve benchmark: per-request rows plus aggregate
/// client-observed throughput.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// The server address the requests were sent to.
    pub addr: String,
    /// Mask count K.
    pub k: usize,
    /// The color-assignment engine requested for every submission.
    pub algorithm: String,
    /// The soft deadline (milliseconds) carried on every submission, when
    /// one was requested.
    pub deadline_ms: Option<u64>,
    /// Wall-clock seconds from the first submit until the last result,
    /// as observed by the client.
    pub wall_seconds: f64,
    /// Per-request rows, in submission order.
    pub requests: Vec<ServeRequestStats>,
}

impl ServeBenchReport {
    /// Requests completed per second of client-observed wall time.
    pub fn requests_per_sec(&self) -> f64 {
        self.requests.len() as f64 / self.wall_seconds.max(1e-12)
    }

    /// Total components colored across all requests.
    pub fn component_count(&self) -> usize {
        self.requests.iter().map(|row| row.record.components).sum()
    }

    /// Components colored per second of client-observed wall time.
    pub fn components_per_sec(&self) -> f64 {
        self.component_count() as f64 / self.wall_seconds.max(1e-12)
    }

    /// Requests whose deadline expired (their rows are partial results).
    pub fn deadline_miss_count(&self) -> usize {
        self.requests
            .iter()
            .filter(|row| row.record.deadline_exceeded)
            .count()
    }

    /// Worst client-observed overrun: how long after the soft deadline a
    /// deadline-missing row's partial result arrived, in seconds.  An
    /// upper bound on the server's cancellation latency (it includes queue
    /// wait and socket time); 0 when nothing missed.
    pub fn max_deadline_overrun_seconds(&self) -> f64 {
        let Some(deadline_ms) = self.deadline_ms else {
            return 0.0;
        };
        let deadline_seconds = deadline_ms as f64 / 1e3;
        self.requests
            .iter()
            .filter(|row| row.record.deadline_exceeded)
            .map(|row| (row.terminal_seconds - deadline_seconds).max(0.0))
            .fold(0.0, f64::max)
    }

    /// The client-observed latency (`latency_seconds`) that `percent` % of
    /// the requests do not exceed, by the nearest-rank rule; 0 without
    /// requests.
    pub fn latency_percentile_seconds(&self, percent: usize) -> f64 {
        let mut latencies: Vec<f64> = self
            .requests
            .iter()
            .map(|row| row.latency_seconds)
            .collect();
        latencies.sort_by(f64::total_cmp);
        nearest_rank(&latencies, percent)
    }

    /// The machine-readable report (schema `mpl-bench/serve-v3`); `{:#}`
    /// renders the `BENCH_*.json` document layout.  Each request row is
    /// `path`, the received record ([`ResultPayload::fields`], which names
    /// the pool that colored it under `executor`), `terminal_seconds` and
    /// `latency_seconds`.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("schema", "mpl-bench/serve-v3".into()),
            ("addr", self.addr.as_str().into()),
            ("k", self.k.into()),
            ("algorithm", self.algorithm.as_str().into()),
        ];
        if let Some(deadline_ms) = self.deadline_ms {
            pairs.push(("deadline_ms", deadline_ms.into()));
        }
        let latency = |percent| Json::from(self.latency_percentile_seconds(percent));
        let batch = Json::object(vec![
            ("requests", self.requests.len().into()),
            ("components", self.component_count().into()),
            ("wall_seconds", self.wall_seconds.into()),
            ("requests_per_sec", self.requests_per_sec().into()),
            ("components_per_sec", self.components_per_sec().into()),
            ("deadline_misses", self.deadline_miss_count().into()),
            (
                "max_deadline_overrun_seconds",
                self.max_deadline_overrun_seconds().into(),
            ),
            ("latency_p50_seconds", latency(50)),
            ("latency_p90_seconds", latency(90)),
            ("latency_p99_seconds", latency(99)),
        ]);
        let rows = self
            .requests
            .iter()
            .map(|row| {
                let mut pairs = vec![("path", row.path.as_str().into())];
                pairs.extend(row.record.fields());
                pairs.push(("terminal_seconds", row.terminal_seconds.into()));
                pairs.push(("latency_seconds", row.latency_seconds.into()));
                Json::object(pairs)
            })
            .collect();
        pairs.push(("batch", batch));
        pairs.push(("requests", Json::Array(rows)));
        Json::object(pairs)
    }
}

/// The nearest-rank percentile of ascending `sorted`: the value at rank
/// ⌈`percent` · n / 100⌉ (1-based, at least 1); 0 for an empty slice.
fn nearest_rank(sorted: &[f64], percent: usize) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[(percent * n).div_ceil(100).clamp(1, n) - 1],
    }
}

/// Streams `layouts` to the server at `addr` as one wave of `submit`
/// requests and waits for every result.
///
/// The bench pipelines the whole wave: every submit is sent before any
/// result is read, so each row's `latency_seconds` (its submit sent → its
/// terminal frame received) includes queueing behind the earlier submits,
/// not only its own service time.
///
/// With `deadline_ms` every submission carries that soft deadline;
/// deadline-missing requests come back as flagged partial-result rows and
/// feed the report's deadline-miss and overrun columns.
///
/// # Errors
///
/// A human-readable message on connection failures, protocol violations,
/// any in-band error response, or a `cancelled` terminal frame (this
/// bench never cancels, so one means outside interference).
pub fn run_serve_bench(
    addr: &str,
    layouts: &[TimedLayout],
    k: usize,
    algorithm: ColorAlgorithm,
    deadline_ms: Option<u64>,
) -> Result<ServeBenchReport, String> {
    let mut client =
        Client::connect(addr).map_err(|error| format!("cannot connect to {addr}: {error}"))?;
    let bench_start = Instant::now();
    let mut sent = Vec::with_capacity(layouts.len());
    for (index, timed) in layouts.iter().enumerate() {
        let mut submit = SubmitRequest::new(
            index.to_string(),
            LayoutSource::Text(io::to_text(&timed.layout)),
        );
        submit.k = k;
        submit.algorithm = algorithm;
        submit.deadline_ms = deadline_ms;
        sent.push(Instant::now());
        client
            .send(&Request::Submit(submit))
            .map_err(|error| format!("cannot send to {addr}: {error}"))?;
    }

    let mut rows: Vec<Option<ServeRequestStats>> = layouts.iter().map(|_| None).collect();
    let mut remaining = layouts.len();
    while remaining > 0 {
        match client.recv().map_err(|error| error.to_string())? {
            Response::Result(payload) => {
                let index: usize = payload
                    .id
                    .parse()
                    .ok()
                    .filter(|&index| index < rows.len())
                    .ok_or_else(|| format!("unexpected result id {:?}", payload.id))?;
                if rows[index].is_some() {
                    return Err(format!("duplicate result for id {:?}", payload.id));
                }
                rows[index] = Some(ServeRequestStats {
                    path: layouts[index].path.clone(),
                    record: payload,
                    terminal_seconds: bench_start.elapsed().as_secs_f64(),
                    latency_seconds: sent[index].elapsed().as_secs_f64(),
                });
                remaining -= 1;
            }
            Response::Cancelled { id, .. } => {
                return Err(format!(
                    "request {id:?} was cancelled mid-bench (another client interfered?)"
                ));
            }
            Response::Error { id, code, message } => {
                return Err(format!(
                    "server rejected {}: {} error: {message}",
                    id.as_deref().unwrap_or("<untagged>"),
                    code.as_str()
                ));
            }
            _ => {} // queued frames
        }
    }
    let wall_seconds = bench_start.elapsed().as_secs_f64();
    Ok(ServeBenchReport {
        addr: addr.to_string(),
        k,
        algorithm: algorithm.name().to_string(),
        deadline_ms,
        wall_seconds,
        requests: rows
            .into_iter()
            .map(|row| row.expect("all results collected"))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_layout::{gen, Technology};
    use mpl_serve::{Server, ServerConfig};

    fn timed(name: &str, seed: u64) -> TimedLayout {
        TimedLayout {
            path: format!("<generated {name}>"),
            layout: gen::generate_row_layout(
                &gen::RowLayoutConfig::small(name, seed),
                &Technology::nm20(),
            ),
            hierarchy: None,
            parse_seconds: 0.0,
        }
    }

    #[test]
    fn serve_bench_measures_a_live_server_and_matches_direct_results() {
        let handle = Server::spawn(&ServerConfig::default()).expect("bind ephemeral port");
        let layouts = [timed("sb-a", 3), timed("sb-b", 7)];
        let report = run_serve_bench(
            &handle.addr().to_string(),
            &layouts,
            4,
            ColorAlgorithm::Linear,
            None,
        )
        .expect("bench succeeds");
        assert_eq!(report.requests.len(), 2);
        assert_eq!(report.k, 4);
        assert_eq!(report.algorithm, "Linear");
        assert!(report.wall_seconds > 0.0);
        assert!(report.requests_per_sec() > 0.0);
        assert!(report.components_per_sec() >= report.requests_per_sec());
        assert_eq!(report.deadline_miss_count(), 0);
        assert_eq!(report.max_deadline_overrun_seconds(), 0.0);
        let (p50, p90, p99) = (
            report.latency_percentile_seconds(50),
            report.latency_percentile_seconds(90),
            report.latency_percentile_seconds(99),
        );
        assert!(p50 > 0.0 && p50 <= p90 && p90 <= p99 && p99 <= report.wall_seconds);
        for row in &report.requests {
            assert!(row.latency_seconds > 0.0 && row.latency_seconds <= row.terminal_seconds);
        }

        // The served numbers agree with the in-process batch flow.  The
        // server colors with a shared memo cache, and memoized colorings
        // are a pure function of each component's canonical signature, so
        // a fresh local cache reproduces the served numbers.
        for (row, timed) in report.requests.iter().zip(&layouts) {
            let decomposer =
                mpl_core::Decomposer::new(crate::table_config(4, ColorAlgorithm::Linear));
            let mut session = mpl_core::DecompositionSession::new()
                .with_memo(std::sync::Arc::new(mpl_core::MemoCache::new(1024)));
            session
                .submit_layout(&decomposer, &timed.layout)
                .expect("valid config");
            let direct = &session.run(&mpl_core::ThreadPoolExecutor::default())[0].1;
            assert_eq!(row.record.conflicts, direct.conflicts());
            assert_eq!(row.record.stitches, direct.stitches());
            assert_eq!(row.record.vertices, direct.vertex_count());
            assert_eq!(row.record.conflict_edges, direct.conflict_edge_count());
        }

        let json = format!("{:#}", report.to_json());
        assert!(json.contains("\"schema\": \"mpl-bench/serve-v3\""));
        // Only the rows name the pool: the report has no top-level key.
        assert_eq!(json.matches("\"executor\"").count(), report.requests.len());
        assert!(json.contains("\"requests_per_sec\""));
        for key in [
            "latency_p50_seconds",
            "latency_p90_seconds",
            "latency_p99_seconds",
        ] {
            assert_eq!(json.matches(&format!("\"{key}\"")).count(), 1, "{key}");
        }
        assert_eq!(
            json.matches("\"latency_seconds\"").count(),
            report.requests.len()
        );
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
        handle.shutdown().expect("clean shutdown");
    }

    #[test]
    fn latency_percentiles_use_the_nearest_rank() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        for (percent, expected) in [
            (0, 1.0),
            (10, 1.0),
            (11, 2.0),
            (50, 5.0),
            (90, 9.0),
            (91, 10.0),
            (99, 10.0),
            (100, 10.0),
        ] {
            assert_eq!(nearest_rank(&sorted, percent), expected, "p{percent}");
        }
        assert_eq!(nearest_rank(&[0.25], 99), 0.25);
        assert_eq!(nearest_rank(&[], 50), 0.0);
    }

    #[test]
    fn serve_bench_surfaces_in_band_errors() {
        let handle = Server::spawn(&ServerConfig::default()).expect("bind ephemeral port");
        let layouts = [timed("sb-bad", 3)];
        let error = run_serve_bench(
            &handle.addr().to_string(),
            &layouts,
            0, // invalid mask count → typed config error frame
            ColorAlgorithm::Linear,
            None,
        )
        .expect_err("K=0 must fail");
        assert!(error.contains("config error"), "{error}");
        assert!(error.contains("mask count"), "{error}");
        handle.shutdown().expect("clean shutdown");
    }

    #[test]
    fn an_already_expired_deadline_yields_flagged_partial_rows() {
        let handle = Server::spawn(&ServerConfig::default()).expect("bind ephemeral port");
        let layouts = [timed("sb-dl", 11)];
        let report = run_serve_bench(
            &handle.addr().to_string(),
            &layouts,
            4,
            ColorAlgorithm::Linear,
            Some(0), // expired on acceptance: every component is skipped
        )
        .expect("partial results are still results");
        assert_eq!(report.deadline_ms, Some(0));
        assert_eq!(report.deadline_miss_count(), 1);
        let row = &report.requests[0].record;
        assert!(row.deadline_exceeded);
        assert_eq!(row.components_skipped, row.components);
        assert!(row.components >= 1);

        let json = format!("{:#}", report.to_json());
        assert!(json.contains("\"deadline_ms\": 0"));
        assert!(json.contains("\"deadline_misses\": 1"));
        assert!(json.contains("\"deadline_exceeded\": true"));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
        handle.shutdown().expect("clean shutdown");
    }
}
