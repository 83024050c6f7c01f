//! `qplbench` — the repository benchmark.
//!
//! ```text
//! qplbench --workload rows-gds|lattice-division|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it drives the shipped binaries (`qpl-decompose`,
//! `qpl-serve`, found next to this executable) on seeded inputs for `S`
//! seconds and prints the end-to-end metrics; with `--trace 1` it decomposes
//! the same inputs in-process with a span around every layer call and
//! prints the per-layer metrics.  Every output is checked against the
//! benchmark's own recount.  The last stdout line is the JSON result.
//! Working files live under `.bench_work/` and are removed at exit; spans
//! are written to `.bench_trace/`.

mod files;
mod gen;
mod recount;
mod report;
mod serve;
mod trace;

use mpl_core::{ColorAlgorithm, MemoCache, ThreadPoolExecutor};
use report::{median, Report};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::{Driver, Input, Pass, Source, Tracer};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    RowsGds,
    LatticeDivision,
    ServeMixed,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::RowsGds => "rows-gds",
            Workload::LatticeDivision => "lattice-division",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: qplbench --workload rows-gds|lattice-division|serve-mixed \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "rows-gds" => Workload::RowsGds,
                    "lattice-division" => Workload::LatticeDivision,
                    "serve-mixed" => Workload::ServeMixed,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let mut report = Report::new(args.workload.name());
    let outcome = std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work, &mut report));
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(()) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("qplbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The shipped binary `name`, built next to this executable.
fn binary(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let path = exe.with_file_name(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!("{} is not built", path.display()))
    }
}

fn run(args: &Args, work: &Path, report: &mut Report) -> Result<(), String> {
    match args.workload {
        Workload::ServeMixed if args.trace => traced_serve(args, work, report),
        Workload::ServeMixed => {
            let server = binary("qpl-serve")?;
            serve::run(report, &server, work, args.seed, args.seconds)?;
            guard_across_runs(args, report, &server)
        }
        workload => {
            // rows-gds runs the CLI defaults (sdp-backtrack); lattices need
            // the linear engine (sdp-backtrack takes about a minute on a
            // 40×40 lattice and leaves thousands of conflicts).
            let (generate, algorithm): (fn(u64) -> Vec<mpl_layout::Layout>, _) =
                if workload == Workload::RowsGds {
                    (gen::row_chips, ColorAlgorithm::SdpBacktrack)
                } else {
                    (gen::lattices, ColorAlgorithm::Linear)
                };
            let (cases, setup_s) = files::setup(work, || generate(args.seed))?;
            if args.trace {
                traced_files(args, report, &cases, algorithm)
            } else {
                let extra: &[&str] = match algorithm {
                    ColorAlgorithm::Linear => &["--algorithm", "linear"],
                    _ => &[],
                };
                let cli = binary("qpl-decompose")?;
                files::run(report, &cli, &cases, extra, args.seconds, setup_s)?;
                guard_across_runs(args, report, &cli)
            }
        }
    }
}

/// Flags a run whose quality figures differ from an earlier run of the
/// same workload, seed and `program` build in this checkout.
fn guard_across_runs(args: &Args, report: &mut Report, program: &Path) -> Result<(), String> {
    use std::hash::{Hash, Hasher};
    let bytes = std::fs::read(program).map_err(|e| format!("{}: {e}", program.display()))?;
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut hasher);
    let key = format!(
        "{} seed={} build={:016x}",
        args.workload.name(),
        args.seed,
        hasher.finish()
    );
    report::guard_across_runs(report, &key, &trace_dir()?.join("quality.tsv"))
}

/// `.bench_trace`, where spans and the cross-run guard's record live.
fn trace_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_trace");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn spans_path(args: &Args) -> Result<PathBuf, String> {
    Ok(trace_dir()?.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed)))
}

/// One untraced and one traced pass over `inputs`, folded into a [`Pass`].
/// `fresh_cache_per_input` mirrors one CLI process per file; otherwise one
/// cache serves the whole pass.
fn paired_pass(
    report: &mut Report,
    tracer: &mut Tracer,
    inputs: &[Input],
    pool: &ThreadPoolExecutor,
    fresh_cache_per_input: bool,
) -> Result<(Pass, Vec<trace::Outcome>), String> {
    let mut pass = Pass::default();
    let fresh = || Arc::new(MemoCache::new(MemoCache::DEFAULT_CAPACITY));
    let mut cache = fresh();
    let mut programs = Vec::with_capacity(inputs.len());
    for input in inputs {
        if fresh_cache_per_input {
            cache = fresh();
        }
        let (outcome, wall) = trace::untraced(input, &cache, pool)?;
        pass.untraced_wall += wall;
        trace::absorb_program(&mut pass, &outcome);
        programs.push(outcome);
    }
    let mut cache = fresh();
    let mut seen = HashSet::new();
    let root = tracer.begin("pass");
    let mut shapes = Vec::with_capacity(inputs.len());
    for (index, (input, program)) in inputs.iter().zip(&programs).enumerate() {
        if fresh_cache_per_input {
            cache = fresh();
            seen.clear();
        }
        tracer.request = index as u64;
        shapes.push(trace::traced(
            tracer, &mut pass, input, program, &mut seen, &cache, pool,
        )?);
    }
    tracer.end(root);
    pass.absorb(tracer, root..tracer.spans.len());
    for ((graph, shape), program) in shapes.iter().zip(&programs) {
        trace::check(report, graph, shape, program);
    }
    Ok((pass, programs))
}

/// Repeats paired passes until `seconds` have passed (at least one),
/// flagging any pass whose program figures differ from the first.
fn repeat_passes(
    report: &mut Report,
    tracer: &mut Tracer,
    inputs: &[Input],
    fresh_cache_per_input: bool,
    seconds: f64,
) -> Result<Vec<Pass>, String> {
    let pool = ThreadPoolExecutor::new(trace::THREADS).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut first: Option<Vec<(usize, usize, f64)>> = None;
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (pass, programs) = paired_pass(report, tracer, inputs, &pool, fresh_cache_per_input)?;
        let figures: Vec<(usize, usize, f64)> = programs
            .iter()
            .map(|p| (p.result.conflicts(), p.result.stitches(), p.result.cost()))
            .collect();
        match &first {
            None => first = Some(figures),
            Some(expected) if *expected != figures => report.guards.push(format!(
                "pass {} figures differ from the first pass",
                passes.len()
            )),
            Some(_) => {}
        }
        passes.push(pass);
    }
    Ok(passes)
}

fn traced_files(
    args: &Args,
    report: &mut Report,
    cases: &[files::Case],
    algorithm: ColorAlgorithm,
) -> Result<(), String> {
    let inputs: Vec<Input> = cases
        .iter()
        .map(|case| Input {
            source: Source::GdsFile(case.input.clone()),
            algorithm,
            driver: Driver::Plain,
            masks: Some(case.output.clone()),
        })
        .collect();
    let mut tracer = Tracer::new(Instant::now());
    let passes = repeat_passes(report, &mut tracer, &inputs, true, args.seconds)?;
    trace::finish(
        report,
        &passes,
        &BTreeMap::new(),
        &tracer,
        &spans_path(args)?,
    )
}

/// The traced serve-mixed run: half the time on client-side spans against
/// a warm `qpl-serve`, half on in-process passes over the request pool
/// (one fresh memo cache per pass, i.e. the server's first sight of the
/// mix).
fn traced_serve(args: &Args, work: &Path, report: &mut Report) -> Result<(), String> {
    use mpl_serve::{decode_response, encode_frame, encode_request, Json, LayoutSource};
    let warm = serve::setup(&binary("qpl-serve")?, work, args.seed)?;
    let mut tracer = Tracer::new(Instant::now());
    let (records, conns, _) = serve::drive(&warm, args.seed, args.seconds / 2.0, true)?;
    let mut extra = BTreeMap::new();
    let mut queued_ms = Vec::new();
    let mut result_ms = Vec::new();
    let mut codec = 0.0;
    for (index, record) in records.iter().enumerate() {
        let exchange = &record.exchange;
        tracer.request = index as u64;
        let root = tracer.add(
            "serve.request",
            exchange.sent,
            exchange.sent + exchange.total,
            None,
        );
        let queued = exchange.sent + exchange.queued;
        tracer.add("serve.queued", exchange.sent, queued, Some(root));
        tracer.add(
            "serve.result",
            queued,
            exchange.sent + exchange.total,
            Some(root),
        );
        queued_ms.push(exchange.queued.as_secs_f64() * 1e3);
        result_ms.push((exchange.total - exchange.queued).as_secs_f64() * 1e3);
        let request = serve::request_for(&warm.pool[record.item], format!("codec-{index}"));
        let start = Instant::now();
        std::hint::black_box(encode_frame(&encode_request(&request)));
        codec += start.elapsed().as_secs_f64();
    }
    serve::check_records(report, &warm, &records);
    let frames: Vec<&String> = conns
        .iter()
        .flat_map(|c| c.frames.iter().flatten())
        .collect();
    let start = Instant::now();
    for frame in &frames {
        let json = Json::parse(frame).map_err(|e| e.to_string())?;
        std::hint::black_box(decode_response(&json).map_err(|e| e.to_string())?);
    }
    codec += start.elapsed().as_secs_f64();
    let n = records.len().max(1) as f64;
    extra.insert("serve.queued_ms", median(&queued_ms));
    extra.insert("serve.result_ms", median(&result_ms));
    extra.insert(
        "serve.request_bytes",
        conns.iter().map(|c| c.sent_bytes).sum::<usize>() as f64 / n,
    );
    extra.insert(
        "serve.result_bytes",
        conns.iter().map(|c| c.received_bytes).sum::<usize>() as f64 / n,
    );
    extra.insert("serve.codec_s", codec / n);
    extra.insert(
        "serve.dropped_progress",
        serve::dropped_progress(&warm.server.addr)? as f64,
    );
    let inputs: Vec<Input> = warm
        .pool
        .iter()
        .map(|item| {
            let source = match &item.source {
                LayoutSource::GdsBase64(text) => mpl_serve::base64::decode(text)
                    .map(Source::GdsBytes)
                    .map_err(|e| e.to_string()),
                LayoutSource::Text(text) => Ok(Source::Text(text.clone())),
                LayoutSource::Path(_) => Err("pool entries are never paths".to_string()),
            }?;
            let driver = match (item.tile_size, item.hier) {
                (Some(size), _) => Driver::Tiled(size),
                (None, true) => Driver::Hier,
                (None, false) => Driver::Plain,
            };
            Ok(Input {
                source,
                algorithm: item.algorithm,
                driver,
                masks: None,
            })
        })
        .collect::<Result<_, String>>()?;
    let passes = repeat_passes(report, &mut tracer, &inputs, false, args.seconds / 2.0)?;
    // Local and served colorings of the same request must be bit-identical.
    let pool = ThreadPoolExecutor::new(trace::THREADS).map_err(|e| e.to_string())?;
    let cache = Arc::new(MemoCache::new(MemoCache::DEFAULT_CAPACITY));
    for (input, served) in inputs.iter().zip(&warm.reference) {
        let (local, _) = trace::untraced(input, &cache, &pool)?;
        if local.result.colors() != served.colors.as_slice() {
            report.guards.push(format!(
                "{}: local and served colorings differ",
                served.layout
            ));
        }
    }
    warm.server.shutdown()?;
    trace::finish(report, &passes, &extra, &tracer, &spans_path(args)?)
}
