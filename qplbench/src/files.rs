//! The file workloads (rows-gds, lattice-division): one `qpl-decompose`
//! process per GDS file, each producing `--json` plus `--output-gds` masks.

use crate::recount::{self, Quality};
use crate::report::{children_peak_rss_mb, median, quantile, Report};
use mpl_gds::{LayerMap, ReadOptions};
use mpl_layout::Layout;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.  A file set-up
/// takes milliseconds, and file-system jitter needs several to even out.
const SETUP_REPEATS: usize = 9;

/// The calibration kernel's time on the reference host, in seconds.
const REFERENCE_KERNEL_S: f64 = 0.025;

/// Host-speed calibration for the file workloads' timings.
///
/// The shared host this benchmark was tuned on changes speed by up to 1.7×
/// over minutes, for every process at once, which spreads a CPU-bound
/// run's wall times far beyond any usable bound.  Filling and sorting a
/// fixed pseudo-random key array (standard-library code that no repository
/// change touches) slows in step, so each file-workload timing is
/// multiplied by `REFERENCE_KERNEL_S` ÷ the kernel's time measured just
/// before it: seconds on a host where the kernel takes 25 ms.
///
/// `keys` is one 2 MiB array reused for every call: Linux folds a
/// process's peak RSS into the `ru_maxrss` of every child it spawns, so the
/// benchmark keeps its own peak below the programs' (`peak_rss_mb`).
pub fn host_scale(keys: &mut [u64]) -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..4 {
        for key in keys.iter_mut() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *key = x;
        }
        keys.sort_unstable();
    }
    std::hint::black_box(&keys);
    REFERENCE_KERNEL_S / start.elapsed().as_secs_f64()
}

/// The array [`host_scale`] works on.
pub fn calibration_keys() -> Vec<u64> {
    vec![0; 1 << 18]
}

/// One generated input file.
pub struct Case {
    pub input: PathBuf,
    /// Where the first pass writes its colored export (kept for the recount).
    pub output: PathBuf,
    /// Where later passes write theirs (compared byte for byte).
    pub repeat: PathBuf,
}

/// Generates the layouts with `generate` and writes them as GDS files into
/// `work`, [`SETUP_REPEATS`] times; returns the cases and the median
/// set-up seconds, scaled by [`host_scale`].
pub fn setup(work: &Path, generate: impl Fn() -> Vec<Layout>) -> Result<(Vec<Case>, f64), String> {
    let mut times = Vec::new();
    let mut cases = Vec::new();
    let mut keys = calibration_keys();
    for _ in 0..SETUP_REPEATS {
        let scale = host_scale(&mut keys);
        let start = Instant::now();
        cases.clear();
        for (index, layout) in generate().iter().enumerate() {
            let input = work.join(format!("in-{index}.gds"));
            mpl_gds::write_layout_file(path_str(&input)?, layout, 1, 0)
                .map_err(|e| format!("cannot write {}: {e}", input.display()))?;
            cases.push(Case {
                input,
                output: work.join(format!("out-{index}.gds")),
                repeat: work.join(format!("repeat-{index}.gds")),
            });
        }
        times.push(start.elapsed().as_secs_f64() * scale);
    }
    Ok((cases, median(&times)))
}

pub fn path_str(path: &Path) -> Result<&str, String> {
    path.to_str()
        .ok_or_else(|| format!("{} is not UTF-8", path.display()))
}

/// The figures `qpl-decompose --json` reports for one layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Reported {
    pub vertices: usize,
    pub conflict_edges: usize,
    pub stitch_edges: usize,
    pub components: usize,
    pub quality: Quality,
}

fn parse_reported(stdout: &[u8]) -> Result<Reported, String> {
    let text = std::str::from_utf8(stdout).map_err(|_| "stdout is not UTF-8".to_string())?;
    let json = mpl_serve::Json::parse(text).map_err(|e| e.to_string())?;
    let field = |key: &str| {
        json.get(key)
            .and_then(|value| value.as_f64())
            .ok_or_else(|| format!("--json output lacks {key:?}"))
    };
    Ok(Reported {
        vertices: field("vertices")? as usize,
        conflict_edges: field("conflict_edges")? as usize,
        stitch_edges: field("stitch_edges")? as usize,
        components: field("components")? as usize,
        quality: Quality {
            conflicts: field("conflicts")? as usize,
            stitches: field("stitches")? as usize,
            cost: field("cost")?,
        },
    })
}

/// Runs one `qpl-decompose` process; returns its wall time and figures.
fn decompose(
    binary: &Path,
    case: &Case,
    output: &Path,
    extra: &[&str],
) -> (Duration, Result<Reported, String>) {
    let start = Instant::now();
    let run = Command::new(binary)
        .arg("--gds")
        .arg(&case.input)
        .args(["--json", "--threads", "2", "--output-gds"])
        .arg(output)
        .args(extra)
        .output();
    let elapsed = start.elapsed();
    let outcome = match run {
        Err(error) => Err(format!("cannot start {}: {error}", binary.display())),
        Ok(run) if !run.status.success() => Err(format!(
            "{} exited with {}: {}",
            binary.display(),
            run.status,
            String::from_utf8_lossy(&run.stderr).trim()
        )),
        Ok(run) => parse_reported(&run.stdout),
    };
    (elapsed, outcome)
}

/// Checks the first pass's export of every case against the benchmark's
/// own recount over a graph built from the re-read input.
fn recount_case(case: &Case, reported: &Reported) -> Result<(), String> {
    let layout = mpl_gds::load_layout_file(
        path_str(&case.input)?,
        &LayerMap::all(),
        &ReadOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    let graph = recount::graph_of(&layout);
    let counts = (
        graph.vertex_count(),
        graph.conflict_edges().len(),
        graph.stitch_edges().len(),
    );
    let claimed = (
        reported.vertices,
        reported.conflict_edges,
        reported.stitch_edges,
    );
    if counts != claimed {
        return Err(format!(
            "reported (vertices, conflict edges, stitch edges) {claimed:?}, rebuilt {counts:?}"
        ));
    }
    let bytes = std::fs::read(&case.output).map_err(|e| e.to_string())?;
    let colors = recount::colors_from_masks(&graph, &bytes)?;
    recount::check(&graph, &colors, &reported.quality)
}

/// One `qpl-decompose` process of the timed passes.
struct ProcessRun {
    case: usize,
    /// Wall seconds, spawn to exit.
    wall: f64,
    /// The [`host_scale`] measured just before the process.
    scale: f64,
    outcome: Result<(), String>,
}

/// Decomposes every case in passes until `seconds` have elapsed (at least
/// one pass), then recounts, and reports the end-to-end metrics.
pub fn run(
    report: &mut Report,
    binary: &Path,
    cases: &[Case],
    extra: &[&str],
    seconds: f64,
    setup_s: f64,
) -> Result<(), String> {
    let mut reference: Vec<Option<Reported>> = vec![None; cases.len()];
    let mut runs: Vec<ProcessRun> = Vec::new();
    let mut keys = calibration_keys();
    let start = Instant::now();
    let mut first = true;
    while first || start.elapsed().as_secs_f64() < seconds {
        for (index, case) in cases.iter().enumerate() {
            let output = if first { &case.output } else { &case.repeat };
            let scale = host_scale(&mut keys);
            let (wall, outcome) = decompose(binary, case, output, extra);
            let outcome = outcome.and_then(|figures| match &reference[index] {
                None => {
                    reference[index] = Some(figures);
                    Ok(())
                }
                Some(expected) => repeat_guard(expected, &figures, case)
                    .inspect_err(|reason| report.guards.push(reason.clone())),
            });
            runs.push(ProcessRun {
                case: index,
                wall: wall.as_secs_f64(),
                scale,
                outcome,
            });
        }
        first = false;
    }
    // The recount happens once per case, after the timed passes: every
    // later pass was checked byte for byte against the recounted export.
    for (index, case) in cases.iter().enumerate() {
        let verdict = match &reference[index] {
            Some(figures) => recount_case(case, figures),
            None => Err("no successful run".to_string()),
        };
        if let Err(reason) = verdict {
            for run in runs
                .iter_mut()
                .filter(|r| r.case == index && r.outcome.is_ok())
            {
                run.outcome = Err(format!("{}: {reason}", case.input.display()));
            }
        }
    }
    // Repeats of one file re-measure the same latency, so each file's
    // latency is the median of its repeats and the percentiles and rates
    // are taken over the distinct files.
    let per_file = |wall: fn(&ProcessRun) -> f64| -> Vec<f64> {
        (0..cases.len())
            .map(|index| {
                let walls: Vec<f64> = runs.iter().filter(|r| r.case == index).map(wall).collect();
                median(&walls)
            })
            .collect()
    };
    let scaled = per_file(|r| r.wall * r.scale);
    let raw = per_file(|r| r.wall);
    let pass_vertices: usize = reference.iter().flatten().map(|r| r.vertices).sum();
    let quality: Vec<Quality> = reference.iter().flatten().map(|r| r.quality).collect();
    let n = runs.len();
    for run in runs {
        report.ledger.record(run.outcome);
    }
    report.metric("setup_s", setup_s, "s", SETUP_REPEATS);
    for (walls, prefix) in [(&scaled, ""), (&raw, "unscaled ")] {
        let pass_seconds: f64 = walls.iter().sum();
        let latencies_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
        let figures = [
            ("vertices_per_s", pass_vertices as f64 / pass_seconds, "1/s"),
            ("requests_per_s", cases.len() as f64 / pass_seconds, "1/s"),
            ("latency_p50_ms", median(&latencies_ms), "ms"),
            ("latency_p99_ms", quantile(&latencies_ms, 0.99), "ms"),
        ];
        for (name, value, unit) in figures {
            if prefix.is_empty() {
                report.metric(name, value, unit, n);
            } else {
                report.table_line(&format!("{prefix}{name}"), value, unit, n);
            }
        }
    }
    push_quality(report, &quality);
    report.metric("peak_rss_mb", children_peak_rss_mb(), "MiB", n);
    Ok(())
}

/// Sums conflicts, stitches and cost over the workload's distinct inputs.
/// Stitches stay out of the result line: contact lattices have none, and
/// a metric that reads 0 has no relative spread; `cost` carries them.
pub fn push_quality(report: &mut Report, quality: &[Quality]) {
    let n = quality.len();
    let conflicts: usize = quality.iter().map(|q| q.conflicts).sum();
    let stitches: usize = quality.iter().map(|q| q.stitches).sum();
    let cost: f64 = quality.iter().map(|q| q.cost).sum();
    report.quality = Some(format!(
        "conflicts={conflicts} stitches={stitches} cost={cost}"
    ));
    report.metric("conflicts", conflicts as f64, "count", n);
    report.table_line("stitches", stitches as f64, "count", n);
    report.metric("cost", cost, "count", n);
}

/// A later pass must reproduce the first pass's figures and export exactly.
fn repeat_guard(expected: &Reported, figures: &Reported, case: &Case) -> Result<(), String> {
    if figures != expected {
        return Err(format!(
            "nondeterministic figures for {}: {figures:?} after {expected:?}",
            case.input.display()
        ));
    }
    let first = std::fs::read(&case.output).map_err(|e| e.to_string())?;
    let again = std::fs::read(&case.repeat).map_err(|e| e.to_string())?;
    if first != again {
        return Err(format!(
            "nondeterministic export for {}",
            case.input.display()
        ));
    }
    Ok(())
}
