//! Run outcome bookkeeping and the result line.

use std::path::Path;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (operations, passes or distinct inputs).
    pub samples: usize,
}

/// Attempted and failed operations of one run.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons, for the human-readable output.
    pub reasons: Vec<String>,
}

impl Ledger {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.reasons.len() < 10 {
                self.reasons.push(reason);
            }
        }
    }

    /// Failed ÷ attempted operations (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Everything one run prints.
pub struct Report {
    pub workload: &'static str,
    pub ledger: Ledger,
    /// Determinism-guard violations: figures that must repeat exactly and
    /// did not.
    pub guards: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (the traced run's per-layer table).
    pub lines: Vec<String>,
    /// The run's summed quality figures, for the cross-run guard.
    pub quality: Option<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Report {
            workload,
            ledger: Ledger::default(),
            guards: Vec::new(),
            metrics: Vec::new(),
            lines: Vec::new(),
            quality: None,
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// A metric printed for people but left out of the result line.
    pub fn table_line(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.lines.push(format!(
            "{} {name:<28} {value:>16} {unit:<6} n={samples} (table only)",
            self.workload
        ));
    }

    pub fn correct(&self) -> bool {
        self.ledger.failed == 0
            && self.guards.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints the human-readable lines, then the one-line JSON result last.
    pub fn print(&self) {
        for line in &self.lines {
            println!("{line}");
        }
        for m in &self.metrics {
            println!(
                "{} {:<28} {:>16} {:<6} n={}",
                self.workload, m.name, m.value, m.unit, m.samples
            );
        }
        println!(
            "{} {:<28} {:>16} {:<6} n={}",
            self.workload,
            "failed_ratio",
            self.ledger.failed_ratio(),
            "ratio",
            self.ledger.attempted
        );
        for reason in &self.ledger.reasons {
            println!("{} failed: {reason}", self.workload);
        }
        for guard in &self.guards {
            println!("{} determinism guard: {guard}", self.workload);
        }
        println!("{}", self.json());
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.ledger.attempted.max(1),
            self.ledger.failed,
            metrics.join(", ")
        )
    }
}

/// The cross-run determinism guard: records the run's quality figures
/// under `key` (workload, seed and a hash of the program binary) in
/// `record`, and flags the run when an earlier run under the same key
/// recorded different figures.
pub fn guard_across_runs(report: &mut Report, key: &str, record: &Path) -> Result<(), String> {
    let Some(figures) = report.quality.clone() else {
        return Ok(());
    };
    let known = std::fs::read_to_string(record).unwrap_or_default();
    match known
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix('\t'))
    {
        Some(earlier) if earlier != figures => report.guards.push(format!(
            "{key}: {figures} differs from an earlier run's {earlier}"
        )),
        Some(_) => {}
        None => {
            let line = format!("{key}\t{figures}\n");
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(record)
                .and_then(|mut file| std::io::Write::write_all(&mut file, line.as_bytes()))
                .map_err(|e| format!("cannot record {}: {e}", record.display()))?;
        }
    }
    Ok(())
}

/// The `q`-quantile of `values` with linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let position = q * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size, in MiB, of the largest child process this
/// benchmark has started and waited for.  Linux also folds the spawning
/// process's own peak into each child's figure, so it is the programs'
/// peak only while the benchmark's stays below it.
#[cfg(target_os = "linux")]
pub fn children_peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `struct timeval`s (2 × 16 bytes)
    // followed by fourteen `long`s, the first of which is `ru_maxrss` in KiB.
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a live, writable buffer of 144 bytes, the size of
    // `struct rusage` on 64-bit Linux, and getrusage writes nothing else.
    let status = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if status == 0 {
        usage[4] as f64 / 1024.0
    } else {
        f64::NAN
    }
}

#[cfg(not(target_os = "linux"))]
pub fn children_peak_rss_mb() -> f64 {
    f64::NAN
}
