//! Golden-file tests pinning the `qpl-decompose --json` output schemas.
//!
//! The single-layout and batch JSON shapes are consumed by scripts, CI
//! checks and now the wire protocol's siblings — they must not drift
//! silently.  Each test runs the real binary on committed fixture layouts
//! and compares the parsed output against a committed golden document
//! after **float normalisation**: every timing/throughput field (keys
//! ending in `seconds` or `_per_sec`) is zeroed on both sides, everything
//! else — including key order, which the parser preserves — must match
//! exactly.
//!
//! To regenerate after an *intentional* schema change:
//!
//! ```text
//! cargo run --bin qpl-decompose -- --layout tests/fixtures/golden_a.txt \
//!     --algorithm linear --verify --json > tests/golden/single_layout.json
//! cargo run --bin qpl-decompose -- tests/fixtures/golden_a.txt \
//!     tests/fixtures/golden_b.txt --algorithm linear --verify --json \
//!     > tests/golden/batch.json
//! cargo run --bin qpl-decompose -- --layout tests/fixtures/golden_c.txt \
//!     --algorithm linear --verify --tile-size 500 --json \
//!     > tests/golden/single_layout_tiled.json
//! cargo run --bin qpl-decompose -- --layout tests/fixtures/hier_array.gds \
//!     --algorithm linear --verify --hier --json \
//!     > tests/golden/single_layout_hier.json
//! ```
//!
//! `hier_array.gds` is a committed 522-byte GDSII stream: a `BIT` cell of
//! four 20 nm contacts plus a merge tab, stamped by a 4×3 `AREF` at the
//! 120 × 100 nm `Merged` pitch of `mpl_hier::fixtures` (tabs fuse each
//! cell's bottom row into the next column, so the whole array is one
//! conflict component that only provenance splitting can decompose).

use mpl_serve::Json;
use std::path::Path;
use std::process::{Command, Stdio};

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

/// Zeroes every timing/throughput number so wall-clock noise cannot fail
/// the comparison; everything structural stays.
fn normalize(value: &mut Json) {
    match value {
        Json::Array(items) => items.iter_mut().for_each(normalize),
        Json::Object(pairs) => {
            for (key, child) in pairs {
                if key.ends_with("seconds") || key.ends_with("_per_sec") {
                    if let Json::Number(number) = child {
                        *number = 0.0;
                    }
                }
                normalize(child);
            }
        }
        _ => {}
    }
}

fn run_cli(args: &[&str]) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_qpl-decompose"))
        .args(args)
        .output()
        .expect("run qpl-decompose");
    assert!(
        output.status.success(),
        "qpl-decompose failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("JSON output is UTF-8");
    Json::parse(&stdout).expect("stdout is one valid JSON document")
}

fn golden(name: &str) -> Json {
    let path = fixture(&format!("golden/{name}"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|error| panic!("cannot read golden file {path}: {error}"));
    Json::parse(&text).expect("golden file is valid JSON")
}

fn assert_matches_golden(mut actual: Json, golden_name: &str) {
    let mut expected = golden(golden_name);
    normalize(&mut actual);
    normalize(&mut expected);
    assert_eq!(
        actual, expected,
        "`qpl-decompose --json` drifted from tests/golden/{golden_name} \
         (after float normalisation).\n  actual: {actual}\nexpected: {expected}\n\
         If the schema change is intentional, regenerate the golden file \
         (see this test file's module docs)."
    );
}

#[test]
fn single_layout_json_schema_matches_the_golden_file() {
    let actual = run_cli(&[
        "--layout",
        &fixture("fixtures/golden_a.txt"),
        "--algorithm",
        "linear",
        "--verify",
        "--json",
    ]);
    // Spot-check the deterministic load-bearing fields before the full
    // structural comparison, so failures name the likely culprit.
    assert_eq!(
        actual.get("layout").and_then(Json::as_str),
        Some("golden-a")
    );
    assert_eq!(actual.get("conflicts").and_then(Json::as_usize), Some(0));
    assert_eq!(
        actual.get("spacing_violations").and_then(Json::as_usize),
        Some(0)
    );
    assert_matches_golden(actual, "single_layout.json");
}

#[test]
fn batch_json_schema_matches_the_golden_file() {
    let actual = run_cli(&[
        &fixture("fixtures/golden_a.txt"),
        &fixture("fixtures/golden_b.txt"),
        "--algorithm",
        "linear",
        "--verify",
        "--json",
    ]);
    let layouts = actual
        .get("layouts")
        .and_then(Json::as_array)
        .expect("batch JSON has a layouts array");
    assert_eq!(layouts.len(), 2);
    // golden-b embeds a five-clique: quadruple patterning must report
    // exactly one conflict, and verification must agree.
    assert_eq!(
        layouts[1].get("conflicts").and_then(Json::as_usize),
        Some(1)
    );
    assert_eq!(
        layouts[1]
            .get("spacing_violations")
            .and_then(Json::as_usize),
        Some(1)
    );
    assert_matches_golden(actual, "batch.json");
}

#[test]
fn tiled_single_layout_json_schema_matches_the_golden_file() {
    // golden-c is a 30-contact chain at 70 nm pitch: one spanning
    // component that a 500 nm tile window must shard into five tiles.
    // The `tiles` object is additive — it only appears with --tile-size —
    // and the untiled goldens above pin its absence.
    let actual = run_cli(&[
        "--layout",
        &fixture("fixtures/golden_c.txt"),
        "--algorithm",
        "linear",
        "--verify",
        "--tile-size",
        "500",
        "--json",
    ]);
    let tiles = actual
        .get("tiles")
        .expect("tiled runs report a tiles object");
    assert_eq!(tiles.get("tiles").and_then(Json::as_usize), Some(5));
    assert_eq!(
        tiles.get("tiled_components").and_then(Json::as_usize),
        Some(1)
    );
    assert_eq!(
        tiles.get("cross_conflicts_after").and_then(Json::as_usize),
        Some(0)
    );
    assert_eq!(
        actual.get("spacing_violations").and_then(Json::as_usize),
        actual.get("conflicts").and_then(Json::as_usize)
    );
    assert_matches_golden(actual, "single_layout_tiled.json");
}

#[test]
fn hier_single_layout_json_schema_matches_the_golden_file() {
    // hier_array.gds is a 4×3 merged SRAM-like array: one spanning
    // conflict component whose provenance tags split it into 12 instance
    // pieces plus the merge-tab boundary residual.  The `hierarchy`
    // object is additive — it only appears with --hier — and the flat
    // goldens above pin its absence.
    let actual = run_cli(&[
        "--layout",
        &fixture("fixtures/hier_array.gds"),
        "--algorithm",
        "linear",
        "--verify",
        "--hier",
        "--json",
    ]);
    let hierarchy = actual
        .get("hierarchy")
        .expect("hier runs report a hierarchy object");
    assert_eq!(
        hierarchy.get("instances").and_then(Json::as_usize),
        Some(12)
    );
    assert_eq!(hierarchy.get("cells").and_then(Json::as_usize), Some(1));
    assert_eq!(
        hierarchy.get("instance_pieces").and_then(Json::as_usize),
        Some(12)
    );
    assert_eq!(
        hierarchy
            .get("cross_conflicts_after")
            .and_then(Json::as_usize),
        Some(0)
    );
    // The reconciled hierarchical coloring must be spacing-clean and its
    // conflict count must agree with the untiled verifier.
    assert_eq!(actual.get("conflicts").and_then(Json::as_usize), Some(0));
    assert_eq!(
        actual.get("spacing_violations").and_then(Json::as_usize),
        actual.get("conflicts").and_then(Json::as_usize)
    );
    assert_matches_golden(actual, "single_layout_hier.json");
}

#[test]
fn no_memo_runs_omit_every_memo_field() {
    let actual = run_cli(&[
        "--layout",
        &fixture("fixtures/golden_a.txt"),
        "--algorithm",
        "linear",
        "--no-memo",
        "--json",
    ]);
    assert!(actual.get("memo_hits").is_none());
    assert!(actual.get("memo_misses").is_none());
    assert!(actual.get("memo_cache").is_none());
    assert_eq!(actual.get("conflicts").and_then(Json::as_usize), Some(0));
}

#[test]
fn contradictory_request_flags_are_rejected_with_typed_errors() {
    let run_failing = |args: &[&str]| -> String {
        let output = Command::new(env!("CARGO_BIN_EXE_qpl-decompose"))
            .args(args)
            .output()
            .expect("run qpl-decompose");
        assert!(!output.status.success(), "expected failure for {args:?}");
        String::from_utf8_lossy(&output.stderr).into_owned()
    };
    let layout = fixture("fixtures/golden_a.txt");
    for (extra, needle) in [
        (
            &["--halo", "50"][..],
            "--halo requires tiling to be enabled (--tile-size)",
        ),
        (
            &["--tile-size", "0"][..],
            "tile size must be a positive distance in nm, got 0",
        ),
        (
            &["--tile-size", "300", "--halo", "300"][..],
            "tile halo 300 nm must be smaller than the tile size 300 nm",
        ),
        (
            &["--hier", "--tile-size", "1500"][..],
            "hierarchical decomposition (--hier) cannot be combined with tiling",
        ),
    ] {
        let mut args = vec!["--layout", layout.as_str()];
        args.extend_from_slice(extra);
        let stderr = run_failing(&args);
        assert!(stderr.contains(needle), "{extra:?}: {stderr}");
    }
    // `--gds` checks the stream's header before converting anything.
    let stderr = run_failing(&["--gds", &layout]);
    assert!(
        stderr.contains("is not a GDSII stream (missing HEADER record)"),
        "{stderr}"
    );
}

#[test]
fn single_and_batch_schemas_stay_consistent_per_layout() {
    // The per-layout objects of the batch schema must carry exactly the
    // same keys as the single-layout schema — consumers share one reader.
    let single = run_cli(&[
        "--layout",
        &fixture("fixtures/golden_a.txt"),
        "--algorithm",
        "linear",
        "--verify",
        "--json",
    ]);
    let batch = run_cli(&[
        &fixture("fixtures/golden_a.txt"),
        &fixture("fixtures/golden_b.txt"),
        "--algorithm",
        "linear",
        "--verify",
        "--json",
    ]);
    let keys = |value: &Json| -> Vec<String> {
        match value {
            Json::Object(pairs) => pairs.iter().map(|(key, _)| key.clone()).collect(),
            _ => panic!("expected an object"),
        }
    };
    let batch_layouts = batch
        .get("layouts")
        .and_then(Json::as_array)
        .expect("layouts");
    assert_eq!(keys(&single), keys(&batch_layouts[0]));
    assert_eq!(keys(&single), keys(&batch_layouts[1]));
    assert_eq!(
        keys(&batch),
        vec!["batch".to_string(), "layouts".to_string()]
    );
}

#[test]
fn a_closed_stdout_is_a_write_error_not_a_panic() {
    // The read end of stdout closes before the binary writes anything, so
    // its first summary line meets a broken pipe: the human summary must
    // stop with one message and exit 1, as the JSON summary does.
    for (format, message) in [
        (None, "cannot write the summary: "),
        (Some("--json"), "cannot write the JSON summary: "),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_qpl-decompose"))
            .args(["--layout", &fixture("fixtures/golden_a.txt")])
            .args(["--algorithm", "linear"])
            .args(format)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("run qpl-decompose");
        drop(child.stdout.take());
        let output = child.wait_with_output().expect("wait for qpl-decompose");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{format:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{format:?}: {stderr}");
        assert_eq!(stderr.matches(message).count(), 1, "{format:?}: {stderr}");
    }
}
