//! Property-based tests of the iterated simplification pipeline
//! (simplify → kernel-color → reinsert), checked against the hide-only
//! path (`iterated_simplify` off: hide to a fixed point once, cut no
//! bridge) on random layouts:
//!
//! 1. **Spacing consistency** — the simplified coloring answers to the
//!    same geometric checker as any other: every spacing violation is a
//!    counted conflict, and greedy reinsertion never hides one.
//! 2. **No palette waste** — the simplified path never uses more distinct
//!    colors than the hide-only path on the same layout, for every
//!    engine and both pool sizes.
//! 3. **Trivial fixed point identity** — when simplification finds
//!    nothing to hide and nothing to cut, the coloring is bit-identical
//!    to the hide-only run (which hides nothing either, so both color the
//!    whole component the same way).

use mpl_core::{
    verify_spacing, ColorAlgorithm, Decomposer, DecomposerConfig, DecompositionResult,
    DecompositionSession, DivisionConfig, ThreadPoolExecutor,
};
use mpl_geometry::Nm;
use mpl_layout::{Layout, Technology};
use proptest::prelude::*;

/// Grid features (contact or short wire) on a 40×60 nm step — the same
/// generator the tile and memo properties use, dense enough that
/// neighbouring features conflict and simplification finds work.
fn layout_from(features: &[(i64, i64, bool)], name: &str) -> Layout {
    let mut builder = Layout::builder(name);
    for &(gx, gy, is_wire) in features {
        let x = Nm(gx * 40);
        let y = Nm(gy * 60);
        if is_wire {
            builder.add_rect(mpl_geometry::Rect::new(x, y, x + Nm(140), y + Nm(20)));
        } else {
            builder.add_contact(x, y, Nm(20));
        }
    }
    builder.build()
}

fn arb_features() -> impl Strategy<Value = Vec<(i64, i64, bool)>> {
    prop::collection::vec((0i64..14, 0i64..6, prop::bool::weighted(0.25)), 1..32)
}

const ENGINES: [ColorAlgorithm; 4] = [
    ColorAlgorithm::Ilp,
    ColorAlgorithm::SdpBacktrack,
    ColorAlgorithm::SdpGreedy,
    ColorAlgorithm::Linear,
];

/// Runs `layout` with or without iterated simplification and returns the
/// result plus the spacing-violation count of its coloring under the
/// independent geometric checker.
fn outcome(
    layout: &Layout,
    algorithm: ColorAlgorithm,
    executor: &ThreadPoolExecutor,
    simplify: bool,
) -> (DecompositionResult, usize) {
    let division = DivisionConfig {
        iterated_simplify: simplify,
        ..DivisionConfig::default()
    };
    let config = DecomposerConfig::quadruple(Technology::nm20())
        .with_algorithm(algorithm)
        .with_division(division);
    let decomposer = Decomposer::new(config);
    let mut session = DecompositionSession::new();
    let id = session
        .submit_layout(&decomposer, layout)
        .expect("valid config");
    let results = session.run(executor);
    let plan = session.plan(id).expect("plan retained");
    let (_, result) = results.into_iter().next().expect("one layout");
    let violations = verify_spacing(
        plan.graph(),
        result.colors(),
        Technology::nm20().coloring_distance(4),
    )
    .len();
    (result, violations)
}

fn distinct_colors(colors: &[u8]) -> usize {
    let mut seen = [false; 256];
    for &color in colors {
        seen[color as usize] = true;
    }
    seen.iter().filter(|&&used| used).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn simplified_colorings_match_the_one_shot_path(features in arb_features()) {
        let layout = layout_from(&features, "simplify-prop");
        let pool = ThreadPoolExecutor::new(2).expect("two threads");
        for algorithm in ENGINES {
            let executors: [&ThreadPoolExecutor; 2] = [&ThreadPoolExecutor::default(), &pool];
            for executor in executors {
                let (simplified, violations) = outcome(&layout, algorithm, executor, true);
                let (hide_only, _) = outcome(&layout, algorithm, executor, false);

                // Spacing-clean: reinsertion can never hide a violation
                // from the geometric checker.
                prop_assert_eq!(
                    violations,
                    simplified.conflicts(),
                    "algorithm {:?}: simplified coloring has {} spacing violations but reports {} conflicts",
                    algorithm, violations, simplified.conflicts()
                );
                prop_assert!(simplified.colors().iter().all(|&c| (c as usize) < 4));

                // The kernel pipeline never wastes palette: reinsertion
                // always has a free color (< K constrained neighbours),
                // so it cannot be forced past what the hide-only path used.
                prop_assert!(
                    distinct_colors(simplified.colors())
                        <= distinct_colors(hide_only.colors()),
                    "algorithm {:?}: simplified run used {} distinct colors, hide-only used {}",
                    algorithm,
                    distinct_colors(simplified.colors()),
                    distinct_colors(hide_only.colors())
                );

                // A trivial fixed point (nothing hidden, nothing cut —
                // observable as zero simplify rounds) colors exactly as
                // the hide-only run, bit for bit.
                if simplified.counters().simplify_rounds == 0 {
                    prop_assert_eq!(
                        simplified.colors(),
                        hide_only.colors(),
                        "algorithm {:?}: trivial simplification changed the coloring",
                        algorithm
                    );
                }
            }
        }
    }
}
