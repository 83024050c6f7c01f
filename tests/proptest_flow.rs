//! Property-based integration tests over randomly generated layouts and
//! component problems.

use mpl_core::{
    coloring_cost, ColorAlgorithm, ComponentProblem, Decomposer, DecomposerConfig,
    DecompositionGraph,
};
use mpl_geometry::Nm;
use mpl_layout::{Layout, Technology};
use proptest::prelude::*;
use std::time::Duration;

/// A random contact-and-wire layout on a coarse grid; sparse enough that
/// every engine finishes instantly, dense enough to exercise conflicts and
/// stitch candidates.
fn arb_layout() -> impl Strategy<Value = Layout> {
    prop::collection::vec((0i64..16, 0i64..6, prop::bool::weighted(0.25)), 1..40).prop_map(
        |features| {
            let mut builder = Layout::builder("proptest");
            for (gx, gy, is_wire) in features {
                let x = Nm(gx * 40);
                let y = Nm(gy * 60);
                if is_wire {
                    builder.add_rect(mpl_geometry::Rect::new(x, y, x + Nm(140), y + Nm(20)));
                } else {
                    builder.add_contact(x, y, Nm(20));
                }
            }
            builder.build()
        },
    )
}

fn arb_component(max_n: usize) -> impl Strategy<Value = ComponentProblem> {
    (3..=max_n).prop_flat_map(|n| {
        let pairs = n * (n - 1) / 2;
        (prop::collection::vec(0u8..10, pairs), 2usize..=5).prop_map(move |(kinds, k_offset)| {
            let k = 2 + k_offset % 4;
            let mut problem = ComponentProblem::new(n, k, 0.1);
            let mut index = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    match kinds[index] {
                        0..=3 => problem.add_conflict(i, j),
                        4 => problem.add_stitch(i, j),
                        _ => {}
                    }
                    index += 1;
                }
            }
            problem
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn decomposer_output_is_always_a_valid_coloring(layout in arb_layout()) {
        let tech = Technology::nm20();
        let config = DecomposerConfig::quadruple(tech)
            .with_algorithm(ColorAlgorithm::Linear);
        let result = Decomposer::new(config.clone()).decompose(&layout).expect("valid config");
        prop_assert!(result.colors().iter().all(|&c| (c as usize) < 4));
        // Reported statistics must match an independent recomputation.
        let graph = DecompositionGraph::build(&layout, &tech, 4, &config.stitch);
        prop_assert_eq!(graph.vertex_count(), result.colors().len());
        let cost = coloring_cost(&graph, result.colors(), config.alpha);
        prop_assert_eq!(cost.conflicts, result.conflicts());
        prop_assert_eq!(cost.stitches, result.stitches());
    }

    #[test]
    fn peeling_plus_exact_kernel_coloring_matches_the_global_optimum(problem in arb_component(9)) {
        // Low-degree peeling is cost-preserving for conflicts: coloring the
        // kernel optimally and popping the peeled vertices back (each gets a
        // conflict-free color by construction) reaches exactly the global
        // optimal conflict count.
        let exact = mpl_ilp::solve_exact(
            problem.vertex_count(),
            problem.k(),
            problem.alpha(),
            problem.conflict_edges(),
            problem.stitch_edges(),
            &mpl_ilp::ExactOptions {
                time_limit: Some(Duration::from_secs(5)),
                ..Default::default()
            },
        );
        // The decomposition-style solve: peel, color the kernel exactly, pop.
        use mpl_core::assign::{ColorAssigner, ExactAssigner};
        use mpl_core::division::peel_low_degree;
        let peeling = peel_low_degree(&problem);
        let assigner = ExactAssigner::new(Duration::from_secs(5));
        let mut colors = vec![u8::MAX; problem.vertex_count()];
        if !peeling.kernel.is_empty() {
            let (sub, original) = problem.induced(&peeling.kernel);
            let sub_colors = assigner.assign(&sub);
            for (local, &global) in original.iter().enumerate() {
                colors[global] = sub_colors[local];
            }
        }
        // Pop the stack greedily.
        let mut conflict_adj = vec![Vec::new(); problem.vertex_count()];
        for &(u, v) in problem.conflict_edges() {
            conflict_adj[u].push(v);
            conflict_adj[v].push(u);
        }
        for &v in peeling.stack.iter().rev() {
            let mut penalty = vec![0usize; problem.k()];
            for &u in &conflict_adj[v] {
                if colors[u] != u8::MAX {
                    penalty[colors[u] as usize] += 1;
                }
            }
            let best = penalty
                .iter()
                .enumerate()
                .min_by_key(|&(_, p)| *p)
                .map(|(c, _)| c as u8)
                .unwrap_or(0);
            colors[v] = best;
        }
        for c in colors.iter_mut() {
            if *c == u8::MAX {
                *c = 0;
            }
        }
        let (conflicts, _, _) = problem.evaluate(&colors);
        // The kernel optimum is at most the global optimum (induced
        // subgraph), and popping never adds a conflict, so the two conflict
        // counts must agree exactly.  Stitches may differ.
        prop_assert_eq!(conflicts, exact.conflicts);
    }

    #[test]
    fn engines_never_report_fewer_conflicts_than_the_exact_optimum(problem in arb_component(8)) {
        use mpl_core::assign::{ColorAssigner, ExactAssigner, LinearAssigner, SdpGreedyAssigner};
        let exact_colors = ExactAssigner::new(Duration::from_secs(5)).assign(&problem);
        let (exact_conflicts, _, _) = problem.evaluate(&exact_colors);
        for colors in [
            LinearAssigner::new().assign(&problem),
            SdpGreedyAssigner::new().assign(&problem),
        ] {
            let (conflicts, _, _) = problem.evaluate(&colors);
            prop_assert!(conflicts >= exact_conflicts);
        }
    }
}
