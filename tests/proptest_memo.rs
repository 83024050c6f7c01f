//! Property-based tests of the memoization subsystem's two core
//! guarantees:
//!
//! 1. **Translation invariance** — the canonical signature of a component
//!    depends only on its shape relative to its own bounding box, so any
//!    translated copy of a layout produces the identical signature list.
//! 2. **Determinism** — a coloring stamped from a warm cache is
//!    bit-identical to the coloring a cold (fresh) cache produces for the
//!    same layout, for every engine and both pool sizes.  This is the
//!    property that makes the cache safe to share across batches,
//!    sessions, and serve connections.
//!
//! It also checks the flat, hash-once signatures against an oracle: the
//! per-vertex canonicalization they replaced, kept here as test-only code.

use mpl_core::{
    component_signatures, ColorAlgorithm, Decomposer, DecomposerConfig, DecompositionSession,
    MemoCache, Signature, ThreadPoolExecutor,
};
use mpl_geometry::Nm;
use mpl_layout::{Layout, Technology};
use mpl_memo::{canonicalize, CanonicalComponent, ComponentView, RectNm};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// Grid features (contact or short wire) rendered at an arbitrary origin.
/// Generating the *same* features at two origins yields exact translates.
fn layout_at(features: &[(i64, i64, bool)], origin: (i64, i64), name: &str) -> Layout {
    let mut builder = Layout::builder(name);
    for &(gx, gy, is_wire) in features {
        let x = Nm(origin.0 + gx * 40);
        let y = Nm(origin.1 + gy * 60);
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

/// Runs `layout` through a memoized session and returns the coloring.
fn memoized_colors(
    layout: &Layout,
    algorithm: ColorAlgorithm,
    executor: &ThreadPoolExecutor,
    cache: Arc<MemoCache>,
) -> Vec<u8> {
    let config = DecomposerConfig::quadruple(Technology::nm20()).with_algorithm(algorithm);
    let decomposer = Decomposer::new(config);
    let mut session = DecompositionSession::new().with_memo(cache);
    session
        .submit_layout(&decomposer, layout)
        .expect("valid config");
    let results = session.run(executor);
    results
        .into_iter()
        .next()
        .expect("one layout")
        .1
        .colors()
        .to_vec()
}

/// One component in per-vertex form: each live vertex's rectangles, and
/// the conflict, stitch and color-friendly edge lists over live ids.
#[derive(Debug, Clone)]
struct Component {
    geometry: Vec<Vec<RectNm>>,
    edges: [Vec<(usize, usize)>; 3],
}

impl Component {
    /// Canonicalizes through `mpl_memo`'s flat view.
    fn canonical(&self) -> CanonicalComponent {
        let mut rects = Vec::new();
        let ends: Vec<usize> = self
            .geometry
            .iter()
            .map(|vertex| {
                rects.extend_from_slice(vertex);
                rects.len()
            })
            .collect();
        canonicalize(&ComponentView {
            fingerprint: "oracle",
            k: 4,
            alpha: 0.1,
            rects: &rects,
            ends: &ends,
            conflict_edges: &self.edges[0],
            stitch_edges: &self.edges[1],
            friendly_pairs: &self.edges[2],
        })
    }

    /// The same component moved by `(dx, dy)`, with live vertex `v`
    /// renamed `order[v]`.
    fn moved(&self, dx: i64, dy: i64, order: &[usize]) -> Component {
        let mut geometry = vec![Vec::new(); self.geometry.len()];
        for (live, rects) in self.geometry.iter().enumerate() {
            geometry[order[live]] = rects
                .iter()
                .map(|&(xlo, ylo, xhi, yhi)| (xlo + dx, ylo + dy, xhi + dx, yhi + dy))
                .collect();
        }
        let edges = self.edges.clone().map(|list| {
            list.into_iter()
                .map(|(u, v)| (order[u], order[v]))
                .collect()
        });
        Component { geometry, edges }
    }
}

/// The signature of the per-vertex canonicalization the flat one
/// replaced.  The fingerprint, K and α are the same for every generated
/// component, so only the geometry and the edges are kept.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ReferenceSignature {
    geometry: Vec<Vec<RectNm>>,
    edges: [Vec<(u32, u32)>; 3],
}

/// The per-vertex canonicalization: normalize every vertex's rectangle
/// list to the bounding-box origin, sort the vertices by those lists (ties
/// by live id), relabel the edges.  Returns the signature and `perm`.
fn reference_canonicalize(component: &Component) -> (ReferenceSignature, Vec<usize>) {
    let geometry = &component.geometry;
    let n = geometry.len();
    let mut origin_x = i64::MAX;
    let mut origin_y = i64::MAX;
    for rects in geometry {
        for &(xlo, ylo, _, _) in rects {
            origin_x = origin_x.min(xlo);
            origin_y = origin_y.min(ylo);
        }
    }
    if n == 0 || origin_x == i64::MAX {
        (origin_x, origin_y) = (0, 0);
    }
    let normalized: Vec<Vec<RectNm>> = geometry
        .iter()
        .map(|rects| {
            rects
                .iter()
                .map(|&(xlo, ylo, xhi, yhi)| {
                    (
                        xlo - origin_x,
                        ylo - origin_y,
                        xhi - origin_x,
                        yhi - origin_y,
                    )
                })
                .collect()
        })
        .collect();
    let mut perm: Vec<usize> = (0..n).collect();
    perm.sort_by(|&a, &b| normalized[a].cmp(&normalized[b]).then(a.cmp(&b)));
    let mut canonical_of = vec![0u32; n];
    for (position, &live) in perm.iter().enumerate() {
        canonical_of[live] = position as u32;
    }
    let relabel = |edges: &Vec<(usize, usize)>| -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = edges
            .iter()
            .map(|&(u, v)| {
                let (cu, cv) = (canonical_of[u], canonical_of[v]);
                (cu.min(cv), cu.max(cv))
            })
            .collect();
        out.sort_unstable();
        out
    };
    let signature = ReferenceSignature {
        geometry: perm.iter().map(|&live| normalized[live].clone()).collect(),
        edges: component.edges.each_ref().map(relabel),
    };
    (signature, perm)
}

/// A rectangle on a 10 nm grid of 4 × 4 origins and 2 × 2 sizes: few
/// enough that vertices often coincide or share a first rectangle.
fn arb_rect() -> impl Strategy<Value = RectNm> {
    (0i64..4, 0i64..4, 1i64..3, 1i64..3)
        .prop_map(|(x, y, w, h)| (10 * x, 10 * y, 10 * (x + w), 10 * (y + h)))
}

/// Components of 1–9 vertices with 0–3 rectangles each, one vertex's
/// rectangles copied onto another (so the live-id tie-break decides), and
/// up to 15 random edges per list.
fn arb_component() -> impl Strategy<Value = Component> {
    (1usize..10).prop_flat_map(|n| {
        let edges = || prop::collection::vec((0..n, 0..n), 0..16);
        (
            prop::collection::vec(prop::collection::vec(arb_rect(), 0..4), n),
            (0..n, 0..n),
            edges(),
            edges(),
            edges(),
        )
            .prop_map(|(mut geometry, (from, to), conflict, stitch, friendly)| {
                geometry[to] = geometry[from].clone();
                Component {
                    geometry,
                    edges: [conflict, stitch, friendly],
                }
            })
    })
}

/// A component and a variant of it: a moved and relabeled copy (equal to
/// it), that copy with one coordinate nudged or one conflict edge dropped
/// (usually not equal), or an unrelated component.
fn arb_pair() -> impl Strategy<Value = (Component, Component)> {
    (
        arb_component(),
        arb_component(),
        0usize..4,
        (-1_000i64..1_000, -1_000i64..1_000),
        prop::collection::vec(0u64..1_000, 9),
    )
        .prop_map(|(base, unrelated, variant, (dx, dy), keys)| {
            let n = base.geometry.len();
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&v| (keys[v], v));
            let mut copy = base.moved(dx, dy, &order);
            let target = keys[0] as usize % n;
            match variant {
                0 => {}
                1 => {
                    if let Some(rect) = copy.geometry[target].first_mut() {
                        rect.2 += 1;
                    }
                }
                2 => {
                    copy.edges[0].pop();
                }
                _ => copy = unrelated,
            }
            (base, copy)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn flat_canonicalization_matches_the_per_vertex_reference(
        component in arb_component(),
    ) {
        let flat = component.canonical();
        let (reference, perm) = reference_canonicalize(&component);
        prop_assert_eq!(&flat.perm, &perm);
        prop_assert_eq!(flat.signature.vertex_count(), component.geometry.len());
        prop_assert_eq!(flat.signature.conflict_edges(), &reference.edges[0][..]);
        prop_assert_eq!(flat.signature.stitch_edges(), &reference.edges[1][..]);
        prop_assert_eq!(flat.signature.friendly_pairs(), &reference.edges[2][..]);
    }

    #[test]
    fn flat_signatures_are_equal_exactly_when_the_reference_ones_are(
        pair in arb_pair(),
        shift in (-5_000i64..5_000, -5_000i64..5_000),
    ) {
        let (a, b) = pair;
        let (dx, dy) = shift;
        let identity = |component: &Component| (0..component.geometry.len()).collect::<Vec<_>>();
        let components = [
            a.moved(dx, dy, &identity(&a)),
            b.moved(dy, dx, &identity(&b)),
            a,
            b,
        ];
        let flat: Vec<Signature> = components
            .iter()
            .map(|component| component.canonical().signature)
            .collect();
        let reference: Vec<ReferenceSignature> = components
            .iter()
            .map(|component| reference_canonicalize(component).0)
            .collect();
        for i in 0..components.len() {
            for j in 0..components.len() {
                prop_assert_eq!(flat[i] == flat[j], reference[i] == reference[j], "{} vs {}", i, j);
            }
        }
        // Translated copies collapse, so four signatures make at most two
        // entries, and exactly as many as the reference makes.
        let flat_entries: HashSet<Signature> = flat.into_iter().collect();
        let reference_entries: HashSet<ReferenceSignature> = reference.into_iter().collect();
        prop_assert!(flat_entries.len() <= 2);
        prop_assert_eq!(flat_entries.len(), reference_entries.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn translated_copies_share_every_component_signature(
        features in arb_features(),
        dx in -3i64..=3,
        dy in -3i64..=3,
    ) {
        let base = layout_at(&features, (0, 0), "memo-base");
        let moved = layout_at(&features, (dx * 1_000, dy * 1_000), "memo-moved");
        let config = DecomposerConfig::quadruple(Technology::nm20())
            .with_algorithm(ColorAlgorithm::Linear);
        let decomposer = Decomposer::new(config);
        let base_plan = decomposer.plan(&base).expect("valid config");
        let moved_plan = decomposer.plan(&moved).expect("valid config");
        prop_assert_eq!(
            component_signatures(&base_plan),
            component_signatures(&moved_plan)
        );
    }

    #[test]
    fn warm_stamps_are_bit_identical_to_cold_colorings_for_every_engine(
        features in arb_features(),
    ) {
        let layout = layout_at(&features, (0, 0), "memo-roundtrip");
        let pool = ThreadPoolExecutor::new(2).expect("two threads");
        for algorithm in [
            ColorAlgorithm::Ilp,
            ColorAlgorithm::SdpBacktrack,
            ColorAlgorithm::SdpGreedy,
            ColorAlgorithm::Linear,
        ] {
            let executors: [&ThreadPoolExecutor; 2] = [&ThreadPoolExecutor::default(), &pool];
            for executor in executors {
                // Cold: a fresh cache colors every component and fills
                // itself.  Warm: the same cache serves every component by
                // stamping.  The colorings must agree bit for bit.
                let cache = Arc::new(MemoCache::new(1024));
                let cold = memoized_colors(&layout, algorithm, executor, Arc::clone(&cache));
                let before = cache.stats();
                let warm = memoized_colors(&layout, algorithm, executor, Arc::clone(&cache));
                let after = cache.stats();
                prop_assert_eq!(&cold, &warm, "algorithm {:?} diverged", algorithm);
                // The warm run was served entirely from the cache: the
                // miss counter did not move.
                prop_assert_eq!(after.misses, before.misses);
                prop_assert!(after.hits > before.hits || layout.is_empty());
            }
        }
    }
}
