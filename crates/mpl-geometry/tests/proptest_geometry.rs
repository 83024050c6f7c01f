//! Property-based tests for the geometry substrate.

use mpl_geometry::{GridIndex, Interval, Nm, Point, Polygon, QueryStamps, Rect};
use proptest::prelude::*;

fn arb_rect() -> impl Strategy<Value = Rect> {
    (-500i64..500, -500i64..500, 1i64..200, 1i64..200)
        .prop_map(|(x, y, w, h)| Rect::new(Nm(x), Nm(y), Nm(x + w), Nm(y + h)))
}

/// A rectangle up to 200 nm a side, anywhere within 10¹² nm of the origin.
fn arb_far_rect() -> impl Strategy<Value = Rect> {
    const FAR: i64 = 1_000_000_000_000;
    (-FAR..FAR, -FAR..FAR, 1i64..200, 1i64..200)
        .prop_map(|(x, y, w, h)| Rect::new(Nm(x), Nm(y), Nm(x + w), Nm(y + h)))
}

/// Mostly `arb_rect`, one time in eight an [`arb_far_rect`] and one time in
/// eight a wire up to 5·10⁸ nm long, which mostly needs more slots than the
/// index's cap allows at the cell sizes the tests request.
fn arb_rect_or_far() -> impl Strategy<Value = Rect> {
    const WIRE: i64 = 1_000_000_000;
    let wire = (-WIRE..WIRE, -WIRE..WIRE, 1i64..WIRE / 2, 1i64..200)
        .prop_map(|(x, y, w, h)| Rect::new(Nm(x), Nm(y), Nm(x + w), Nm(y + h)));
    (0u8..8, arb_rect(), arb_far_rect(), wire).prop_map(|(pick, near, far, wire)| match pick {
        0 => far,
        1 => wire,
        _ => near,
    })
}

/// Mostly `arb_rect`, one time in eight an [`arb_far_rect`]: at cells of
/// 64 nm or more each covers at most 5×5 cells, so 40 of them stay under
/// the index's cap and it keeps the requested cell size.
fn arb_rect_or_far_small() -> impl Strategy<Value = Rect> {
    (0u8..8, arb_rect(), arb_far_rect())
        .prop_map(|(pick, near, far)| if pick == 0 { far } else { near })
}

/// Entries with ids drawn from a small range, so most ids repeat.
fn arb_entries(rect: impl Strategy<Value = Rect>) -> impl Strategy<Value = Vec<(usize, Rect)>> {
    prop::collection::vec((0usize..12, rect), 1..40)
}

/// The `GridIndex::for_each_within` order, by brute force: the cells of
/// side `cell` that the query window covers, x outer and y inner; within a
/// cell the entries covering it in entry order; each id that `keep`
/// accepts at its first match, with the squared distance to that entry.
fn reference_scan(
    cell: i64,
    entries: &[(usize, Rect)],
    query: &Rect,
    limit: Nm,
    keep: impl Fn(usize) -> bool,
) -> Vec<(usize, i64)> {
    let span = |r: &Rect| {
        let c = |v: Nm| v.value().div_euclid(cell);
        (c(r.xlo())..=c(r.xhi()), c(r.ylo())..=c(r.yhi()))
    };
    let (xs, ys) = span(&query.expanded(limit));
    let mut result: Vec<(usize, i64)> = Vec::new();
    for cx in xs {
        for cy in ys.clone() {
            for (id, rect) in entries {
                let (ex, ey) = span(rect);
                if ex.contains(&cx)
                    && ey.contains(&cy)
                    && keep(*id)
                    && !result.iter().any(|(seen, _)| seen == id)
                    && query.within_distance(rect, limit)
                {
                    result.push((*id, query.distance_squared(rect)));
                }
            }
        }
    }
    result
}

/// The representation `Polygon` had when every rectangle list was a plain
/// vector: its derived `Hash` and `Debug` are what `Polygon`'s must still
/// produce, whether the list is held inline or in a vector.
mod reference {
    #[derive(Debug, Hash)]
    pub struct Polygon {
        pub rects: Vec<mpl_geometry::Rect>,
    }
}

fn hash_of(value: &impl std::hash::Hash) -> u64 {
    use std::hash::Hasher;
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

fn arb_point() -> impl Strategy<Value = Point> {
    (-1000i64..1000, -1000i64..1000).prop_map(Point::from)
}

fn arb_interval() -> impl Strategy<Value = Interval> {
    (-500i64..500, -500i64..500).prop_map(|(a, b)| Interval::new(Nm(a), Nm(b)))
}

proptest! {
    #[test]
    fn point_distance_symmetric_and_nonnegative(a in arb_point(), b in arb_point()) {
        prop_assert_eq!(a.distance_squared(b), b.distance_squared(a));
        prop_assert!(a.distance_squared(b) >= 0);
        prop_assert_eq!(a.distance_squared(a), 0);
    }

    #[test]
    fn rect_distance_symmetric(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.distance_squared(&b), b.distance_squared(&a));
    }

    #[test]
    fn rect_distance_zero_iff_intersecting(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.distance_squared(&b) == 0, a.intersects(&b));
    }

    #[test]
    fn rect_intersection_is_contained_in_both(a in arb_rect(), b in arb_rect()) {
        if let Some(inter) = a.intersection(&b) {
            prop_assert!(a.contains_rect(&inter));
            prop_assert!(b.contains_rect(&inter));
        }
    }

    #[test]
    fn rect_union_bbox_contains_both(a in arb_rect(), b in arb_rect()) {
        let u = a.union_bbox(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
    }

    #[test]
    fn expanding_reduces_distance(a in arb_rect(), b in arb_rect(), m in 0i64..50) {
        let margin = Nm(m);
        prop_assert!(a.expanded(margin).distance_squared(&b) <= a.distance_squared(&b));
    }

    #[test]
    fn translation_preserves_distance(a in arb_rect(), b in arb_rect(),
                                      dx in -300i64..300, dy in -300i64..300) {
        let (dx, dy) = (Nm(dx), Nm(dy));
        prop_assert_eq!(
            a.translated(dx, dy).distance_squared(&b.translated(dx, dy)),
            a.distance_squared(&b)
        );
    }

    #[test]
    fn interval_overlap_is_symmetric_and_bounded(a in arb_interval(), b in arb_interval()) {
        prop_assert_eq!(a.overlap(&b), b.overlap(&a));
        prop_assert!(a.overlap(&b) <= a.length());
        prop_assert!(a.overlap(&b) <= b.length());
    }

    #[test]
    fn interval_merge_preserves_membership(ivs in prop::collection::vec(arb_interval(), 0..12),
                                           x in -500i64..500) {
        let x = Nm(x);
        let covered_before = ivs.iter().any(|iv| iv.contains(x));
        let merged = Interval::merge_all(ivs);
        let covered_after = merged.iter().any(|iv| iv.contains(x));
        prop_assert_eq!(covered_before, covered_after);
        // Merged output is sorted and disjoint.
        for pair in merged.windows(2) {
            prop_assert!(pair[0].hi() < pair[1].lo());
        }
    }

    #[test]
    fn complement_is_disjoint_from_cover_interiors(
        covered in prop::collection::vec(arb_interval(), 0..8),
        span in arb_interval(),
    ) {
        let gaps = Interval::complement_within(span, &covered);
        for gap in &gaps {
            prop_assert!(span.contains_interval(gap));
            // The midpoint of a gap of positive length is not covered.
            if gap.length() > Nm(1) {
                let mid = Nm((gap.lo().value() + gap.hi().value()) / 2);
                prop_assert!(!covered.iter().any(|iv| iv.lo() < mid && mid < iv.hi()));
            }
        }
    }

    #[test]
    fn polygon_distance_never_exceeds_component_rect_distance(
        a in prop::collection::vec(arb_rect(), 1..4),
        b in prop::collection::vec(arb_rect(), 1..4),
    ) {
        let pa = Polygon::from_rects(a.clone()).expect("non-empty");
        let pb = Polygon::from_rects(b.clone()).expect("non-empty");
        let min_pair = a.iter()
            .flat_map(|ra| b.iter().map(move |rb| ra.distance_squared(rb)))
            .min()
            .expect("non-empty");
        prop_assert_eq!(pa.distance_squared(&pb), min_pair);
    }

    #[test]
    fn polygons_keep_one_representation_per_rectangle_list(
        rects in prop::collection::vec(arb_rect(), 1..5),
        others in prop::collection::vec(arb_rect(), 1..5),
        dx in -1000i64..1000,
        dy in -1000i64..1000,
    ) {
        let polygon = Polygon::from_rects(rects.clone()).expect("non-empty");
        prop_assert_eq!(polygon.rects(), rects.as_slice());
        prop_assert_eq!(polygon.rect_count(), rects.len());
        let reference = reference::Polygon { rects: rects.clone() };
        prop_assert_eq!(format!("{polygon:?}"), format!("{reference:?}"));
        prop_assert_eq!(hash_of(&polygon), hash_of(&reference));

        // Every way of making the same list gives an equal polygon with an
        // equal hash: a round trip through `translated`, and for one
        // rectangle `Polygon::rect` and `From<Rect>`.
        let back = polygon.translated(Nm(dx), Nm(dy)).translated(Nm(-dx), Nm(-dy));
        prop_assert_eq!(back.rects(), rects.as_slice());
        prop_assert_eq!(&back, &polygon);
        prop_assert_eq!(hash_of(&back), hash_of(&polygon));
        for single in [Polygon::rect(rects[0]), Polygon::from(rects[0])] {
            prop_assert_eq!(single == polygon, rects.len() == 1);
            if rects.len() == 1 {
                prop_assert_eq!(hash_of(&single), hash_of(&polygon));
            }
        }
        // Polygons are equal exactly when their lists are.
        let other = Polygon::from_rects(others.clone()).expect("non-empty");
        prop_assert_eq!(other == polygon, others == rects);
    }
}

proptest! {
    // The grid tests are cheap per case and have many corner cases
    // (duplicate ids, entries spanning cells, capped grids): run more.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn grid_index_matches_brute_force(
        entries in arb_entries(arb_rect_or_far()),
        query in arb_rect_or_far(),
        limit in 1i64..300,
        cell in 1i64..200,
    ) {
        let limit = Nm(limit);
        let mut index = GridIndex::new(Nm(cell), entries.iter().copied());
        let mut got = index.query_within(&query, limit).to_vec();
        got.sort_unstable();
        // The window test first: squaring a 10¹² nm gap overflows.
        let window = query.expanded(limit);
        let mut expected: Vec<usize> = entries
            .iter()
            .filter(|(_, r)| window.intersects(r) && query.within_distance(r, limit))
            .map(|&(id, _)| id)
            .collect();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn grid_index_results_come_in_cell_scan_order(
        entries in arb_entries(arb_rect_or_far_small()),
        pick in 0usize..40,
        other in arb_rect(),
        limit in 1i64..300,
        cell in 64i64..200,
        mask in 0u32..1 << 12,
    ) {
        // Half the queries are an entry's own rectangle, so queries far
        // from the origin find their neighbours too.
        let query = entries.get(pick).map_or(other, |&(_, rect)| rect);
        let limit = Nm(limit);
        let mut index = GridIndex::new(Nm(cell), entries.iter().copied());
        let all: Vec<usize> = reference_scan(cell, &entries, &query, limit, |_| true)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        prop_assert_eq!(index.query_within(&query, limit), all.as_slice());
        // The walk with a random id pre-filter: the kept ids in the same
        // order, each with its first matching entry's squared distance.
        let keep = |id: usize| mask >> id & 1 == 1;
        let mut walked = Vec::new();
        let mut stamps = QueryStamps::default();
        index.for_each_within(&mut stamps, &query, limit, keep, |id, distance| walked.push((id, distance)));
        prop_assert_eq!(walked, reference_scan(cell, &entries, &query, limit, keep));
    }
}
