//! Rectilinear polygon → rectangle decomposition (slab sweep).
//!
//! GDSII boundaries are vertex loops; the decomposition flow models features
//! as unions of axis-aligned rectangles. [`loop_to_rects`] converts any
//! simple rectilinear loop into disjoint rectangles by sweeping horizontal
//! slabs between consecutive distinct y coordinates and pairing the vertical
//! edges that span each slab (even–odd rule), then merging vertically
//! adjacent rectangles with identical x spans so that an axis-aligned
//! rectangle round-trips to exactly one rectangle. Loops that trace one
//! axis-aligned rectangle, the common case in fractured mask data, skip the
//! sweep and its scratch vectors; the result is the sweep's.

/// An axis-aligned rectangle in database units: `(xlo, ylo, xhi, yhi)`.
pub type DbRect = (i64, i64, i64, i64);

/// Decomposes a simple rectilinear vertex loop into disjoint rectangles.
///
/// The closing vertex may be present or absent. Returns `None` when the
/// loop has fewer than four distinct vertices or any edge is neither
/// horizontal nor vertical (non-rectilinear geometry).
pub fn loop_to_rects(points: &[(i64, i64)]) -> Option<Vec<DbRect>> {
    match traced_rect(points) {
        Some(rect) => Some(vec![rect]),
        None => sweep_loop(points),
    }
}

/// The rectangle `points` traces when, without repeated consecutive
/// vertices and the closing vertex, the loop has exactly four corners
/// joined by alternating horizontal and vertical edges. Such a loop has
/// non-zero width and height, and the sweep returns this one rectangle for
/// it. `None` for every other loop, degenerate or not.
fn traced_rect(points: &[(i64, i64)]) -> Option<DbRect> {
    let mut corners = [(0, 0); 5];
    let mut len = 0;
    for &point in points {
        if len > 0 && corners[len - 1] == point {
            continue;
        }
        if len == corners.len() {
            return None;
        }
        corners[len] = point;
        len += 1;
    }
    if len > 1 && corners[0] == corners[len - 1] {
        len -= 1;
    }
    let &[a, b, c, d] = &corners[..len] else {
        return None;
    };
    let horizontal_first = a.1 == b.1 && b.0 == c.0 && c.1 == d.1 && d.0 == a.0;
    let vertical_first = a.0 == b.0 && b.1 == c.1 && c.0 == d.0 && d.1 == a.1;
    (horizontal_first || vertical_first)
        .then(|| (a.0.min(c.0), a.1.min(c.1), a.0.max(c.0), a.1.max(c.1)))
}

/// The slab sweep behind [`loop_to_rects`], for any simple rectilinear loop.
pub(crate) fn sweep_loop(points: &[(i64, i64)]) -> Option<Vec<DbRect>> {
    let mut loop_points: Vec<(i64, i64)> = Vec::with_capacity(points.len());
    for &p in points {
        if loop_points.last() != Some(&p) {
            loop_points.push(p);
        }
    }
    if loop_points.len() > 1 && loop_points.first() == loop_points.last() {
        loop_points.pop();
    }
    if loop_points.len() < 4 {
        return None;
    }

    // Collect vertical edges; reject diagonal edges.
    let mut vertical: Vec<(i64, i64, i64)> = Vec::new(); // (x, ylo, yhi)
    let mut ys: Vec<i64> = Vec::with_capacity(loop_points.len());
    for i in 0..loop_points.len() {
        let (x0, y0) = loop_points[i];
        let (x1, y1) = loop_points[(i + 1) % loop_points.len()];
        if x0 == x1 {
            if y0 != y1 {
                vertical.push((x0, y0.min(y1), y0.max(y1)));
            }
        } else if y0 != y1 {
            return None; // diagonal edge
        }
        ys.push(y0);
    }
    if vertical.is_empty() {
        return None; // degenerate (zero-area) loop
    }
    ys.sort_unstable();
    ys.dedup();

    let mut rects: Vec<DbRect> = Vec::new();
    for slab in ys.windows(2) {
        let (ylo, yhi) = (slab[0], slab[1]);
        let mut xs: Vec<i64> = vertical
            .iter()
            .filter(|&&(_, elo, ehi)| elo <= ylo && ehi >= yhi)
            .map(|&(x, _, _)| x)
            .collect();
        xs.sort_unstable();
        if !xs.len().is_multiple_of(2) {
            return None; // not a simple loop
        }
        for pair in xs.chunks_exact(2) {
            if pair[0] < pair[1] {
                rects.push((pair[0], ylo, pair[1], yhi));
            }
        }
    }
    if rects.is_empty() {
        return None;
    }
    Some(merge_vertical(rects))
}

/// Merges vertically adjacent rectangles sharing an identical x span.
///
/// Input must be disjoint slab rectangles ordered by `ylo` (as produced by
/// the sweep above); output rectangles remain disjoint.
fn merge_vertical(rects: Vec<DbRect>) -> Vec<DbRect> {
    let mut merged: Vec<DbRect> = Vec::with_capacity(rects.len());
    for rect in rects {
        if let Some(previous) = merged
            .iter_mut()
            .find(|p| p.0 == rect.0 && p.2 == rect.2 && p.3 == rect.1)
        {
            previous.3 = rect.3;
        } else {
            merged.push(rect);
        }
    }
    merged
}

/// Expands a Manhattan path centre-line into rectangles.
///
/// `width` is the full wire width; interior segment ends are extended by
/// half the width so 90° bends are filled, and terminal ends are extended
/// for end-cap styles other than flush (`pathtype` 0). Odd widths cannot be
/// centred on the integer grid, so the full width is preserved by placing
/// the extra unit on the high side — undersizing a wire would let spacing
/// verification miss real violations. Returns `None` when a segment is
/// diagonal or the path has fewer than two vertices.
pub fn path_to_rects(points: &[(i64, i64)], width: i64, pathtype: i16) -> Option<Vec<DbRect>> {
    if points.len() < 2 || width <= 0 {
        return None;
    }
    let half_lo = width / 2;
    let half_hi = width - half_lo;
    let cap = if pathtype == 0 { 0 } else { half_hi };
    let mut rects = Vec::with_capacity(points.len() - 1);
    for i in 0..points.len() - 1 {
        let (x0, y0) = points[i];
        let (x1, y1) = points[i + 1];
        let start_ext = if i == 0 { cap } else { half_hi };
        let end_ext = if i == points.len() - 2 { cap } else { half_hi };
        if y0 == y1 && x0 != x1 {
            let (lo, hi, lo_ext, hi_ext) = if x0 < x1 {
                (x0, x1, start_ext, end_ext)
            } else {
                (x1, x0, end_ext, start_ext)
            };
            rects.push((lo - lo_ext, y0 - half_lo, hi + hi_ext, y0 + half_hi));
        } else if x0 == x1 && y0 != y1 {
            let (lo, hi, lo_ext, hi_ext) = if y0 < y1 {
                (y0, y1, start_ext, end_ext)
            } else {
                (y1, y0, end_ext, start_ext)
            };
            rects.push((x0 - half_lo, lo - lo_ext, x0 + half_hi, hi + hi_ext));
        } else if x0 == x1 && y0 == y1 {
            continue; // zero-length segment
        } else {
            return None; // diagonal segment
        }
    }
    if rects.is_empty() {
        None
    } else {
        Some(rects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangle_loop_round_trips_to_one_rect() {
        let points = [(0, 0), (10, 0), (10, 20), (0, 20), (0, 0)];
        assert_eq!(loop_to_rects(&points), Some(vec![(0, 0, 10, 20)]));
        // Closing vertex optional; orientation irrelevant.
        let points = [(0, 20), (10, 20), (10, 0), (0, 0)];
        assert_eq!(loop_to_rects(&points), Some(vec![(0, 0, 10, 20)]));
    }

    #[test]
    fn l_shape_decomposes_into_two_rects() {
        // An L: 100x20 horizontal arm plus 20x100 vertical arm.
        let points = [(0, 0), (100, 0), (100, 20), (20, 20), (20, 100), (0, 100)];
        let rects = loop_to_rects(&points).expect("rectilinear");
        assert_eq!(rects.len(), 2);
        let area: i64 = rects
            .iter()
            .map(|&(xlo, ylo, xhi, yhi)| (xhi - xlo) * (yhi - ylo))
            .sum();
        assert_eq!(area, 100 * 20 + 20 * 80);
    }

    #[test]
    fn u_shape_keeps_disjoint_slabs() {
        // A U: two towers joined by a base.
        let points = [
            (0, 0),
            (60, 0),
            (60, 50),
            (40, 50),
            (40, 10),
            (20, 10),
            (20, 50),
            (0, 50),
        ];
        let rects = loop_to_rects(&points).expect("rectilinear");
        let area: i64 = rects
            .iter()
            .map(|&(xlo, ylo, xhi, yhi)| (xhi - xlo) * (yhi - ylo))
            .sum();
        assert_eq!(area, 60 * 10 + 2 * 20 * 40);
        // No two output rects overlap.
        for (i, a) in rects.iter().enumerate() {
            for b in &rects[i + 1..] {
                let overlap_x = a.0 < b.2 && b.0 < a.2;
                let overlap_y = a.1 < b.3 && b.1 < a.3;
                assert!(!(overlap_x && overlap_y), "{a:?} overlaps {b:?}");
            }
        }
    }

    #[test]
    fn diagonal_edges_are_rejected() {
        let points = [(0, 0), (10, 10), (0, 20)];
        assert_eq!(loop_to_rects(&points), None);
        let points = [(0, 0), (10, 0), (5, 10), (0, 10)];
        assert_eq!(loop_to_rects(&points), None);
    }

    #[test]
    fn degenerate_loops_are_rejected() {
        assert_eq!(loop_to_rects(&[]), None);
        assert_eq!(loop_to_rects(&[(0, 0), (10, 0), (10, 0), (0, 0)]), None);
    }

    #[test]
    fn paths_expand_to_wire_rectangles() {
        // A straight horizontal wire, flush ends.
        let rects = path_to_rects(&[(0, 0), (100, 0)], 20, 0).expect("path");
        assert_eq!(rects, vec![(0, -10, 100, 10)]);
        // Extended end-caps push out by half the width.
        let rects = path_to_rects(&[(0, 0), (100, 0)], 20, 2).expect("path");
        assert_eq!(rects, vec![(-10, -10, 110, 10)]);
    }

    #[test]
    fn path_bends_are_filled() {
        let rects = path_to_rects(&[(0, 0), (50, 0), (50, 40)], 10, 0).expect("path");
        assert_eq!(rects.len(), 2);
        // The horizontal arm is extended into the joint, covering the corner.
        assert_eq!(rects[0], (0, -5, 55, 5));
        assert_eq!(rects[1], (45, -5, 55, 40));
    }

    #[test]
    fn odd_widths_keep_their_full_width() {
        // A width-5 wire cannot be centred on the integer grid; the full
        // width must survive (extra unit on the high side), never shrink.
        let rects = path_to_rects(&[(0, 0), (100, 0)], 5, 0).expect("path");
        assert_eq!(rects, vec![(0, -2, 100, 3)]);
        let rects = path_to_rects(&[(0, 0), (0, 100)], 5, 0).expect("path");
        assert_eq!(rects, vec![(-2, 0, 3, 100)]);
    }

    #[test]
    fn diagonal_paths_are_rejected() {
        assert_eq!(path_to_rects(&[(0, 0), (10, 10)], 4, 0), None);
        assert_eq!(path_to_rects(&[(0, 0)], 4, 0), None);
    }
}
