//! Stitch-candidate generation.
//!
//! A *stitch* splits a feature into two sub-features exposed on different
//! masks.  A stitch position is legal only where no conflict neighbour
//! "shadows" the feature: the overlap region of the two exposures must not
//! itself be within the coloring distance of another feature, and both
//! resulting sub-features must remain printable (at least one minimum width
//! long).
//!
//! Following the projection technique of the double/triple-patterning
//! decomposers the paper builds on, candidates are found by projecting every
//! conflict neighbour onto the long axis of the feature and picking the
//! centres of the uncovered gaps.

use mpl_geometry::{Interval, Nm, Polygon, Rect};

/// Parameters of stitch-candidate generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StitchConfig {
    /// Master switch; with `false` no feature is ever split.
    pub enabled: bool,
    /// Maximum number of stitch candidates inserted per feature (the paper's
    /// predecessors use one or two to bound the overlay risk).
    pub max_stitches_per_feature: usize,
    /// Minimum printable length of each sub-feature after splitting.
    pub min_segment_length: Nm,
    /// Minimum uncovered gap length required to host a stitch.
    pub min_gap_length: Nm,
    /// Extra margin added on both sides of every conflict neighbour's
    /// projection: the stitch overlap region must clear the projection by at
    /// least this much to keep the double exposure printable.
    pub overlap_margin: Nm,
}

impl Default for StitchConfig {
    fn default() -> Self {
        StitchConfig {
            enabled: true,
            max_stitches_per_feature: 2,
            min_segment_length: Nm(20),
            min_gap_length: Nm(20),
            overlap_margin: Nm(20),
        }
    }
}

impl StitchConfig {
    /// Disables stitch insertion entirely.
    pub fn disabled() -> Self {
        StitchConfig {
            enabled: false,
            ..StitchConfig::default()
        }
    }
}

/// Whether [`split_at_stitches`] may split `shape` at all: stitches are
/// enabled, the shape is a single rectangle, and its long side can hold two
/// printable segments. Only such shapes need their conflict neighbours.
pub(crate) fn can_split(shape: &Polygon, config: &StitchConfig) -> bool {
    let [rect] = shape.rects() else {
        return false;
    };
    config.enabled && rect.width().max(rect.height()) >= config.min_segment_length * 2
}

/// Splits `shape` into stitch-connected segments given the polygons of its
/// conflict neighbours.
///
/// Returns the ordered list of sub-rectangles (length 1 when no legal stitch
/// exists).  Only single-rectangle features are split; multi-rectangle
/// polygons and minimum-size contacts are returned unchanged — this matches
/// the behaviour of row-structure decomposers where stitches live on wire
/// segments.
pub fn split_at_stitches(
    shape: &Polygon,
    neighbors: &[&Polygon],
    min_s: Nm,
    config: &StitchConfig,
) -> Vec<Rect> {
    let whole = || shape.rects().to_vec();
    if !can_split(shape, config) || neighbors.is_empty() {
        return whole();
    }
    let rect = shape.rects()[0];
    let horizontal = rect.width() >= rect.height();

    let span = if horizontal {
        rect.x_interval()
    } else {
        rect.y_interval()
    };

    // Project every conflict neighbour onto the long axis (plus the overlap
    // margin): a stitch may not sit inside the shadow of a conflicting
    // neighbour, following the projection rule of the double/triple
    // patterning decomposers.
    let shadows: Vec<Interval> = neighbors
        .iter()
        .flat_map(|poly| poly.rects().iter())
        .filter(|other| rect.within_distance(other, min_s))
        .map(|other| {
            let iv = if horizontal {
                other.x_interval()
            } else {
                other.y_interval()
            };
            Interval::new(
                iv.lo() - config.overlap_margin,
                iv.hi() + config.overlap_margin,
            )
        })
        .collect();
    if shadows.is_empty() {
        return whole();
    }

    let gaps = Interval::complement_within(span, &shadows);
    // Candidate cut positions: the centres of sufficiently long gaps that
    // leave printable segments on both sides, widest gaps first.
    let mut candidates: Vec<(Nm, Nm)> = gaps
        .iter()
        .filter(|gap| gap.length() >= config.min_gap_length)
        .map(|gap| {
            let center = Nm((gap.lo().value() + gap.hi().value()) / 2);
            (gap.length(), center)
        })
        .filter(|&(_, cut)| {
            cut - span.lo() >= config.min_segment_length
                && span.hi() - cut >= config.min_segment_length
        })
        .collect();
    candidates.sort_by_key(|&(length, _)| std::cmp::Reverse(length));
    candidates.truncate(config.max_stitches_per_feature);
    if candidates.is_empty() {
        return whole();
    }

    let mut cuts: Vec<Nm> = candidates.into_iter().map(|(_, cut)| cut).collect();
    cuts.sort();
    let mut segments = Vec::with_capacity(cuts.len() + 1);
    let mut start = span.lo();
    for cut in cuts {
        segments.push(segment(rect, horizontal, start, cut));
        start = cut;
    }
    segments.push(segment(rect, horizontal, start, span.hi()));
    segments
}

fn segment(rect: Rect, horizontal: bool, from: Nm, to: Nm) -> Rect {
    if horizontal {
        Rect::new(from, rect.ylo(), to, rect.yhi())
    } else {
        Rect::new(rect.xlo(), from, rect.xhi(), to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(a: i64, b: i64, c: i64, d: i64) -> Rect {
        Rect::new(Nm(a), Nm(b), Nm(c), Nm(d))
    }

    fn poly(a: i64, b: i64, c: i64, d: i64) -> Polygon {
        Polygon::rect(rect(a, b, c, d))
    }

    const MIN_S: Nm = Nm(80);

    #[test]
    fn contacts_are_never_split() {
        let contact = poly(0, 0, 20, 20);
        let neighbor = poly(0, 40, 20, 60);
        let parts = split_at_stitches(&contact, &[&neighbor], MIN_S, &StitchConfig::default());
        assert_eq!(parts, vec![rect(0, 0, 20, 20)]);
    }

    #[test]
    fn disabled_config_returns_whole_shape() {
        let wire = poly(0, 0, 400, 20);
        let neighbor = poly(0, 60, 20, 80);
        let parts = split_at_stitches(&wire, &[&neighbor], MIN_S, &StitchConfig::disabled());
        assert_eq!(parts.len(), 1);
    }

    #[test]
    fn wire_with_one_shadow_near_the_left_end_splits_once() {
        // The neighbour projects onto x ∈ [0 .. 20]; with the 20 nm overlap
        // margin the shadow is [-20 .. 40], so the gap [40 .. 400] hosts a
        // stitch at its centre x = 220.
        let wire = poly(0, 0, 400, 20);
        let neighbor = poly(0, 60, 20, 80);
        let parts = split_at_stitches(&wire, &[&neighbor], MIN_S, &StitchConfig::default());
        assert_eq!(parts, vec![rect(0, 0, 220, 20), rect(220, 0, 400, 20)]);
    }

    #[test]
    fn fully_shadowed_wire_has_no_stitch() {
        let wire = poly(0, 0, 200, 20);
        let neighbor = poly(0, 60, 200, 80);
        let parts = split_at_stitches(&wire, &[&neighbor], MIN_S, &StitchConfig::default());
        assert_eq!(parts.len(), 1);
    }

    #[test]
    fn neighbours_outside_the_coloring_distance_are_ignored() {
        let wire = poly(0, 0, 400, 20);
        let far = poly(0, 300, 20, 320);
        let parts = split_at_stitches(&wire, &[&far], MIN_S, &StitchConfig::default());
        assert_eq!(parts.len(), 1);
    }

    #[test]
    fn two_shadows_can_give_two_stitches() {
        // Neighbours near both ends leave a wide central gap plus the outer
        // margins; the two widest legal gaps host the stitches.
        let wire = poly(0, 0, 800, 20);
        let left = poly(0, 60, 20, 80);
        let right = poly(780, 60, 800, 80);
        let config = StitchConfig::default();
        let parts = split_at_stitches(&wire, &[&left, &right], MIN_S, &config);
        assert_eq!(parts.len(), 2); // one legal gap (the centre), hence one cut
        let config_many = StitchConfig {
            max_stitches_per_feature: 4,
            ..config
        };
        let parts_many = split_at_stitches(&wire, &[&left, &right], MIN_S, &config_many);
        assert_eq!(parts_many.len(), 2);
    }

    #[test]
    fn vertical_wires_split_along_y() {
        let wire = poly(0, 0, 20, 400);
        let neighbor = poly(60, 0, 80, 20);
        let parts = split_at_stitches(&wire, &[&neighbor], MIN_S, &StitchConfig::default());
        assert_eq!(parts, vec![rect(0, 0, 20, 220), rect(0, 220, 20, 400)]);
    }

    #[test]
    fn segments_cover_the_original_wire_exactly() {
        let wire = poly(0, 0, 600, 20);
        let n1 = poly(100, 60, 140, 80);
        let n2 = poly(420, -60, 460, -40);
        let parts = split_at_stitches(&wire, &[&n1, &n2], MIN_S, &StitchConfig::default());
        let total: i64 = parts.iter().map(Rect::area).sum();
        assert_eq!(total, 600 * 20);
        for pair in parts.windows(2) {
            assert_eq!(pair[0].xhi(), pair[1].xlo());
        }
    }

    #[test]
    fn short_wires_are_not_split() {
        let wire = poly(0, 0, 35, 20);
        let neighbor = poly(0, 60, 20, 80);
        let parts = split_at_stitches(&wire, &[&neighbor], MIN_S, &StitchConfig::default());
        assert_eq!(parts.len(), 1);
    }

    #[test]
    fn multi_rect_polygons_are_not_split() {
        let ell = Polygon::from_rects(vec![rect(0, 0, 200, 20), rect(0, 0, 20, 200)]).unwrap();
        let neighbor = poly(100, 60, 120, 80);
        let parts = split_at_stitches(&ell, &[&neighbor], MIN_S, &StitchConfig::default());
        assert_eq!(parts.len(), 2); // the original two rectangles, unsplit
    }
}
