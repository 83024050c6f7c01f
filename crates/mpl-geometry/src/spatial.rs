//! Build-once sparse-grid spatial index for neighbour queries.

use crate::{Nm, Rect};

/// Cell slots an index may hold per entry, on top of [`MIN_SLOTS`].
const SLOTS_PER_ENTRY: u128 = 4;

/// Cell slots any index may hold regardless of its entry count.
const MIN_SLOTS: u128 = 1024;

/// One entry's slot in one cell while the index is built: `(x cell, y cell,
/// entry index)`.
type Slot = (i64, i64, u32);

/// A uniform-grid spatial index mapping rectangles to user-supplied ids.
///
/// Decomposition-graph construction needs, for every feature, the set of
/// features within the minimum coloring distance `min_s` (conflict
/// neighbours) and within `min_s + half_pitch` (color-friendly neighbours).
/// A uniform grid with a cell size on the order of the query distance answers
/// those queries in time proportional to the number of true neighbours, which
/// keeps graph construction linear in practice for realistic layouts.
///
/// The index is built once from all its entries ([`GridIndex::new`]). Each
/// entry occupies one slot in every grid cell its rectangle overlaps, and
/// only cells that hold a slot are stored: sorted x-major, so the cells of
/// one grid column that a query window covers are one contiguous run, and
/// white space between shapes, however wide, costs nothing.
///
/// # Result order
///
/// A query ([`GridIndex::for_each_within`], or [`GridIndex::query_within`]
/// which collects it) visits the cells the query window covers with the x
/// cell outer and the y cell inner, and the entries of a cell in the order
/// they were given to [`GridIndex::new`]. An id is reported at its first
/// matching entry in that order, and only once. The order is
/// deterministic, and graph construction keeps it as edge order.
///
/// # Memory
///
/// The index never holds more than `4·n + 1024` slots for `n` entries:
/// when the entries would need more at the requested cell size (very long
/// wires), the cell side is doubled until they fit. Queries then return
/// the same ids in the order of the coarser grid. A column also stores its
/// empty cells when they are no more than its occupied ones, so there are
/// at most two cells per slot. Deduplication keeps one stamp per id up
/// to the largest id ([`QueryStamps`]), so ids should be dense indices.
///
/// # Threads
///
/// [`GridIndex::for_each_within`] reads the index through `&self` and
/// marks the ids it has reported in stamps the caller owns, so threads
/// share one index and each walks it with its own [`QueryStamps`].
/// [`GridIndex::query_within`] is the same walk with the index's own
/// stamps and result buffer.
///
/// # Example
///
/// ```
/// use mpl_geometry::{GridIndex, Nm, Rect};
///
/// let mut index = GridIndex::new(
///     Nm(100),
///     [
///         (0, Rect::new(Nm(0), Nm(0), Nm(20), Nm(20))),
///         (1, Rect::new(Nm(60), Nm(0), Nm(80), Nm(20))),
///         (2, Rect::new(Nm(500), Nm(500), Nm(520), Nm(520))),
///     ],
/// );
///
/// let query = Rect::new(Nm(0), Nm(0), Nm(20), Nm(20));
/// assert_eq!(index.query_within(&query, Nm(80)), [0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    /// Side of one (square) cell, possibly coarser than requested.
    cell: i64,
    /// The grid columns that hold slots, ascending; column `columns[i]`
    /// owns the cells `column_cells[i]..column_cells[i + 1]`.
    columns: Vec<i64>,
    column_cells: Vec<usize>,
    /// The cells that hold slots, x-major: cell `c` is row `rows[c]` of its
    /// column and owns `slots[cell_slots[c]..cell_slots[c + 1]]`.
    rows: Vec<i64>,
    cell_slots: Vec<usize>,
    /// Entry indices, grouped by cell, in entry order within a cell.
    slots: Vec<u32>,
    entries: Vec<(usize, Rect)>,
    /// One more than the largest id.
    ids: usize,
    /// The stamps and result buffer of [`GridIndex::query_within`].
    stamps: QueryStamps,
    result: Vec<usize>,
}

/// The ids one query of a [`GridIndex`] has reported, for one caller: a
/// stamp per id, equal to the current query's epoch once the id is
/// reported. Each thread that walks a shared index owns one.
///
/// Stamps start empty and grow to the index's largest id on first use, so
/// one set serves any index; each query starts a new epoch, and the stamps
/// are cleared when the epoch wraps.
#[derive(Debug, Clone, Default)]
pub struct QueryStamps {
    marks: Vec<u32>,
    epoch: u32,
}

impl QueryStamps {
    /// Starts a query over ids below `ids`: nothing is reported yet.
    fn start(&mut self, ids: usize) {
        if self.marks.len() < ids {
            self.marks.resize(ids, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.marks.fill(0);
            self.epoch = 1;
        }
    }
}

impl GridIndex {
    /// Builds an index over `entries`, `(id, rect)` pairs, with the given
    /// grid cell size.
    ///
    /// Ids are dense indices chosen by the caller, and the same id may be
    /// given several times (e.g. one entry per component rectangle of a
    /// polygon); it is then reported at most once per query.
    ///
    /// A good cell size is the largest distance that will be queried (e.g.
    /// `min_s + half_pitch`); smaller cells scan more cells, larger cells
    /// scan more candidates. The cell side is doubled when the entries
    /// would need more than the slot cap (see the type-level docs).
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive, or if there are more
    /// than `u32::MAX` entries.
    pub fn new(cell_size: Nm, entries: impl IntoIterator<Item = (usize, Rect)>) -> Self {
        assert!(
            cell_size > Nm::ZERO,
            "grid cell size must be positive, got {cell_size}"
        );
        let entries: Vec<(usize, Rect)> = entries.into_iter().collect();
        assert!(
            u32::try_from(entries.len()).is_ok(),
            "a grid index holds at most u32::MAX entries, got {}",
            entries.len()
        );
        let cap = SLOTS_PER_ENTRY * entries.len() as u128 + MIN_SLOTS;
        let slot_count = |cell: i64| {
            entries.iter().fold(0u128, |sum, (_, rect)| {
                let (cx0, cy0, cx1, cy1) = cell_span(cell, rect);
                let cells = (u128::from(cx0.abs_diff(cx1)) + 1)
                    .saturating_mul(u128::from(cy0.abs_diff(cy1)) + 1);
                sum.saturating_add(cells)
            })
        };
        let mut cell = cell_size.value();
        let mut slots = slot_count(cell);
        // Past i64::MAX / 2 a rectangle spans at most 4 cells per axis.
        while cell <= i64::MAX / 2 && slots > cap {
            cell *= 2;
            slots = slot_count(cell);
        }

        // The slots in entry order; a stable sort by cell then lists each
        // cell's entries in entry order.
        let mut keyed: Vec<Slot> = Vec::with_capacity(slots as usize);
        for (slot, (_, rect)) in entries.iter().enumerate() {
            let (cx0, cy0, cx1, cy1) = cell_span(cell, rect);
            for cx in cx0..=cx1 {
                keyed.extend((cy0..=cy1).map(|cy| (cx, cy, slot as u32)));
            }
        }
        radix_sort_by_cell(&mut keyed);

        let ids = entries.iter().map(|&(id, _)| id + 1).max().unwrap_or(0);
        let mut index = GridIndex {
            cell,
            columns: Vec::new(),
            column_cells: Vec::new(),
            rows: Vec::new(),
            cell_slots: Vec::new(),
            slots: Vec::with_capacity(keyed.len()),
            entries,
            ids,
            stamps: QueryStamps::default(),
            result: Vec::new(),
        };
        for column in keyed.chunk_by(|a, b| a.0 == b.0) {
            // A column whose occupied rows are at least half of its row span
            // also stores its empty rows: its rows are then gap-free, and a
            // query finds its cells without a search.
            let (first, last) = (column[0].1, column[column.len() - 1].1);
            let occupied = 1 + column.windows(2).filter(|w| w[0].1 != w[1].1).count();
            let gap_free = first.abs_diff(last) < 2 * occupied as u64;
            index.columns.push(column[0].0);
            index.column_cells.push(index.rows.len());
            let mut row = None;
            for &(_, cy, slot) in column {
                if row != Some(cy) {
                    let from = row.filter(|_| gap_free).map_or(cy, |r| r + 1);
                    for y in from..=cy {
                        index.rows.push(y);
                        index.cell_slots.push(index.slots.len());
                    }
                    row = Some(cy);
                }
                index.slots.push(slot);
            }
        }
        index.column_cells.push(index.rows.len());
        index.cell_slots.push(index.slots.len());
        index
    }

    /// Returns the ids of all rectangles whose Euclidean distance to `rect`
    /// is strictly less than `limit`, each once, in the documented result
    /// order: [`GridIndex::for_each_within`] with every id kept.
    ///
    /// The result lives in a buffer the index reuses for every query, and
    /// the walk marks ids in the index's own stamps, so repeated queries
    /// allocate nothing once both have grown.
    pub fn query_within(&mut self, rect: &Rect, limit: Nm) -> &[usize] {
        let (mut stamps, mut result) = (
            std::mem::take(&mut self.stamps),
            std::mem::take(&mut self.result),
        );
        result.clear();
        self.for_each_within(&mut stamps, rect, limit, |_| true, |id, _| result.push(id));
        (self.stamps, self.result) = (stamps, result);
        &self.result
    }

    /// Calls `visit(id, squared distance)` for every id that `keep`
    /// accepts and that has a rectangle strictly closer than `limit` to
    /// `rect`, each id once, in the documented result order.
    ///
    /// `stamps` mark the ids this query has reported; they belong to the
    /// caller, so threads that share the index each pass their own.
    ///
    /// `keep` is asked before any geometry, for every entry the walk meets
    /// until its id is reported, so it should be a cheap test of the id
    /// alone, with one answer per id during a query. The ids it rejects
    /// are reported nowhere, and the others come in the order
    /// [`GridIndex::query_within`] would list them. The
    /// distance handed over is the squared distance from `rect` to the
    /// id's first matching entry: for an id given with several rectangles
    /// that need not be the smallest over them.
    pub fn for_each_within(
        &self,
        stamps: &mut QueryStamps,
        rect: &Rect,
        limit: Nm,
        mut keep: impl FnMut(usize) -> bool,
        mut visit: impl FnMut(usize, i64),
    ) {
        stamps.start(self.ids);
        let QueryStamps { marks, epoch } = stamps;
        let epoch = *epoch;
        let window = rect.expanded(limit);
        let bound = limit.squared();
        let (wx0, wy0, wx1, wy1) = cell_span(self.cell, &window);
        let first = lower_bound(&self.columns, wx0);
        for column in first..self.columns.len() {
            if self.columns[column] > wx1 {
                break;
            }
            let cells = self.column_cells[column]..self.column_cells[column + 1];
            let rows = &self.rows[cells.clone()];
            let lo = cells.start + lower_bound(rows, wy0);
            let hi = cells.start
                + wy1
                    .checked_add(1)
                    .map_or(rows.len(), |y| lower_bound(rows, y));
            for &slot in &self.slots[self.cell_slots[lo]..self.cell_slots[hi]] {
                let (id, candidate) = self.entries[slot as usize];
                // The window test keeps far entries of a coarse cell away
                // from the squared distance, which could overflow for them.
                if marks[id] == epoch || !keep(id) || !window.intersects(&candidate) {
                    continue;
                }
                let distance = rect.distance_squared(&candidate);
                if distance < bound {
                    marks[id] = epoch;
                    visit(id, distance);
                }
            }
        }
    }
}

/// The number of `keys` (ascending) below `key`. A gap-free run of keys,
/// as in the columns of a dense layout, answers without a search.
fn lower_bound(keys: &[i64], key: i64) -> usize {
    // In a gap-free run, `keys[i] == keys[0] + i`.
    let guess = keys
        .first()
        .and_then(|&first| key.checked_sub(first))
        .map(|offset| offset.clamp(0, keys.len() as i64) as usize);
    match guess {
        Some(at) if (at == 0 || keys[at - 1] < key) && keys.get(at).is_none_or(|&k| k >= key) => at,
        _ => keys.partition_point(|&k| k < key),
    }
}

/// Bits per radix-sort digit, and the digit count.
const DIGIT_BITS: usize = 11;
const DIGITS: usize = 1 << DIGIT_BITS;

/// Sorts slots by cell, x-major, keeping
/// the given order within a cell: a least-significant-digit radix sort
/// whose passes stop at the highest bit in which the coordinates differ,
/// so a grid up to 2048 cells wide and high needs one pass per axis.
fn radix_sort_by_cell(slots: &mut Vec<Slot>) {
    let Some(&(x, y, _)) = slots.first() else {
        return;
    };
    let (x_bits, y_bits) = slots.iter().fold((0, 0), |(xs, ys), &(cx, cy, _)| {
        (xs | (cx ^ x) as u64, ys | (cy ^ y) as u64)
    });
    let mut sorted = vec![(0, 0, 0); slots.len()];
    // y first: the stable x passes then keep each column's y order.
    for (bits, x_axis) in [(y_bits, false), (x_bits, true)] {
        for shift in (0..u64::BITS - bits.leading_zeros()).step_by(DIGIT_BITS) {
            let digit = |&(cx, cy, _): &Slot| {
                let coordinate = if x_axis { cx } else { cy };
                // Flipping the sign bit orders i64 values as u64 keys.
                ((coordinate as u64 ^ 1 << 63) >> shift) as usize & (DIGITS - 1)
            };
            let mut starts = [0usize; DIGITS];
            for s in slots.iter() {
                starts[digit(s)] += 1;
            }
            let mut total = 0;
            for start in &mut starts {
                (*start, total) = (total, total + *start);
            }
            for s in slots.iter() {
                let at = &mut starts[digit(s)];
                sorted[*at] = *s;
                *at += 1;
            }
            std::mem::swap(slots, &mut sorted);
        }
    }
}

/// The lowest and highest cell coordinates `rect` covers at side `cell`:
/// `(x0, y0, x1, y1)`.
fn cell_span(cell: i64, rect: &Rect) -> (i64, i64, i64, i64) {
    (
        rect.xlo().value().div_euclid(cell),
        rect.ylo().value().div_euclid(cell),
        rect.xhi().value().div_euclid(cell),
        rect.yhi().value().div_euclid(cell),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: i64, b: i64, c: i64, d: i64) -> Rect {
        Rect::new(Nm(a), Nm(b), Nm(c), Nm(d))
    }

    fn index(cell: i64, rects: &[Rect]) -> GridIndex {
        GridIndex::new(Nm(cell), rects.iter().copied().enumerate())
    }

    fn sorted(ids: &[usize]) -> Vec<usize> {
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        ids
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_size_panics() {
        let _ = GridIndex::new(Nm(0), []);
    }

    #[test]
    fn empty_index_reports_nothing() {
        let mut index = GridIndex::new(Nm(50), []);
        assert!(index.query_within(&r(0, 0, 10, 10), Nm(100)).is_empty());
    }

    #[test]
    fn finds_only_close_neighbours() {
        let mut index = index(
            100,
            &[
                r(0, 0, 20, 20),
                r(60, 0, 80, 20),      // 40 away from id 0
                r(300, 300, 320, 320), // far away
            ],
        );
        assert_eq!(index.query_within(&r(0, 0, 20, 20), Nm(80)), [0, 1]);
    }

    #[test]
    fn query_across_cell_boundaries() {
        // Spread rects across many cells; the query margin must reach them.
        let mut index = GridIndex::new(Nm(10), [(7, r(95, 0, 105, 10))]);
        assert_eq!(index.query_within(&r(0, 0, 10, 10), Nm(90)), [7]);
        assert!(index.query_within(&r(0, 0, 10, 10), Nm(85)).is_empty());
    }

    #[test]
    fn duplicate_ids_are_reported_once() {
        let mut index = GridIndex::new(Nm(50), [(3, r(0, 0, 10, 10)), (3, r(5, 5, 15, 15))]);
        assert_eq!(index.query_within(&r(0, 0, 1, 1), Nm(100)), [3]);
    }

    #[test]
    fn stamp_epoch_wraparound_keeps_deduplicating() {
        let mut index = GridIndex::new(
            Nm(50),
            [
                (0, r(0, 0, 10, 10)),
                (0, r(60, 0, 70, 10)),
                (1, r(1000, 0, 1010, 10)),
            ],
        );
        let (near_0, near_1) = (r(0, 0, 70, 10), r(1000, 0, 1010, 10));
        // Epoch 1 stamps id 1, and epoch 1 comes round again after the wrap.
        assert_eq!(index.query_within(&near_1, Nm(1)), [1]);
        index.stamps.epoch = u32::MAX - 1;
        assert_eq!(index.query_within(&near_0, Nm(1)), [0]);
        assert_eq!(index.query_within(&near_1, Nm(1)), [1]);
        assert_eq!(index.query_within(&near_0, Nm(1)), [0]);
        assert_eq!(index.stamps.epoch, 2);
    }

    #[test]
    fn two_stamp_sets_walk_one_index_alternately_across_the_wrap() {
        // Ids 0, 1 and 2 each have two rectangles, so every query must
        // deduplicate; one stamp set is a query behind the other.
        let mut rects = Vec::new();
        for i in 0..12 {
            for j in 0..9 {
                rects.push(r(i * 55, j * 85, i * 55 + 20, j * 85 + 30));
            }
        }
        let entries: Vec<(usize, Rect)> = rects
            .iter()
            .enumerate()
            .map(|(at, rect)| (at % 40, *rect))
            .collect();
        let mut index = GridIndex::new(Nm(70), entries.iter().copied());
        let queries: Vec<(Rect, Nm)> = rects
            .iter()
            .step_by(7)
            .zip([Nm(1), Nm(40), Nm(90), Nm(200)].into_iter().cycle())
            .map(|(rect, limit)| (*rect, limit))
            .collect();
        let expected: Vec<Vec<usize>> = queries
            .iter()
            .map(|(rect, limit)| index.query_within(rect, *limit).to_vec())
            .collect();
        assert!(expected.iter().any(|ids| ids.len() > 1));
        let walk = |stamps: &mut QueryStamps, (rect, limit): &(Rect, Nm)| {
            let mut ids = Vec::new();
            index.for_each_within(stamps, rect, *limit, |_| true, |id, _| ids.push(id));
            ids
        };
        let (mut a, mut b) = (QueryStamps::default(), QueryStamps::default());
        for start in [0, u32::MAX - 5] {
            a.epoch = start;
            b.epoch = start.wrapping_add(3);
            for (at, query) in queries.iter().enumerate() {
                let ahead = (at + 1) % queries.len();
                assert_eq!(walk(&mut a, query), expected[at], "query {at}");
                assert_eq!(
                    walk(&mut b, &queries[ahead]),
                    expected[ahead],
                    "query {ahead}"
                );
            }
        }
        assert!(a.epoch < 50 && b.epoch < 50, "{} {}", a.epoch, b.epoch);
    }

    #[test]
    fn cell_count_stays_within_the_cap_for_huge_extents() {
        // A 10⁹ nm wire beside a contact needs 10⁷ cells of 100 nm: the
        // cells coarsen. Two contacts 2⁴⁰ nm apart need two cells and keep
        // the requested side, however much white space lies between them.
        let wire = [
            r(0, 0, 1_000_000_000, 20),
            r(500_000_000, 60, 500_000_020, 80),
        ];
        let far = [r(0, 0, 20, 20), r(1 << 40, 0, (1 << 40) + 20, 20)];
        for rects in [&wire[..], &far[..]] {
            let mut index = index(100, rects);
            let cap = SLOTS_PER_ENTRY as usize * rects.len() + MIN_SLOTS as usize;
            assert!(index.slots.len() <= cap, "{} slots", index.slots.len());
            assert!(index.rows.len() <= 2 * index.slots.len());
            for (id, rect) in rects.iter().enumerate() {
                assert_eq!(index.query_within(rect, Nm(1)), [id]);
            }
        }
        assert!(index(100, &wire).cell > 100);
        assert_eq!(index(100, &far).cell, 100);
        assert_eq!(index(100, &far).rows.len(), 2);
        let mut wire_index = index(100, &wire);
        assert_eq!(sorted(wire_index.query_within(&wire[1], Nm(41))), [0, 1]);
    }

    #[test]
    fn far_shapes_leave_a_dense_block_at_the_requested_cell_size() {
        // A 20×20 contact block plus contacts 10¹² nm away along its first
        // row and its first column: only occupied cells are stored, and the
        // block's own columns stay gap-free.
        let mut rects: Vec<Rect> = (0..400)
            .map(|i| {
                let (x, y) = (70 * (i % 20), 70 * (i / 20));
                r(x, y, x + 20, y + 20)
            })
            .collect();
        let block_cells = 14 * 14;
        rects.push(r(1_000_000_000_000, 0, 1_000_000_000_020, 20));
        rects.push(r(0, 1_000_000_000_000, 20, 1_000_000_000_020));
        let mut index = index(100, &rects);
        assert_eq!(index.cell, 100);
        assert_eq!(index.rows.len(), block_cells + 2);
        for query in &rects {
            // The window test first: squaring a 10¹² nm gap overflows.
            let window = query.expanded(Nm(80));
            let expected: Vec<usize> = (0..rects.len())
                .filter(|&i| window.intersects(&rects[i]))
                .filter(|&i| query.within_distance(&rects[i], Nm(80)))
                .collect();
            assert_eq!(sorted(index.query_within(query, Nm(80))), expected);
        }
    }

    #[test]
    fn coarse_cells_never_square_a_far_gap() {
        // 3.1·10⁹ nm squared overflows i64. Without the wire, the three
        // shapes sit in three cells; with it, the cells coarsen to about
        // 1.3·10¹⁰ nm and shapes 0 and 1 share one, so the query must
        // reject shape 1 before measuring its distance.
        let shapes = [
            r(0, 0, 20, 20),
            r(3_100_000_000, 0, 3_100_000_020, 20),
            r(10_000_000_000_000, 0, 10_000_000_000_020, 20),
        ];
        let wire = r(0, 1_000_000, 10_000_000_000_000, 1_000_020);
        let with_wire = [shapes[0], shapes[1], shapes[2], wire];
        for (rects, coarse) in [(&shapes[..], false), (&with_wire[..], true)] {
            let mut index = index(100, rects);
            assert_eq!(index.cell > 100, coarse);
            for (id, rect) in shapes.iter().enumerate() {
                assert_eq!(index.query_within(rect, Nm(100)), [id]);
            }
        }
    }

    #[test]
    fn negative_coordinates_are_handled() {
        let mut index = index(64, &[r(-200, -200, -180, -180), r(-100, -100, -80, -80)]);
        assert_eq!(index.query_within(&r(-210, -210, -190, -190), Nm(40)), [0]);
    }

    #[test]
    fn query_window_on_cell_boundaries_sees_both_sides() {
        // A query window whose every edge lies exactly on a grid-cell
        // boundary must still reach entries in the cells on either side —
        // the windowed tiling driver issues exactly these queries when tile
        // windows align with the index grid.
        let mut index = index(
            100,
            &[
                r(0, 0, 100, 100),   // touches the window's left edge
                r(100, 0, 200, 100), // coincides with the window
                r(200, 0, 300, 100), // touches the right edge
                r(301, 0, 320, 100), // 101 past the window
            ],
        );
        let window = r(100, 0, 200, 100);
        assert_eq!(sorted(index.query_within(&window, Nm(1))), [0, 1, 2]);
        assert_eq!(sorted(index.query_within(&window, Nm(102))), [0, 1, 2, 3]);
    }

    #[test]
    fn zero_area_windows_behave_as_points() {
        let mut index = index(
            100,
            &[
                r(50, 50, 50, 50), // zero-area entry
                r(80, 50, 90, 60),
            ],
        );
        // A zero-area query finds the coincident point entry and respects
        // the strict distance bound towards the real rectangle (gap 30).
        let point = r(50, 50, 50, 50);
        assert_eq!(index.query_within(&point, Nm(1)), [0]);
        assert_eq!(sorted(index.query_within(&point, Nm(31))), [0, 1]);
        assert!(index.query_within(&r(20, 50, 20, 50), Nm(30)).is_empty());
        // A zero-area window sitting exactly on a cell corner still works.
        let corner = r(100, 100, 100, 100);
        assert_eq!(sorted(index.query_within(&corner, Nm(80))), [0, 1]);
    }

    #[test]
    fn shapes_exactly_at_the_query_radius_are_excluded() {
        // `query_within` is strictly-less-than, matching the conflict
        // predicate `distance < min_s`: a shape at exactly the coloring
        // distance is legal and must not be reported.
        let mut index = index(
            100,
            &[
                r(100, 0, 120, 20),  // axis gap exactly 80
                r(80, 80, 100, 100), // corner gap √(60²+60²) ≈ 84.85
            ],
        );
        let query = r(0, 0, 20, 20);
        assert!(index.query_within(&query, Nm(80)).is_empty());
        assert_eq!(index.query_within(&query, Nm(81)), [0]);
        // The diagonal neighbour needs the Euclidean corner distance, not
        // the per-axis gap (60): 84² < 7200 ≤ 85².
        assert_eq!(index.query_within(&query, Nm(84)), [0]);
        assert_eq!(sorted(index.query_within(&query, Nm(85))), [0, 1]);
    }

    #[test]
    fn brute_force_agreement_on_a_grid_of_rects() {
        // Cross-check the index against a brute-force scan.
        let mut rects = Vec::new();
        for i in 0..12 {
            for j in 0..9 {
                rects.push(r(i * 55, j * 85, i * 55 + 20, j * 85 + 30));
            }
        }
        let mut index = index(70, &rects);
        let query = r(160, 250, 180, 280);
        for limit in [Nm(1), Nm(40), Nm(90), Nm(200)] {
            let expected: Vec<usize> = (0..rects.len())
                .filter(|&i| query.within_distance(&rects[i], limit))
                .collect();
            assert_eq!(
                sorted(index.query_within(&query, limit)),
                expected,
                "limit {limit}"
            );
        }
    }
}
