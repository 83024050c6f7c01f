//! Contiguous ranges of a serial walk, run on scoped threads.
//!
//! A planning walk over many items (shapes, segments, component tasks)
//! splits into contiguous ranges of items; each range runs on its own
//! thread and its outputs come back in range order, so concatenating them
//! gives exactly what one walk over all items gives. A walk too small to
//! pay for a thread is one range, run on the calling thread.

use std::ops::Range;
use std::thread::Builder;

/// The fewest items a range is given. On a 2-vCPU host a scoped thread
/// took 27–33 µs to spawn and join, and asking the host for its
/// parallelism 12–18 µs (67–121 µs the first time in a process).
pub const MIN_RANGE_ITEMS: usize = 8192;

/// How many ranges a walk over `items` items (or item weight) is split
/// into: one per available CPU, each of at least [`MIN_RANGE_ITEMS`].
///
/// A walk too small for two ranges is one range, decided before the host
/// is asked for its parallelism.
///
/// # Example
///
/// ```
/// use mpl_geometry::{range_count, MIN_RANGE_ITEMS};
///
/// assert_eq!(range_count(2 * MIN_RANGE_ITEMS - 1), 1);
/// assert!(range_count(2 * MIN_RANGE_ITEMS) >= 1);
/// ```
pub fn range_count(items: usize) -> usize {
    let most = items / MIN_RANGE_ITEMS;
    if most < 2 {
        return 1;
    }
    std::thread::available_parallelism().map_or(1, |cpus| cpus.get().min(most))
}

/// Splits `0..len` into `count` contiguous ranges of about equal total
/// `weight` and returns `work`'s output for each range, in range order.
///
/// The first range runs on the calling thread and every other on a scoped
/// thread of its own, or on the calling thread too when the host refuses
/// that thread; a `count` of one or less runs `work(0..len)` on the
/// calling thread alone and never asks for a weight. A range ends at the
/// first item whose running weight reaches its share, so an item heavier
/// than a share leaves the ranges after it empty; `work` is still called
/// on every range, empty or not.
///
/// # Panics
///
/// Propagates a panic of `work` on any range.
///
/// # Example
///
/// ```
/// use mpl_geometry::map_ranges;
///
/// let squares = map_ranges(3, 10, |_| 1, |range| range.map(|i| i * i).collect::<Vec<_>>());
/// assert_eq!(squares.len(), 3);
/// assert_eq!(squares.concat(), (0..10).map(|i| i * i).collect::<Vec<_>>());
/// ```
pub fn map_ranges<T: Send>(
    count: usize,
    len: usize,
    weight: impl Fn(usize) -> usize,
    work: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    map_ranges_on(Builder::new, count, len, weight, work)
}

/// [`map_ranges`] with the thread of each range after the first built by
/// `builder`.
fn map_ranges_on<T: Send>(
    builder: impl Fn() -> Builder,
    count: usize,
    len: usize,
    weight: impl Fn(usize) -> usize,
    work: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    if count <= 1 {
        return vec![work(0..len)];
    }
    let ranges = split(count, len, weight);
    let work = &work;
    std::thread::scope(|scope| {
        // A range whose thread the host refuses comes back as `Err(range)`
        // and runs on this thread, after the first range.
        let spawned: Vec<_> = ranges[1..]
            .iter()
            .map(|range| {
                let moved = range.clone();
                builder()
                    .spawn_scoped(scope, move || work(moved))
                    .map_err(|_| range.clone())
            })
            .collect();
        let mut outputs = Vec::with_capacity(ranges.len());
        outputs.push(work(ranges[0].clone()));
        outputs.extend(spawned.into_iter().map(|spawned| {
            match spawned {
                Ok(handle) => handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                Err(range) => work(range),
            }
        }));
        outputs
    })
}

/// `count` contiguous ranges covering `0..len`: range `r` ends at the first
/// item whose running weight reaches `(r + 1) / count` of the total.
fn split(count: usize, len: usize, weight: impl Fn(usize) -> usize) -> Vec<Range<usize>> {
    let total: u128 = (0..len).map(|item| weight(item) as u128).sum();
    let mut ranges = Vec::with_capacity(count);
    let (mut start, mut item, mut running) = (0, 0, 0u128);
    for range in 1..=count {
        let share = total * range as u128 / count as u128;
        while item < len && (running < share || range == count) {
            running += weight(item) as u128;
            item += 1;
        }
        ranges.push(start..item);
        start = item;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_walks_are_one_range() {
        assert_eq!(range_count(0), 1);
        assert_eq!(range_count(MIN_RANGE_ITEMS), 1);
        assert_eq!(range_count(2 * MIN_RANGE_ITEMS - 1), 1);
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(range_count(2 * MIN_RANGE_ITEMS), cpus.min(2));
        assert_eq!(range_count(usize::MAX), cpus);
    }

    #[test]
    fn ranges_cover_every_item_once_in_order() {
        for len in [0, 1, 2, 6, 7, 8, 100] {
            for count in 1..=9 {
                let ranges = map_ranges(count, len, |_| 1, |range| range);
                assert_eq!(ranges.len(), count, "len {len}, count {count}");
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges[ranges.len() - 1].end, len);
                assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
                // Even weights split evenly.
                let sizes: Vec<usize> = ranges.iter().map(|range| range.len()).collect();
                let (lo, hi) = (sizes.iter().min(), sizes.iter().max());
                assert!(hi.unwrap() - lo.unwrap() <= 1, "{sizes:?}");
            }
        }
    }

    #[test]
    fn a_heavy_item_leaves_later_ranges_empty() {
        let weights = [1, 1, 100, 1, 1];
        let ranges = map_ranges(4, weights.len(), |item| weights[item], |range| range);
        assert_eq!(ranges, [0..3, 3..3, 3..3, 3..5]);
        let weights = [0, 0, 0];
        let ranges = map_ranges(2, weights.len(), |item| weights[item], |range| range);
        assert_eq!(ranges, [0..0, 0..3]);
    }

    #[test]
    fn refused_threads_run_their_ranges_on_the_calling_thread() {
        // No host maps a 2^60-byte stack, so every spawn is refused and
        // no thread starts.
        let here = std::thread::current().id();
        let refused = || Builder::new().stack_size(1 << 60);
        let outputs = map_ranges_on(
            refused,
            4,
            12,
            |_| 1,
            |range| (range, std::thread::current().id()),
        );
        let ranges: Vec<Range<usize>> = outputs.iter().map(|(range, _)| range.clone()).collect();
        assert_eq!(ranges, [0..3, 3..6, 6..9, 9..12]);
        assert!(outputs.iter().all(|&(_, thread)| thread == here));
        // Granted threads give the same ranges, each off the calling thread
        // but the first.
        let granted = map_ranges(4, 12, |_| 1, |range| (range, std::thread::current().id()));
        assert_eq!(
            granted
                .iter()
                .map(|(range, _)| range.clone())
                .collect::<Vec<_>>(),
            ranges
        );
        assert!(granted[1..].iter().all(|&(_, thread)| thread != here));
    }

    #[test]
    fn one_range_never_asks_for_a_weight() {
        let ranges = map_ranges(1, 5, |_| unreachable!("no split"), |range| range);
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0], 0..5);
    }
}
