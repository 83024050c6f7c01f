//! Translation-canonical component memoization.
//!
//! Real layouts are overwhelmingly repeated instances: once an SREF/AREF
//! hierarchy is flattened, a 32×32 contact array becomes 1024 copies of the
//! *same* independent component at different offsets, and a naive
//! decomposer recolors every copy from scratch.  This crate caches colored
//! components under a **canonical signature** that is invariant under
//! translation, so every copy after the first is served by a table lookup.
//!
//! # The signature
//!
//! A component is canonicalized in three steps ([`canonicalize`]):
//!
//! 1. **Normalize** — every vertex's rectangles are shifted so the
//!    component's bounding-box origin lands at `(0, 0)`.  Two components
//!    that differ only by a translation now carry identical geometry.
//! 2. **Order** — vertices are sorted by their rectangle lists,
//!    lexicographically (ties keep the live order), yielding a
//!    deterministic canonical permutation that does not depend on where
//!    the component sat in the layout.
//! 3. **Relabel** — conflict/stitch/color-friendly edges are rewritten
//!    through the permutation, oriented `(min, max)` and sorted.
//!
//! The resulting [`Signature`] — canonical geometry, canonical edge lists,
//! the mask count K, the stitch weight α and a free-form configuration
//! fingerprint — is the cache key.
//!
//! # Layout, hashing and equality
//!
//! A signature stores its geometry flat: one vector of canonical-order,
//! origin-normalized rectangles plus one end offset per vertex, so cloning
//! it copies a handful of vectors however many vertices it has.
//! [`canonicalize`] hashes the whole content **once**, with a 64-bit
//! SipHash keyed by a per-process random key (the same keying as
//! `std`'s `HashMap`, so a client that does not know the key cannot craft
//! colliding layouts), and the
//! signature's [`Hash`] writes only that value: a table probe, an insert or
//! a rehash costs one word, not the component.  Keys are still compared by
//! **full equality** — the stored hash first, then every field — so a hash
//! collision can never serve a wrong coloring.
//!
//! # The determinism guarantee
//!
//! The cache stores colorings of the **canonical** problem.  A cache miss
//! is expected to color the canonical problem (not the live one) and
//! [`stamp`] the canonical colors back through the permutation; a cache hit
//! stamps the stored colors the same way.  Because the canonical problem is
//! a pure function of the signature, the colors a component receives are
//! identical whether the cache was cold, warm, or evicted in between — and
//! identical across every translated copy of the component.
//!
//! # Capacity and eviction
//!
//! [`MemoCache`] is thread-safe (one internal mutex; lookups are a
//! one-word hash probe, an equality check and a recency bump) and bounded:
//! when an insert would exceed the configured entry capacity, the
//! least-recently-used entry is evicted.  [`MemoCache::stats`] reports
//! entries, capacity, hits, misses, evictions and an approximate byte
//! footprint, so services can observe warm-up.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// An axis-aligned rectangle in absolute layout coordinates, as
/// `(xlo, ylo, xhi, yhi)` nanometres.
pub type RectNm = (i64, i64, i64, i64);

/// A borrowed view of one live component, in the component's local vertex
/// ids, as handed to [`canonicalize`].
///
/// The geometry is passed flat, as plain coordinate tuples, so this crate
/// stays dependency-free and callers fill two vectors per component rather
/// than one per vertex.
#[derive(Debug, Clone, Copy)]
pub struct ComponentView<'a> {
    /// A free-form fingerprint of everything that influences coloring
    /// besides the component itself (engine, division flags, thresholds,
    /// time limits).  Two configurations with different fingerprints never
    /// share cache entries.
    pub fingerprint: &'a str,
    /// Number of colors K.
    pub k: usize,
    /// Stitch weight α.
    pub alpha: f64,
    /// Every vertex's rectangles in absolute coordinates, concatenated in
    /// live local vertex id order.  Rectangle order within a vertex must be
    /// construction order (translation-stable), which layout flattening
    /// guarantees.
    pub rects: &'a [RectNm],
    /// One entry per live vertex: `ends[v]` is one past vertex `v`'s last
    /// rectangle in `rects`, so `v` owns `rects[ends[v - 1]..ends[v]]`
    /// (from 0 for `v = 0`).  Non-decreasing, ending at `rects.len()`.
    pub ends: &'a [usize],
    /// Conflict edges over live local ids.
    pub conflict_edges: &'a [(usize, usize)],
    /// Stitch edges over live local ids.
    pub stitch_edges: &'a [(usize, usize)],
    /// Color-friendly pairs over live local ids.
    pub friendly_pairs: &'a [(usize, usize)],
}

impl ComponentView<'_> {
    /// The rectangles of live vertex `v`.
    fn vertex_rects(&self, v: usize) -> &[RectNm] {
        let start = if v == 0 { 0 } else { self.ends[v - 1] };
        &self.rects[start..self.ends[v]]
    }
}

/// The translation-invariant cache key of a component.
///
/// Built by [`canonicalize`].  [`Hash`] writes the content hash computed
/// there; equality compares that hash and then every field (see the crate
/// docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// Keyed content hash of every field below.  Declared first, so the
    /// derived equality rejects a mismatch on it before the fields.
    hash: u64,
    fingerprint: String,
    k: usize,
    /// α take part in the coloring objective; keyed by exact bit pattern.
    alpha_bits: u64,
    /// Canonical-order, origin-normalized rectangles of every vertex.
    rects: Vec<RectNm>,
    /// `ends[c]`: one past canonical vertex `c`'s last rectangle in `rects`.
    ends: Vec<u32>,
    conflict_edges: Vec<(u32, u32)>,
    stitch_edges: Vec<(u32, u32)>,
    friendly_pairs: Vec<(u32, u32)>,
}

impl Hash for Signature {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl Signature {
    /// Number of vertices of the component.
    pub fn vertex_count(&self) -> usize {
        self.ends.len()
    }

    /// Number of colors K.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Stitch weight α.
    pub fn alpha(&self) -> f64 {
        f64::from_bits(self.alpha_bits)
    }

    /// Canonical conflict edges (sorted, `(min, max)`-oriented).
    pub fn conflict_edges(&self) -> &[(u32, u32)] {
        &self.conflict_edges
    }

    /// Canonical stitch edges (sorted, `(min, max)`-oriented).
    pub fn stitch_edges(&self) -> &[(u32, u32)] {
        &self.stitch_edges
    }

    /// Canonical color-friendly pairs (sorted, `(min, max)`-oriented).
    pub fn friendly_pairs(&self) -> &[(u32, u32)] {
        &self.friendly_pairs
    }

    /// The keyed content hash of every other field.  The key is drawn once
    /// per process, so the value is stable within a run but not across
    /// runs.
    fn content_hash(&self) -> u64 {
        static KEY: OnceLock<RandomState> = OnceLock::new();
        let mut hasher = KEY.get_or_init(RandomState::new).build_hasher();
        self.fingerprint.hash(&mut hasher);
        hasher.write_usize(self.k);
        hasher.write_u64(self.alpha_bits);
        self.ends.hash(&mut hasher);
        let edge_lists = [
            &self.conflict_edges,
            &self.stitch_edges,
            &self.friendly_pairs,
        ];
        for edges in edge_lists {
            hasher.write_usize(edges.len());
        }
        let coordinates = self
            .rects
            .iter()
            .flat_map(|&(xlo, ylo, xhi, yhi)| [xlo, ylo, xhi, yhi])
            .map(|coordinate| coordinate as u64);
        let edges = edge_lists
            .into_iter()
            .flatten()
            .map(|&(u, v)| pack_edge(u, v));
        write_words(&mut hasher, coordinates.chain(edges));
        hasher.finish()
    }

    /// Approximate heap footprint of the signature plus a stored coloring,
    /// for the cache's byte accounting: the fingerprint, the rectangles,
    /// one end offset per vertex, the edges and one color byte per vertex.
    fn approximate_bytes(&self) -> usize {
        self.fingerprint.len()
            + self.rects.len() * std::mem::size_of::<RectNm>()
            + self.ends.len() * std::mem::size_of::<u32>()
            + (self.conflict_edges.len() + self.stitch_edges.len() + self.friendly_pairs.len())
                * std::mem::size_of::<(u32, u32)>()
            + self.vertex_count() // the stored coloring, one byte per vertex
    }
}

/// Feeds `words` to `hasher` in 512-byte runs: SipHash digests one long
/// write several times faster than one small write per value.
fn write_words(hasher: &mut impl Hasher, words: impl Iterator<Item = u64>) {
    let mut buffer = [0u8; 512];
    let mut len = 0;
    for word in words {
        buffer[len..len + 8].copy_from_slice(&word.to_le_bytes());
        len += 8;
        if len == buffer.len() {
            hasher.write(&buffer);
            len = 0;
        }
    }
    hasher.write(&buffer[..len]);
}

/// An edge `(u, v)` as one word whose order is the pair's lexicographic
/// order.
fn pack_edge(u: u32, v: u32) -> u64 {
    (u64::from(u) << 32) | u64::from(v)
}

/// The result of canonicalizing one live component: the cache key plus the
/// permutation that maps canonical colors back onto live vertices.
#[derive(Debug, Clone)]
pub struct CanonicalComponent {
    /// The translation-invariant cache key.
    pub signature: Signature,
    /// `perm[canonical] = live`: the live local vertex id at each canonical
    /// position.
    pub perm: Vec<usize>,
}

/// Canonicalizes one live component (see the crate docs for the three
/// normalization steps).
///
/// # Panics
///
/// Panics if `view.ends` is not a valid split of `view.rects`, if an edge
/// endpoint is out of range of `view.ends`, or if the component holds
/// `u32::MAX` rectangles or more.
pub fn canonicalize(view: &ComponentView<'_>) -> CanonicalComponent {
    let n = view.ends.len();
    assert_eq!(
        view.ends.last().copied().unwrap_or(0),
        view.rects.len(),
        "the last vertex end must close the rectangle list"
    );
    assert!(
        u32::try_from(view.rects.len()).is_ok(),
        "a component's rectangle offsets must fit u32"
    );
    // Step 1: normalize to the component's bounding-box origin.
    let origin_x = view.rects.iter().map(|rect| rect.0).min().unwrap_or(0);
    let origin_y = view.rects.iter().map(|rect| rect.1).min().unwrap_or(0);

    // Step 2: sort vertices by geometry.  A translation preserves the
    // lexicographic order of rectangle lists, so sorting the absolute
    // rectangles gives the normalized order.  Distinct vertices have
    // distinct positions (coincident shapes aside), so the order — and
    // therefore the whole signature — is translation-invariant; the live-id
    // tie-break only makes exact-overlap degeneracies deterministic (and
    // makes the order total, so an unstable sort is exact).  Each vertex
    // carries its first rectangle as the leading key, so most comparisons
    // never look up the vertices' rectangle lists.
    let mut keyed: Vec<(Option<RectNm>, usize)> = (0..n)
        .map(|v| (view.vertex_rects(v).first().copied(), v))
        .collect();
    keyed.sort_unstable_by(|&(first_a, a), &(first_b, b)| {
        first_a
            .cmp(&first_b)
            .then_with(|| view.vertex_rects(a).cmp(view.vertex_rects(b)))
            .then(a.cmp(&b))
    });
    let perm: Vec<usize> = keyed.into_iter().map(|(_, v)| v).collect();
    let mut canonical_of = vec![0u32; n];
    for (position, &live) in perm.iter().enumerate() {
        canonical_of[live] = position as u32;
    }

    // Step 3: relabel the edge lists through the permutation, sorting the
    // edges packed into single words.
    let relabel = |edges: &[(usize, usize)]| -> Vec<(u32, u32)> {
        let mut packed: Vec<u64> = edges
            .iter()
            .map(|&(u, v)| {
                let (cu, cv) = (canonical_of[u], canonical_of[v]);
                pack_edge(cu.min(cv), cu.max(cv))
            })
            .collect();
        packed.sort_unstable();
        packed
            .into_iter()
            .map(|word| ((word >> 32) as u32, word as u32))
            .collect()
    };

    let mut rects = Vec::with_capacity(view.rects.len());
    let mut ends = Vec::with_capacity(n);
    for &live in &perm {
        rects.extend(view.vertex_rects(live).iter().map(|&(xlo, ylo, xhi, yhi)| {
            (
                xlo - origin_x,
                ylo - origin_y,
                xhi - origin_x,
                yhi - origin_y,
            )
        }));
        ends.push(rects.len() as u32);
    }
    let mut signature = Signature {
        hash: 0,
        fingerprint: view.fingerprint.to_string(),
        k: view.k,
        alpha_bits: view.alpha.to_bits(),
        rects,
        ends,
        conflict_edges: relabel(view.conflict_edges),
        stitch_edges: relabel(view.stitch_edges),
        friendly_pairs: relabel(view.friendly_pairs),
    };
    signature.hash = signature.content_hash();
    CanonicalComponent { signature, perm }
}

/// Maps a canonical coloring onto live local vertex ids:
/// `live[perm[c]] = canonical[c]`.
///
/// # Panics
///
/// Panics if `canonical_colors` and `perm` have different lengths.
pub fn stamp(canonical_colors: &[u8], perm: &[usize]) -> Vec<u8> {
    assert_eq!(
        canonical_colors.len(),
        perm.len(),
        "permutation length mismatch"
    );
    let mut live = vec![0u8; perm.len()];
    for (canonical, &live_id) in perm.iter().enumerate() {
        live[live_id] = canonical_colors[canonical];
    }
    live
}

/// The inverse of [`stamp`]: recovers the canonical coloring from live
/// colors, `canonical[c] = live[perm[c]]`.
///
/// # Panics
///
/// Panics if `live_colors` and `perm` have different lengths.
pub fn unstamp(live_colors: &[u8], perm: &[usize]) -> Vec<u8> {
    assert_eq!(live_colors.len(), perm.len(), "permutation length mismatch");
    perm.iter().map(|&live_id| live_colors[live_id]).collect()
}

/// A point-in-time snapshot of a [`MemoCache`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Entries currently stored.
    pub entries: usize,
    /// The entry capacity the cache was created with.
    pub capacity: usize,
    /// Lookups that found a stored coloring.
    pub hits: u64,
    /// Lookups that found nothing.  A batch looks up every component,
    /// so an in-batch duplicate of a component not yet stored counts here
    /// as well as in its layout's `memo_hits`: `misses` can exceed the
    /// number of components the engine colored.
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Approximate bytes held by stored signatures and colorings.
    pub bytes: usize,
}

struct Entry {
    colors: Arc<Vec<u8>>,
    bytes: usize,
    /// Monotonic recency stamp; smallest = least recently used.
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<Signature, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    bytes: usize,
}

/// A thread-safe, capacity-bounded signature → coloring cache.
///
/// Shared by reference-counting: a service holds one `Arc<MemoCache>` and
/// attaches it to every session, so repeated submissions of the same cell
/// library get faster over time.  See the crate docs for the determinism
/// guarantee.
///
/// Keys are [`Signature`]s: flat geometry plus edge lists, hashed once when
/// they are built.  So the work done under the internal mutex is a
/// one-word hash probe plus, on a hit, the full-equality check that rules
/// out a collision — never a pass of the hasher over a whole component.
pub struct MemoCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for MemoCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("MemoCache")
            .field("entries", &stats.entries)
            .field("capacity", &stats.capacity)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("evictions", &stats.evictions)
            .finish()
    }
}

impl MemoCache {
    /// The default entry capacity (components, not bytes): generous enough
    /// for a large cell library, small enough that worst-case signatures
    /// stay in the tens of megabytes.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// Creates a cache bounded to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (front ends reject that earlier with a
    /// typed configuration error).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "memo cache capacity must be at least 1");
        MemoCache {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up a stored canonical coloring, counting a hit or a miss and
    /// refreshing the entry's recency on a hit.
    pub fn lookup(&self, signature: &Signature) -> Option<Arc<Vec<u8>>> {
        let mut inner = self.inner.lock().expect("memo cache lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(signature) {
            Some(entry) => {
                entry.last_used = tick;
                let colors = entry.colors.clone();
                inner.hits += 1;
                Some(colors)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Stores a canonical coloring, evicting least-recently-used entries if
    /// the capacity would be exceeded.  Re-inserting an existing signature
    /// refreshes its recency and replaces its colors.
    ///
    /// # Panics
    ///
    /// Panics if `colors` does not have one color per signature vertex.
    pub fn insert(&self, signature: Signature, colors: Vec<u8>) {
        assert_eq!(
            colors.len(),
            signature.vertex_count(),
            "stored coloring length must match the signature's vertex count"
        );
        let bytes = signature.approximate_bytes();
        let mut inner = self.inner.lock().expect("memo cache lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(previous) = inner.map.insert(
            signature,
            Entry {
                colors: Arc::new(colors),
                bytes,
                last_used: tick,
            },
        ) {
            inner.bytes -= previous.bytes;
        }
        inner.bytes += bytes;
        while inner.map.len() > self.capacity {
            // O(entries) scan: eviction only runs once the cache is full,
            // and the capacity bounds the scan.
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(signature, _)| signature.clone())
                .expect("a cache over capacity is non-empty");
            if let Some(evicted) = inner.map.remove(&victim) {
                inner.bytes -= evicted.bytes;
                inner.evictions += 1;
            }
        }
    }

    /// A snapshot of the cache's counters.
    pub fn stats(&self) -> MemoStats {
        let inner = self.inner.lock().expect("memo cache lock poisoned");
        MemoStats {
            entries: inner.map.len(),
            capacity: self.capacity,
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            bytes: inner.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-vertex geometry in a view's flat `rects`/`ends` form.
    struct Flat {
        rects: Vec<RectNm>,
        ends: Vec<usize>,
    }

    impl Flat {
        fn new(geometry: &[Vec<RectNm>]) -> Self {
            let mut rects = Vec::new();
            let ends = geometry
                .iter()
                .map(|vertex| {
                    rects.extend_from_slice(vertex);
                    rects.len()
                })
                .collect();
            Flat { rects, ends }
        }

        /// A three-vertex path with one stitch and one friendly pair over
        /// this geometry.
        fn view(&self) -> ComponentView<'_> {
            ComponentView {
                fingerprint: "test-config",
                k: 4,
                alpha: 0.1,
                rects: &self.rects,
                ends: &self.ends,
                conflict_edges: &[(0, 1), (1, 2)],
                stitch_edges: &[(2, 0)],
                friendly_pairs: &[(1, 0)],
            }
        }
    }

    fn sample_signature(geometry: &[Vec<RectNm>]) -> CanonicalComponent {
        canonicalize(&Flat::new(geometry).view())
    }

    fn sample_geometry(dx: i64, dy: i64) -> Vec<Vec<RectNm>> {
        vec![
            vec![(dx, dy, dx + 20, dy + 20)],
            vec![(dx + 50, dy, dx + 70, dy + 20)],
            vec![
                (dx, dy + 50, dx + 20, dy + 70),
                (dx, dy + 70, dx + 40, dy + 90),
            ],
        ]
    }

    #[test]
    fn translated_copies_share_one_signature() {
        let a = sample_signature(&sample_geometry(0, 0));
        let b = sample_signature(&sample_geometry(123_456, -789_012));
        assert_eq!(a.signature, b.signature);
        assert_eq!(a.perm, b.perm);
    }

    #[test]
    fn different_geometry_config_or_edges_change_the_signature() {
        let base = Flat::new(&sample_geometry(0, 0));
        let reference = canonicalize(&base.view()).signature;

        let mut stretched = sample_geometry(0, 0);
        stretched[0][0].2 += 1;
        assert_ne!(sample_signature(&stretched).signature, reference);

        // The same rectangles split between vertices differently.
        let mut regrouped = sample_geometry(0, 0);
        let moved = regrouped[2].pop().expect("vertex 2 has two rectangles");
        regrouped[1].push(moved);
        assert_ne!(sample_signature(&regrouped).signature, reference);

        let mut other_config = base.view();
        other_config.fingerprint = "another-config";
        assert_ne!(canonicalize(&other_config).signature, reference);

        let mut other_alpha = base.view();
        other_alpha.alpha = 0.2;
        assert_ne!(canonicalize(&other_alpha).signature, reference);

        let mut fewer_edges = base.view();
        fewer_edges.conflict_edges = &[(0, 1)];
        assert_ne!(canonicalize(&fewer_edges).signature, reference);
    }

    #[test]
    fn vertex_relabeling_produces_the_same_canonical_form() {
        // The same component with live ids permuted (0↔2): geometry and
        // edges are rewritten consistently, so the canonical form agrees.
        let geometry = sample_geometry(0, 0);
        let swapped_geometry = Flat::new(&[
            geometry[2].clone(),
            geometry[1].clone(),
            geometry[0].clone(),
        ]);
        let swapped = ComponentView {
            conflict_edges: &[(2, 1), (1, 0)],
            stitch_edges: &[(0, 2)],
            friendly_pairs: &[(1, 2)],
            ..swapped_geometry.view()
        };
        let a = sample_signature(&geometry);
        let b = canonicalize(&swapped);
        assert_eq!(a.signature, b.signature);
        // The permutations differ (they map to different live ids) but
        // stamping any canonical coloring colors matching vertices alike.
        let canonical_colors = vec![0, 1, 2];
        let live_a = stamp(&canonical_colors, &a.perm);
        let live_b = stamp(&canonical_colors, &b.perm);
        assert_eq!(live_a[0], live_b[2]);
        assert_eq!(live_a[1], live_b[1]);
        assert_eq!(live_a[2], live_b[0]);
    }

    #[test]
    fn stamp_and_unstamp_are_inverses() {
        let canonical = sample_signature(&sample_geometry(7, -3));
        let canonical_colors = vec![3, 0, 2];
        let live = stamp(&canonical_colors, &canonical.perm);
        assert_eq!(unstamp(&live, &canonical.perm), canonical_colors);
    }

    #[test]
    fn cache_counts_hits_misses_and_bytes() {
        let cache = MemoCache::new(8);
        let canonical = sample_signature(&sample_geometry(0, 0));
        assert!(cache.lookup(&canonical.signature).is_none());
        cache.insert(canonical.signature.clone(), vec![0, 1, 2]);
        let stored = cache.lookup(&canonical.signature).expect("hit");
        assert_eq!(*stored, vec![0, 1, 2]);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.capacity, 8);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 0);
        // The flat layout: an 11-byte fingerprint, four 32-byte rectangles,
        // three 4-byte vertex ends, four 8-byte edges, three color bytes.
        assert_eq!(stats.bytes, 11 + 4 * 32 + 3 * 4 + 4 * 8 + 3);
    }

    #[test]
    fn eviction_removes_the_least_recently_used_entry() {
        let cache = MemoCache::new(2);
        let signatures: Vec<Signature> = (0..3)
            .map(|index| {
                let mut geometry = sample_geometry(0, 0);
                geometry[0][0].2 += index; // three distinct components
                sample_signature(&geometry).signature
            })
            .collect();
        cache.insert(signatures[0].clone(), vec![0, 0, 0]);
        cache.insert(signatures[1].clone(), vec![1, 1, 1]);
        // Touch entry 0 so entry 1 becomes the LRU victim.
        assert!(cache.lookup(&signatures[0]).is_some());
        cache.insert(signatures[2].clone(), vec![2, 2, 2]);
        assert!(cache.lookup(&signatures[1]).is_none(), "LRU entry evicted");
        assert!(cache.lookup(&signatures[0]).is_some());
        assert!(cache.lookup(&signatures[2]).is_some());
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn reinserting_a_signature_replaces_without_growing() {
        let cache = MemoCache::new(4);
        let signature = sample_signature(&sample_geometry(0, 0)).signature;
        cache.insert(signature.clone(), vec![0, 0, 0]);
        let before = cache.stats().bytes;
        cache.insert(signature.clone(), vec![1, 2, 3]);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, before);
        assert_eq!(*cache.lookup(&signature).expect("hit"), vec![1, 2, 3]);
    }

    #[test]
    fn lookups_are_usable_across_threads() {
        let cache = std::sync::Arc::new(MemoCache::new(64));
        let signature = sample_signature(&sample_geometry(0, 0)).signature;
        cache.insert(signature.clone(), vec![0, 1, 2]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = cache.clone();
                let signature = signature.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        assert!(cache.lookup(&signature).is_some());
                    }
                });
            }
        });
        assert_eq!(cache.stats().hits, 400);
    }
}
