//! Decomposition-graph construction (Definition 1 of the paper).

use crate::stitch::{can_split, split_at_stitches, StitchConfig};
use mpl_geometry::{map_ranges, range_count, GridIndex, Nm, Polygon, QueryStamps, Rect};
use mpl_graph::Csr;
use mpl_layout::{Layout, ShapeId, Technology};
use std::fmt;

/// A vertex of the decomposition graph: one stitch segment of one layout
/// feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub usize);

impl VertexId {
    /// The underlying dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The decomposition graph `{V, CE, SE}` of a layout (Definition 1): one
/// vertex per stitch segment, a conflict edge for every pair of segments of
/// *different* features within the minimum coloring distance, and a stitch
/// edge between consecutive segments of the same feature.  Color-friendly
/// pairs (Definition 2) are recorded alongside.
///
/// # Example
///
/// ```
/// use mpl_core::{DecompositionGraph, StitchConfig};
/// use mpl_layout::{gen, Technology};
///
/// let tech = Technology::nm20();
/// let layout = gen::fig1_contact_clique(&tech);
/// let graph = DecompositionGraph::build(&layout, &tech, 4, &StitchConfig::default());
/// assert_eq!(graph.vertex_count(), 4);
/// assert_eq!(graph.conflict_edges().len(), 6); // K4
/// assert!(graph.stitch_edges().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct DecompositionGraph {
    k: usize,
    min_s: Nm,
    shape_of: Vec<ShapeId>,
    polygons: Vec<Polygon>,
    conflict_edges: Vec<(usize, usize)>,
    stitch_edges: Vec<(usize, usize)>,
    color_friendly_pairs: Vec<(usize, usize)>,
    conflict_adjacency: Csr,
    stitch_adjacency: Csr,
}

impl DecompositionGraph {
    /// Builds the decomposition graph of `layout` for `k`-patterning.
    ///
    /// The minimum coloring distance and the color-friendly band are derived
    /// from `technology` (see [`Technology::coloring_distance`]); stitch
    /// candidates are generated according to `stitch`.
    ///
    /// Both passes over a large layout run on every available CPU
    /// ([`mpl_geometry::range_count`]), each thread over a contiguous range
    /// of shapes or segments; the graph is the same as one thread's.
    pub fn build(
        layout: &Layout,
        technology: &Technology,
        k: usize,
        stitch: &StitchConfig,
    ) -> Self {
        Self::build_in(layout, technology, k, stitch, range_count)
    }

    /// [`DecompositionGraph::build`] with each pass over `n` items walked
    /// in `ranges(n)` contiguous ranges, one thread each. Each range lists
    /// its vertices and edges in walk order, and the ranges' lists are
    /// concatenated in range order, so every range count gives the graph
    /// one range gives.
    fn build_in(
        layout: &Layout,
        technology: &Technology,
        k: usize,
        stitch: &StitchConfig,
        ranges: impl Fn(usize) -> usize,
    ) -> Self {
        let min_s = technology.coloring_distance(k);
        let friendly = technology.color_friendly_distance(k);

        // Spatial index over whole shapes, for stitch-candidate shadowing.
        // Without stitches no shape is ever split, so nothing queries it.
        let shape_index = stitch.enabled.then(|| {
            GridIndex::new(
                friendly.max(Nm(1)),
                layout.iter().flat_map(|shape| {
                    let id = shape.id().index();
                    shape.polygon().rects().iter().map(move |rect| (id, *rect))
                }),
            )
        });

        // Pass 1: split every shape that can be split at its legal stitch
        // positions; every other shape keeps its rectangles as they are.
        // Each segment is one vertex and one rectangle. A range numbers its
        // vertices from 0; its stitch edges move up by the vertices of the
        // ranges before it.
        let shapes = layout.shapes();
        let parts = map_ranges(
            ranges(shapes.len()),
            shapes.len(),
            |_| 1,
            |range| {
                let mut stamps = QueryStamps::default();
                let mut shape_of: Vec<ShapeId> = Vec::new();
                let mut rects: Vec<Rect> = Vec::new();
                let mut stitch_edges: Vec<(usize, usize)> = Vec::new();
                let mut neighbor_polys: Vec<&Polygon> = Vec::new();
                for shape in &shapes[range] {
                    let polygon = shape.polygon();
                    let split;
                    let segments = match &shape_index {
                        // A shape that can be split is one rectangle, so a
                        // shape with a rectangle closer than `min_s` to it is
                        // itself closer.
                        Some(index) if can_split(polygon, stitch) => {
                            neighbor_polys.clear();
                            let id = shape.id().index();
                            index.for_each_within(
                                &mut stamps,
                                &polygon.rects()[0],
                                min_s,
                                |other| other != id,
                                |other, _| {
                                    neighbor_polys.push(layout.shape(ShapeId(other)).polygon())
                                },
                            );
                            split = split_at_stitches(polygon, &neighbor_polys, min_s, stitch);
                            split.as_slice()
                        }
                        _ => polygon.rects(),
                    };
                    let first_vertex = rects.len();
                    for (offset, rect) in segments.iter().enumerate() {
                        shape_of.push(shape.id());
                        rects.push(*rect);
                        if offset > 0 {
                            stitch_edges.push((first_vertex + offset - 1, first_vertex + offset));
                        }
                    }
                }
                (shape_of, rects, stitch_edges)
            },
        );
        // Pass 2 needs only the segment index: the two are never held at
        // once, which keeps the peak memory of a large build down.
        drop(shape_index);
        let mut parts = parts.into_iter();
        let (mut shape_of, mut rects, mut stitch_edges) = parts.next().expect("one range at least");
        for (part_shape_of, part_rects, part_stitch_edges) in parts {
            let first_vertex = rects.len();
            stitch_edges.extend(
                part_stitch_edges
                    .into_iter()
                    .map(|(u, v)| (first_vertex + u, first_vertex + v)),
            );
            shape_of.extend(part_shape_of);
            rects.extend(part_rects);
        }

        // Pass 2: conflict edges and color-friendly pairs between segments of
        // different shapes. Each pair is met from its lower vertex only and
        // classified by the squared distance the walk measured.
        let segment_index = GridIndex::new(friendly.max(Nm(1)), rects.iter().copied().enumerate());
        let conflict_limit = min_s.squared();
        let parts = map_ranges(
            ranges(rects.len()),
            rects.len(),
            |_| 1,
            |range| {
                let mut stamps = QueryStamps::default();
                let mut conflict_edges: Vec<(usize, usize)> = Vec::new();
                let mut color_friendly_pairs: Vec<(usize, usize)> = Vec::new();
                for vertex in range {
                    let shape = shape_of[vertex];
                    segment_index.for_each_within(
                        &mut stamps,
                        &rects[vertex],
                        friendly,
                        |other| other > vertex && shape_of[other] != shape,
                        |other, gap| {
                            if gap < conflict_limit {
                                conflict_edges.push((vertex, other));
                            } else {
                                color_friendly_pairs.push((vertex, other));
                            }
                        },
                    );
                }
                (conflict_edges, color_friendly_pairs)
            },
        );
        drop(segment_index);
        let mut parts = parts.into_iter();
        let (mut conflict_edges, mut color_friendly_pairs) =
            parts.next().expect("one range at least");
        for (part_conflicts, part_friendly) in parts {
            conflict_edges.extend(part_conflicts);
            color_friendly_pairs.extend(part_friendly);
        }
        let polygons: Vec<Polygon> = rects.into_iter().map(Polygon::rect).collect();

        let n = polygons.len();
        let conflict_adjacency = Csr::from_edges(n, &conflict_edges);
        let stitch_adjacency = Csr::from_edges(n, &stitch_edges);

        DecompositionGraph {
            k,
            min_s,
            shape_of,
            polygons,
            conflict_edges,
            stitch_edges,
            color_friendly_pairs,
            conflict_adjacency,
            stitch_adjacency,
        }
    }

    /// The patterning order K the graph was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The minimum coloring distance used for conflict edges.
    pub fn coloring_distance(&self) -> Nm {
        self.min_s
    }

    /// Number of vertices (stitch segments).
    pub fn vertex_count(&self) -> usize {
        self.polygons.len()
    }

    /// The layout shape a vertex belongs to.
    pub fn shape_of(&self, vertex: VertexId) -> ShapeId {
        self.shape_of[vertex.index()]
    }

    /// The geometry of a vertex.
    pub fn polygon(&self, vertex: VertexId) -> &Polygon {
        &self.polygons[vertex.index()]
    }

    /// All conflict edges, as pairs of dense vertex indices.
    pub fn conflict_edges(&self) -> &[(usize, usize)] {
        &self.conflict_edges
    }

    /// All stitch edges.
    pub fn stitch_edges(&self) -> &[(usize, usize)] {
        &self.stitch_edges
    }

    /// All color-friendly pairs.
    pub fn color_friendly_pairs(&self) -> &[(usize, usize)] {
        &self.color_friendly_pairs
    }

    /// Conflict neighbours of a vertex.
    pub fn conflict_neighbors(&self, vertex: usize) -> &[usize] {
        self.conflict_adjacency.neighbors(vertex)
    }

    /// Stitch neighbours of a vertex.
    pub fn stitch_neighbors(&self, vertex: usize) -> &[usize] {
        self.stitch_adjacency.neighbors(vertex)
    }

    /// Conflict degree of a vertex.
    pub fn conflict_degree(&self, vertex: usize) -> usize {
        self.conflict_adjacency.degree(vertex)
    }

    /// Stitch degree of a vertex.
    pub fn stitch_degree(&self, vertex: usize) -> usize {
        self.stitch_adjacency.degree(vertex)
    }

    /// Vertices grouped into independent components (connected via either
    /// conflict or stitch edges) — the first graph-division technique.
    pub fn independent_components(&self) -> Vec<Vec<usize>> {
        let n = self.vertex_count();
        let mut label = vec![usize::MAX; n];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for start in 0..n {
            if label[start] != usize::MAX {
                continue;
            }
            let id = groups.len();
            let mut group = Vec::new();
            let mut stack = vec![start];
            label[start] = id;
            while let Some(u) = stack.pop() {
                group.push(u);
                for &v in self
                    .conflict_adjacency
                    .neighbors(u)
                    .iter()
                    .chain(self.stitch_adjacency.neighbors(u).iter())
                {
                    if label[v] == usize::MAX {
                        label[v] = id;
                        stack.push(v);
                    }
                }
            }
            group.sort_unstable();
            groups.push(group);
        }
        groups
    }
}

impl fmt::Display for DecompositionGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DecompositionGraph(|V|={}, |CE|={}, |SE|={})",
            self.vertex_count(),
            self.conflict_edges.len(),
            self.stitch_edges.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_layout::gen;

    fn tech() -> Technology {
        Technology::nm20()
    }

    #[test]
    fn fig1_clique_is_a_k4() {
        let layout = gen::fig1_contact_clique(&tech());
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
        assert_eq!(graph.vertex_count(), 4);
        assert_eq!(graph.conflict_edges().len(), 6);
        assert!(graph.stitch_edges().is_empty());
        for v in 0..4 {
            assert_eq!(graph.conflict_degree(v), 3);
            assert_eq!(graph.stitch_degree(v), 0);
        }
    }

    #[test]
    fn k5_cluster_is_a_k5() {
        let layout = gen::k5_cluster_layout(&tech());
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
        assert_eq!(graph.vertex_count(), 5);
        assert_eq!(graph.conflict_edges().len(), 10);
    }

    #[test]
    fn shapes_metres_apart_never_conflict() {
        // Gaps of 3.1·10⁹ nm and more overflow i64 when squared. The second
        // layout adds a 10¹³ nm wire, which coarsens the spatial index's
        // cells until shapes 0 and 1 share one.
        let shapes = "# layout far\n\
                      0 0 0 20 20\n\
                      1 3100000000 0 3100000020 20\n\
                      2 10000000000000 0 10000000000020 20\n";
        let wire = "3 0 1000000 10000000000000 1000020\n";
        for text in [shapes.to_string(), format!("{shapes}{wire}")] {
            let layout = mpl_layout::io::from_text(&text).expect("valid layout");
            let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
            assert_eq!(graph.vertex_count(), layout.shape_count());
            assert!(graph.conflict_edges().is_empty(), "{text}");
            assert!(graph.color_friendly_pairs().is_empty(), "{text}");
        }
    }

    #[test]
    fn a_polygon_rectangle_metres_away_leaves_a_wire_s_stitches_alone() {
        // Polygon 0 is a contact above wire 1 plus a rectangle far above
        // both. At 3.1·10⁹ nm the far rectangle's squared gap to the wire
        // used to wrap negative, so it shadowed the wire and moved its
        // stitch cuts. At 3·10⁶ nm (the control) it never did.
        let text = |far_y: i64| {
            format!(
                "# layout shadow\n0 0 240 20 260\n0 150 {far_y} 250 {}\n1 0 200 400 220\n",
                far_y + 20
            )
        };
        for far_y in [3_000_300, 3_100_000_300] {
            let layout = mpl_layout::io::from_text(&text(far_y)).expect("valid layout");
            let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
            let counts = (
                graph.vertex_count(),
                graph.conflict_edges().len(),
                graph.stitch_edges().len(),
            );
            assert_eq!(counts, (4, 1, 2), "far rectangle at y = {far_y}");
        }
    }

    #[test]
    fn distant_contacts_form_separate_components() {
        let mut builder = Layout::builder("two-islands");
        builder.add_contact(Nm(0), Nm(0), Nm(20));
        builder.add_contact(Nm(40), Nm(0), Nm(20));
        builder.add_contact(Nm(1000), Nm(0), Nm(20));
        let layout = builder.build();
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
        assert_eq!(graph.conflict_edges().len(), 1);
        let comps = graph.independent_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1]);
        assert_eq!(comps[1], vec![2]);
    }

    #[test]
    fn wire_near_contact_gains_a_stitch_segmentation() {
        let mut builder = Layout::builder("wire-and-contact");
        // A long wire with a single contact near its left end: the wire is
        // split into two stitch-connected segments.
        builder.add_rect(Rect::new(Nm(0), Nm(60), Nm(400), Nm(80)));
        builder.add_contact(Nm(0), Nm(0), Nm(20));
        let layout = builder.build();
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
        assert_eq!(graph.vertex_count(), 3);
        assert_eq!(graph.stitch_edges().len(), 1);
        // The contact conflicts with the near segment only.
        assert_eq!(graph.conflict_edges().len(), 1);
        // Both wire segments map back to the same layout shape.
        assert_eq!(graph.shape_of(VertexId(0)), graph.shape_of(VertexId(1)));
        assert_ne!(graph.shape_of(VertexId(0)), graph.shape_of(VertexId(2)));
    }

    #[test]
    fn stitch_disabled_keeps_one_vertex_per_shape() {
        let mut builder = Layout::builder("wire-and-contact");
        builder.add_rect(Rect::new(Nm(0), Nm(60), Nm(400), Nm(80)));
        builder.add_contact(Nm(0), Nm(0), Nm(20));
        let layout = builder.build();
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::disabled());
        assert_eq!(graph.vertex_count(), 2);
        assert!(graph.stitch_edges().is_empty());
        assert_eq!(graph.conflict_edges().len(), 1);
    }

    #[test]
    fn color_friendly_pairs_sit_in_the_band() {
        let mut builder = Layout::builder("friendly");
        builder.add_contact(Nm(0), Nm(0), Nm(20));
        // 90 nm away: beyond the 80 nm coloring distance but inside the
        // 100 nm color-friendly band.
        builder.add_contact(Nm(110), Nm(0), Nm(20));
        // 200 nm away: beyond both.
        builder.add_contact(Nm(320), Nm(0), Nm(20));
        let layout = builder.build();
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
        assert!(graph.conflict_edges().is_empty());
        assert_eq!(graph.color_friendly_pairs(), &[(0, 1)]);
    }

    #[test]
    fn pentuple_distance_creates_more_conflicts() {
        let layout = gen::dense_parallel_lines(&tech(), 6, Nm(200));
        let quad = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::disabled());
        let penta = DecompositionGraph::build(&layout, &tech(), 5, &StitchConfig::disabled());
        assert!(penta.conflict_edges().len() > quad.conflict_edges().len());
        assert_eq!(penta.k(), 5);
        assert_eq!(quad.coloring_distance(), Nm(80));
        assert_eq!(penta.coloring_distance(), Nm(110));
    }

    #[test]
    fn empty_layout_builds_an_empty_graph() {
        let layout = Layout::builder("empty").build();
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
        assert_eq!(graph.vertex_count(), 0);
        assert!(graph.independent_components().is_empty());
        assert_eq!(
            graph.to_string(),
            "DecompositionGraph(|V|=0, |CE|=0, |SE|=0)"
        );
    }

    /// Graph build's two passes as they were before pass 1 skipped shapes
    /// that cannot be split and pass 2 classified each pair by one
    /// rectangle distance: the oracle [`DecompositionGraph::build`] must
    /// reproduce exactly. Returns `shape_of`, the vertex polygons and the
    /// conflict, stitch and color-friendly lists.
    #[allow(clippy::type_complexity)]
    fn reference_build(
        layout: &Layout,
        technology: &Technology,
        k: usize,
        stitch: &StitchConfig,
    ) -> (
        Vec<ShapeId>,
        Vec<Polygon>,
        Vec<(usize, usize)>,
        Vec<(usize, usize)>,
        Vec<(usize, usize)>,
    ) {
        let min_s = technology.coloring_distance(k);
        let friendly = technology.color_friendly_distance(k);
        let mut shape_index = GridIndex::new(
            friendly.max(Nm(1)),
            layout.iter().flat_map(|shape| {
                let id = shape.id().index();
                shape.polygon().rects().iter().map(move |rect| (id, *rect))
            }),
        );
        let (mut shape_of, mut polygons, mut stitch_edges) = (Vec::new(), Vec::new(), Vec::new());
        for shape in layout.iter() {
            let bbox = shape.polygon().bounding_box();
            let neighbor_polys: Vec<&Polygon> = shape_index
                .query_within(&bbox, min_s)
                .iter()
                .filter(|&&id| id != shape.id().index())
                .map(|&id| layout.shape(ShapeId(id)).polygon())
                .filter(|poly| poly.within_distance(shape.polygon(), min_s))
                .collect();
            let segments = split_at_stitches(shape.polygon(), &neighbor_polys, min_s, stitch);
            let first_vertex = polygons.len();
            for (offset, rect) in segments.iter().enumerate() {
                shape_of.push(shape.id());
                polygons.push(Polygon::rect(*rect));
                if offset > 0 {
                    stitch_edges.push((first_vertex + offset - 1, first_vertex + offset));
                }
            }
        }
        let mut segment_index = GridIndex::new(
            friendly.max(Nm(1)),
            polygons.iter().enumerate().flat_map(|(vertex, polygon)| {
                polygon.rects().iter().map(move |rect| (vertex, *rect))
            }),
        );
        let (mut conflict_edges, mut friendly_pairs) = (Vec::new(), Vec::new());
        for (vertex, polygon) in polygons.iter().enumerate() {
            let bbox = polygon.bounding_box();
            for &other in segment_index.query_within(&bbox, friendly) {
                if other <= vertex || shape_of[other] == shape_of[vertex] {
                    continue;
                }
                let other_polygon = &polygons[other];
                if polygon.within_distance(other_polygon, min_s) {
                    conflict_edges.push((vertex, other));
                } else {
                    let gap = polygon.distance_squared(other_polygon);
                    if gap >= min_s.squared() && gap < friendly.squared() {
                        friendly_pairs.push((vertex, other));
                    }
                }
            }
        }
        (
            shape_of,
            polygons,
            conflict_edges,
            stitch_edges,
            friendly_pairs,
        )
    }

    /// A seeded layout of contacts, long wires in both directions and
    /// L- and U-shaped multi-rectangle polygons packed closely enough to
    /// conflict, shadow and split each other.
    fn random_layout(seed: u64, shapes: usize) -> Layout {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = |bound: i64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as i64
        };
        let mut builder = Layout::builder(format!("random-{seed}"));
        for _ in 0..shapes {
            let (x, y) = (next(1500), next(1500));
            let r = |a: i64, b: i64, c: i64, d: i64| Rect::new(Nm(a), Nm(b), Nm(c), Nm(d));
            let rects = match next(5) {
                0 => vec![r(x, y, x + 20, y + 20)],
                1 => vec![r(x, y, x + 20 + next(600), y + 20)],
                2 => vec![r(x, y, x + 20, y + 20 + next(600))],
                3 => vec![
                    r(x, y, x + 200, y + 20),
                    r(x, y, x + 20, y + 20 + next(300)),
                ],
                _ => vec![
                    r(x, y, x + 20, y + 160),
                    r(x, y, x + 120, y + 20),
                    r(x + 100, y, x + 120, y + 40 + next(200)),
                ],
            };
            builder.add_polygon(Polygon::from_rects(rects).expect("non-empty"));
        }
        builder.build()
    }

    #[test]
    fn build_matches_the_reference_passes_on_random_layouts() {
        let many = StitchConfig {
            max_stitches_per_feature: 4,
            ..StitchConfig::default()
        };
        // Conflicts, stitch edges and friendly pairs seen: the layouts must
        // exercise every list the oracle compares.
        let mut seen = [0usize; 3];
        // The chunked build at forced range counts too: seven ranges leave
        // the small layouts (the last seeds' 0 to 5 shapes) empty ranges.
        let layouts = (0..24)
            .map(|seed| (seed, random_layout(seed, 40 + 5 * seed as usize)))
            .chain(
                (0..6).map(|shapes| (100 + shapes as u64, random_layout(shapes as u64, shapes))),
            );
        for (seed, layout) in layouts {
            for stitch in [StitchConfig::default(), StitchConfig::disabled(), many] {
                for k in [3, 4, 5] {
                    let (shape_of, polygons, conflicts, stitches, friendly) =
                        reference_build(&layout, &tech(), k, &stitch);
                    for ranges in [None, Some(1), Some(2), Some(3), Some(7)] {
                        let graph = match ranges {
                            None => DecompositionGraph::build(&layout, &tech(), k, &stitch),
                            Some(ranges) => {
                                DecompositionGraph::build_in(&layout, &tech(), k, &stitch, |_| {
                                    ranges
                                })
                            }
                        };
                        let context = format!("seed {seed}, k {k}, {stitch:?}, {ranges:?} ranges");
                        let n = graph.vertex_count();
                        assert_eq!(n, polygons.len(), "{context}");
                        for vertex in 0..n {
                            assert_eq!(
                                graph.shape_of(VertexId(vertex)),
                                shape_of[vertex],
                                "{context}"
                            );
                            assert_eq!(
                                graph.polygon(VertexId(vertex)),
                                &polygons[vertex],
                                "{context}"
                            );
                        }
                        assert_eq!(graph.conflict_edges(), conflicts.as_slice(), "{context}");
                        assert_eq!(graph.stitch_edges(), stitches.as_slice(), "{context}");
                        assert_eq!(
                            graph.color_friendly_pairs(),
                            friendly.as_slice(),
                            "{context}"
                        );
                    }
                    seen[0] += conflicts.len();
                    seen[1] += stitches.len();
                    seen[2] += friendly.len();
                }
            }
        }
        assert!(seen.iter().all(|&count| count > 0), "{seen:?}");
    }

    #[test]
    fn generated_row_layout_builds_quickly_and_consistently() {
        let layout = gen::generate_row_layout(&gen::RowLayoutConfig::small("t", 11), &tech());
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
        assert!(graph.vertex_count() >= layout.shape_count());
        // Every stitch edge joins segments of the same shape; every conflict
        // edge joins segments of different shapes.
        for &(u, v) in graph.stitch_edges() {
            assert_eq!(graph.shape_of(VertexId(u)), graph.shape_of(VertexId(v)));
        }
        for &(u, v) in graph.conflict_edges() {
            assert_ne!(graph.shape_of(VertexId(u)), graph.shape_of(VertexId(v)));
        }
    }
}
