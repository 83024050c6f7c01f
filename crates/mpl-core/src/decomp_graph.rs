//! Decomposition-graph construction (Definition 1 of the paper).

use crate::stitch::{split_at_stitches, StitchConfig};
use mpl_geometry::{GridIndex, Nm, Polygon};
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
    pub fn build(
        layout: &Layout,
        technology: &Technology,
        k: usize,
        stitch: &StitchConfig,
    ) -> Self {
        let min_s = technology.coloring_distance(k);
        let friendly = technology.color_friendly_distance(k);

        // Spatial index over whole shapes, used both for stitch-candidate
        // shadowing and for conflict-edge construction.
        let mut shape_index = GridIndex::new(
            friendly.max(Nm(1)),
            layout.iter().flat_map(|shape| {
                let id = shape.id().index();
                shape.polygon().rects().iter().map(move |rect| (id, *rect))
            }),
        );

        // Pass 1: split every shape at its legal stitch positions.  One
        // peer buffer serves every shape (no per-shape Vecs).
        let mut shape_of: Vec<ShapeId> = Vec::new();
        let mut polygons: Vec<Polygon> = Vec::new();
        let mut stitch_edges: Vec<(usize, usize)> = Vec::new();
        let mut neighbor_polys: Vec<&Polygon> = Vec::new();
        for shape in layout.iter() {
            let bbox = shape.polygon().bounding_box();
            neighbor_polys.clear();
            neighbor_polys.extend(
                shape_index
                    .query_within(&bbox, min_s)
                    .iter()
                    .filter(|&&id| id != shape.id().index())
                    .map(|&id| layout.shape(ShapeId(id)).polygon())
                    .filter(|poly| poly.within_distance(shape.polygon(), min_s)),
            );
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

        // Pass 2: conflict edges and color-friendly pairs between segments of
        // different shapes.
        let mut segment_index = GridIndex::new(
            friendly.max(Nm(1)),
            polygons.iter().enumerate().flat_map(|(vertex, polygon)| {
                polygon.rects().iter().map(move |rect| (vertex, *rect))
            }),
        );
        let mut conflict_edges: Vec<(usize, usize)> = Vec::new();
        let mut color_friendly_pairs: Vec<(usize, usize)> = Vec::new();
        for (vertex, polygon) in polygons.iter().enumerate() {
            let bbox = polygon.bounding_box();
            for &other in segment_index.query_within(&bbox, friendly) {
                if other <= vertex || shape_of[other] == shape_of[vertex] {
                    continue;
                }
                let other_polygon = &polygons[other];
                if polygon.within_distance(other_polygon, min_s) {
                    conflict_edges.push((vertex, other));
                } else if polygon.within_distance_band(other_polygon, min_s, friendly) {
                    color_friendly_pairs.push((vertex, other));
                }
            }
        }

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
    use mpl_geometry::Rect;
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
