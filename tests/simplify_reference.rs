//! `mpl_graph::simplify` against a reference: the iterated hide/cut loop
//! as it was written on one `Vec` of incidences per vertex, with the
//! bridges of each round mapped back to edge ids by a scan and each side
//! collected through a `HashSet`. Every input must give an equal
//! [`Simplification`]: the same ops in the same order, sides, kernel,
//! rounds and cut lists.
//!
//! The inputs are seeded random multigraphs built to exercise every case
//! of the loop, every component of a generated row chip, and the one
//! component of a 40×40 contact lattice, each under every hide/cut
//! setting.

use mpl_core::{Decomposer, DecomposerConfig};
use mpl_geometry::Nm;
use mpl_graph::{simplify, Simplification};
use mpl_layout::gen::{generate_row_layout, RowLayoutConfig};
use mpl_layout::{Layout, Technology};

/// The parent implementation, kept as the oracle.
mod reference {
    use mpl_graph::{Biconnectivity, Simplification, SimplifyOp};

    type Incidence = (usize, usize);

    pub fn simplify(
        n: usize,
        conflict_edges: &[(usize, usize)],
        stitch_edges: &[(usize, usize)],
        k: usize,
        hide: bool,
        cut: bool,
    ) -> Simplification {
        let conflict_count = conflict_edges.len();
        let edge_count = conflict_count + stitch_edges.len();
        let mut adjacency: Vec<Vec<Incidence>> = vec![Vec::new(); n];
        for (id, &(u, v)) in conflict_edges.iter().chain(stitch_edges).enumerate() {
            assert!(
                u < n && v < n,
                "edge ({u}, {v}) out of range for {n} vertices"
            );
            adjacency[u].push((v, id));
            adjacency[v].push((u, id));
        }
        let endpoints = |id: usize| -> (usize, usize) {
            if id < conflict_count {
                conflict_edges[id]
            } else {
                stitch_edges[id - conflict_count]
            }
        };

        let mut active = vec![true; n];
        let mut removed_edge = vec![false; edge_count];
        let mut conflict_degree = vec![0usize; n];
        let mut stitch_degree = vec![0usize; n];
        for v in 0..n {
            for &(_, id) in &adjacency[v] {
                if id < conflict_count {
                    conflict_degree[v] += 1;
                } else {
                    stitch_degree[v] += 1;
                }
            }
        }

        let mut ops = Vec::new();
        let mut cut_conflicts = Vec::new();
        let mut cut_stitches = Vec::new();
        let mut rounds = 0usize;
        let mut worklist: Vec<usize> = Vec::new();
        loop {
            let mut progressed = false;

            if hide {
                worklist.clear();
                for v in 0..n {
                    if active[v] && conflict_degree[v] < k && stitch_degree[v] < 2 {
                        worklist.push(v);
                    }
                }
                while let Some(v) = worklist.pop() {
                    if !active[v] || conflict_degree[v] >= k || stitch_degree[v] >= 2 {
                        continue;
                    }
                    active[v] = false;
                    ops.push(SimplifyOp::Hide(v));
                    progressed = true;
                    for &(u, id) in &adjacency[v] {
                        if !active[u] || removed_edge[id] {
                            continue;
                        }
                        if id < conflict_count {
                            conflict_degree[u] -= 1;
                        } else {
                            stitch_degree[u] -= 1;
                        }
                        if conflict_degree[u] < k && stitch_degree[u] < 2 {
                            worklist.push(u);
                        }
                    }
                }
            }

            if cut {
                let mut local = vec![usize::MAX; n];
                let mut vertices = Vec::new();
                for v in 0..n {
                    if active[v] {
                        local[v] = vertices.len();
                        vertices.push(v);
                    }
                }
                let mut edges = Vec::new();
                let mut edge_ids = Vec::new();
                for (id, &removed) in removed_edge.iter().enumerate().take(edge_count) {
                    if removed {
                        continue;
                    }
                    let (u, v) = endpoints(id);
                    if active[u] && active[v] {
                        edges.push((local[u], local[v]));
                        edge_ids.push(id);
                    }
                }
                if !edges.is_empty() {
                    let biconnectivity = Biconnectivity::compute_from_edges(vertices.len(), &edges);
                    let mut bridge_ids = Vec::new();
                    for &(lu, lv) in biconnectivity.bridges() {
                        let key = (lu.min(lv), lu.max(lv));
                        for (position, &(eu, ev)) in edges.iter().enumerate() {
                            if (eu.min(ev), eu.max(ev)) == key {
                                bridge_ids.push(edge_ids[position]);
                                break;
                            }
                        }
                    }
                    bridge_ids.sort_unstable();
                    bridge_ids.dedup();
                    for id in bridge_ids {
                        if removed_edge[id] {
                            continue;
                        }
                        let (u, v) = endpoints(id);
                        if !active[u] || !active[v] {
                            continue;
                        }
                        let Some(side) = side_of(v, u, id, &adjacency, &active, &removed_edge)
                        else {
                            continue;
                        };
                        let (u, v, side) = {
                            let other = side_of(u, v, id, &adjacency, &active, &removed_edge)
                                .expect("a bridge separates both endpoints");
                            if other.len() < side.len() {
                                (v, u, other)
                            } else {
                                (u, v, side)
                            }
                        };
                        removed_edge[id] = true;
                        let conflict = id < conflict_count;
                        let (a, b) = endpoints(id);
                        if conflict {
                            cut_conflicts.push((a.min(b), a.max(b)));
                            conflict_degree[a] -= 1;
                            conflict_degree[b] -= 1;
                        } else {
                            cut_stitches.push((a.min(b), a.max(b)));
                            stitch_degree[a] -= 1;
                            stitch_degree[b] -= 1;
                        }
                        ops.push(SimplifyOp::Cut {
                            u,
                            v,
                            conflict,
                            side,
                        });
                        progressed = true;
                    }
                }
            }

            if !progressed {
                break;
            }
            rounds += 1;
        }

        Simplification {
            ops,
            kernel: (0..n).filter(|&v| active[v]).collect(),
            rounds,
            cut_conflicts,
            cut_stitches,
        }
    }

    fn side_of(
        from: usize,
        other: usize,
        skip_id: usize,
        adjacency: &[Vec<Incidence>],
        active: &[bool],
        removed_edge: &[bool],
    ) -> Option<Vec<usize>> {
        let mut visited = std::collections::HashSet::new();
        let mut queue = vec![from];
        visited.insert(from);
        let mut side = Vec::new();
        while let Some(v) = queue.pop() {
            if v == other {
                return None;
            }
            side.push(v);
            for &(u, id) in &adjacency[v] {
                if id == skip_id || removed_edge[id] || !active[u] || visited.contains(&u) {
                    continue;
                }
                visited.insert(u);
                queue.push(u);
            }
        }
        side.sort_unstable();
        Some(side)
    }
}

const SETTINGS: [(bool, bool); 4] = [(true, true), (true, false), (false, true), (false, false)];

/// Asserts that both implementations agree on one input under every
/// hide/cut setting, and returns how many ops and cuts they recorded.
fn assert_agrees(
    n: usize,
    conflicts: &[(usize, usize)],
    stitches: &[(usize, usize)],
    k: usize,
    context: &str,
) -> (usize, usize) {
    let (mut ops, mut cuts) = (0, 0);
    for (hide, cut) in SETTINGS {
        let got: Simplification = simplify(n, conflicts, stitches, k, hide, cut);
        let expected = reference::simplify(n, conflicts, stitches, k, hide, cut);
        assert_eq!(got, expected, "{context}, k {k}, hide {hide}, cut {cut}");
        ops += got.ops.len();
        cuts += got.cut_count();
    }
    (ops, cuts)
}

/// xorshift64: a seeded stream for the random multigraphs.
struct Stream(u64);

impl Stream {
    fn below(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % bound as u64) as usize
    }
}

/// A seeded multigraph: K5 chains joined by conflict or stitch bridges,
/// parallel conflict+stitch pairs, stitch pendants and random chords over
/// a few stray vertices. Returns `(n, conflicts, stitches)`.
#[allow(clippy::type_complexity)]
fn random_multigraph(seed: u64) -> (usize, Vec<(usize, usize)>, Vec<(usize, usize)>) {
    let mut rng = Stream(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let (mut conflicts, mut stitches) = (Vec::new(), Vec::new());
    let mut n = 0;
    let mut previous: Option<usize> = None;
    for _ in 0..1 + rng.below(4) {
        // A clique of 3 to 6 vertices.
        let size = 3 + rng.below(4);
        let first = n;
        n += size;
        for u in first..n {
            for v in u + 1..n {
                conflicts.push((u, v));
            }
        }
        if let Some(last) = previous {
            let joint = (last, first + rng.below(size));
            match rng.below(3) {
                0 => conflicts.push(joint),
                1 => stitches.push(joint),
                _ => {
                    conflicts.push(joint);
                    stitches.push(joint);
                }
            }
        }
        previous = Some(first + rng.below(size));
    }
    // Stitch pendants and short stitch chains hanging off random vertices.
    for _ in 0..rng.below(5) {
        let at = rng.below(n);
        stitches.push((at, n));
        n += 1;
        if rng.below(2) == 0 {
            stitches.push((n - 1, n));
            n += 1;
        }
    }
    // Stray vertices with random chords, some doubled as parallel pairs.
    n += rng.below(4);
    for _ in 0..rng.below(2 * n) {
        let (u, v) = (rng.below(n), rng.below(n));
        if u == v {
            continue;
        }
        match rng.below(4) {
            0 => stitches.push((u, v)),
            1 => {
                conflicts.push((u, v));
                stitches.push((v, u));
            }
            _ => conflicts.push((u, v)),
        }
    }
    // Shuffle the edge order: ids, and so bridge and op order, follow it.
    for list in [&mut conflicts, &mut stitches] {
        for i in (1..list.len()).rev() {
            list.swap(i, rng.below(i + 1));
        }
    }
    (n, conflicts, stitches)
}

#[test]
fn random_multigraphs_simplify_as_the_reference() {
    let (mut ops, mut cuts) = (0, 0);
    for seed in 0..600 {
        let (n, conflicts, stitches) = random_multigraph(seed);
        for k in 2..=5 {
            let (o, c) = assert_agrees(n, &conflicts, &stitches, k, &format!("seed {seed}"));
            ops += o;
            cuts += c;
        }
    }
    assert!(ops > 0 && cuts > 0, "ops {ops}, cuts {cuts}");
}

/// Every component problem the decomposer plans for `layout`.
fn assert_components_agree(layout: &Layout) -> (usize, usize) {
    let config = DecomposerConfig::quadruple(Technology::nm20());
    let plan = Decomposer::new(config).plan(layout).expect("valid layout");
    let (mut ops, mut cuts) = (0, 0);
    for task in plan.tasks() {
        let problem = task.problem();
        let (o, c) = assert_agrees(
            problem.vertex_count(),
            problem.conflict_edges(),
            problem.stitch_edges(),
            problem.k(),
            &format!("{} task {}", layout.name(), task.index()),
        );
        ops += o;
        cuts += c;
    }
    (ops, cuts)
}

#[test]
fn row_chip_components_simplify_as_the_reference() {
    let config = RowLayoutConfig {
        name: "rows-reference".to_string(),
        rows: 8,
        cells_per_row: 120,
        contact_density: 0.7,
        wire_density: 0.6,
        k5_clusters: 12,
        dense_strips: 6,
        strip_length: 8,
        seed: 1,
    };
    let layout = generate_row_layout(&config, &Technology::nm20());
    let (ops, cuts) = assert_components_agree(&layout);
    assert!(ops > 0 && cuts > 0, "ops {ops}, cuts {cuts}");
}

#[test]
fn lattice_simplifies_as_the_reference() {
    // At a 70 nm pitch orthogonal and diagonal neighbours conflict: one
    // degree-8 component with no bridges.
    let tech = Technology::nm20();
    let mut builder = Layout::builder("lattice-40x40");
    for j in 0..40 {
        for i in 0..40 {
            builder.add_contact(Nm(70 * i), Nm(70 * j), tech.min_width());
        }
    }
    let (ops, _) = assert_components_agree(&builder.build());
    assert!(ops > 0, "the lattice's corners hide");
}
