//! The device network: which node pairs share a physical entanglement
//! link.

use dqc_types::{NodeId, UnknownName};
use std::collections::BTreeSet;
use std::fmt;

/// The inter-node network of a distributed QPU: an undirected device
/// graph whose edges are physical entanglement links. Every link has the
/// system-wide EPR fidelity, κ and attempt cycle.
///
/// The paper's two-node system is the complete graph on two vertices;
/// larger systems expose the co-design lever the paper abstracts away —
/// remote gates between non-adjacent nodes must route multi-hop swap
/// chains, paying fidelity and latency per hop (see
/// [`RoutingTable`](crate::RoutingTable)).
///
/// Edges are stored normalized (`a < b`) in a sorted set, so equality,
/// iteration order, and everything derived from them are deterministic.
///
/// # Examples
///
/// ```
/// use dqc_entanglement::NetworkTopology;
/// use dqc_types::NodeId;
///
/// let chain = NetworkTopology::chain(4);
/// assert_eq!(chain.num_edges(), 3);
/// assert!(chain.has_edge(NodeId::new(0), NodeId::new(1)));
/// assert!(!chain.has_edge(NodeId::new(0), NodeId::new(3)));
/// assert!(chain.is_connected());
///
/// let full = NetworkTopology::all_to_all(4);
/// assert_eq!(full.num_edges(), 6);
/// assert_eq!(full.max_degree(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkTopology {
    num_nodes: usize,
    edges: BTreeSet<(u16, u16)>,
}

impl NetworkTopology {
    /// Normalizes an edge key, rejecting self-loops and range errors.
    fn key(num_nodes: usize, a: NodeId, b: NodeId) -> (u16, u16) {
        assert_ne!(a, b, "self-loop link at {a}");
        assert!(
            a.as_usize() < num_nodes && b.as_usize() < num_nodes,
            "edge ({a}, {b}) out of range for {num_nodes} nodes"
        );
        let (x, y) = (a.index(), b.index());
        if x < y {
            (x, y)
        } else {
            (y, x)
        }
    }

    /// Builds a topology from an explicit edge list. Duplicate edges are
    /// merged.
    ///
    /// # Panics
    ///
    /// Panics when `num_nodes` is zero, exceeds `u16::MAX + 1`, or an
    /// edge is a self-loop / out of range.
    pub fn from_edges(num_nodes: usize, edges: &[(u16, u16)]) -> Self {
        assert!(num_nodes > 0, "need at least one node");
        assert!(
            num_nodes <= u16::MAX as usize + 1,
            "node ids are u16: {num_nodes} nodes do not fit"
        );
        let edges = edges
            .iter()
            .map(|&(a, b)| Self::key(num_nodes, NodeId::new(a), NodeId::new(b)))
            .collect();
        Self { num_nodes, edges }
    }

    /// The complete graph: every node pair shares a direct link (the
    /// implicit assumption of the paper's evaluation, and the default of
    /// the executor when no topology is configured).
    pub fn all_to_all(num_nodes: usize) -> Self {
        // Iterate in usize: `num_nodes as u16` would wrap to 0 at the
        // documented maximum of u16::MAX + 1 nodes.
        let mut edges = Vec::new();
        for a in 0..num_nodes {
            for b in a + 1..num_nodes {
                edges.push((a as u16, b as u16));
            }
        }
        Self::from_edges(num_nodes, &edges)
    }

    /// A linear chain `0 — 1 — … — n−1` (diameter `n − 1`).
    pub fn chain(num_nodes: usize) -> Self {
        let edges: Vec<(u16, u16)> = (0..num_nodes.saturating_sub(1))
            .map(|i| (i as u16, (i + 1) as u16))
            .collect();
        Self::from_edges(num_nodes, &edges)
    }

    /// A ring: the chain closed by the edge `(n−1, 0)`.
    pub fn ring(num_nodes: usize) -> Self {
        let mut edges: Vec<(u16, u16)> = (0..num_nodes.saturating_sub(1))
            .map(|i| (i as u16, (i + 1) as u16))
            .collect();
        if num_nodes > 2 {
            edges.push(((num_nodes - 1) as u16, 0));
        }
        Self::from_edges(num_nodes, &edges)
    }

    /// A `rows × cols` rectangular grid; node `(r, c)` has index
    /// `r·cols + c`.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn grid2d(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
        let idx = |r: usize, c: usize| (r * cols + c) as u16;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        Self::from_edges(rows * cols, &edges)
    }

    /// A star: node 0 is the hub, every other node links only to it.
    pub fn star(num_nodes: usize) -> Self {
        let edges: Vec<(u16, u16)> = (1..num_nodes).map(|i| (0, i as u16)).collect();
        Self::from_edges(num_nodes, &edges)
    }

    /// A heavy-hex lattice: the brick-wall honeycomb on a `rows × cols`
    /// grid of corner nodes (all horizontal edges, vertical edges where
    /// `r + c` is even), with every edge subdivided by one degree-2
    /// "heavy" node — the IBM heavy-hex family. Corner nodes keep indices
    /// `r·cols + c`; heavy nodes are appended after them in sorted edge
    /// order.
    ///
    /// # Panics
    ///
    /// Panics when `rows` is zero or `cols < 2` (the brick wall would be
    /// disconnected).
    pub fn heavy_hex(rows: usize, cols: usize) -> Self {
        assert!(rows > 0, "heavy_hex needs at least one row");
        assert!(cols >= 2, "heavy_hex needs at least two columns");
        let idx = |r: usize, c: usize| (r * cols + c) as u16;
        let mut base = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    base.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < rows && (r + c) % 2 == 0 {
                    base.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        base.sort_unstable();
        let corners = rows * cols;
        let mut edges = Vec::with_capacity(2 * base.len());
        for (i, &(a, b)) in base.iter().enumerate() {
            let mid = (corners + i) as u16;
            edges.push((a, mid));
            edges.push((mid, b));
        }
        Self::from_edges(corners + base.len(), &edges)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of distinct links.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether `a` and `b` share a direct link.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        if a == b || a.as_usize() >= self.num_nodes || b.as_usize() >= self.num_nodes {
            return false;
        }
        let (x, y) = (a.index().min(b.index()), a.index().max(b.index()));
        self.edges.contains(&(x, y))
    }

    /// The neighbors of `node`, ascending.
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let n = node.index();
        let mut out: Vec<NodeId> = self
            .edges
            .iter()
            .filter_map(|&(a, b)| {
                if a == n {
                    Some(NodeId::new(b))
                } else if b == n {
                    Some(NodeId::new(a))
                } else {
                    None
                }
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Number of links incident to `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        let n = node.index();
        self.edges
            .iter()
            .filter(|&&(a, b)| a == n || b == n)
            .count()
    }

    /// The largest node degree (0 for an edgeless graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes)
            .map(|n| self.degree(NodeId::new(n as u16)))
            .max()
            .unwrap_or(0)
    }

    /// Hop distances from `src` to every node by BFS (`u64::MAX` when
    /// unreachable) — the single traversal behind [`Self::is_connected`]
    /// and [`Self::hop_distance_matrix`].
    fn bfs_distances(&self, src: usize) -> Vec<u64> {
        let mut dist = vec![u64::MAX; self.num_nodes];
        dist[src] = 0;
        let mut queue = std::collections::VecDeque::from([NodeId::new(src as u16)]);
        while let Some(v) = queue.pop_front() {
            for u in self.neighbors(v) {
                if dist[u.as_usize()] == u64::MAX {
                    dist[u.as_usize()] = dist[v.as_usize()] + 1;
                    queue.push_back(u);
                }
            }
        }
        dist
    }

    /// Whether every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        self.num_nodes <= 1 || self.bfs_distances(0).iter().all(|&d| d != u64::MAX)
    }

    /// All-pairs hop distances by BFS. Entries are `u64::MAX` for
    /// unreachable pairs; the diagonal is zero. This is the weight matrix
    /// consumed by the topology-aware partitioning mode of
    /// `dqc-partition`.
    pub fn hop_distance_matrix(&self) -> Vec<Vec<u64>> {
        (0..self.num_nodes)
            .map(|src| self.bfs_distances(src))
            .collect()
    }
}

/// A named, parameterized topology family — the typed *axis value* form
/// of a [`NetworkTopology`].
///
/// A full `NetworkTopology` is an arbitrary edge set and does not have a
/// stable, human-readable identity; a design-space search needs one (to
/// label scenarios, serialize results, and compare points). The family
/// enum captures the regular graphs the co-design layer sweeps over and
/// [builds](TopologyFamily::build) the concrete device graph on demand.
///
/// # Examples
///
/// ```
/// use dqc_entanglement::TopologyFamily;
///
/// let f = TopologyFamily::Grid2d { rows: 2, cols: 4 };
/// assert_eq!(f.to_string(), "grid2d(2x4)");
/// assert_eq!("grid2d(2x4)".parse::<TopologyFamily>(), Ok(f));
/// assert_eq!(f.build().num_nodes(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyFamily {
    /// The complete graph on `nodes` nodes (the paper's implicit default).
    AllToAll {
        /// Number of QPU nodes.
        nodes: usize,
    },
    /// A linear chain of `nodes` nodes.
    Chain {
        /// Number of QPU nodes.
        nodes: usize,
    },
    /// A ring of `nodes` nodes.
    Ring {
        /// Number of QPU nodes.
        nodes: usize,
    },
    /// A `rows × cols` rectangular grid.
    Grid2d {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// A star with node 0 as the hub and `nodes − 1` leaves.
    Star {
        /// Number of QPU nodes (hub included).
        nodes: usize,
    },
}

impl TopologyFamily {
    /// Builds the concrete device graph.
    ///
    /// # Panics
    ///
    /// Panics on degenerate dimensions, exactly as the corresponding
    /// [`NetworkTopology`] constructor does.
    pub fn build(self) -> NetworkTopology {
        match self {
            TopologyFamily::AllToAll { nodes } => NetworkTopology::all_to_all(nodes),
            TopologyFamily::Chain { nodes } => NetworkTopology::chain(nodes),
            TopologyFamily::Ring { nodes } => NetworkTopology::ring(nodes),
            TopologyFamily::Grid2d { rows, cols } => NetworkTopology::grid2d(rows, cols),
            TopologyFamily::Star { nodes } => NetworkTopology::star(nodes),
        }
    }

    /// Number of nodes in the built graph.
    pub const fn num_nodes(self) -> usize {
        match self {
            TopologyFamily::AllToAll { nodes }
            | TopologyFamily::Chain { nodes }
            | TopologyFamily::Ring { nodes }
            | TopologyFamily::Star { nodes } => nodes,
            TopologyFamily::Grid2d { rows, cols } => rows * cols,
        }
    }

    /// The family's bare name, without parameters.
    pub const fn family_name(self) -> &'static str {
        match self {
            TopologyFamily::AllToAll { .. } => "all_to_all",
            TopologyFamily::Chain { .. } => "chain",
            TopologyFamily::Ring { .. } => "ring",
            TopologyFamily::Grid2d { .. } => "grid2d",
            TopologyFamily::Star { .. } => "star",
        }
    }
}

impl fmt::Display for TopologyFamily {
    /// The canonical label: `family(params)`, e.g. `chain(4)` or
    /// `grid2d(2x4)`. [`FromStr`](std::str::FromStr) is the exact inverse.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopologyFamily::Grid2d { rows, cols } => write!(f, "grid2d({rows}x{cols})"),
            other => write!(f, "{}({})", other.family_name(), other.num_nodes()),
        }
    }
}

impl std::str::FromStr for TopologyFamily {
    type Err = UnknownName;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || UnknownName::new("topology", s);
        let (family, rest) = s.split_once('(').ok_or_else(err)?;
        let args = rest.strip_suffix(')').ok_or_else(err)?;
        let parse = |v: &str| v.parse::<usize>().map_err(|_| err());
        Ok(match family {
            "grid2d" => {
                let (rows, cols) = args.split_once('x').ok_or_else(err)?;
                TopologyFamily::Grid2d {
                    rows: parse(rows)?,
                    cols: parse(cols)?,
                }
            }
            "all_to_all" => TopologyFamily::AllToAll {
                nodes: parse(args)?,
            },
            "chain" => TopologyFamily::Chain {
                nodes: parse(args)?,
            },
            "ring" => TopologyFamily::Ring {
                nodes: parse(args)?,
            },
            "star" => TopologyFamily::Star {
                nodes: parse(args)?,
            },
            _ => return Err(err()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn constructors_have_expected_shape() {
        assert_eq!(NetworkTopology::chain(5).num_edges(), 4);
        assert_eq!(NetworkTopology::ring(5).num_edges(), 5);
        assert_eq!(NetworkTopology::ring(2).num_edges(), 1, "2-ring is an edge");
        assert_eq!(NetworkTopology::grid2d(2, 3).num_edges(), 7);
        assert_eq!(NetworkTopology::star(6).num_edges(), 5);
        assert_eq!(NetworkTopology::all_to_all(5).num_edges(), 10);
        assert_eq!(NetworkTopology::chain(1).num_edges(), 0);
    }

    #[test]
    fn all_constructors_are_connected() {
        for topo in [
            NetworkTopology::chain(6),
            NetworkTopology::ring(6),
            NetworkTopology::grid2d(2, 3),
            NetworkTopology::star(6),
            NetworkTopology::all_to_all(6),
            NetworkTopology::heavy_hex(2, 3),
        ] {
            assert!(topo.is_connected(), "{topo:?}");
        }
    }

    #[test]
    fn heavy_hex_degrees_are_bounded_by_three() {
        let hex = NetworkTopology::heavy_hex(3, 4);
        assert!(hex.max_degree() <= 3, "heavy-hex caps degree at 3");
        // Heavy (subdivision) nodes have degree exactly 2.
        let corners = 3 * 4;
        for h in corners..hex.num_nodes() {
            assert_eq!(hex.degree(n(h as u16)), 2, "heavy node {h}");
        }
    }

    #[test]
    fn edges_are_normalized_and_deduplicated() {
        let t = NetworkTopology::from_edges(3, &[(1, 0), (0, 1), (2, 1)]);
        assert_eq!(t.num_edges(), 2);
        assert!(t.has_edge(n(0), n(1)));
        assert!(t.has_edge(n(1), n(0)));
        assert!(!t.has_edge(n(0), n(2)));
        assert!(!t.has_edge(n(1), n(1)));
    }

    #[test]
    fn neighbors_are_sorted() {
        let t = NetworkTopology::star(5);
        assert_eq!(t.neighbors(n(0)), vec![n(1), n(2), n(3), n(4)]);
        assert_eq!(t.neighbors(n(3)), vec![n(0)]);
        assert_eq!(t.degree(n(0)), 4);
        assert_eq!(t.max_degree(), 4);
    }

    #[test]
    fn disconnected_graph_detected() {
        let t = NetworkTopology::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!t.is_connected());
        let d = t.hop_distance_matrix();
        assert_eq!(d[0][1], 1);
        assert_eq!(d[0][2], u64::MAX);
    }

    #[test]
    fn hop_distances_match_structure() {
        let chain = NetworkTopology::chain(5);
        let d = chain.hop_distance_matrix();
        assert_eq!(d[0][4], 4);
        assert_eq!(d[1][3], 2);
        assert_eq!(d[2][2], 0);
        let ring = NetworkTopology::ring(6);
        let d = ring.hop_distance_matrix();
        assert_eq!(d[0][3], 3, "antipodal on a 6-ring");
        assert_eq!(d[0][5], 1, "wrap-around edge");
    }

    #[test]
    fn maximum_node_count_does_not_wrap() {
        // u16 ids admit exactly u16::MAX + 1 nodes; `as u16` casts of the
        // node count itself would wrap to 0 here.
        let n = u16::MAX as usize + 1;
        assert_eq!(NetworkTopology::chain(n).num_edges(), n - 1);
        assert_eq!(NetworkTopology::star(n).num_edges(), n - 1);
        assert_eq!(NetworkTopology::ring(n).num_edges(), n);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        let _ = NetworkTopology::from_edges(3, &[(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edges() {
        let _ = NetworkTopology::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn family_labels_round_trip() {
        let families = [
            TopologyFamily::AllToAll { nodes: 2 },
            TopologyFamily::Chain { nodes: 4 },
            TopologyFamily::Ring { nodes: 5 },
            TopologyFamily::Grid2d { rows: 2, cols: 4 },
            TopologyFamily::Star { nodes: 6 },
        ];
        for f in families {
            assert_eq!(f.to_string().parse::<TopologyFamily>(), Ok(f), "{f}");
        }
        for bad in ["chain", "chain(", "chain(x)", "grid2d(2)", "moebius(4)"] {
            assert!(bad.parse::<TopologyFamily>().is_err(), "{bad}");
        }
    }

    #[test]
    fn family_builds_match_constructors() {
        assert_eq!(
            TopologyFamily::Chain { nodes: 4 }.build(),
            NetworkTopology::chain(4)
        );
        assert_eq!(
            TopologyFamily::Grid2d { rows: 2, cols: 2 }.build(),
            NetworkTopology::grid2d(2, 2)
        );
        assert_eq!(TopologyFamily::Grid2d { rows: 3, cols: 2 }.num_nodes(), 6);
        assert_eq!(TopologyFamily::Star { nodes: 7 }.num_nodes(), 7);
    }
}
