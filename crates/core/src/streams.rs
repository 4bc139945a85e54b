//! Network-backed edge streams: the bridge between the graph substrate and
//! the matching substrate.
//!
//! Section IV-D of the paper: "We achieve this order by one Dijkstra
//! execution per customer, yielding distances to candidate facilities in
//! non-decreasing order; such distance values give the weights of new edges
//! in `G_b`", with the per-customer searches persisting across `FindPair`
//! calls. [`NetworkStream`] is that persistent search, shaped as the
//! [`EdgeStream`] the incremental matcher consumes.
//!
//! The same order can come from the other side. On a symmetric graph
//! (every arc has a reverse arc of equal weight, [`Graph::is_symmetric`])
//! `d(c, v) = d(v, c)`, so one row rooted at each facility node `v` holds
//! every customer's distance to `v`. A customer's stream is then its ℓ
//! lookups `(row_v[c], v)` sorted by `(distance, node)` — the order the
//! lazy search settles nodes in (see [`OracleStream`]) — which is why
//! [`Distances::FacilityRows`] yields the same solutions as the paper's
//! per-customer searches while running ℓ searches instead of m.

use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use mcfs_flow::EdgeStream;
use mcfs_graph::{Dist, DistanceOracle, Graph, LazyDijkstra, NodeId, INF};
use rustc_hash::FxHashMap;

use crate::stats::DistanceSide;

/// Shared lookup from network node to the candidate-facility indices located
/// there (several facilities may share a node).
pub type FacilityMap = Rc<FxHashMap<NodeId, Vec<u32>>>;

/// A per-customer stream of `(facility index, network distance)` pairs in
/// nondecreasing distance order, produced by a resumable Dijkstra over the
/// road network.
pub struct NetworkStream<'g> {
    graph: &'g Graph,
    search: LazyDijkstra,
    facilities_at: FacilityMap,
    /// Facilities co-located on an already-settled node, pending emission.
    pending: VecDeque<(u32, u64)>,
}

impl<'g> NetworkStream<'g> {
    /// Stream for a customer located at `source`.
    pub fn new(graph: &'g Graph, source: NodeId, facilities_at: FacilityMap) -> Self {
        Self {
            graph,
            search: LazyDijkstra::new(source),
            facilities_at,
            pending: VecDeque::new(),
        }
    }

    /// Build one stream per customer over a shared facility map.
    pub fn for_customers(
        graph: &'g Graph,
        customers: &[NodeId],
        facilities_at: FacilityMap,
    ) -> Vec<Self> {
        customers
            .iter()
            .map(|&s| Self::new(graph, s, Rc::clone(&facilities_at)))
            .collect()
    }
}

impl EdgeStream for NetworkStream<'_> {
    fn next_edge(&mut self) -> Option<(u32, u64)> {
        if let Some(e) = self.pending.pop_front() {
            return Some(e);
        }
        while let Some((node, dist)) = self.search.next_settled(self.graph) {
            if let Some(fs) = self.facilities_at.get(&node) {
                let mut it = fs.iter().copied();
                let first = it.next().expect("facility map entries are nonempty");
                for j in it {
                    self.pending.push_back((j, dist));
                }
                return Some((first, dist));
            }
        }
        None
    }
}

/// A per-customer stream backed by a precomputed [`DistanceOracle`] row
/// instead of a live search.
///
/// Emission order is **identical** to [`NetworkStream`]'s: edge weights are
/// strictly positive (`GraphBuilder` clamps to ≥ 1), so a lazy Dijkstra
/// settles nodes in globally sorted `(distance, node id)` order — every node
/// at distance `d` is already on the heap when the first of them pops, and
/// the binary heap breaks distance ties by smaller node id. Sorting the
/// row's facility-hosting nodes by `(distance, node id)` and expanding each
/// node's facility list in map order therefore replays the exact sequence a
/// `NetworkStream` would produce, which is what makes the oracle-backed
/// solver paths byte-identical to the legacy lazy paths.
///
/// Unlike `NetworkStream` this materializes the whole candidate list up
/// front (the row is already paid for), trading `O(ℓ)` memory per customer
/// for zero per-edge search work.
#[derive(Clone, Debug)]
pub struct OracleStream {
    edges: Vec<(u32, u64)>,
    pos: usize,
}

impl OracleStream {
    /// Stream for a customer whose one-to-all distance row is `row`.
    /// Unreachable facilities (`INF` row entries) are omitted, matching the
    /// lazy stream's behavior of never settling them.
    pub fn from_row(row: &[Dist], facilities_at: &FxHashMap<NodeId, Vec<u32>>) -> Self {
        Self::from_node_distances(
            facilities_at.keys().map(|&v| (row[v as usize], v)),
            facilities_at,
        )
    }

    /// Stream for a customer at `customer` from rows rooted at the facility
    /// nodes (`(v, row_v)` pairs covering every key of `facilities_at`).
    /// Only valid on a symmetric graph, where `row_v[customer]` is the
    /// customer's distance to `v`.
    pub fn from_facility_rows(
        customer: NodeId,
        rows: &[(NodeId, Arc<Vec<Dist>>)],
        facilities_at: &FxHashMap<NodeId, Vec<u32>>,
    ) -> Self {
        Self::from_node_distances(
            rows.iter().map(|(v, row)| (row[customer as usize], *v)),
            facilities_at,
        )
    }

    /// The shared core of both sides: drop unreachable facility nodes, sort
    /// the rest by `(distance, node id)` and expand each node's facilities
    /// in map order.
    fn from_node_distances(
        nodes: impl Iterator<Item = (Dist, NodeId)>,
        facilities_at: &FxHashMap<NodeId, Vec<u32>>,
    ) -> Self {
        let mut nodes: Vec<(Dist, NodeId)> = nodes.filter(|&(d, _)| d != INF).collect();
        nodes.sort_unstable();
        let mut edges = Vec::new();
        for (d, v) in nodes {
            for &j in &facilities_at[&v] {
                edges.push((j, d));
            }
        }
        Self { edges, pos: 0 }
    }
}

impl EdgeStream for OracleStream {
    fn next_edge(&mut self) -> Option<(u32, u64)> {
        let e = self.edges.get(self.pos).copied();
        self.pos += 1;
        e
    }
}

/// Where a solver run gets its customer→facility distances from.
#[derive(Clone, Copy, Debug)]
pub enum Distances<'o> {
    /// One resumable lazy search per customer (the paper's Sec. IV-D).
    Lazy,
    /// One oracle row rooted at each customer node.
    CustomerRows(&'o DistanceOracle),
    /// One oracle row rooted at each facility node. Only valid on a
    /// symmetric graph ([`Graph::is_symmetric`]).
    FacilityRows(&'o DistanceOracle),
}

impl Distances<'_> {
    /// The side, without the oracle, as [`SolveStats`](crate::SolveStats)
    /// records it.
    pub fn side(self) -> DistanceSide {
        match self {
            Distances::Lazy => DistanceSide::Lazy,
            Distances::CustomerRows(_) => DistanceSide::CustomerRows,
            Distances::FacilityRows(_) => DistanceSide::FacilityRows,
        }
    }
}

/// The stream type the solvers actually instantiate: lazy per-customer
/// search (the legacy single-threaded substrate) or row-backed (cached,
/// batch-parallel, rooted at customers or at facilities). Every variant
/// emits the same sequence for the same customer — see [`OracleStream`] —
/// so solver output never depends on which substrate is active.
pub enum CustomerStream<'g> {
    /// Resumable per-customer Dijkstra (exact legacy behavior).
    Lazy(NetworkStream<'g>),
    /// Precomputed distance-row replay.
    Precomputed(OracleStream),
}

impl<'g> CustomerStream<'g> {
    /// Build one stream per customer. Customer rows are fetched as one
    /// batched (possibly parallel) query; facility rows likewise, one per
    /// distinct facility node; the lazy side gives each customer a search.
    pub fn for_customers(
        graph: &'g Graph,
        customers: &[NodeId],
        facilities_at: FacilityMap,
        distances: Distances<'_>,
    ) -> Vec<Self> {
        match distances {
            Distances::Lazy => NetworkStream::for_customers(graph, customers, facilities_at)
                .into_iter()
                .map(CustomerStream::Lazy)
                .collect(),
            Distances::CustomerRows(o) => o
                .distances_for_sources(graph, customers)
                .iter()
                .map(|row| CustomerStream::Precomputed(OracleStream::from_row(row, &facilities_at)))
                .collect(),
            Distances::FacilityRows(o) => {
                debug_assert!(graph.is_symmetric(), "facility rows need a symmetric graph");
                let mut nodes: Vec<NodeId> = facilities_at.keys().copied().collect();
                nodes.sort_unstable();
                let fill = mcfs_obs::span("wma.facility_rows");
                let rows: Vec<(NodeId, Arc<Vec<Dist>>)> = nodes
                    .iter()
                    .copied()
                    .zip(o.distances_for_sources(graph, &nodes))
                    .collect();
                drop(fill);
                customers
                    .iter()
                    .map(|&c| {
                        CustomerStream::Precomputed(OracleStream::from_facility_rows(
                            c,
                            &rows,
                            &facilities_at,
                        ))
                    })
                    .collect()
            }
        }
    }
}

impl EdgeStream for CustomerStream<'_> {
    fn next_edge(&mut self) -> Option<(u32, u64)> {
        match self {
            CustomerStream::Lazy(s) => s.next_edge(),
            CustomerStream::Precomputed(s) => s.next_edge(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfs_graph::GraphBuilder;

    fn line(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as NodeId, i as NodeId + 1, 7);
        }
        b.build()
    }

    fn map(entries: &[(NodeId, &[u32])]) -> FacilityMap {
        let mut m = FxHashMap::default();
        for &(node, fs) in entries {
            m.insert(node, fs.to_vec());
        }
        Rc::new(m)
    }

    #[test]
    fn yields_facilities_in_distance_order() {
        let g = line(6);
        // Facilities at nodes 1, 4, 5 with indices 0, 1, 2.
        let fm = map(&[(1, &[0]), (4, &[1]), (5, &[2])]);
        let mut s = NetworkStream::new(&g, 2, fm);
        assert_eq!(s.next_edge(), Some((0, 7)));
        assert_eq!(s.next_edge(), Some((1, 14)));
        assert_eq!(s.next_edge(), Some((2, 21)));
        assert_eq!(s.next_edge(), None);
    }

    #[test]
    fn colocated_facilities_all_emitted() {
        let g = line(3);
        let fm = map(&[(2, &[0, 1, 2])]);
        let mut s = NetworkStream::new(&g, 0, fm);
        assert_eq!(s.next_edge(), Some((0, 14)));
        assert_eq!(s.next_edge(), Some((1, 14)));
        assert_eq!(s.next_edge(), Some((2, 14)));
        assert_eq!(s.next_edge(), None);
    }

    #[test]
    fn customer_on_facility_node_distance_zero() {
        let g = line(3);
        let fm = map(&[(1, &[0])]);
        let mut s = NetworkStream::new(&g, 1, fm);
        assert_eq!(s.next_edge(), Some((0, 0)));
    }

    #[test]
    fn disconnected_facilities_unreachable() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 5);
        b.add_edge(2, 3, 5);
        let g = b.build();
        let fm = map(&[(3, &[0])]);
        let mut s = NetworkStream::new(&g, 0, fm);
        assert_eq!(s.next_edge(), None);
    }

    fn drain(mut s: impl EdgeStream) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        while let Some(e) = s.next_edge() {
            out.push(e);
        }
        out
    }

    /// Diamond with distance ties: 0-1 and 0-2 both cost 3, 1-3 and 2-3
    /// both cost 3 — from 0, nodes 1 and 2 tie at 3, node 3 at 6. Node 4
    /// is isolated.
    fn diamond() -> Graph {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 3);
        b.add_edge(0, 2, 3);
        b.add_edge(1, 3, 3);
        b.add_edge(2, 3, 3);
        b.build()
    }

    /// Facility indices deliberately *decrease* with node id so
    /// (dist, facility) sorting would give a different order than
    /// (dist, node).
    fn diamond_facilities() -> FacilityMap {
        map(&[(1, &[5, 2]), (2, &[1]), (3, &[0, 4])])
    }

    #[test]
    fn oracle_stream_replays_lazy_order_with_ties() {
        let g = diamond();
        let fm = diamond_facilities();
        for source in [0, 1, 3] {
            let lazy = drain(NetworkStream::new(&g, source, Rc::clone(&fm)));
            let row = mcfs_graph::dijkstra_all(&g, source);
            let oracle = drain(OracleStream::from_row(&row, &fm));
            assert_eq!(lazy, oracle, "source {source}");
        }
    }

    #[test]
    fn facility_rows_replay_lazy_order_with_ties() {
        // The tie case above, answered from rows rooted at the facility
        // nodes instead of at the customer.
        let g = diamond();
        let fm = diamond_facilities();
        let rows: Vec<(NodeId, Arc<Vec<Dist>>)> = [1, 2, 3]
            .into_iter()
            .map(|v| (v, Arc::new(mcfs_graph::dijkstra_all(&g, v))))
            .collect();
        for source in [0, 1, 3, 4] {
            let lazy = drain(NetworkStream::new(&g, source, Rc::clone(&fm)));
            let facility_side = drain(OracleStream::from_facility_rows(source, &rows, &fm));
            assert_eq!(lazy, facility_side, "source {source}");
        }
    }

    #[test]
    fn customer_stream_variants_agree() {
        let g = line(6);
        let fm = map(&[(1, &[0]), (4, &[1]), (5, &[2])]);
        let customers = [2, 0, 5];
        let oracle = mcfs_graph::DistanceOracle::new().with_threads(2);
        let streams = |distances| -> Vec<_> {
            CustomerStream::for_customers(&g, &customers, Rc::clone(&fm), distances)
                .into_iter()
                .map(drain)
                .collect()
        };
        let lazy = streams(Distances::Lazy);
        assert_eq!(lazy, streams(Distances::CustomerRows(&oracle)));
        assert_eq!(oracle.stats().misses, 3, "one row per customer");
        let facility_side = mcfs_graph::DistanceOracle::new().with_threads(2);
        assert_eq!(lazy, streams(Distances::FacilityRows(&facility_side)));
        assert_eq!(facility_side.stats().misses, 3, "one row per facility node");
    }
}
