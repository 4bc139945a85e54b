//! Facility-rooted distance rows against customer-rooted ones.
//!
//! On a symmetric graph with fewer distinct facility nodes than distinct
//! customer nodes, a solver that owns its oracle roots one row at each
//! facility node instead of one at each customer node. Each customer's
//! candidate list is then built from ℓ row lookups sorted by
//! `(distance, node)`, the order a per-customer search settles nodes in,
//! so the solutions must equal the customer-row solutions exactly. A
//! shared oracle (`with_oracle`, `ReSolver`) keeps customer rows.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use mcfs_repro::core::{
    DistanceSide, Facility, McfsInstance, ReSolver, Solution, SolveError, Solver, Wma, WmaNaive,
};
use mcfs_repro::graph::{DistanceOracle, Graph, GraphBuilder, NodeId};
use mcfs_repro::obs::{spans_for, TraceGuard};

const MAX_NODES: u32 = 14;

fn fresh_oracle() -> Arc<DistanceOracle> {
    Arc::new(DistanceOracle::new().with_threads(2))
}

fn distinct(nodes: impl IntoIterator<Item = NodeId>) -> usize {
    let mut v: Vec<NodeId> = nodes.into_iter().collect();
    v.sort_unstable();
    v.dedup();
    v.len()
}

/// Two pieces, `0..split` and `split..n` (one of them empty when `split`
/// is 0 or `n`), each held together by a random tree plus extra edges.
/// Weights of 1–3 make distance ties common.
fn two_pieces(n: u32, split: u32, tree: &[(u32, u64)], extra: &[(u32, u32, u64)]) -> Graph {
    let piece_start = |v: u32| if v < split { 0 } else { split };
    let mut b = GraphBuilder::new(n as usize);
    for v in 1..n {
        let start = piece_start(v);
        if v > start {
            let (pick, w) = tree[v as usize];
            b.add_edge(v, start + pick % (v - start), w);
        }
    }
    for &(u, v, w) in extra {
        let (u, v) = (u % n, v % n);
        if u != v && piece_start(u) == piece_start(v) {
            b.add_edge(u, v, w);
        }
    }
    b.build()
}

fn comparable(r: Result<Solution, SolveError>) -> Result<Solution, String> {
    r.map_err(|e| format!("{e:?}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Facility rows at one and two threads give the same `Wma` and
    /// `WmaNaive` solutions (or the same error) as customer rows.
    #[test]
    fn facility_rows_solve_like_customer_rows(
        n in 3u32..=MAX_NODES,
        split_pick in 0u32..3 * MAX_NODES,
        tree in vec((0u32..64, 1u64..=3), MAX_NODES as usize),
        extra in vec((0u32..MAX_NODES, 0u32..MAX_NODES, 1u64..=3), 0..10),
        raw_customers in vec(0u32..MAX_NODES, 2..10),
        raw_pool in vec(0u32..MAX_NODES, 1..5),
        raw_facilities in vec((0usize..8, 1u32..=8), 1..7),
        k_pick in 0usize..6,
    ) {
        // Two pieces in about a third of the cases.
        let split = Some(split_pick % (3 * n)).filter(|&s| s < n).unwrap_or(0);
        let g = two_pieces(n, split, &tree, &extra);
        prop_assert!(g.is_symmetric());
        let customers: Vec<NodeId> = raw_customers.iter().map(|&c| c % n).collect();
        let customer_nodes = distinct(customers.iter().copied());
        prop_assume!(customer_nodes >= 2);
        // Fewer distinct facility nodes than customer nodes; several
        // facilities may share one node.
        let mut pool: Vec<NodeId> = Vec::new();
        for v in raw_pool.iter().map(|&v| v % n) {
            if !pool.contains(&v) && pool.len() + 1 < customer_nodes {
                pool.push(v);
            }
        }
        let facilities: Vec<Facility> = raw_facilities
            .iter()
            .map(|&(i, capacity)| Facility { node: pool[i % pool.len()], capacity })
            .collect();
        let facility_nodes = distinct(facilities.iter().map(|f| f.node));
        prop_assert!(facility_nodes < customer_nodes);
        let inst = McfsInstance::builder(&g)
            .customers(customers)
            .facilities(facilities)
            .k(1 + k_pick % raw_facilities.len())
            .build()
            .unwrap();

        let reference = Wma::new().with_oracle(fresh_oracle()).run(&inst);
        if let Ok(run) = &reference {
            prop_assert_eq!(run.solve_stats.distance_side, DistanceSide::CustomerRows);
            inst.verify(&run.solution).unwrap();
        }
        let reference = comparable(reference.map(|r| r.solution));
        for threads in [1, 2] {
            let run = Wma::new().threads(threads).run(&inst);
            if let Ok(run) = &run {
                prop_assert_eq!(run.solve_stats.distance_side, DistanceSide::FacilityRows);
                prop_assert_eq!(run.solve_stats.cache_misses, facility_nodes as u64);
            }
            prop_assert_eq!(&comparable(run.map(|r| r.solution)), &reference, "Wma threads {}", threads);
        }

        let naive_reference = comparable(WmaNaive::new().with_oracle(fresh_oracle()).solve(&inst));
        for threads in [1, 2] {
            let naive = comparable(WmaNaive::new().threads(threads).solve(&inst));
            prop_assert_eq!(&naive, &naive_reference, "WmaNaive threads {}", threads);
        }
    }
}

/// On a one-way graph a facility's row does not hold the customers'
/// distances to it, so the solver stays on the customer side — and the
/// answer is the customer→facility sum.
#[test]
fn one_way_graphs_stay_on_the_customer_side() {
    // 0→1 costs 1 but 1→0 costs 50; 1–2 is a plain edge of 5.
    let mut b = GraphBuilder::new(3);
    b.add_arc(0, 1, 1);
    b.add_arc(1, 0, 50);
    b.add_edge(1, 2, 5);
    let g = b.build();
    let inst = McfsInstance::builder(&g)
        .customers([0, 2])
        .facility(1, 2)
        .k(1)
        .build()
        .unwrap();
    let reference = Wma::new().with_oracle(fresh_oracle()).run(&inst).unwrap();
    assert_eq!(reference.solution.objective, 6);
    for (threads, side) in [(1, DistanceSide::Lazy), (2, DistanceSide::CustomerRows)] {
        let run = Wma::new().threads(threads).run(&inst).unwrap();
        assert_eq!(run.solve_stats.distance_side, side, "threads {threads}");
        assert_eq!(run.solution, reference.solution, "threads {threads}");
        inst.verify(&run.solution).unwrap();
    }
    let mut wrong = reference.solution;
    wrong.objective = 55;
    assert!(inst.verify(&wrong).is_err());
}

/// A 6×6 grid with 14 customers on 12 distinct nodes and four facilities
/// on three nodes.
fn grid_instance(g: &Graph) -> McfsInstance<'_> {
    McfsInstance::builder(g)
        .customers([0, 2, 4, 7, 9, 11, 13, 18, 22, 27, 31, 35, 35, 0])
        .facility(8, 5)
        .facility(8, 2)
        .facility(21, 6)
        .facility(33, 6)
        .k(3)
        .build()
        .unwrap()
}

fn grid() -> Graph {
    let mut b = GraphBuilder::new(36);
    for r in 0..6u32 {
        for c in 0..6u32 {
            let v = r * 6 + c;
            if c + 1 < 6 {
                b.add_edge(v, v + 1, 1 + u64::from((v * 7) % 3));
            }
            if r + 1 < 6 {
                b.add_edge(v, v + 6, 1 + u64::from((v * 5) % 4));
            }
        }
    }
    b.build()
}

/// Which solves use which side: a cold `Wma::run` fills one row per
/// distinct facility node; a `ReSolver` and a `with_oracle` run keep one
/// row per distinct customer node. All reach the same solution.
#[test]
fn cold_solves_fill_facility_rows_and_shared_oracles_customer_rows() {
    let g = grid();
    let inst = grid_instance(&g);
    let facility_nodes = 3;
    let customer_nodes = 12;

    let cold = Wma::new().run(&inst).unwrap();
    inst.verify(&cold.solution).unwrap();
    for run in [&cold, &Wma::new().threads(1).run(&inst).unwrap()] {
        assert_eq!(run.solve_stats.distance_side, DistanceSide::FacilityRows);
        assert_eq!(run.solve_stats.cache_misses, facility_nodes);
        assert_eq!(run.solution, cold.solution);
    }

    let shared = Wma::new().with_oracle(fresh_oracle()).run(&inst).unwrap();
    assert_eq!(shared.solve_stats.distance_side, DistanceSide::CustomerRows);
    assert_eq!(shared.solve_stats.cache_misses, customer_nodes);
    assert_eq!(shared.solution, cold.solution);

    let mut rs = ReSolver::new(&inst, Wma::new());
    let resolved = rs.solve().unwrap();
    assert_eq!(
        resolved.solve_stats.distance_side,
        DistanceSide::CustomerRows
    );
    assert_eq!(resolved.solve_stats.cache_misses, customer_nodes);
    assert_eq!(resolved.solution, cold.solution);
}

/// The facility-row fill is a named phase inside the prefetch.
#[test]
fn facility_row_fill_is_a_span_inside_prefetch() {
    let g = grid();
    let inst = grid_instance(&g);
    let guard = TraceGuard::enter(0, 0);
    Wma::new().threads(1).run(&inst).unwrap();
    let spans = spans_for(guard.trace());
    drop(guard);
    let prefetch = spans
        .iter()
        .find(|s| s.name == "wma.prefetch")
        .expect("prefetch span");
    assert!(
        spans
            .iter()
            .any(|s| s.name == "wma.facility_rows" && s.parent == prefetch.id),
        "no wma.facility_rows span under wma.prefetch"
    );
}
