//! Shared resolution of the solvers' `threads` / `oracle` knobs.
//!
//! Every solver in the workspace carries the same two fields:
//!
//! * `threads: usize` — `0` means "auto" (one worker per available hardware
//!   thread), `1` selects the legacy lazy-Dijkstra path on the customer
//!   side, `n > 1` enables the oracle-backed substrate with `n` workers;
//! * `oracle: Option<Arc<DistanceOracle>>` — an explicitly shared oracle.
//!   Passing the same `Arc` to several solvers makes them share one row
//!   cache, so e.g. WMA, the refine pass and a baseline sweep each reuse the
//!   rows the previous stage already paid for.
//!
//! Since PR 7 the solvers also carry `backend: BackendKind`, selecting the
//! distance engine ([`mcfs_graph::DistanceBackend`]) the oracle computes
//! rows with; a non-default backend forces the oracle substrate even at one
//! thread, because backends live behind the oracle.
//!
//! [`resolve_oracle`] turns those fields into the substrate choice. The
//! contract — verified by the determinism and backend-equivalence tests —
//! is that the choice affects wall time only, never solutions.
//!
//! `Wma` and `WmaNaive` resolve through [`resolve_substrate`] instead,
//! which also picks the side the rows are rooted on. When the solver owns
//! its oracle (no explicit one was shared) and [`facility_rows_pay`] holds,
//! it roots one row at each facility node, at every thread count —
//! `threads(1)` then means a private one-thread oracle, not the lazy path.
//! A shared oracle always serves customer rows: its callers (the
//! `ReSolver`, other solvers reusing the cache) read them back by customer.

use std::sync::Arc;

use mcfs_graph::{available_threads, BackendKind, DistanceOracle, NodeId};

use crate::instance::McfsInstance;
use crate::streams::Distances;

/// Resolve a `threads` knob: `0` → available parallelism, else the value.
pub fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        available_threads()
    } else {
        threads
    }
}

/// Decide the distance substrate for one solver run.
///
/// An explicitly provided oracle always wins (whatever its thread count or
/// backend). Otherwise a fresh oracle is created when the resolved thread
/// count exceeds 1 *or* a non-default `backend` was requested (backends
/// live behind the oracle, so selecting one opts into the substrate);
/// a resolved count of 1 with the default backend returns `None`,
/// selecting the legacy per-customer lazy-Dijkstra path byte-for-byte.
pub fn resolve_oracle(
    threads: usize,
    oracle: Option<&Arc<DistanceOracle>>,
    backend: BackendKind,
) -> Option<Arc<DistanceOracle>> {
    match oracle {
        Some(o) => Some(Arc::clone(o)),
        None => {
            let t = effective_threads(threads);
            (t > 1 || backend != BackendKind::Heap)
                .then(|| Arc::new(DistanceOracle::new().with_threads(t).with_backend(backend)))
        }
    }
}

/// Whether rows rooted at the facilities answer `inst` with fewer searches
/// than rows rooted at the customers: the instance has fewer distinct
/// facility nodes than distinct customer nodes, and its graph is symmetric
/// (so a facility's row holds every customer's distance to it). Symmetry is
/// checked last, so instances where the counts already decide never pay
/// for it.
pub fn facility_rows_pay(inst: &McfsInstance) -> bool {
    let distinct = |nodes: &mut Vec<NodeId>| {
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    };
    let mut facilities: Vec<NodeId> = inst.facilities().iter().map(|f| f.node).collect();
    let mut customers = inst.customers().to_vec();
    distinct(&mut facilities) < distinct(&mut customers) && inst.graph().is_symmetric()
}

/// A solver run's distance substrate: the oracle it reads (if any) and the
/// side that oracle's rows are rooted on.
#[derive(Debug)]
pub struct Substrate {
    oracle: Option<Arc<DistanceOracle>>,
    facility_rows: bool,
}

impl Substrate {
    /// The distance source to build streams from.
    pub fn distances(&self) -> Distances<'_> {
        match &self.oracle {
            None => Distances::Lazy,
            Some(o) if self.facility_rows => Distances::FacilityRows(o),
            Some(o) => Distances::CustomerRows(o),
        }
    }

    /// The oracle, if the run has one.
    pub fn oracle(&self) -> Option<&Arc<DistanceOracle>> {
        self.oracle.as_ref()
    }

    /// Worker threads the substrate runs on (1 on the lazy side).
    pub fn threads(&self) -> usize {
        self.oracle.as_ref().map_or(1, |o| o.threads())
    }
}

/// Decide the distance substrate and side for one `Wma` / `WmaNaive` run.
///
/// Without an explicit `oracle`, and when [`facility_rows_pay`] holds, the
/// run gets a private oracle (`threads` workers, `backend`) serving
/// facility rows. Otherwise this is [`resolve_oracle`] on the customer
/// side.
pub fn resolve_substrate(
    inst: &McfsInstance,
    threads: usize,
    oracle: Option<&Arc<DistanceOracle>>,
    backend: BackendKind,
) -> Substrate {
    if oracle.is_none() && facility_rows_pay(inst) {
        let o = DistanceOracle::new()
            .with_threads(effective_threads(threads))
            .with_backend(backend);
        return Substrate {
            oracle: Some(Arc::new(o)),
            facility_rows: true,
        };
    }
    Substrate {
        oracle: resolve_oracle(threads, oracle, backend),
        facility_rows: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DistanceSide;
    use mcfs_graph::GraphBuilder;

    fn star(one_way: bool) -> mcfs_graph::Graph {
        let mut b = GraphBuilder::new(5);
        for v in 1..5 {
            b.add_edge(0, v, v as u64);
        }
        if one_way {
            b.add_arc(1, 2, 1);
        }
        b.build()
    }

    #[test]
    fn side_follows_node_counts_symmetry_and_ownership() {
        let g = star(false);
        let side = |inst: &McfsInstance, threads, oracle| {
            resolve_substrate(inst, threads, oracle, BackendKind::Heap)
                .distances()
                .side()
        };
        // Two facility nodes (one hosting two facilities) against three
        // distinct customer nodes: facility rows, at every thread count.
        let few = McfsInstance::builder(&g)
            .customers([1, 2, 3, 3])
            .facility(0, 2)
            .facility(0, 2)
            .facility(4, 2)
            .k(2)
            .build()
            .unwrap();
        for t in [1, 2] {
            assert_eq!(side(&few, t, None), DistanceSide::FacilityRows);
        }
        assert_eq!(
            resolve_substrate(&few, 1, None, BackendKind::Heap).threads(),
            1
        );
        // A shared oracle keeps customer rows.
        let shared = Arc::new(DistanceOracle::new().with_threads(1));
        assert_eq!(side(&few, 1, Some(&shared)), DistanceSide::CustomerRows);
        // As many facility nodes as customer nodes: today's choice.
        let even = McfsInstance::builder(&g)
            .customers([1, 2, 2])
            .facility(0, 2)
            .facility(4, 2)
            .k(2)
            .build()
            .unwrap();
        assert_eq!(side(&even, 1, None), DistanceSide::Lazy);
        assert_eq!(side(&even, 2, None), DistanceSide::CustomerRows);
        // A one-way arc keeps the customer side.
        let g = star(true);
        let one_way = McfsInstance::builder(&g)
            .customers([1, 2, 3])
            .facility(0, 3)
            .k(1)
            .build()
            .unwrap();
        assert!(!facility_rows_pay(&one_way));
        assert_eq!(side(&one_way, 1, None), DistanceSide::Lazy);
    }

    #[test]
    fn explicit_oracle_wins() {
        let o = Arc::new(DistanceOracle::new().with_threads(3));
        let resolved = resolve_oracle(1, Some(&o), BackendKind::Heap).unwrap();
        assert!(Arc::ptr_eq(&o, &resolved));
        // Explicit oracle wins over a backend request too: the caller
        // already decided the substrate, backend and all.
        let resolved = resolve_oracle(1, Some(&o), BackendKind::Bucket).unwrap();
        assert!(Arc::ptr_eq(&o, &resolved));
    }

    #[test]
    fn threads_one_selects_legacy_path() {
        assert!(resolve_oracle(1, None, BackendKind::Heap).is_none());
    }

    #[test]
    fn threads_many_builds_an_oracle() {
        let o = resolve_oracle(4, None, BackendKind::Heap).unwrap();
        assert_eq!(o.threads(), 4);
        assert_eq!(o.backend_kind(), BackendKind::Heap);
    }

    #[test]
    fn non_default_backend_forces_the_substrate() {
        let o = resolve_oracle(1, None, BackendKind::Bucket).unwrap();
        assert_eq!(o.threads(), 1);
        assert_eq!(o.backend_kind(), BackendKind::Bucket);
        let o = resolve_oracle(2, None, BackendKind::Alt).unwrap();
        assert_eq!(o.backend_kind(), BackendKind::Alt);
    }

    #[test]
    fn auto_matches_available_parallelism() {
        assert_eq!(effective_threads(0), available_threads());
        assert_eq!(effective_threads(7), 7);
    }
}
