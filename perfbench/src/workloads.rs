//! The benchmark's inputs. Instances are pinned to fixed generation seeds,
//! so every run of a workload solves the same problem and must reach the
//! same reference objective; `--seed` drives the traffic laid over them
//! (edit scripts and the read/write mix).

use mcfs::{Edit, Facility, McfsInstance};
use mcfs_bench::experiments::common::{synthetic_workload, CapSpec};
use mcfs_gen::city::{generate_city, CitySpec, CityStyle};
use mcfs_gen::synthetic::SyntheticConfig;
use mcfs_graph::{Graph, NodeId};
use mcfs_loadgen::WorldSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A single-box solve workload: an owned instance plus the objective a
/// correct solve must reach.
pub struct SolveWorkload {
    pub graph: Graph,
    pub customers: Vec<NodeId>,
    pub facilities: Vec<Facility>,
    pub k: usize,
    /// `None` in smoke mode, where the reference is a single-thread solve
    /// of the same instance computed in the run.
    pub reference: Option<u64>,
    /// Share of a run's measured time given to the what-if loop; the rest
    /// goes to cold solves. Where a re-solve costs about as much as a cold
    /// solve, both need a similar share to collect enough samples.
    pub whatif_share: f64,
}

impl SolveWorkload {
    pub fn instance(&self) -> McfsInstance<'_> {
        McfsInstance::builder(&self.graph)
            .customers(self.customers.iter().copied())
            .facilities(self.facilities.iter().copied())
            .k(self.k)
            .build()
            .expect("benchmark workloads are well-formed")
    }
}

/// `profile-report`'s `BackendReportCity` (same spec and seeds): a grid
/// city with ℓ = 16 stations against `target / 400` customers, k = 12.
/// At 200 000 target nodes: 187 534 nodes, 412 960 arcs, 500 customers.
pub fn city_sparse(smoke: bool) -> SolveWorkload {
    let target = if smoke { 4_000 } else { 200_000 };
    let graph = generate_city(&CitySpec {
        name: "BackendReportCity",
        target_nodes: target,
        style: CityStyle::Grid,
        avg_edge_len: 15.0,
        seed: 0x7_BEAC + target as u64,
    });
    let customers = mcfs_gen::customers::uniform_customers(
        &graph,
        (target / 400).clamp(64, 512),
        0xC11 + target as u64,
    );
    let k = 12;
    let capacity = (customers.len() * 2).div_ceil(k) as u32;
    let facilities = mcfs_gen::bikes::generate_stations(&graph, 16, 0xB1 + target as u64)
        .into_iter()
        .map(|s| Facility {
            node: s.node,
            capacity,
        })
        .collect();
    SolveWorkload {
        graph,
        customers,
        facilities,
        k,
        reference: (!smoke).then_some(945_777),
        whatif_share: 0.2,
    }
}

/// The paper's Fig. 8b setting: a clustered synthetic network with a
/// candidate facility at every node (ℓ = n), m = 1 000, k = 200, uniform
/// capacity 20.
pub fn synth_dense(smoke: bool) -> SolveWorkload {
    let (n, m, k) = if smoke {
        (600, 60, 12)
    } else {
        (10_000, 1_000, 200)
    };
    let w = synthetic_workload(
        &SyntheticConfig::clustered(n, 20, 1.5, 0x8B),
        m,
        None,
        k,
        CapSpec::Uniform(20),
        0x8B + 1,
    );
    SolveWorkload {
        graph: w.graph,
        customers: w.customers,
        facilities: w.facilities,
        k: w.k,
        reference: (!smoke).then_some(32_789),
        whatif_share: 0.45,
    }
}

/// The city every `serve-whatif` session opens.
pub fn serve_world(smoke: bool) -> WorldSpec {
    if smoke {
        WorldSpec {
            target_nodes: 2_000,
            customers: 40,
            stations: 8,
            k: 4,
            seed: 0x5E7E,
            edit_headroom: 4,
        }
    } else {
        WorldSpec {
            target_nodes: 50_000,
            customers: 200,
            stations: 16,
            k: 8,
            seed: 0x5E7E,
            edit_headroom: 16,
        }
    }
}

/// What-if edits for one live instance, alternating: a customer arrives
/// at a base customer's node drawn from the seed, then that customer
/// leaves again. Every what-if is thus asked of the base instance, so the
/// share of re-solves that can stay warm is set by which nodes the seed
/// draws rather than by how far a random walk of arrivals has drifted
/// (with up to 16 customers in flight, that share ranged 0.76–0.85 from
/// seed to seed on `city-sparse`, and the write p90 with it), and every
/// second edit returns to the base, whose objective is known.
pub struct EditScript {
    base: Vec<NodeId>,
    arrived: bool,
    rng: StdRng,
}

impl EditScript {
    pub fn new(base: Vec<NodeId>, seed: u64) -> EditScript {
        assert!(!base.is_empty());
        EditScript {
            base,
            arrived: false,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    pub fn next_edit(&mut self) -> Edit {
        self.arrived = !self.arrived;
        if self.arrived {
            let node = self.base[self.rng.random_range(0..self.base.len())];
            Edit::AddCustomer { node }
        } else {
            Edit::RemoveCustomer {
                index: self.base.len(),
            }
        }
    }

    /// True when the last arrival has left again, i.e. the live instance
    /// equals the base instance.
    pub fn at_base(&self) -> bool {
        !self.arrived
    }

    /// Customers in the live instance after the edits drawn so far.
    pub fn customers(&self) -> usize {
        self.base.len() + usize::from(self.arrived)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_script_alternates_arrival_and_departure() {
        let mut s = EditScript::new(vec![3, 5, 8], 7);
        for _ in 0..100 {
            assert!(s.at_base());
            match s.next_edit() {
                Edit::AddCustomer { node } => assert!([3, 5, 8].contains(&node)),
                other => panic!("expected an arrival, got {other:?}"),
            }
            assert_eq!(s.customers(), 4);
            assert_eq!(s.next_edit(), Edit::RemoveCustomer { index: 3 });
        }
        assert_eq!(s.customers(), 3);
    }
}
