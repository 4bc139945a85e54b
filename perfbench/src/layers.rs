//! Traced runs: per-layer numbers, timed from the benchmark's own spans
//! around the public entry points of each crate.
//!
//! Every traced run reports every per-layer metric, measured on its own
//! workload's instance: a solve workload also opens its instance in the
//! server, and `serve-whatif` also runs the library layers on its city.
//! Where a number is read from the program's own bookkeeping
//! (`SolveStats` phases and augmentations) rather than from a span, the
//! README says so.

use std::time::{Duration, Instant};

use mcfs::{Edit, McfsInstance, ReSolver, Solution, Wma};
use mcfs_cluster::ClusterSolver;
use mcfs_graph::{DistanceOracle, NodeId};
use mcfs_server::protocol::OpenKind;
use mcfs_server::{Client, ServerHandle};

use crate::report::Outcome;
use crate::serve::{self, LoopMode, Plan, World};
use crate::solve::{check_solution, instance_text, load_instance, reference_objective};
use crate::spans::SpanLog;
use crate::stats::{median, quantile};
use crate::workloads::{EditScript, SolveWorkload};
use crate::{host, RunCfg};

/// Rows filled per distance-oracle batch when timing row fills, so that
/// ℓ = n facility rows never have to sit in memory at once.
const ROW_CHUNK: usize = 256;
/// Worker threads of the oracle the graph layer is timed with.
const ORACLE_THREADS: usize = 2;
/// Edits replayed through a library `ReSolver` on the solve workloads.
const RESOLVE_EDITS: usize = 16;
/// Reads of the instance text timed for `io.read_instance_s`.
const IO_REPEATS: usize = 5;

/// The state a traced run threads through its layers.
pub struct Traced {
    pub log: SpanLog,
    pub out: Outcome,
}

impl Traced {
    fn new(epoch: Instant) -> Traced {
        Traced {
            log: SpanLog::new(epoch, 0),
            out: Outcome::default(),
        }
    }

    fn check(&mut self, r: Result<(), String>, what: &str) -> bool {
        self.out.check(r.is_ok(), || format!("{what}: {r:?}"))
    }

    /// `io`: parse the instance text (`mcfs_io::read_instance`), median.
    fn io(&mut self, text: &str) {
        let mut samples = Vec::new();
        for _ in 0..IO_REPEATS {
            let (r, d) = self.log.timed("io.read_instance", || {
                mcfs_io::read_instance(text.as_bytes())
            });
            let r = r.map(|_| ()).map_err(|e| format!("{e:?}"));
            if self.check(r, "read_instance") {
                samples.push(d.as_secs_f64());
            }
        }
        let r = load_instance(text);
        self.check(r, "instance load");
        if !samples.is_empty() {
            self.out
                .metric("io.read_instance_s", median(&samples), "s", samples.len());
        }
    }

    /// One checked `Wma` solve in a span.
    fn solve(
        &mut self,
        span: &'static str,
        inst: &McfsInstance,
        wma: &Wma,
        expect: u64,
    ) -> Option<(mcfs::WmaRun, Duration)> {
        let (r, d) = self.log.timed(span, || wma.run(inst));
        match r {
            Ok(run) => {
                let (ok, _) = self.log.timed("core.verify", || {
                    check_solution(inst, &run.solution, Some(expect))
                });
                self.check(ok, span).then_some((run, d))
            }
            Err(e) => {
                self.check(Err(format!("{e:?}")), span);
                None
            }
        }
    }

    /// `core`: the process's first solve, then warm untraced/traced solve
    /// pairs until `budget` has passed (at least `min_pairs`), then the
    /// single-thread baseline. Returns the selection (for `flow`) and the
    /// traced solves' median overhead over the untraced ones.
    fn core(
        &mut self,
        inst: &McfsInstance,
        reference: u64,
        budget: Duration,
        min_pairs: usize,
    ) -> Option<(Vec<u32>, f64)> {
        let (first, d) = self.solve("core.first_solve", inst, &Wma::new(), reference)?;
        self.out
            .metric("core.first_solve_s", d.as_secs_f64(), "s", 1);
        let selection = first.solution.facilities.clone();

        let mut plain = Vec::new();
        let mut traced = Vec::new();
        let mut cpu = Vec::new();
        let mut phases: [Vec<f64>; 4] = Default::default();
        let mut augmentations = Vec::new();
        let t0 = Instant::now();
        while plain.len() < min_pairs || t0.elapsed() < budget {
            let cpu0 = host::process_cpu();
            let (run, d) = self.solve("core.solve", inst, &Wma::new(), reference)?;
            cpu.push((host::process_cpu() - cpu0).as_secs_f64());
            plain.push(d.as_secs_f64());
            for (i, name) in ["prefetch", "matching", "cover", "provisions"]
                .iter()
                .enumerate()
            {
                phases[i].push(
                    run.solve_stats
                        .phase(name)
                        .unwrap_or_default()
                        .as_secs_f64(),
                );
            }
            augmentations.push(run.solve_stats.augmentations as f64);

            mcfs_obs::set_force(true);
            let traced_run = self.solve("core.solve.traced", inst, &Wma::new(), reference);
            mcfs_obs::set_force(false);
            mcfs_obs::clear_spans();
            traced.push(traced_run?.1.as_secs_f64());
        }
        let n = plain.len();
        self.out.metric("core.solve_cpu_s", median(&cpu), "s", n);
        for (i, name) in [
            "core.prefetch_s",
            "core.matching_s",
            "core.cover_s",
            "core.provisions_s",
        ]
        .iter()
        .enumerate()
        {
            self.out.metric(name, median(&phases[i]), "s", n);
        }
        self.out
            .metric("flow.augmentations", median(&augmentations), "count", n);

        let (_, d) = self.solve("core.solve_1t", inst, &Wma::new().threads(1), reference)?;
        self.out.metric("core.solve_1t_s", d.as_secs_f64(), "s", 1);
        Some((selection, median(&traced) / median(&plain) - 1.0))
    }

    /// `graph`: fill rows from every customer, then from every candidate
    /// facility, with fresh oracles at the default backend.
    fn graph(&mut self, inst: &McfsInstance) {
        let g = inst.graph();
        let customers = inst.customers().to_vec();
        let mut facilities: Vec<NodeId> = inst.facilities().iter().map(|f| f.node).collect();
        facilities.sort_unstable();
        facilities.dedup();
        let fill = |sources: &[NodeId]| {
            let oracle = DistanceOracle::new()
                .with_threads(ORACLE_THREADS)
                .with_cache_rows(ROW_CHUNK);
            for chunk in sources.chunks(ROW_CHUNK) {
                drop(oracle.distances_for_sources(g, chunk));
            }
            oracle.stats().nodes_settled
        };
        let (settled, d) = self.log.timed("graph.customer_rows", || fill(&customers));
        self.out
            .metric("graph.customer_rows_s", d.as_secs_f64(), "s", 1);
        self.out
            .metric("graph.nodes_settled", settled as f64, "count", 1);
        let rows_mb = customers.len() as f64 * g.num_nodes() as f64 * 8.0 / 1e6;
        self.out.metric("graph.row_mb", rows_mb, "MB", 1);
        let (_, d) = self.log.timed("graph.facility_rows", || fill(&facilities));
        self.out
            .metric("graph.facility_rows_s", d.as_secs_f64(), "s", 1);
    }

    /// `core.resolve_ms` and `core.warm_share`: replay `edits` through a
    /// library `ReSolver`, one edit per re-solve, after an untimed prime.
    fn resolve(&mut self, inst: &McfsInstance, wma: Wma, edits: &[Edit]) {
        let mut rs = ReSolver::new(inst, wma);
        let (prime, _) = self.log.timed("core.resolve.prime", || rs.solve());
        if !self.check(
            prime.map(|_| ()).map_err(|e| format!("{e:?}")),
            "resolver prime",
        ) {
            return;
        }
        let mut ms = Vec::new();
        let mut warm = 0usize;
        let mut last: Option<Solution> = None;
        for &edit in edits {
            let (r, d) = self.log.timed("core.resolve", || {
                rs.apply(&[edit])
                    .map_err(|e| e.to_string())
                    .and_then(|()| rs.solve().map_err(|e| format!("{e:?}")))
            });
            match r {
                Ok(run) => {
                    self.out.attempted += 1;
                    ms.push(d.as_secs_f64() * 1e3);
                    warm += usize::from(run.warm);
                    last = Some(run.solution);
                }
                Err(e) => {
                    self.check(Err(e), "resolver replay");
                }
            }
        }
        if let Some(sol) = last {
            let r = check_solution(&rs.instance(), &sol, None);
            self.check(r, "resolver replay final solution");
        }
        if !ms.is_empty() {
            self.out
                .metric("core.resolve_ms", median(&ms), "ms", ms.len());
            self.out.metric(
                "core.warm_share",
                warm as f64 / ms.len() as f64,
                "share",
                ms.len(),
            );
        }
    }

    /// `flow`: the optimal assignment onto a fixed selection.
    fn flow(&mut self, inst: &McfsInstance, selection: &[u32], reference: u64) {
        let (r, d) = self.log.timed("flow.assignment", || {
            mcfs::optimal_assignment(inst, selection)
        });
        let r = r
            .map_err(|e| format!("{e:?}"))
            .and_then(|(assignment, objective)| {
                let sol = Solution {
                    facilities: selection.to_vec(),
                    assignment,
                    objective,
                };
                check_solution(inst, &sol, Some(reference))
            });
        if self.check(r, "optimal_assignment") {
            self.out
                .metric("flow.assignment_s", d.as_secs_f64(), "s", 1);
        }
    }

    /// `cluster`: a two-shard solve of the same instance.
    fn cluster(&mut self, inst: &McfsInstance, reference: u64) {
        let (r, d) = self.log.timed("cluster.solve", || {
            ClusterSolver::new(2).solver(Wma::new()).solve(inst)
        });
        let r = r.map_err(|e| format!("{e:?}")).and_then(|o| {
            inst.verify(&o.solution)
                .map(|()| o.solution.objective)
                .map_err(|e| format!("verify: {e:?}"))
        });
        match r {
            Ok(objective) => {
                self.out.attempted += 1;
                self.out.metric("cluster.solve_s", d.as_secs_f64(), "s", 1);
                self.out.metric(
                    "cluster.objective_ratio",
                    objective as f64 / reference as f64,
                    "ratio",
                    1,
                );
            }
            Err(e) => {
                self.check(Err(e), "cluster solve");
            }
        }
    }

    /// `server`: one traced `OPEN` over an in-process pipe (client round
    /// trip, and the server's own `server.request` span) and one over TCP
    /// loopback.
    fn open_probes(&mut self, server: &mut ServerHandle, text: &str) {
        let addr = match server.serve_tcp("127.0.0.1:0") {
            Ok(a) => a,
            Err(e) => {
                self.check(Err(format!("{e}")), "TCP listener");
                return;
            }
        };
        let trace = mcfs_obs::next_trace_id();
        let r = server
            .connect()
            .map_err(|e| e.to_string())
            .and_then(|mut c| {
                c.set_context(trace, None);
                let (r, d) = self.log.timed("server.open_pipe", || {
                    c.open_text("probe-pipe", OpenKind::Instance, text)
                });
                c.clear_context();
                r.map_err(|e| e.to_string())?;
                let spans = c
                    .trace_spans("probe-pipe", None)
                    .map_err(|e| e.to_string())?;
                let request = spans
                    .iter()
                    .find(|s| s.name == "server.request")
                    .ok_or("no server.request span for the traced OPEN")?;
                c.close("probe-pipe").map_err(|e| e.to_string())?;
                Ok((d, request.dur_ns))
            });
        if let Ok((d, request_ns)) = r {
            self.out
                .metric("server.open_pipe_s", d.as_secs_f64(), "s", 1);
            self.out
                .metric("server.open_ms", request_ns as f64 / 1e6, "ms", 1);
        }
        self.check(r.map(|_| ()), "OPEN over a pipe");

        let r = Client::connect_tcp(&addr.to_string())
            .map_err(|e| e.to_string())
            .and_then(|mut c| {
                let (r, d) = self.log.timed("server.open_tcp", || {
                    c.open_text("probe-tcp", OpenKind::Instance, text)
                });
                r.map_err(|e| e.to_string())?;
                c.close("probe-tcp").map_err(|e| e.to_string())?;
                Ok(d)
            });
        if let Ok(d) = r {
            self.out
                .metric("server.open_tcp_s", d.as_secs_f64(), "s", 1);
        }
        self.check(r.map(|_| ()), "OPEN over TCP");
    }

    /// Server-side metrics of a finished client loop.
    fn server_loop(&mut self, m: &serve::Merged, server: &ServerHandle) {
        for (metric, span) in [
            ("server.parse_us", "server.parse"),
            ("server.queue_us", "server.queue"),
            ("server.execute_us", "server.execute"),
            ("server.reply_us", "server.reply"),
        ] {
            let v: Vec<f64> = m
                .server_spans
                .iter()
                .filter(|(n, _)| n == span)
                .map(|&(_, us)| us)
                .collect();
            if !v.is_empty() {
                self.out.metric(metric, median(&v), "us", v.len());
            }
        }
        // Tails come from untraced requests where the loop had any.
        let tails = if m.plain.write_ms.is_empty() {
            &m.traced
        } else {
            &m.plain
        };
        for (metric, count, samples) in [
            (
                "server.write_p99_ms",
                "server.write_p99_samples",
                &tails.write_ms,
            ),
            (
                "server.read_p99_ms",
                "server.read_p99_samples",
                &tails.read_ms,
            ),
        ] {
            if !samples.is_empty() {
                self.out
                    .metric(metric, quantile(samples, 0.99), "ms", samples.len());
                self.out.metric(count, samples.len() as f64, "count", 1);
            }
        }
        let highwater = server
            .connect()
            .and_then(|mut c| c.metrics())
            .map_err(|e| e.to_string())
            .and_then(|lines| {
                lines
                    .iter()
                    .find_map(|l| l.strip_prefix("queue_depth_highwater "))
                    .and_then(|v| v.trim().parse::<f64>().ok())
                    .ok_or_else(|| "METRICS lacks queue_depth_highwater".to_owned())
            });
        if let Ok(h) = highwater {
            self.out.metric("server.queue_highwater", h, "count", 1);
        }
        self.check(highwater.map(|_| ()), "METRICS");
    }
}

fn stop_server(server: ServerHandle) {
    server.shutdown();
    mcfs_obs::profile::disable();
    mcfs_obs::flight::disable();
}

/// Traced run of a solve workload.
pub fn run_solve(w: &SolveWorkload, cfg: &RunCfg, epoch: Instant) -> Traced {
    let mut t = Traced::new(epoch);
    let inst = w.instance();
    let (text, _) = t.log.timed("bench.instance_text", || instance_text(&inst));
    let reference = match reference_objective(w, &inst) {
        Ok(r) => r,
        Err(e) => {
            t.check(Err(e), "reference");
            return t;
        }
    };
    let budget = Duration::from_secs_f64(cfg.seconds);

    t.io(&text);
    let Some((selection, overhead)) = t.core(&inst, reference, budget.mul_f64(0.4), 2) else {
        return t;
    };
    t.out
        .metric("obs.trace_overhead_share", overhead, "share", 1);
    t.flow(&inst, &selection, reference);
    t.graph(&inst);
    let mut script = EditScript::new(w.customers.clone(), cfg.seed);
    let edits: Vec<Edit> = (0..RESOLVE_EDITS).map(|_| script.next_edit()).collect();
    t.resolve(&inst, Wma::new(), &edits);
    t.cluster(&inst, reference);

    // The server comes last: starting it arms the process-wide profiler.
    let mut server = serve::start_server();
    t.open_probes(&mut server, &text);
    let world = World {
        text,
        base: w.customers.clone(),
    };
    let plan = Plan {
        sessions: 1,
        seconds: cfg.seconds * 0.1,
        mode: LoopMode::Traced,
        seed: cfg.seed,
    };
    let span = t.log.enter("server.loop");
    let logs = serve::drive(&server, &world, 1, plan, epoch);
    t.log.exit(span);
    match logs {
        Ok(logs) => {
            let m = serve::merge(logs, epoch);
            t.server_loop(&m, &server);
            t.out.merge_ops(m.ops);
            t.log.absorb(m.spans);
        }
        Err(e) => {
            t.check(Err(e), "server loop");
        }
    }
    stop_server(server);
    t
}

/// Traced run of `serve-whatif`: the library layers on the city every
/// session opens, then the served loop with traced and untraced quarters
/// alternating, then the library replay of session 0's edits.
pub fn run_serve(cfg: &RunCfg, epoch: Instant) -> Traced {
    let mut t = Traced::new(epoch);
    let (world, _) = t.log.timed("bench.world", || serve::world(cfg.smoke));
    let owned = mcfs_io::read_instance(world.text.as_bytes()).expect("the generated world parses");
    let inst = owned
        .instance()
        .expect("the generated world is well-formed");
    let reference = match Wma::new().threads(1).run(&inst) {
        Ok(r) => r.solution.objective,
        Err(e) => {
            t.check(Err(format!("{e:?}")), "reference solve");
            return t;
        }
    };

    t.io(&world.text);
    // On this workload the reported overhead is that of served writes.
    let Some((selection, solve_overhead)) = t.core(&inst, reference, Duration::ZERO, 3) else {
        return t;
    };
    t.out
        .note("library_solve_trace_overhead_share", solve_overhead);
    t.flow(&inst, &selection, reference);
    t.graph(&inst);
    t.cluster(&inst, reference);

    let mut server = serve::start_server();
    t.open_probes(&mut server, &world.text);
    let plan = Plan {
        sessions: serve::SESSIONS_PER_CLIENT,
        seconds: cfg.seconds,
        mode: LoopMode::Alternating,
        seed: cfg.seed,
    };
    let span = t.log.enter("server.loop");
    let logs = serve::drive(&server, &world, serve::CLIENTS, plan, epoch);
    t.log.exit(span);
    let m = match logs {
        Ok(logs) => serve::merge(logs, epoch),
        Err(e) => {
            t.check(Err(e), "server loop");
            stop_server(server);
            return t;
        }
    };
    t.server_loop(&m, &server);
    stop_server(server);
    if !m.plain.write_ms.is_empty() && !m.traced.write_ms.is_empty() {
        t.out.metric(
            "obs.trace_overhead_share",
            median(&m.traced.write_ms) / median(&m.plain.write_ms) - 1.0,
            "share",
            m.traced.write_ms.len().min(m.plain.write_ms.len()),
        );
    }
    t.out.merge_ops(m.ops);
    t.log.absorb(m.spans);
    // The sessions solve with the server's default single-thread solver.
    t.resolve(&inst, Wma::new().threads(1), &m.session0_edits);
    t
}
