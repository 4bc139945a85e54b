//! The single-box workloads (`city-sparse`, `synth-dense`), untraced.
//!
//! After one untimed warm-up solve, a run interleaves for `--seconds`:
//! - a what-if loop on a library `ReSolver` primed by the warm-up —
//!   writes are one edit plus a re-solve, reads render the current answer
//!   the way the server's `ASSIGNMENT` and `STATS` replies do;
//! - repeated cold `Wma::new().run` solves (`solve_s`, median);
//! - repeated loads of the instance text: parse, borrow, feasibility check
//!   (`setup_s`, median).
//!
//! Every solution is checked; a solve of the base instance must reach the
//! workload's reference objective. Peak memory is read after the warm-up,
//! while one solver state is live: the timed phase holds the resolver's
//! rows beside each cold solve's own.

use std::time::{Duration, Instant};

use mcfs::{McfsInstance, ReSolveRun, ReSolver, Solution, Wma};

use crate::host;
use crate::report::Outcome;
use crate::stats::{median, quantile};
use crate::workloads::{EditScript, SolveWorkload};
use crate::RunCfg;

/// Share of the measured time spent on set-up loads (the what-if share
/// is the workload's).
const SETUP_SHARE: f64 = 0.10;

/// At least this many samples per timing, however short the run.
const MIN_SAMPLES: usize = 3;

pub fn instance_text(inst: &McfsInstance) -> String {
    let mut buf = Vec::new();
    mcfs_io::write_instance(&mut buf, inst).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("instance text is ASCII")
}

/// One load of the instance as a user pays it: parse, borrow, check.
pub fn load_instance(text: &str) -> Result<(), String> {
    let owned = mcfs_io::read_instance(text.as_bytes()).map_err(|e| format!("parse: {e:?}"))?;
    let inst = owned.instance().map_err(|e| format!("instance: {e:?}"))?;
    inst.check_feasibility()
        .map(|_| ())
        .map_err(|e| format!("infeasible: {e:?}"))
}

/// Timed loads of the instance text, slipped in between the operations
/// of the other phases whenever set-up has had less than its share of the
/// run so far, so that set-up samples span the whole run.
pub struct SetupLoads<'t> {
    text: &'t str,
    start: Instant,
    spent: Duration,
    pub samples: Vec<f64>,
}

impl<'t> SetupLoads<'t> {
    pub fn new(text: &'t str) -> SetupLoads<'t> {
        SetupLoads {
            text,
            start: Instant::now(),
            spent: Duration::ZERO,
            samples: Vec::new(),
        }
    }

    pub fn maybe_load(&mut self, out: &mut Outcome) {
        if self.spent < self.start.elapsed().mul_f64(SETUP_SHARE) {
            let t = Instant::now();
            let r = load_instance(self.text);
            let d = t.elapsed();
            self.spent += d;
            if out.check(r.is_ok(), || format!("instance load failed: {r:?}")) {
                self.samples.push(d.as_secs_f64());
            }
        }
    }
}

/// Full check of a solution of `inst`, plus the expected objective.
pub fn check_solution(
    inst: &McfsInstance,
    sol: &Solution,
    expect: Option<u64>,
) -> Result<(), String> {
    inst.verify(sol).map_err(|e| format!("verify: {e:?}"))?;
    match expect {
        Some(want) if want != sol.objective => Err(format!(
            "objective {} differs from reference {want}",
            sol.objective
        )),
        _ => Ok(()),
    }
}

/// The objective a correct solve of the base instance reaches: the pinned
/// reference, or (smoke sizes) a single-thread solve computed now.
pub fn reference_objective(w: &SolveWorkload, inst: &McfsInstance) -> Result<u64, String> {
    match w.reference {
        Some(r) => Ok(r),
        None => Wma::new()
            .threads(1)
            .run(inst)
            .map(|r| r.solution.objective)
            .map_err(|e| format!("reference solve: {e:?}")),
    }
}

/// Cheap per-write check against the resolver's cached distance rows:
/// budget, assignment shape, capacities, and the objective recomputed
/// from the rows.
fn check_against_rows(rs: &ReSolver, sol: &Solution) -> Result<(), String> {
    let inst = rs.instance();
    if sol.facilities.len() > inst.k() {
        return Err(format!(
            "{} facilities over budget {}",
            sol.facilities.len(),
            inst.k()
        ));
    }
    if sol.assignment.len() != inst.num_customers() {
        return Err("assignment length differs from customer count".into());
    }
    let mut loads = vec![0u32; sol.facilities.len()];
    let mut objective = 0u64;
    for (i, &a) in sol.assignment.iter().enumerate() {
        let fac = *sol
            .facilities
            .get(a as usize)
            .and_then(|&j| inst.facilities().get(j as usize))
            .ok_or("assignment index out of range")?;
        loads[a as usize] += 1;
        if loads[a as usize] > fac.capacity {
            return Err("capacity exceeded".into());
        }
        objective += rs.oracle().row(inst.graph(), inst.customers()[i])[fac.node as usize];
    }
    if objective != sol.objective {
        return Err(format!(
            "objective {} but rows give {objective}",
            sol.objective
        ));
    }
    Ok(())
}

/// Render the current answer as the server's `ASSIGNMENT` + `STATS`
/// replies carry it.
fn render(run: &ReSolveRun) -> (Vec<u8>, Vec<String>) {
    let mut buf = Vec::with_capacity(run.solution.assignment.len() * 4 + 64);
    mcfs_io::write_solution(&mut buf, &run.solution).expect("writing to a Vec cannot fail");
    (buf, run.to_kv_lines())
}

fn check_render(run: &ReSolveRun, buf: &[u8], kv: &[String]) -> Result<(), String> {
    let parsed = mcfs_io::read_solution(buf).map_err(|e| format!("rendered solution: {e:?}"))?;
    if parsed != run.solution {
        return Err("rendered solution does not parse back to the solution".into());
    }
    let want = format!("objective {}", run.solution.objective);
    if !kv.contains(&want) {
        return Err(format!("stats lack `{want}`"));
    }
    Ok(())
}

/// The library what-if loop: writes (edits from the seeded script, each
/// followed by a re-solve) and reads alternate on a primed resolver, one
/// operation per [`WhatIf::step`]. Alternating means every read finds the
/// caches as a write left them rather than a varying mix of cold and warm.
pub struct WhatIf<'g> {
    rs: ReSolver<'g>,
    last: ReSolveRun,
    script: EditScript,
    reference: u64,
    pub write_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
    /// Wall time the loop has taken, checks included.
    pub spent: Duration,
    pub warm: usize,
}

impl<'g> WhatIf<'g> {
    pub fn new(rs: ReSolver<'g>, last: ReSolveRun, script: EditScript, reference: u64) -> Self {
        WhatIf {
            rs,
            last,
            script,
            reference,
            write_ms: Vec::new(),
            read_ms: Vec::new(),
            spent: Duration::ZERO,
            warm: 0,
        }
    }

    pub fn step(&mut self, out: &mut Outcome) {
        let t0 = Instant::now();
        if self.write_ms.len() <= self.read_ms.len() {
            self.write(out);
        } else {
            self.read(out);
        }
        self.spent += t0.elapsed();
    }

    fn write(&mut self, out: &mut Outcome) {
        let edit = self.script.next_edit();
        let t = Instant::now();
        let rs = &mut self.rs;
        let r = rs
            .apply(&[edit])
            .map_err(|e| format!("edit {edit:?}: {e}"))
            .and_then(|()| rs.solve().map_err(|e| format!("re-solve: {e:?}")));
        let d = t.elapsed();
        let checked = r.and_then(|run| {
            check_against_rows(&self.rs, &run.solution)?;
            if self.script.at_base() && run.solution.objective != self.reference {
                return Err(format!(
                    "base-instance re-solve objective {} differs from reference {}",
                    run.solution.objective, self.reference
                ));
            }
            Ok(run)
        });
        out.attempted += 1;
        match checked {
            Ok(run) => {
                self.write_ms.push(d.as_secs_f64() * 1e3);
                self.warm += usize::from(run.warm);
                self.last = run;
            }
            Err(e) => out.fail(format!("what-if write: {e}")),
        }
    }

    fn read(&mut self, out: &mut Outcome) {
        let t = Instant::now();
        let (buf, kv) = render(&self.last);
        let d = t.elapsed();
        let r = check_render(&self.last, &buf, &kv);
        if out.check(r.is_ok(), || format!("what-if read: {r:?}")) {
            self.read_ms.push(d.as_secs_f64() * 1e3);
        }
    }

    /// The final what-if solution must pass a full `verify`.
    pub fn check_final(&self, out: &mut Outcome) {
        let r = check_solution(&self.rs.instance(), &self.last.solution, None);
        out.check(r.is_ok(), || format!("final what-if solution: {r:?}"));
    }
}

/// One timed cold `Wma::new()` solve of the base instance, checked.
fn timed_solve(inst: &McfsInstance, reference: u64, out: &mut Outcome) -> Option<f64> {
    let t = Instant::now();
    let r = Wma::new().run(inst);
    let d = t.elapsed().as_secs_f64();
    let r = r
        .map_err(|e| format!("solve: {e:?}"))
        .and_then(|run| check_solution(inst, &run.solution, Some(reference)));
    out.check(r.is_ok(), || format!("solve: {r:?}"))
        .then_some(d)
}

pub fn run(w: &SolveWorkload, cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let inst = w.instance();
    let text = instance_text(&inst);
    let budget = Duration::from_secs_f64(cfg.seconds);
    let reference = match reference_objective(w, &inst) {
        Ok(r) => r,
        Err(e) => {
            out.check(false, || e);
            return out;
        }
    };

    // Warm-up: the resolver's first solve runs the same selection and
    // assignment code as `Wma::run`, so it also takes the process's
    // first-solve cost out of the timed solves below.
    let mut rs = ReSolver::new(&inst, Wma::new());
    let first = match rs.solve() {
        Ok(run) => run,
        Err(e) => {
            out.check(false, || format!("warm-up solve: {e:?}"));
            return out;
        }
    };
    let r = check_solution(&inst, &first.solution, Some(reference));
    if !out.check(r.is_ok(), || format!("warm-up solve: {r:?}")) {
        return out;
    }
    let peak_rss_mb = host::peak_rss_mb();

    // The three kinds of operation are interleaved through the whole run,
    // each held to its share of the time so far, so that every metric
    // averages over the same stretch of host behaviour.
    let mut setup = SetupLoads::new(&text);
    let script = EditScript::new(w.customers.clone(), cfg.seed);
    let mut wi = WhatIf::new(rs, first, script, reference);
    let mut solves = Vec::new();
    let t0 = Instant::now();
    loop {
        let elapsed = t0.elapsed();
        let enough = solves.len() >= MIN_SAMPLES
            && wi.write_ms.len() >= MIN_SAMPLES
            && wi.read_ms.len() >= MIN_SAMPLES;
        if elapsed >= budget && (enough || out.failed > 0) {
            break;
        }
        setup.maybe_load(&mut out);
        if wi.spent < elapsed.mul_f64(w.whatif_share) {
            wi.step(&mut out);
        } else if let Some(d) = timed_solve(&inst, reference, &mut out) {
            solves.push(d);
        }
    }
    wi.check_final(&mut out);
    let setup = setup.samples;
    if setup.is_empty() || solves.is_empty() || wi.write_ms.is_empty() || wi.read_ms.is_empty() {
        return out;
    }

    out.metric("setup_s", median(&setup), "s", setup.len());
    out.metric("solve_s", median(&solves), "s", solves.len());
    out.metric(
        "read_p90_ms",
        quantile(&wi.read_ms, 0.9),
        "ms",
        wi.read_ms.len(),
    );
    out.metric("peak_rss_mb", peak_rss_mb, "MB", 1);
    out.note("write_p50_ms", median(&wi.write_ms));
    out.note("write_p90_ms", quantile(&wi.write_ms, 0.9));
    out.note("read_p50_ms", median(&wi.read_ms));
    out.note("solve_samples_s", format!("{solves:?}"));
    out.note(
        "whatif_warm_share",
        wi.warm as f64 / wi.write_ms.len() as f64,
    );
    out
}
