//! `serve-whatif`: the in-process server under a closed-loop what-if mix.
//!
//! Each client, on its own in-process connection, owns sessions of the
//! same city. Set-up opens and solves every session, one at a time in a
//! fixed order (see [`Turns`]). The measured loop then
//! draws, per operation, a write (one `EDIT` then `SOLVE`) or a read
//! (`ASSIGNMENT` then `STATS`) on one of the client's sessions. At
//! the end every session's `SNAPSHOT` must round-trip through
//! `read_checkpoint`, and its objective must equal a cold single-thread
//! solve of the snapshot instance (warm ≡ cold).

use std::sync::{Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use mcfs::{Edit, Wma};
use mcfs_graph::NodeId;
use mcfs_server::protocol::{OpenKind, Reply};
use mcfs_server::{Client, ClientError, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::Outcome;
use crate::spans::SpanLog;
use crate::stats::{median, quantile};
use crate::workloads::EditScript;
use crate::{host, RunCfg};

pub const CLIENTS: usize = 2;
pub const SESSIONS_PER_CLIENT: usize = 3;
/// Leading share of the measured loop whose samples are discarded.
const LOOP_WARMUP_SHARE: f64 = 0.05;
/// In traced loops, every `TRACE_SAMPLE_EVERY`-th traced operation also
/// fetches the server's span tree for it.
const TRACE_SAMPLE_EVERY: usize = 8;

/// The server with the flight recorder and profiler armed at the defaults
/// the `mcfs-serve` binary uses.
pub fn start_server() -> ServerHandle {
    mcfs_obs::flight::enable(
        mcfs_obs::DEFAULT_FLIGHT_CAPACITY,
        mcfs_obs::DEFAULT_FLIGHT_WINDOW_NS,
    );
    mcfs_obs::profile::enable(mcfs_obs::DEFAULT_SAMPLE_HZ);
    ServerHandle::start(ServerConfig::default())
}

/// The instance every session opens, with the customer nodes edit scripts
/// draw arrivals from.
pub struct World {
    pub text: String,
    pub base: Vec<NodeId>,
}

pub fn world(smoke: bool) -> World {
    let spec = crate::workloads::serve_world(smoke);
    let generated = spec.generate();
    let owned =
        mcfs_io::read_instance(generated.text.as_bytes()).expect("the generated world parses");
    World {
        text: generated.text,
        base: owned.customers,
    }
}

/// Which loop operations carry a trace id.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum LoopMode {
    Plain,
    /// Alternate untraced and traced quarters of the loop, so traced and
    /// untraced latencies are measured under the same conditions.
    Alternating,
    Traced,
}

/// How one client runs.
#[derive(Clone, Copy)]
pub struct Plan {
    pub sessions: usize,
    pub seconds: f64,
    pub mode: LoopMode,
    pub seed: u64,
}

#[derive(Default)]
pub struct Samples {
    pub write_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
    /// Each write's re-solve wall time as the server reports it.
    pub solve_s: Vec<f64>,
}

impl Samples {
    fn absorb(&mut self, other: Samples) {
        self.write_ms.extend(other.write_ms);
        self.read_ms.extend(other.read_ms);
        self.solve_s.extend(other.solve_s);
    }
}

/// What one client saw.
pub struct ClientLog {
    pub setup_s: Vec<f64>,
    pub plain: Samples,
    pub traced: Samples,
    /// Operations completed inside the recorded part of the loop, and
    /// that part's wall time.
    pub completed: usize,
    pub recorded: Duration,
    pub ops: Outcome,
    /// Server span durations in µs by span name, from sampled `TRACE`
    /// fetches.
    pub server_spans: Vec<(String, f64)>,
    /// The edits applied to this client's first session, in order.
    pub session0_edits: Vec<Edit>,
    pub spans: SpanLog,
}

struct Session {
    name: String,
    script: EditScript,
    objective: u64,
    base_objective: u64,
}

fn client_err(e: ClientError) -> String {
    e.to_string()
}

fn kv_u64(reply: &Reply, key: &str) -> Result<u64, String> {
    reply
        .kv(key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("reply lacks numeric `{key}`: {reply:?}"))
}

/// One write: `EDIT` then `SOLVE`. Returns the solver's own wall time as
/// the `SOLVE` reply reports it (`wall_us`): the re-solve inside the
/// worker, without the wire, the queue or the edit.
fn write_op(client: &mut Client, s: &mut Session, edit: Edit) -> Result<Duration, String> {
    client.edit(&s.name, &[edit]).map_err(client_err)?;
    let reply = client.solve(&s.name).map_err(client_err)?;
    let solve = Duration::from_micros(kv_u64(&reply, "wall_us")?);
    let objective = kv_u64(&reply, "objective")?;
    if s.script.at_base() && objective != s.base_objective {
        return Err(format!(
            "{}: base-instance objective {objective} differs from set-up objective {}",
            s.name, s.base_objective
        ));
    }
    s.objective = objective;
    Ok(solve)
}

/// One read: `ASSIGNMENT` then `STATS`. Timing the pair as one read keeps
/// the read latency one population instead of a mix of a long and a
/// short reply, whose median would sit on the seam between the two.
fn read_op(client: &mut Client, s: &Session) -> Result<(), String> {
    read_assignment(client, s)?;
    read_stats(client, s)
}

fn read_assignment(client: &mut Client, s: &Session) -> Result<(), String> {
    let sol = client.solution(&s.name).map_err(client_err)?;
    if sol.objective != s.objective || sol.assignment.len() != s.script.customers() {
        return Err(format!(
            "{}: ASSIGNMENT objective {} over {} customers, expected {} over {}",
            s.name,
            sol.objective,
            sol.assignment.len(),
            s.objective,
            s.script.customers()
        ));
    }
    Ok(())
}

fn read_stats(client: &mut Client, s: &Session) -> Result<(), String> {
    let lines = client.stats(&s.name).map_err(client_err)?;
    let want = format!("objective {}", s.objective);
    if !lines.contains(&want) {
        return Err(format!("{}: STATS lacks `{want}`", s.name));
    }
    Ok(())
}

/// `SNAPSHOT` round-trips through `read_checkpoint` (which verifies the
/// solution against the instance) and equals a cold single-thread solve.
fn check_snapshot(client: &mut Client, s: &Session) -> Result<(), String> {
    let text = client.snapshot(&s.name).map_err(client_err)?;
    let (owned, sol) = mcfs_io::read_checkpoint(text.as_bytes())
        .map_err(|e| format!("{}: checkpoint: {e:?}", s.name))?;
    if sol.objective != s.objective {
        return Err(format!(
            "{}: snapshot objective {} but last SOLVE said {}",
            s.name, sol.objective, s.objective
        ));
    }
    let inst = owned.instance().map_err(|e| format!("{}: {e:?}", s.name))?;
    let cold = Wma::new()
        .threads(1)
        .run(&inst)
        .map_err(|e| format!("{}: cold solve: {e:?}", s.name))?;
    if cold.solution.objective != sol.objective {
        return Err(format!(
            "{}: warm objective {} differs from cold {}",
            s.name, sol.objective, cold.solution.objective
        ));
    }
    Ok(())
}

/// Set-up order across clients. The server pins sessions to workers
/// round-robin at `OPEN`, so opening in one fixed global order (round `j`
/// opens every client's `j`-th session, client by client) gives every run
/// the same session-to-worker layout: with as many workers as clients,
/// each client's sessions share one worker. Set-ups also run one at a
/// time, so each is timed without the others competing.
#[derive(Default)]
pub struct Turns {
    next: Mutex<usize>,
    changed: Condvar,
}

impl Turns {
    fn wait_for(&self, turn: usize) {
        let mut next = self.next.lock().expect("turn lock");
        while *next != turn {
            next = self.changed.wait(next).expect("turn lock");
        }
    }

    fn advance(&self) {
        *self.next.lock().expect("turn lock") += 1;
        self.changed.notify_all();
    }
}

/// Open and solve each session in turn, run the loop, then check every
/// session.
#[allow(clippy::too_many_arguments)]
pub fn client_run(
    mut client: Client,
    idx: usize,
    clients: usize,
    world: &World,
    plan: Plan,
    turns: &Turns,
    barrier: &Barrier,
    epoch: Instant,
) -> ClientLog {
    let mut log = ClientLog {
        setup_s: Vec::new(),
        plain: Samples::default(),
        traced: Samples::default(),
        completed: 0,
        recorded: Duration::ZERO,
        ops: Outcome::default(),
        server_spans: Vec::new(),
        session0_edits: Vec::new(),
        spans: SpanLog::new(epoch, idx as u64 + 1),
    };
    let mut sessions: Vec<Session> = (0..plan.sessions)
        .map(|j| Session {
            name: format!("c{idx}s{j}"),
            script: EditScript::new(
                world.base.clone(),
                plan.seed
                    ^ ((idx * plan.sessions + j + 1) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            objective: 0,
            base_objective: 0,
        })
        .collect();

    for (j, s) in sessions.iter_mut().enumerate() {
        turns.wait_for(j * clients + idx);
        let span = log.spans.enter("server.setup_session");
        let t = Instant::now();
        let r = client
            .open_text(&s.name, OpenKind::Instance, &world.text)
            .and_then(|_| client.solve(&s.name))
            .map_err(client_err)
            .and_then(|reply| kv_u64(&reply, "objective"));
        let d = t.elapsed();
        log.spans.exit(span);
        log.ops.attempted += 1;
        match r {
            Ok(objective) => {
                s.objective = objective;
                s.base_objective = objective;
                log.setup_s.push(d.as_secs_f64());
            }
            Err(e) => log.ops.fail(format!("set-up of {}: {e}", s.name)),
        }
        turns.advance();
    }
    barrier.wait();
    if log.ops.failed > 0 {
        return log;
    }

    let mut rng =
        StdRng::seed_from_u64(plan.seed ^ (idx as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let start = Instant::now();
    let window = Duration::from_secs_f64(plan.seconds);
    let record_from = start + window.mul_f64(LOOP_WARMUP_SHARE);
    let end = start + window;
    let mut traced_ops = 0usize;
    let mut now = start;
    while now < end {
        let traced = match plan.mode {
            LoopMode::Plain => false,
            LoopMode::Traced => true,
            LoopMode::Alternating => {
                ((now - start).as_secs_f64() / plan.seconds * 4.0) as u32 % 2 == 1
            }
        };
        let si = rng.random_range(0..sessions.len());
        let write = rng.random_bool(0.5);
        let s = &mut sessions[si];
        if traced {
            client.set_context(mcfs_obs::next_trace_id(), None);
        }
        let span = log
            .spans
            .enter(if write { "server.write" } else { "server.read" });
        let t = Instant::now();
        let r = if write {
            let edit = s.script.next_edit();
            if si == 0 {
                log.session0_edits.push(edit);
            }
            write_op(&mut client, s, edit).map(Some)
        } else {
            read_op(&mut client, s).map(|()| None)
        };
        let d = t.elapsed();
        log.spans.exit(span);
        if traced {
            client.clear_context();
        }
        now = Instant::now();
        log.ops.attempted += 1;
        match r {
            Err(e) => log.ops.fail(e),
            Ok(solve_s) if now >= record_from && t >= record_from => {
                let bucket = if traced {
                    &mut log.traced
                } else {
                    &mut log.plain
                };
                match solve_s {
                    Some(solve) => {
                        bucket.write_ms.push(d.as_secs_f64() * 1e3);
                        bucket.solve_s.push(solve.as_secs_f64());
                    }
                    None => bucket.read_ms.push(d.as_secs_f64() * 1e3),
                }
                log.completed += 1;
            }
            Ok(_) => {}
        }
        if traced {
            traced_ops += 1;
            if traced_ops % TRACE_SAMPLE_EVERY == 1 {
                match client.trace_spans(&s.name, None) {
                    Ok(spans) => log.server_spans.extend(
                        spans
                            .into_iter()
                            .filter(|sp| sp.name.starts_with("server."))
                            .map(|sp| (sp.name.into_owned(), sp.dur_ns as f64 / 1e3)),
                    ),
                    Err(e) => {
                        log.ops.attempted += 1;
                        log.ops.fail(format!("TRACE {}: {e}", s.name));
                    }
                }
            }
        }
    }
    log.recorded = now.saturating_duration_since(record_from);

    for s in &sessions {
        let span = log.spans.enter("server.check_snapshot");
        let r = check_snapshot(&mut client, s);
        log.spans.exit(span);
        log.ops.check(r.is_ok(), || format!("{r:?}"));
    }
    log
}

/// Run `clients` concurrent clients against `server` and collect their logs.
pub fn drive(
    server: &ServerHandle,
    world: &World,
    clients: usize,
    plan: Plan,
    epoch: Instant,
) -> Result<Vec<ClientLog>, String> {
    let conns: Vec<Client> = (0..clients)
        .map(|_| server.connect().map_err(client_err))
        .collect::<Result<_, _>>()?;
    let barrier = Barrier::new(clients);
    let turns = Turns::default();
    Ok(std::thread::scope(|sc| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let (barrier, turns) = (&barrier, &turns);
                sc.spawn(move || client_run(c, i, clients, world, plan, turns, barrier, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    }))
}

/// Merged view of all clients.
pub struct Merged {
    pub setup_s: Vec<f64>,
    pub plain: Samples,
    pub traced: Samples,
    pub throughput_rps: f64,
    pub ops: Outcome,
    pub server_spans: Vec<(String, f64)>,
    pub session0_edits: Vec<Edit>,
    pub spans: SpanLog,
}

pub fn merge(logs: Vec<ClientLog>, epoch: Instant) -> Merged {
    let mut m = Merged {
        setup_s: Vec::new(),
        plain: Samples::default(),
        traced: Samples::default(),
        throughput_rps: 0.0,
        ops: Outcome::default(),
        server_spans: Vec::new(),
        session0_edits: Vec::new(),
        spans: SpanLog::new(epoch, 0),
    };
    let mut completed = 0usize;
    let mut recorded = 0.0;
    let n = logs.len();
    for (i, log) in logs.into_iter().enumerate() {
        m.setup_s.extend(log.setup_s);
        m.plain.absorb(log.plain);
        m.traced.absorb(log.traced);
        completed += log.completed;
        recorded += log.recorded.as_secs_f64() / n as f64;
        m.ops.merge_ops(log.ops);
        m.server_spans.extend(log.server_spans);
        if i == 0 {
            m.session0_edits = log.session0_edits;
        }
        m.spans.absorb(log.spans);
    }
    m.throughput_rps = if recorded > 0.0 {
        completed as f64 / recorded
    } else {
        0.0
    };
    m
}

/// The untraced `serve-whatif` run.
pub fn run(cfg: &RunCfg) -> Outcome {
    let world = world(cfg.smoke);
    let server = start_server();
    let epoch = Instant::now();
    let plan = Plan {
        sessions: SESSIONS_PER_CLIENT,
        seconds: cfg.seconds,
        mode: LoopMode::Plain,
        seed: cfg.seed,
    };
    let logs = drive(&server, &world, CLIENTS, plan, epoch);
    server.shutdown();
    let mut out = Outcome::default();
    let m = match logs {
        Ok(logs) => merge(logs, epoch),
        Err(e) => {
            out.check(false, || e);
            return out;
        }
    };
    out.merge_ops(m.ops);
    let p = &m.plain;
    if m.setup_s.is_empty() || p.write_ms.is_empty() || p.read_ms.is_empty() {
        out.check(false, || {
            "the loop recorded no writes or no reads".to_owned()
        });
        return out;
    }
    out.metric("setup_s", median(&m.setup_s), "s", m.setup_s.len());
    // Gated on the tail, as reads are: see the note below.
    out.metric(
        "solve_s",
        quantile(&p.solve_s, 0.9),
        "s",
        p.solve_s.len(),
    );
    out.metric(
        "read_p90_ms",
        quantile(&p.read_ms, 0.9),
        "ms",
        p.read_ms.len(),
    );
    out.metric("peak_rss_mb", host::peak_rss_mb(), "MB", 1);
    // On a shared host the medians of sub-millisecond operations and the
    // throughput of a closed loop follow the share of a run the host
    // spends in its fast state, so they are recorded, not gated; the 90th
    // percentiles sit in the slow state, which most runs visit. Write
    // latency is recorded too: its 90th percentile on the solve
    // workloads' what-if loop follows the host's state.
    out.note("throughput_rps", m.throughput_rps);
    out.note("write_p50_ms", median(&p.write_ms));
    out.note("write_p90_ms", quantile(&p.write_ms, 0.9));
    out.note("read_p50_ms", median(&p.read_ms));
    out.note("solve_p50_s", median(&p.solve_s));
    out
}
