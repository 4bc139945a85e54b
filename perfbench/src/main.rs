//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <city-sparse|synth-dense|serve-whatif> --seed <n> \
//!     --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics, `--trace 1` the per-layer metrics (and writes a span file).
//! Every metric is printed by name with its unit; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A run record with provenance goes to
//! `<out>/` (default `perfbench-out/`). Any failed check makes the exit
//! code non-zero. `--smoke` shrinks every workload to a few-second size.

mod host;
mod layers;
mod report;
mod serve;
mod solve;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::{json_num, json_str, Outcome};
use spans::SpanLog;

pub const WORKLOADS: [&str; 3] = ["city-sparse", "synth-dense", "serve-whatif"];

/// What every workload needs from the command line.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

struct Args {
    workload: String,
    trace: bool,
    out: PathBuf,
    cfg: RunCfg,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut out = PathBuf::from("perfbench-out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        trace: trace.ok_or("--trace is required")?,
        out,
        cfg: RunCfg {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            smoke,
        },
    })
}

fn run(args: &Args, epoch: Instant) -> (Outcome, Option<SpanLog>) {
    let cfg = &args.cfg;
    match (args.workload.as_str(), args.trace) {
        ("serve-whatif", false) => (serve::run(cfg), None),
        ("serve-whatif", true) => {
            let t = layers::run_serve(cfg, epoch);
            (t.out, Some(t.log))
        }
        (name, trace) => {
            let w = if name == "city-sparse" {
                workloads::city_sparse(cfg.smoke)
            } else {
                workloads::synth_dense(cfg.smoke)
            };
            if trace {
                let t = layers::run_solve(&w, cfg, epoch);
                (t.out, Some(t.log))
            } else {
                (solve::run(&w, cfg), None)
            }
        }
    }
}

fn write_file(path: &Path, body: &str) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let load_before = host::loadavg();
    let (steal0, total0) = host::cpu_jiffies();
    let epoch = Instant::now();

    let (mut out, spans) = run(&args, epoch);

    let wall = epoch.elapsed().as_secs_f64();
    let (steal1, total1) = host::cpu_jiffies();
    let steal_share = if total1 > total0 {
        (steal1 - steal0) as f64 / (total1 - total0) as f64
    } else {
        0.0
    };
    let tag = format!(
        "{}-seed{}-trace{}{}",
        args.workload,
        args.cfg.seed,
        u8::from(args.trace),
        if args.cfg.smoke { "-smoke" } else { "" }
    );
    let provenance = [
        ("git_rev", host::git_rev(&root)),
        ("nproc", host::nproc().to_string()),
        ("loadavg_before", load_before),
        ("loadavg_after", host::loadavg()),
        ("steal_share", json_num(steal_share)),
        ("wall_s", json_num(wall)),
    ];

    for (k, v) in &provenance {
        println!("# {k} {v}");
    }
    for (k, v) in &out.notes {
        println!("# {k} {v}");
    }
    for m in &out.metrics {
        println!(
            "{:<28} {:>14} {:<6} (n={})",
            m.name,
            json_num(m.value),
            m.unit,
            m.samples
        );
    }
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "# ops attempted={} failed={} failed_share={}",
        out.attempted,
        out.failed,
        json_num(failed_share)
    );

    if let Some(log) = &spans {
        let path = args.out.join(format!("{tag}.spans.json"));
        write_file(&path, &log.to_chrome_trace(&args.workload, &out.metrics));
        println!("# span file {}", path.display());
        for (name, self_time, count) in log.self_times().into_iter().take(12) {
            println!(
                "# self-time {name:<28} {:>10.3} ms over {count} spans",
                self_time.as_secs_f64() * 1e3
            );
        }
        out.note("span_file", path.display());
    }

    let mut record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"smoke\": {}, \"seconds\": {}, \
         \"attempted\": {}, \"failed\": {}, \"failed_share\": {},\n \"provenance\": {{",
        json_str(&args.workload),
        args.cfg.seed,
        args.trace,
        args.cfg.smoke,
        json_num(args.cfg.seconds),
        out.attempted,
        out.failed,
        json_num(failed_share),
    );
    let kv = |pairs: &mut dyn Iterator<Item = (String, String)>| {
        pairs
            .map(|(k, v)| format!("{}: {}", json_str(&k), json_str(&v)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    record.push_str(&kv(&mut provenance
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))));
    record.push_str("},\n \"notes\": {");
    record.push_str(&kv(&mut out.notes.iter().cloned()));
    record.push_str("},\n \"metrics\": {");
    record.push_str(
        &out.metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}, \"workload\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit),
                    m.samples,
                    json_str(&args.workload)
                )
            })
            .collect::<Vec<_>>()
            .join(",\n  "),
    );
    record.push_str("},\n \"failures\": [");
    record.push_str(
        &out.failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(", "),
    );
    record.push_str("]}\n");
    write_file(&args.out.join(format!("{tag}.json")), &record);

    println!("{}", out.result_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
