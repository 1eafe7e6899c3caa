//! The serving stage: a server process per checkpoint, driven over HTTP by
//! the open-loop generator, with every classify body checked against the
//! logits computed in this process.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use autoac_data::json::{self, Value};
use autoac_serve::Client;
use autoac_tensor::Matrix;
use perfbench::loadgen::{self, Outcome, Planned};

/// A running server process.
pub struct Child {
    proc: std::process::Child,
    /// Where it listens.
    pub addr: SocketAddr,
    /// `Server::start` wall time inside the child, milliseconds.
    pub start_ms: f64,
    /// Spawn to ready, seconds, as this process saw it.
    pub ready_s: f64,
    /// CPU seconds the child used from its start until it was ready.
    pub ready_cpu_s: f64,
}

/// Starts `perfbench serve-child` on `ckpt` and waits until it listens.
pub fn spawn(ckpt: &Path, workers: usize, out_dir: &Path) -> Result<Child, String> {
    let t = Instant::now();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut proc = Command::new(exe)
        .arg("serve-child")
        .arg(ckpt)
        .arg(workers.to_string())
        .arg(out_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn server: {e}"))?;
    let mut line = String::new();
    let read = proc
        .stdout
        .take()
        .map(BufReader::new)
        .map(|mut r| r.read_line(&mut line));
    let ready_s = t.elapsed().as_secs_f64();
    let parts: Vec<&str> = line.split_whitespace().collect();
    let parsed = match (read, parts.as_slice()) {
        (Some(Ok(_)), ["ready", a, ms, cpu]) => {
            a.parse().ok().zip(ms.parse().ok()).zip(cpu.parse().ok())
        }
        _ => None,
    };
    match parsed {
        Some(((addr, start_ms), ready_cpu_s)) => Ok(Child {
            proc,
            addr,
            start_ms,
            ready_s,
            ready_cpu_s,
        }),
        None => {
            let _ = proc.kill();
            let _ = proc.wait();
            Err(format!("server did not come up (said {line:?})"))
        }
    }
}

impl Child {
    /// CPU seconds the server process has used so far.
    pub fn cpu_s(&self) -> f64 {
        perfbench::cpu::other_process_s(self.proc.id()).unwrap_or(f64::NAN)
    }

    /// Peak resident set of the server process so far, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::vm_hwm_mb(&format!("/proc/{}/status", self.proc.id()))
    }

    /// Graceful shutdown over HTTP, then waits for the process; kills it
    /// if it has not exited within ten seconds.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = Client::connect(self.addr)
            .and_then(|mut c| c.post("/admin/shutdown", "{}"))
            .map(|r| r.status == 200)
            .unwrap_or(false);
        let t = Instant::now();
        while t.elapsed() < Duration::from_secs(10) {
            if let Ok(Some(status)) = self.proc.try_wait() {
                return if asked && status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.proc.kill();
        let _ = self.proc.wait();
        Err("server ignored shutdown and was killed".into())
    }
}

/// Body of `perfbench serve-child <ckpt> <workers> <out-dir>`: serves one
/// checkpoint until `POST /admin/shutdown`.
pub fn child_main(args: &[String]) -> i32 {
    let [ckpt, workers, out_dir] = args else {
        eprintln!("usage: perfbench serve-child <ckpt> <workers> <out-dir>");
        return 2;
    };
    let state = match autoac_ckpt::ServeState::read(Path::new(ckpt)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench serve-child: cannot read {ckpt}: {e}");
            return 1;
        }
    };
    let cfg = autoac_serve::ServeConfig {
        workers: workers.parse().unwrap_or(2),
        flight_dir: PathBuf::from(out_dir),
        run: "perfbench".into(),
        ..autoac_serve::ServeConfig::default()
    };
    let t = Instant::now();
    let server = match autoac_serve::Server::start(state, &cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench serve-child: start failed: {e}");
            return 1;
        }
    };
    println!(
        "ready {} {} {}",
        server.addr(),
        t.elapsed().as_secs_f64() * 1e3,
        perfbench::cpu::process_s()
    );
    server.join();
    0
}

/// Scrapes `/metrics` into `name → value` for unlabelled samples.
pub fn scrape(ctl: &mut Client) -> HashMap<String, f64> {
    let Ok(r) = ctl.get("/metrics") else {
        return HashMap::new();
    };
    r.text()
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            Some((it.next()?.to_string(), it.next()?.parse().ok()?))
        })
        .collect()
}

/// Server-side stage figures over one step, from `/metrics` deltas.
#[derive(Clone, Debug, Default)]
pub struct Stages {
    /// Mean enqueue → model-thread dequeue, ms.
    pub queue_wait_ms: f64,
    /// Mean dequeue → forward start (coalescing wait), ms.
    pub batch_wait_ms: f64,
    /// Mean forward share per request, ms.
    pub compute_ms: f64,
    /// Classify requests answered per model forward.
    pub requests_per_forward: f64,
}

fn delta(a: &HashMap<String, f64>, b: &HashMap<String, f64>, k: &str) -> f64 {
    b.get(k).copied().unwrap_or(0.0) - a.get(k).copied().unwrap_or(0.0)
}

fn mean_ms(a: &HashMap<String, f64>, b: &HashMap<String, f64>, hist: &str) -> f64 {
    let n = delta(a, b, &format!("autoac_{hist}_count"));
    if n > 0.0 {
        delta(a, b, &format!("autoac_{hist}_sum")) / n / 1e6
    } else {
        0.0
    }
}

/// Stage means between two scrapes.
pub fn stages(a: &HashMap<String, f64>, b: &HashMap<String, f64>) -> Stages {
    let batches = delta(a, b, "autoac_serve_batches_total");
    Stages {
        queue_wait_ms: mean_ms(a, b, "serve_queue_wait_ns"),
        batch_wait_ms: mean_ms(a, b, "serve_batch_wait_ns"),
        compute_ms: mean_ms(a, b, "serve_compute_ns"),
        requests_per_forward: if batches > 0.0 {
            delta(a, b, "autoac_serve_batched_requests_total") / batches
        } else {
            0.0
        },
    }
}

/// Mean response-write time of the classify timelines `/debug/traces`
/// returns (the slowest retained ones), ms.
pub fn traced_write_ms(ctl: &mut Client) -> f64 {
    let Some(doc) = ctl
        .get("/debug/traces")
        .ok()
        .and_then(|r| json::parse(&r.text()).ok())
    else {
        return 0.0;
    };
    let w: Vec<f64> = doc
        .get("traces")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|t| t.get("path").and_then(Value::as_str) == Some("/v1/classify"))
        .filter_map(|t| t.get("write_ns").and_then(Value::as_f64))
        .collect();
    if w.is_empty() {
        0.0
    } else {
        w.iter().sum::<f64>() / w.len() as f64 / 1e6
    }
}

/// One reload call: start and end (offsets from the step start), and
/// whether it succeeded.
#[derive(Clone, Debug)]
pub struct Reload {
    /// Sent at.
    pub start: Duration,
    /// Answered at.
    pub end: Duration,
    /// 200 with the expected checkpoint id.
    pub ok: bool,
}

/// One timed step's raw results.
pub struct Step {
    /// Per-request outcomes, in schedule order.
    pub outcomes: Vec<Outcome>,
    /// Requested node ids per request.
    pub nodes: Vec<Vec<usize>>,
    /// Reload calls issued during the step.
    pub reloads: Vec<Reload>,
    /// Server stage means over the step.
    pub stages: Stages,
    /// Requests due by the step's end but not yet answered then.
    pub backlog_at_end: usize,
    /// CPU seconds the server process used during the step.
    pub server_cpu_s: f64,
}

/// Load shape of one step.
pub struct Load<'a> {
    /// Time between groups of requests that fall due together.
    pub period: Duration,
    /// Requests per group.
    pub burst: usize,
    /// Step length.
    pub duration: Duration,
    /// Keep-alive connections.
    pub conns: usize,
    /// Node-id sets to request, cycled.
    pub node_sets: &'a [Vec<usize>],
    /// Checkpoints (path, id) to alternate `/admin/reload` between, the
    /// pause between one reload's answer and the next, and the most
    /// reloads to issue.
    pub reload: (&'a [(PathBuf, String)], Duration, usize),
}

const LEAD: Duration = Duration::from_millis(20);
const DEPTH: usize = 64;

/// Runs one step against `server`, with `ctl` as the control connection.
pub fn step(server: &Child, ctl: &mut Client, load: &Load) -> Step {
    let addr = server.addr;
    let before = scrape(ctl);
    let cpu0 = server.cpu_s();
    let sets = load.node_sets;
    let plan: Vec<Planned> = loadgen::schedule(
        LEAD,
        load.period,
        load.burst,
        load.duration,
        load.conns,
        |i| {
            let ids: Vec<String> = sets[i % sets.len()].iter().map(usize::to_string).collect();
            format!("{{\"nodes\":[{}]}}", ids.join(","))
        },
    );
    let nodes: Vec<Vec<usize>> = (0..plan.len())
        .map(|i| sets[i % sets.len()].clone())
        .collect();
    let start = Instant::now();
    let (outcomes, reloads) = std::thread::scope(|s| {
        let load_thread = s.spawn(|| {
            loadgen::run(
                addr,
                start,
                &plan,
                load.conns,
                DEPTH,
                Duration::from_secs(20),
            )
        });
        let reloads = reload_loop(ctl, start, load);
        (
            load_thread.join().expect("load generator panicked"),
            reloads,
        )
    });
    let server_cpu_s = server.cpu_s() - cpu0;
    let after = scrape(ctl);
    let end = LEAD + load.duration;
    let backlog_at_end = outcomes
        .iter()
        .filter(|o| o.due <= end && o.done.is_none_or(|d| d > end))
        .count();
    Step {
        outcomes,
        nodes,
        reloads,
        stages: stages(&before, &after),
        backlog_at_end,
        server_cpu_s,
    }
}

fn reload_loop(ctl: &mut Client, start: Instant, load: &Load) -> Vec<Reload> {
    let (ckpts, gap, max) = load.reload;
    let mut out = Vec::new();
    if ckpts.is_empty() {
        return out;
    }
    let stop = LEAD + load.duration.saturating_sub(gap);
    let mut next = LEAD + gap / 2;
    let mut k = 1; // the server starts on ckpts[0]
    while next < stop && out.len() < max {
        if let Some(wait) = next.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let (path, id) = &ckpts[k % ckpts.len()];
        let body = json::to_string(&Value::Obj(vec![(
            "checkpoint".into(),
            Value::Str(path.display().to_string()),
        )]));
        let t0 = start.elapsed();
        let ok = ctl
            .post("/admin/reload", &body)
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| json::parse(&r.text()).ok())
            .is_some_and(|d| d.get("ckpt").and_then(Value::as_str) == Some(id.as_str()));
        let t1 = start.elapsed();
        out.push(Reload {
            start: t0,
            end: t1,
            ok,
        });
        next = t1 + gap;
        k += 1;
    }
    out
}

/// Checks one classify response against the expected logits of the
/// checkpoint it names: every logit bit-identical, labels the row argmax.
pub fn verify(
    o: &Outcome,
    nodes: &[usize],
    expected: &HashMap<String, Matrix>,
) -> Result<(), String> {
    if o.done.is_none() {
        return Err("unanswered".into());
    }
    if o.status != 200 {
        return Err(format!("status {}", o.status));
    }
    let doc =
        json::parse(&String::from_utf8_lossy(&o.body)).map_err(|e| format!("bad json: {e}"))?;
    let ckpt = doc
        .get("ckpt")
        .and_then(Value::as_str)
        .ok_or("no ckpt field")?;
    let logits = expected
        .get(ckpt)
        .ok_or_else(|| format!("unknown ckpt {ckpt}"))?;
    let rows = doc
        .get("results")
        .and_then(Value::as_arr)
        .ok_or("no results")?;
    if rows.len() != nodes.len() {
        return Err(format!("{} rows for {} nodes", rows.len(), nodes.len()));
    }
    for (row, &node) in rows.iter().zip(nodes) {
        if row.get("node").and_then(Value::as_usize) != Some(node) {
            return Err(format!("row for node {node} out of order"));
        }
        if row.get("label").and_then(Value::as_usize) != Some(logits.argmax_row(node)) {
            return Err(format!("label of node {node} is not its argmax"));
        }
        let got = row
            .get("logits")
            .and_then(Value::as_arr)
            .ok_or("no logits")?;
        let want = logits.row(node);
        let same = got.len() == want.len()
            && got.iter().zip(want).all(|(g, w)| {
                g.as_f64()
                    .is_some_and(|g| (g as f32).to_bits() == w.to_bits())
            });
        if !same {
            return Err(format!(
                "logits of node {node} differ from InferenceModel::logits()"
            ));
        }
    }
    Ok(())
}
