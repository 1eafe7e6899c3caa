//! Serving benchmark and HTTP driver.
//!
//! Four modes:
//!
//! **In-process benchmark (default)** — for IMDB at tiny and then paper
//! scale, trains a GCN checkpoint, starts an in-process server (which
//! builds the checkpoint's logits table with one forward), times a few
//! hot reloads, and runs a closed-loop concurrent classify load. Every
//! response body must equal the body built from direct
//! `InferenceModel::logits()` rows. Reports server start, the table
//! forward, reload cost, throughput, client-observed p50/p99 (obs
//! power-of-two histogram quantiles) and the server-side lookup p50, and
//! writes `results/BENCH_serve.json` with a provenance header.
//!
//! **External driver (`--connect HOST:PORT`)** — drives an already
//! running `autoac_serve` process with the same closed-loop load, checks
//! `/healthz`, validates that `/metrics` parses as Prometheus exposition
//! text, prints the response digest, and optionally issues a graceful
//! `POST /admin/shutdown` (`--shutdown`).
//!
//! **Reference digest (`--reference CKPT`)** — prints the digest the
//! driver must print against a server on `CKPT`, computed without a
//! server from direct `InferenceModel::logits()` rows, so
//! `scripts/verify.sh` can diff served bytes against the model.
//!
//! **Flight validation (`--validate-flight PATH`)** — strictly parses a
//! flight-recorder dump (`FLIGHT_<run>.jsonl`) line by line and exits
//! non-zero on the first malformed record.
//!
//! ```text
//! serve_bench [--smoke] [--out FILE] [--clients N] [--requests N]
//! serve_bench --connect HOST:PORT [--clients N] [--requests N] [--shutdown]
//! serve_bench --reference CKPT
//! serve_bench --validate-flight PATH
//! ```
//!
//! `--smoke` runs tiny scale only with a clamped load and, unless `--out`
//! is given explicitly, writes its report to a temp path so a smoke run
//! can never clobber the committed `results/BENCH_serve.json`.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use autoac_ckpt::ServeState;
use autoac_core::{train_serve_state, InferenceModel, ServeTrainSpec, TrainConfig};
use autoac_data::json::{self, Value};
use autoac_serve::{Client, ServeConfig, Server};

/// Fixed pool of node sets every client cycles through, so each (set,
/// checkpoint) pair has one well-defined canonical response.
const NUM_SETS: usize = 32;
const NODES_PER_SET: usize = 4;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn make_sets(num_nodes: usize) -> Vec<Vec<usize>> {
    (0..NUM_SETS)
        .map(|i| (0..NODES_PER_SET).map(|j| (i * 37 + j * 11 + 1) % num_nodes).collect())
        .collect()
}

fn nodes_body(nodes: &[usize]) -> String {
    let ids: Vec<String> = nodes.iter().map(usize::to_string).collect();
    format!("{{\"nodes\":[{}]}}", ids.join(","))
}

/// The digest the driver prints: FNV-1a over one body per node set.
fn digest(bodies: &[String]) -> u64 {
    let mut all = Vec::new();
    for body in bodies {
        all.extend_from_slice(body.as_bytes());
        all.push(b'\n');
    }
    fnv1a64(&all)
}

/// The classify body for every node set, built from a direct forward of
/// `model` — independently of the server's table and response code.
fn reference_bodies(model: &InferenceModel, sets: &[Vec<usize>]) -> Vec<String> {
    let logits = model.logits();
    sets.iter()
        .map(|nodes| {
            let results = nodes
                .iter()
                .map(|&n| {
                    let row = logits.row(n).iter().map(|&v| Value::Num(v as f64)).collect();
                    Value::Obj(vec![
                        ("node".into(), Value::Num(n as f64)),
                        ("label".into(), Value::Num(logits.argmax_row(n) as f64)),
                        ("logits".into(), Value::Arr(row)),
                    ])
                })
                .collect();
            json::to_string(&Value::Obj(vec![
                ("ckpt".into(), Value::Str(model.info().config_fp_hex.clone())),
                ("results".into(), Value::Arr(results)),
            ]))
        })
        .collect()
}

struct PhaseStats {
    wall_secs: f64,
    total_requests: usize,
    p50_us: f64,
    p99_us: f64,
    /// Canonical response body per node set.
    canon: Vec<String>,
    /// Everything recorded while the phase ran — client latency plus the
    /// server-side `serve_*` counters and histograms (shared registry).
    report: autoac_obs::ObsReport,
}

/// Closed-loop load: `clients` threads, each issuing `requests` classify
/// calls over one keep-alive connection. Asserts that every response for
/// a given node set is identical across clients and over time, and that
/// every set was asked at least once.
fn run_phase(addr: &str, clients: usize, requests: usize, sets: &[Vec<usize>]) -> PhaseStats {
    let _ = autoac_obs::drain(); // clean slate for the latency histogram
    let sets = Arc::new(sets.to_vec());
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|ci| {
            let sets = Arc::clone(&sets);
            let addr = addr.to_string();
            thread::spawn(move || {
                let mut c = Client::connect(addr.as_str()).expect("connect");
                let mut seen: Vec<Option<String>> = vec![None; sets.len()];
                for i in 0..requests {
                    let si = (ci * 7 + i) % sets.len();
                    let body = nodes_body(&sets[si]);
                    let r0 = Instant::now();
                    let r = c.post("/v1/classify", &body).expect("classify");
                    autoac_obs::hist_record("bench_client_ns", r0.elapsed().as_nanos() as f64);
                    assert_eq!(r.status, 200, "{}", r.text());
                    let text = r.text();
                    match &seen[si] {
                        Some(prev) => assert_eq!(
                            prev, &text,
                            "responses for one node set must never vary"
                        ),
                        None => seen[si] = Some(text),
                    }
                }
                seen
            })
        })
        .collect();

    let mut canon: Vec<Option<String>> = vec![None; sets.len()];
    for h in handles {
        for (si, body) in h.join().expect("client thread").into_iter().enumerate() {
            let Some(body) = body else { continue };
            match &canon[si] {
                Some(prev) => {
                    assert_eq!(prev, &body, "responses must agree across clients")
                }
                None => canon[si] = Some(body),
            }
        }
    }
    let wall_secs = t0.elapsed().as_secs_f64();

    let rep = autoac_obs::drain();
    let (p50, p99) = match rep.hists.get("bench_client_ns") {
        Some(h) => (h.quantile(0.5) / 1e3, h.quantile(0.99) / 1e3),
        None => (f64::NAN, f64::NAN),
    };
    let canon: Vec<String> = canon
        .into_iter()
        .map(|b| b.expect("every node set must be requested at least once (raise --requests)"))
        .collect();
    PhaseStats {
        wall_secs,
        total_requests: clients * requests,
        p50_us: p50,
        p99_us: p99,
        canon,
        report: rep,
    }
}

/// Validates Prometheus exposition text: every line is a comment or
/// `name[{labels}] value`, optionally followed by an OpenMetrics exemplar
/// suffix (` # {labels} value`), with parseable values. Returns the
/// series count.
fn validate_exposition(text: &str) -> Result<usize, String> {
    let mut series = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let mut line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Exemplars ride after the sample value: `... # {trace_id="…"} v`.
        // Validate and strip the suffix so the plain-series check below
        // only sees `name{labels} value`.
        if let Some((sample, exemplar)) = line.split_once(" # ") {
            let (labels, ex_value) = exemplar
                .strip_prefix('{')
                .and_then(|rest| rest.split_once("} "))
                .ok_or_else(|| format!("line {}: malformed exemplar: {line:?}", lineno + 1))?;
            if labels.contains('{') || labels.contains('}') {
                return Err(format!("line {}: malformed exemplar labels: {line:?}", lineno + 1));
            }
            if ex_value.parse::<f64>().is_err() {
                return Err(format!("line {}: bad exemplar value {ex_value:?}", lineno + 1));
            }
            line = sample;
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: {line:?}", lineno + 1))?;
        let name_end = name_part.find('{').unwrap_or(name_part.len());
        let name = &name_part[..name_end];
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: bad metric name: {line:?}", lineno + 1));
        }
        if name_part[name_end..].starts_with('{') && !name_part.ends_with('}') {
            return Err(format!("line {}: unclosed label set: {line:?}", lineno + 1));
        }
        let ok = matches!(value_part, "+Inf" | "-Inf" | "NaN")
            || value_part.parse::<f64>().is_ok();
        if !ok {
            return Err(format!("line {}: bad value {value_part:?}", lineno + 1));
        }
        series += 1;
    }
    if series == 0 {
        return Err("no series in exposition text".into());
    }
    Ok(series)
}

fn main() {
    let mut out_path: Option<PathBuf> = None;
    let mut connect: Option<String> = None;
    let mut smoke = false;
    let mut shutdown = false;
    let mut clients = 8usize;
    let mut requests = 200usize;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().expect("flag takes a value");
        match flag.as_str() {
            "--out" => out_path = Some(PathBuf::from(value())),
            "--connect" => connect = Some(value()),
            "--reference" => return print_reference(Path::new(&value())),
            "--validate-flight" => return validate_flight(&PathBuf::from(value())),
            "--clients" => clients = value().parse().expect("--clients N"),
            "--requests" => requests = value().parse().expect("--requests N"),
            "--smoke" => smoke = true,
            "--shutdown" => shutdown = true,
            other => panic!("unknown flag {other:?}"),
        }
    }
    if smoke {
        clients = clients.min(4);
        requests = requests.min(40);
    }
    // `--smoke` is a correctness pass, not a measurement: unless the
    // caller explicitly routed the output somewhere, keep it away from
    // the committed `results/BENCH_serve.json` artifact.
    let out_path = out_path.unwrap_or_else(|| {
        if smoke {
            std::env::temp_dir().join(format!("BENCH_serve_smoke_{}.json", std::process::id()))
        } else {
            PathBuf::from("results/BENCH_serve.json")
        }
    });
    autoac_obs::set_force(Some(true));

    match connect {
        Some(addr) => drive_external(&addr, clients, requests, shutdown),
        None => benchmark(&out_path, clients, requests, smoke),
    }
}

/// `--reference CKPT`: the digest a driver run against a server on `CKPT`
/// must print, from direct `logits()` rows.
fn print_reference(ckpt: &Path) {
    let state = ServeState::read(ckpt)
        .unwrap_or_else(|e| panic!("cannot read checkpoint {}: {e}", ckpt.display()));
    let model = InferenceModel::from_state(&state).expect("load checkpoint");
    let bodies = reference_bodies(&model, &make_sets(model.num_nodes()));
    println!("digest: {:016x}", digest(&bodies));
}

/// Strictly parses a flight-recorder dump: every line must be valid
/// JSON, the first line must be the ring's meta header, and the body
/// must contain at least the request summaries a served run produces.
fn validate_flight(path: &std::path::Path) {
    let text = fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read flight dump {}: {e}", path.display()));
    let mut records = 0usize;
    for (i, line) in text.lines().enumerate() {
        let v = json::parse(line)
            .unwrap_or_else(|e| panic!("flight line {} invalid: {e}: {line}", i + 1));
        if i == 0 {
            assert_eq!(
                v.get("kind").and_then(Value::as_str),
                Some("flight"),
                "first line must be the ring meta header"
            );
        } else {
            assert!(v.get("kind").and_then(Value::as_str).is_some(), "record without kind");
            records += 1;
        }
    }
    assert!(records > 0, "flight dump has a header but no records");
    println!("flight dump: ok ({records} records, {})", path.display());
}

/// p50 of a server-side stage histogram in microseconds; `0.0` when the
/// stage never fired (keeps the JSON artifact strictly parseable —
/// `NaN` is not JSON).
fn stage_p50_us(rep: &autoac_obs::ObsReport, name: &str) -> f64 {
    rep.hists.get(name).filter(|h| h.count > 0).map_or(0.0, |h| h.quantile(0.5) / 1e3)
}

fn drive_external(addr: &str, clients: usize, requests: usize, shutdown: bool) {
    let mut c = Client::connect(addr).expect("connect");
    let health = c.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200, "{}", health.text());
    let doc = json::parse(&health.text()).expect("healthz json");
    let num_nodes = doc.get("nodes").and_then(Value::as_usize).expect("nodes field");
    let ckpt = doc.get("ckpt").and_then(Value::as_str).expect("ckpt field").to_string();
    println!("healthz: ok, ckpt={ckpt}, nodes={num_nodes}");

    let sets = make_sets(num_nodes);
    let stats = run_phase(addr, clients, requests, &sets);
    println!(
        "load: {} requests in {:.2}s ({:.0} req/s), p50 {:.0}us p99 {:.0}us",
        stats.total_requests,
        stats.wall_secs,
        stats.total_requests as f64 / stats.wall_secs,
        stats.p50_us,
        stats.p99_us,
    );
    println!("digest: {:016x}", digest(&stats.canon));

    let m = c.get("/metrics").expect("metrics");
    assert_eq!(m.status, 200);
    let text = m.text();
    let series = validate_exposition(&text).expect("exposition text must parse");
    assert!(
        text.contains("autoac_serve_requests_total"),
        "serving counters must be exported"
    );
    println!("metrics: ok ({series} series)");

    // The observability surface of a live server: SLO status and the
    // retained slowest-request timelines must both be well-formed JSON.
    let s = c.get("/slo").expect("slo");
    assert_eq!(s.status, 200, "{}", s.text());
    let slo = json::parse(&s.text()).expect("slo json");
    assert!(slo.get("firing").is_some(), "slo status carries `firing`");
    let t = c.get("/debug/traces").expect("debug/traces");
    assert_eq!(t.status, 200, "{}", t.text());
    let traces = json::parse(&t.text()).expect("traces json");
    let count = traces.get("count").and_then(Value::as_usize).expect("count field");
    println!("slo: ok, traces: {count} retained");

    if shutdown {
        let r = c.post("/admin/shutdown", "{}").expect("shutdown");
        assert_eq!(r.status, 200);
        println!("shutdown: ok");
    }
}

type Shapes = BTreeMap<autoac_obs::ShapeKey, u64>;

/// One scale's measurements as a JSON object; adds the kernel shapes it
/// ran to `shapes`.
fn bench_scale(
    scale: &str,
    clients: usize,
    requests: usize,
    dir: &Path,
    shapes: &mut Shapes,
) -> String {
    let epochs = 20;
    let spec = |seed| ServeTrainSpec {
        scale: scale.into(),
        train: TrainConfig { epochs, patience: epochs, ..Default::default() },
        seed,
        ..Default::default()
    };
    let (state, outcome) = train_serve_state(&spec(7)).expect("train");
    let (other, _) = train_serve_state(&spec(8)).expect("train");
    let paths = [dir.join(format!("{scale}-a.ckpt")), dir.join(format!("{scale}-b.ckpt"))];
    state.write_atomic(&paths[0]).expect("write checkpoint");
    other.write_atomic(&paths[1]).expect("write checkpoint");
    let model = InferenceModel::from_state(&state).expect("load checkpoint");
    let num_nodes = model.num_nodes();
    let sets = make_sets(num_nodes);
    let want = reference_bodies(&model, &sets);
    drop(model);

    let cfg = ServeConfig { workers: clients + 1, ..Default::default() };
    let t0 = Instant::now();
    let srv = Server::start(state.clone(), &cfg).expect("start server");
    let start_ms = t0.elapsed().as_secs_f64() * 1e3;
    let addr = srv.addr().to_string();

    // Reloads B, A, B, A: each builds one table; the last leaves A serving.
    let mut ctl = Client::connect(addr.as_str()).expect("connect");
    let mut reload_ms = Vec::new();
    for i in 0..4 {
        let body = format!(
            "{{\"checkpoint\":{}}}",
            json::to_string(&Value::Str(paths[(i + 1) % 2].display().to_string()))
        );
        let t0 = Instant::now();
        let r = ctl.post("/admin/reload", &body).expect("reload");
        reload_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(r.status, 200, "{}", r.text());
    }
    reload_ms.sort_by(f64::total_cmp);
    // Everything so far — training, the reference forward, start and the
    // reloads; run_phase drains again for its own figures.
    let build = autoac_obs::drain();
    let forward_ms = build
        .hists
        .get("serve_forward_ns")
        .filter(|h| h.count > 0)
        .map_or(0.0, |h| h.sum / h.count as f64 / 1e6);
    for (key, count) in build.shapes {
        *shapes.entry(key).or_default() += count;
    }

    let stats = run_phase(&addr, clients, requests, &sets);
    drop(ctl);
    srv.stop();
    assert_eq!(stats.canon, want, "served bodies must equal the direct logits() rows");
    let rps = stats.total_requests as f64 / stats.wall_secs;
    let lookup_us = stage_p50_us(&stats.report, "serve_compute_ns");
    println!(
        "  {scale:<5} start {start_ms:>7.1}ms  table forward {forward_ms:>6.2}ms  \
         reload {:>7.1}ms  {rps:>7.0} req/s  p50 {:>6.0}us  p99 {:>6.0}us  lookup p50 {lookup_us:.1}us",
        reload_ms[reload_ms.len() / 2],
        stats.p50_us,
        stats.p99_us,
    );
    format!(
        "{{\"scale\": \"{scale}\", \"nodes\": {}, \"ckpt\": \"{:016x}\", \
         \"macro_f1\": {:.6}, \"micro_f1\": {:.6},\n     \
         \"start_ms\": {start_ms:.1}, \"table_forward_ms\": {forward_ms:.3}, \
         \"reload_p50_ms\": {:.1},\n     \
         \"throughput_rps\": {rps:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
         \"lookup_p50_us\": {lookup_us:.2},\n     \
         \"digest\": \"{:016x}\", \"bitwise_equal_to_logits\": true}}",
        num_nodes,
        state.meta.config_fp,
        outcome.macro_f1,
        outcome.micro_f1,
        reload_ms[reload_ms.len() / 2],
        stats.p50_us,
        stats.p99_us,
        digest(&stats.canon),
    )
}

fn benchmark(out_path: &Path, clients: usize, requests: usize, smoke: bool) {
    let scales: &[&str] = if smoke { &["tiny"] } else { &["tiny", "paper"] };
    println!(
        "serve_bench: imdb/gcn at {scales:?}, {clients} clients x {requests} requests per scale"
    );
    let dir = std::env::temp_dir().join(format!("autoac_serve_bench_{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create temp dir");
    let mut shapes = Shapes::new();
    let rows: Vec<String> =
        scales.iter().map(|s| bench_scale(s, clients, requests, &dir, &mut shapes)).collect();
    let _ = fs::remove_dir_all(&dir);
    let json = format!(
        "{{\n  \"provenance\": {},\n  \"preset\": \"imdb\",\n  \"backbone\": \"gcn\",\n  \
         \"clients\": {clients},\n  \"requests_per_client\": {requests},\n  \
         \"scales\": [\n    {}\n  ]\n}}\n",
        autoac_bench::provenance(&shapes),
        rows.join(",\n    "),
    );
    if let Some(dir) = out_path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(dir).expect("create results dir");
    }
    fs::write(out_path, json).expect("write bench report");
    println!("  wrote   : {}", out_path.display());
}

#[cfg(test)]
mod tests {
    use super::validate_exposition;

    #[test]
    fn validator_accepts_warn_family_with_tag_labels() {
        let text = "# TYPE autoac_warnings counter\n\
                    autoac_warnings{tag=\"ckpt\"} 3\n\
                    autoac_warnings{tag=\"reload_rejected\"} 1\n";
        assert_eq!(validate_exposition(text), Ok(2));
    }

    #[test]
    fn validator_accepts_exemplar_suffixed_bucket_lines() {
        let text = "# TYPE autoac_serve_request_ns histogram\n\
                    autoac_serve_request_ns_bucket{le=\"1024.0\"} 2 # {trace_id=\"000000000000beef\"} 1000.0\n\
                    autoac_serve_request_ns_bucket{le=\"+Inf\"} 2\n\
                    autoac_serve_request_ns_count 2\n";
        assert_eq!(validate_exposition(text), Ok(3));
    }

    #[test]
    fn validator_rejects_torn_exemplars() {
        for bad in [
            "m_bucket{le=\"1.0\"} 2 # trace_id=\"beef\" 1.0\n", // no braces
            "m_bucket{le=\"1.0\"} 2 # {trace_id=\"beef\"}\n",   // no value
            "m_bucket{le=\"1.0\"} 2 # {trace_id=\"beef\"} x\n", // bad value
        ] {
            assert!(validate_exposition(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn validator_still_rejects_plain_garbage() {
        assert!(validate_exposition("no_value_here\n").is_err());
        assert!(validate_exposition("bad name{x=\"1\"} 2\n").is_err());
        assert!(validate_exposition("m 1.5e3\n").is_ok());
    }
}
