//! End-to-end observability tests: tracing on/off bitwise body identity,
//! the `x-autoac-trace` echo, `/debug/traces` timelines with stage
//! timings, `/slo` burn-rate status, and `POST /admin/flight` dumps.

use std::sync::{Mutex, MutexGuard};

use autoac_ckpt::ServeState;
use autoac_core::{train_serve_state, ServeTrainSpec, TrainConfig};
use autoac_data::json::{self, Value};
use autoac_serve::{set_trace_force, Client, ServeConfig, Server};

/// `set_trace_force` is process-global; tests in this binary run on
/// parallel threads, so every test serializes on this.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn quick_state(seed: u64) -> ServeState {
    let spec = ServeTrainSpec {
        train: TrainConfig { epochs: 2, patience: 2, ..Default::default() },
        seed,
        ..Default::default()
    };
    train_serve_state(&spec).expect("train").0
}

fn nodes_body(nodes: &[usize]) -> String {
    let ids: Vec<String> = nodes.iter().map(usize::to_string).collect();
    format!("{{\"nodes\":[{}]}}", ids.join(","))
}

fn server_in(dir: &std::path::Path, run: &str, state: ServeState) -> Server {
    let cfg = ServeConfig {
        workers: 2,
        flight_dir: dir.to_path_buf(),
        run: run.into(),
        ..Default::default()
    };
    Server::start(state, &cfg).expect("start server")
}

#[test]
fn tracing_off_bodies_are_bitwise_identical_to_tracing_on() {
    let _serial = lock();
    let state = quick_state(61);
    let dir = std::env::temp_dir().join(format!("autoac_trace_ab_{}", std::process::id()));
    let sets: Vec<Vec<usize>> = (0..6).map(|i| vec![i, i + 2]).collect();

    set_trace_force(Some(true));
    let mut traced = Vec::new();
    {
        let srv = server_in(&dir, "on", state.clone());
        let mut c = Client::connect(srv.addr()).expect("connect");
        for s in &sets {
            let r = c.post("/v1/classify", &nodes_body(s)).expect("post");
            assert_eq!(r.status, 200);
            assert!(r.trace_id().is_some(), "traced request echoes x-autoac-trace");
            traced.push(r.text());
        }
        srv.stop();
    }

    set_trace_force(Some(false));
    {
        let srv = server_in(&dir, "off", state);
        let mut c = Client::connect(srv.addr()).expect("connect");
        for (s, want) in sets.iter().zip(&traced) {
            let r = c.post("/v1/classify", &nodes_body(s)).expect("post");
            assert_eq!(r.status, 200);
            assert!(r.trace_id().is_none(), "untraced request carries no trace header");
            assert_eq!(&r.text(), want, "bodies must be bitwise identical tracing on vs off");
        }
        srv.stop();
    }
    set_trace_force(None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn debug_traces_slo_and_flight_dump_work_end_to_end() {
    let _serial = lock();
    set_trace_force(Some(true));
    let dir = std::env::temp_dir().join(format!("autoac_trace_e2e_{}", std::process::id()));
    let srv = server_in(&dir, "e2e", quick_state(62));
    let mut c = Client::connect(srv.addr()).expect("connect");

    let mut echoed = Vec::new();
    for i in 0..10usize {
        let r = c.post("/v1/classify", &nodes_body(&[i, i + 1])).expect("post");
        assert_eq!(r.status, 200);
        echoed.push(r.trace_id().expect("traced"));
    }

    // /debug/traces: non-empty, slowest-first, stage fields present, and
    // the ids we saw in response headers are resolvable.
    let t = c.get("/debug/traces").expect("traces");
    assert_eq!(t.status, 200);
    let doc = json::parse(&t.text()).expect("traces json");
    let traces = doc.get("traces").and_then(Value::as_arr).expect("traces array");
    assert!(!traces.is_empty(), "timelines were retained");
    let totals: Vec<f64> =
        traces.iter().map(|t| t.get("total_ns").and_then(Value::as_f64).expect("total")).collect();
    assert!(totals.windows(2).all(|w| w[0] >= w[1]), "slowest first: {totals:?}");
    let classify = traces
        .iter()
        .find(|t| t.get("path").and_then(Value::as_str) == Some("/v1/classify"))
        .expect("a classify timeline");
    for field in ["trace_id", "t0_ns", "parse_ns", "compute_ns", "write_ns", "total_ns"] {
        assert!(classify.get(field).is_some(), "timeline misses {field}");
    }
    // Classify is a table lookup on the worker: no queue, no batch.
    for gone in ["queue_ns", "batch_wait_ns", "batch_size"] {
        assert!(classify.get(gone).is_none(), "timeline still carries {gone}");
    }
    assert!(
        classify.get("compute_ns").and_then(Value::as_f64).expect("compute") > 0.0,
        "classify timed its table lookup"
    );
    let listed: Vec<&str> =
        traces.iter().filter_map(|t| t.get("trace_id").and_then(Value::as_str)).collect();
    for id in &echoed {
        let hex = format!("{id:016x}");
        assert!(listed.contains(&hex.as_str()), "echoed id {hex} not in /debug/traces");
    }

    // /slo: structured burn-rate status over both windows.
    let s = c.get("/slo").expect("slo");
    assert_eq!(s.status, 200);
    let doc = json::parse(&s.text()).expect("slo json");
    let fast = doc.get("fast").expect("fast window");
    assert!(fast.get("total").and_then(Value::as_f64).expect("total") >= 10.0);
    assert!(fast.get("burn_rate").and_then(Value::as_f64).is_some());
    assert_eq!(doc.get("firing").map(|v| matches!(v, Value::Bool(_))), Some(true));

    // /metrics: SLO gauges and an exemplar-annotated exposition that
    // still parses line-by-line.
    let m = c.get("/metrics").expect("metrics");
    let text = m.text();
    assert!(text.contains("# TYPE autoac_slo_burn_rate_fast gauge"), "{text}");
    assert!(text.contains("autoac_slo_alert_firing"), "{text}");
    assert!(text.contains("trace_id=\""), "tail buckets carry exemplars: {text}");

    // /admin/flight: dump lands where configured and is strict JSONL.
    let f = c.post("/admin/flight", "").expect("flight");
    assert_eq!(f.status, 200, "{}", f.text());
    let doc = json::parse(&f.text()).expect("flight ack json");
    let path = doc.get("path").and_then(Value::as_str).expect("path");
    assert!(doc.get("records").and_then(Value::as_f64).expect("records") > 0.0);
    let dump = std::fs::read_to_string(path).expect("dump file readable");
    let mut kinds = Vec::new();
    for (i, line) in dump.lines().enumerate() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("line {i} invalid: {e}: {line}"));
        if i == 0 {
            assert_eq!(v.get("kind").and_then(Value::as_str), Some("flight"));
        } else {
            kinds.extend(v.get("kind").and_then(Value::as_str).map(str::to_string));
        }
    }
    assert!(kinds.iter().any(|k| k == "request"), "request summaries recorded: {kinds:?}");
    assert!(kinds.iter().any(|k| k == "lifecycle"), "model load recorded: {kinds:?}");

    srv.stop();
    set_trace_force(None);
    let _ = std::fs::remove_dir_all(&dir);
}
