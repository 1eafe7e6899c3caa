//! End-to-end serving tests over real sockets: under concurrent load across
//! hot reloads every classify body is bit-equal to one built from
//! `InferenceModel::logits()` rows and nothing is dropped; racing and
//! rejected reloads leave a well-defined table; endpoint coverage; and
//! graceful shutdown.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use autoac_ckpt::ServeState;
use autoac_core::{train_serve_state, InferenceModel, ServeTrainSpec, TrainConfig};
use autoac_data::json::{self, Value};
use autoac_serve::{Client, ServeConfig, Server};

fn quick_state(seed: u64) -> ServeState {
    state_on(seed, ServeTrainSpec::default().data_seed)
}

/// A checkpoint trained on the graph generated from `data_seed`.
fn state_on(seed: u64, data_seed: u64) -> ServeState {
    let spec = ServeTrainSpec {
        data_seed,
        train: TrainConfig { epochs: 2, patience: 2, ..Default::default() },
        seed,
        ..Default::default()
    };
    train_serve_state(&spec).expect("train").0
}

/// A server with 8 workers. A worker serves one keep-alive connection at
/// a time, so this covers every connection a test holds open at once.
fn server(state: ServeState) -> Server {
    let cfg = ServeConfig { workers: 8, ..Default::default() };
    Server::start(state, &cfg).expect("start server")
}

fn nodes_body(nodes: &[usize]) -> String {
    let ids: Vec<String> = nodes.iter().map(usize::to_string).collect();
    format!("{{\"nodes\":[{}]}}", ids.join(","))
}

fn reload_body(path: &std::path::Path) -> String {
    format!("{{\"checkpoint\":{}}}", json::to_string(&Value::Str(path.display().to_string())))
}

/// The classify body the server must send for `nodes`, built here from a
/// direct forward of the checkpoint (not from the server's table).
struct Expected {
    ckpt: String,
    logits: autoac_tensor::Matrix,
}

impl Expected {
    fn of(state: &ServeState) -> Expected {
        let model = InferenceModel::from_state(state).expect("load");
        Expected { ckpt: model.info().config_fp_hex.clone(), logits: model.logits() }
    }

    fn body(&self, nodes: &[usize]) -> String {
        let results = nodes
            .iter()
            .map(|&n| {
                let row = self.logits.row(n).iter().map(|&v| Value::Num(v as f64)).collect();
                Value::Obj(vec![
                    ("node".into(), Value::Num(n as f64)),
                    ("label".into(), Value::Num(self.logits.argmax_row(n) as f64)),
                    ("logits".into(), Value::Arr(row)),
                ])
            })
            .collect();
        json::to_string(&Value::Obj(vec![
            ("ckpt".into(), Value::Str(self.ckpt.clone())),
            ("results".into(), Value::Arr(results)),
        ]))
    }
}

fn healthz(c: &mut Client) -> (String, usize) {
    let doc = json::parse(&c.get("/healthz").expect("healthz").text()).expect("healthz json");
    let ckpt = doc.get("ckpt").and_then(Value::as_str).expect("ckpt").to_string();
    (ckpt, doc.get("generation").and_then(Value::as_usize).expect("generation"))
}

#[test]
fn hot_reload_under_sustained_load_drops_nothing() {
    // Same dataset recipe (graph), independently trained models.
    let state_a = quick_state(21);
    let state_b = quick_state(22);
    let (want_a, want_b) = (Expected::of(&state_a), Expected::of(&state_b));
    assert_ne!(want_a.ckpt, want_b.ckpt);

    let dir = std::env::temp_dir().join(format!("autoac_serve_reload_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let paths = [dir.join("a.ckpt"), dir.join("b.ckpt")];
    state_a.write_atomic(&paths[0]).expect("write ckpt");
    state_b.write_atomic(&paths[1]).expect("write ckpt");

    let num_nodes = want_a.logits.rows();
    let srv = server(state_a);
    let addr = srv.addr();
    let sets: Vec<Vec<usize>> =
        (0..8).map(|i| vec![i % num_nodes, (i + 3) % num_nodes, num_nodes - 1 - i]).collect();

    // Sustained closed-loop load from 6 clients while the table is swapped
    // B, A, B under it: each client keeps going until every reload has
    // been acknowledged (and for at least 60 requests).
    let sets = Arc::new(sets);
    let done = Arc::new(AtomicBool::new(false));
    let sent = Arc::new(AtomicUsize::new(0));
    let clients: Vec<_> = (0..6)
        .map(|ci| {
            let (sets, done, sent) = (Arc::clone(&sets), Arc::clone(&done), Arc::clone(&sent));
            thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let mut out = Vec::new();
                while out.len() < 60 || !done.load(Ordering::SeqCst) {
                    let set_idx = (ci + out.len()) % sets.len();
                    let r = c.post("/v1/classify", &nodes_body(&sets[set_idx])).expect("post");
                    out.push((set_idx, r.status, r.text()));
                    sent.fetch_add(1, Ordering::SeqCst);
                }
                out
            })
        })
        .collect();

    // Each reload waits until 7 more requests have completed: with 6
    // clients, at most 6 of them can have started before the previous ack,
    // so the 7th was answered by that ack's checkpoint.
    let settle = || {
        let from = sent.load(Ordering::SeqCst);
        while sent.load(Ordering::SeqCst) < from + 7 {
            thread::yield_now();
        }
    };
    settle();
    let mut c = Client::connect(addr).expect("connect");
    for (i, want) in [&want_b, &want_a, &want_b].into_iter().enumerate() {
        let r = c.post("/admin/reload", &reload_body(&paths[(i + 1) % 2])).expect("reload");
        assert_eq!(r.status, 200, "{}", r.text());
        assert!(r.text().contains(&want.ckpt), "reload ack must carry the new id: {}", r.text());
        settle();
    }
    done.store(true, Ordering::SeqCst);
    // After the last ack, a fresh request must be served by B.
    for s in sets.iter() {
        let r = c.post("/v1/classify", &nodes_body(s)).expect("post");
        assert_eq!(r.text(), want_b.body(s), "post-ack responses must come from B");
    }

    let mut from_a = 0usize;
    let mut from_b = 0usize;
    for h in clients {
        for (set_idx, status, body) in h.join().expect("client thread") {
            assert_eq!(status, 200, "no request may error across the swap: {body}");
            if body == want_a.body(&sets[set_idx]) {
                from_a += 1;
            } else if body == want_b.body(&sets[set_idx]) {
                from_b += 1;
            } else {
                panic!("response matches neither checkpoint bitwise: {body}");
            }
        }
    }
    assert_eq!(from_a + from_b, sent.load(Ordering::SeqCst), "every request answered");
    assert!(from_a > 0 && from_b > 0, "both checkpoints answered: {from_a} A, {from_b} B");

    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn racing_reloads_publish_the_last_accepted_checkpoint() {
    let states = [quick_state(51), quick_state(52), quick_state(53)];
    let wants: Vec<Expected> = states.iter().map(Expected::of).collect();
    let dir = std::env::temp_dir().join(format!("autoac_serve_race_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let paths: Vec<_> = (1..3).map(|i| dir.join(format!("{i}.ckpt"))).collect();
    for (s, p) in states[1..].iter().zip(&paths) {
        s.write_atomic(p).expect("write ckpt");
    }
    let srv = server(states[0].clone());
    let addr = srv.addr();

    // Two reloads released at the same instant on two connections.
    let gate = Arc::new(Barrier::new(paths.len()));
    let racers: Vec<_> = paths
        .iter()
        .map(|p| {
            let (gate, body) = (Arc::clone(&gate), reload_body(p));
            thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                gate.wait();
                let r = c.post("/admin/reload", &body).expect("reload");
                assert_eq!(r.status, 200, "{}", r.text());
                let doc = json::parse(&r.text()).expect("ack json");
                let ckpt = doc.get("ckpt").and_then(Value::as_str).expect("ckpt").to_string();
                (doc.get("generation").and_then(Value::as_usize).expect("generation"), ckpt)
            })
        })
        .collect();
    let mut acks: Vec<(usize, String)> =
        racers.into_iter().map(|h| h.join().expect("racer")).collect();
    acks.sort();
    assert_eq!(acks.iter().map(|a| a.0).collect::<Vec<_>>(), [1, 2], "one generation each");

    // The published view names the reload accepted last, and serves it.
    let (last_gen, last_ckpt) = acks.pop().expect("two acks");
    let mut c = Client::connect(addr).expect("connect");
    assert_eq!(healthz(&mut c), (last_ckpt.clone(), last_gen));
    let want = wants.iter().find(|w| w.ckpt == last_ckpt).expect("a known checkpoint");
    let r = c.post("/v1/classify", &nodes_body(&[0, 1, 2])).expect("post");
    assert_eq!(r.text(), want.body(&[0, 1, 2]));
    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rejected_reloads_leave_the_published_table_unchanged() {
    let state = quick_state(71);
    let want = Expected::of(&state);
    let dir = std::env::temp_dir().join(format!("autoac_serve_reject_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    // A checkpoint of a different graph (other data seed) and a file that
    // is not a checkpoint at all.
    let foreign = dir.join("foreign.ckpt");
    state_on(72, ServeTrainSpec::default().data_seed + 1).write_atomic(&foreign).expect("write");
    let garbage = dir.join("garbage.ckpt");
    std::fs::write(&garbage, b"not a checkpoint").expect("write");

    let srv = server(state);
    let mut c = Client::connect(srv.addr()).expect("connect");
    let nodes = [0usize, 3, 7];
    let before = c.post("/v1/classify", &nodes_body(&nodes)).expect("post").text();
    assert_eq!(before, want.body(&nodes));
    for (path, status) in
        [(&foreign, 409), (&garbage, 400), (&dir.join("missing.ckpt"), 400)]
    {
        let r = c.post("/admin/reload", &reload_body(path)).expect("reload");
        assert_eq!(r.status, status, "{}: {}", path.display(), r.text());
        assert_eq!(healthz(&mut c), (want.ckpt.clone(), 0), "identity kept after {status}");
        let after = c.post("/v1/classify", &nodes_body(&nodes)).expect("post").text();
        assert_eq!(after, before, "table kept after {status}");
    }
    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn read_only_endpoints_serve_from_the_shared_view() {
    let state = quick_state(31);
    let model = InferenceModel::from_state(&state).expect("load");
    let hex = model.info().config_fp_hex.clone();
    let srv = server(state);
    let mut c = Client::connect(srv.addr()).expect("connect");

    // /healthz carries identity and shape.
    let h = c.get("/healthz").expect("healthz");
    assert_eq!(h.status, 200);
    let doc = json::parse(&h.text()).expect("healthz json");
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(doc.get("ckpt").and_then(Value::as_str), Some(hex.as_str()));
    assert_eq!(doc.get("nodes").and_then(Value::as_usize), Some(model.num_nodes()));
    assert_eq!(doc.get("classes").and_then(Value::as_usize), Some(model.num_classes()));

    // /v1/attrs rows are the materialized completion, bit-for-bit.
    let a = c.post("/v1/attrs", &nodes_body(&[0, 5])).expect("attrs");
    assert_eq!(a.status, 200);
    let doc = json::parse(&a.text()).expect("attrs json");
    let results = doc.get("results").and_then(Value::as_arr).expect("results");
    for (r, &node) in results.iter().zip(&[0usize, 5]) {
        let got: Vec<f32> = r
            .get("attrs")
            .and_then(Value::as_arr)
            .expect("attrs row")
            .iter()
            .map(|v| v.as_f64().expect("num") as f32)
            .collect();
        assert_eq!(got, model.attrs().row(node), "attr row {node} must be bit-exact");
    }

    // /metrics is Prometheus exposition text with serving series.
    let m = c.get("/metrics").expect("metrics");
    assert_eq!(m.status, 200);
    let text = m.text();
    assert!(text.contains("# TYPE autoac_serve_requests_total counter"), "{text}");
    assert!(text.contains("autoac_serve_classify_ns_count"), "{text}");

    // Errors are JSON with the right statuses.
    assert_eq!(c.get("/nope").expect("404").status, 404);
    assert_eq!(c.get("/v1/classify").expect("405").status, 405);
    assert_eq!(c.post("/v1/classify", "{").expect("400").status, 400);
    assert_eq!(c.post("/v1/classify", "{\"nodes\":[999999]}").expect("range").status, 400);
    assert_eq!(c.post("/v1/classify", "{\"nodes\":[]}").expect("empty").status, 400);

    srv.stop();
}

#[test]
fn admin_shutdown_is_graceful() {
    let state = quick_state(41);
    let srv = server(state);
    let addr = srv.addr();
    let mut c = Client::connect(addr).expect("connect");
    assert_eq!(c.post("/v1/classify", &nodes_body(&[0])).expect("warm").status, 200);
    let r = c.post("/admin/shutdown", "{}").expect("shutdown");
    assert_eq!(r.status, 200);
    // join() returns only when the acceptor and every worker have exited
    // — i.e. the shutdown actually propagated.
    srv.join();
}
