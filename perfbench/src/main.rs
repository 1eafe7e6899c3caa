//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs the product end to end: generate data, AutoAC
//! search, retrain, evaluate, export serving checkpoints, then serve them
//! over HTTP under an open-loop load in four steps (`light`, `burst`,
//! `reload`, `reload-solo`). The workloads differ in what they train:
//!
//! - `search-dblp-simplehgn`: paper-scale DBLP, SimpleHGN, full batch.
//! - `sampled-scale-gcn`: a power-law graph, GCN, neighbour-sampled.
//! - `serve-imdb-gcn`: paper-scale IMDB, GCN; its training is the two
//!   serving checkpoints.
//!
//! The bounded timing metrics are CPU time, not wall time: on a shared
//! host wall time also counts the time the hypervisor gave to other
//! guests, which no change to the program can move.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` obs tracing is on and it carries the per-layer ones.
//! See `perfbench/README.md` for every metric's definition.

mod prov;
mod serving;
mod train;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use autoac_ckpt::ServeState;
use autoac_completion::CompletionOp;
use autoac_core::{
    eval_classification, Backbone, CompletionMode, ForwardPipe, InferenceModel, MinibatchConfig,
    Pipeline,
};
use autoac_data::{generate_scale, presets, synth, Dataset, Scale, ScaleSpec};
use autoac_graph::OpCache;
use autoac_nn::GnnConfig;
use autoac_serve::Client;
use autoac_tensor::Matrix;
use perfbench::stats::{median, tail};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WORKLOADS: [&str; 3] = [
    "search-dblp-simplehgn",
    "sampled-scale-gcn",
    "serve-imdb-gcn",
];

/// Repeats of each set-up step; `setup_s` sums their median CPU times.
const SETUP_REPEATS: usize = 5;

/// Mean CPU milliseconds of a reference probe on the host the bounds were
/// set on. The bounded timing metrics are CPU times scaled by this over
/// the run's own mean probe: a change to the program moves them as it
/// moves the raw CPU time, while a change of host speed moves the probes
/// as well and cancels out.
const REF_NOMINAL_MS: f64 = 58.0;

/// Fixed training budgets as (search epochs, retrain epochs, clusters M);
/// patience equals the budget and the epochs run are checked. Each
/// workload trains `TRAIN_REPEATS` times; `search_s` and `retrain_s` are
/// medians of the repeats' CPU times, and the repeats must agree bit for
/// bit.
const TRAIN_REPEATS: usize = 3;
const DBLP_BUDGET: (usize, usize, usize) = (2, 3, 8);
const SCALE_NODES: usize = 100_000;
const SCALE_BUDGET: (usize, usize, usize) = (4, 4, 8);
/// The serving checkpoints: full on `serve-imdb-gcn`, where their training
/// is the workload's training stage, small on the other two.
const FIXTURE_BUDGET: (usize, usize, usize) = (4, 10, 12);
const SMALL_FIXTURE_BUDGET: (usize, usize, usize) = (2, 2, 12);

/// The trained problem instance is fixed: which completion ops the search
/// picks decides how much work retraining and serving do (an op no node is
/// assigned to is skipped), so a seed-dependent instance would change the
/// work from run to run. `--seed` drives the request streams.
const DATA_SEED: u64 = 0;
const RUN_SEED: u64 = 0;

/// Serving load. `light`: one request every `LIGHT_PERIOD`, a quarter of
/// one per forward or less. `burst`: `BURST_PER_CONN` requests per connection fall
/// due together every `BURST_PERIOD`, several per forward time, so only
/// batching keeps a burst from taking one forward per request.
const LIGHT_PERIOD: Duration = Duration::from_millis(20);
const BURST_PER_CONN: usize = 3;
const BURST_PERIOD: Duration = Duration::from_millis(60);
const RELOAD_GAP: Duration = Duration::from_millis(100);
/// Pause between reloads in `reload-solo`, the step with no classify
/// traffic whose server CPU time is all reload work.
const SOLO_RELOAD_GAP: Duration = Duration::from_millis(20);
const NODES_PER_REQUEST: usize = 4;
const NODE_SETS: usize = 256;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` (peak resident set) from a `/proc/<pid>/status` file, MB.
pub fn vm_hwm_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 20,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?,
            "--seconds" => a.seconds = v.parse().map_err(|_| format!("bad --seconds {v}"))?,
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {v}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if a.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve-child") {
        std::process::exit(serving::child_main(&argv[1..]));
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!(
            "perfbench: {e}\nusage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
            WORKLOADS.join("|")
        );
        std::process::exit(2)
    });
    std::process::exit(run(&args));
}

/// Named metric values with units, in insertion order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", fmt_num(*v)))
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The last of `SETUP_REPEATS` calls' values, with the median CPU seconds
/// and the median wall seconds of a call.
fn median_time<T>(mut f: impl FnMut() -> T) -> (T, f64, f64) {
    let (mut cpu, mut wall) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let (v, c) = perfbench::cpu::timed(&mut f);
        wall.push(t.elapsed().as_secs_f64());
        cpu.push(c);
        last = Some(v);
    }
    (
        last.expect("SETUP_REPEATS > 0"),
        median(&cpu),
        median(&wall),
    )
}

/// Median wall milliseconds of `n` calls.
fn median_ms(n: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

fn dblp_cfg(classes: usize) -> GnnConfig {
    GnnConfig {
        in_dim: 32,
        hidden: 32,
        out_dim: classes,
        layers: 2,
        heads: 1,
        dropout: 0.4,
        slope: 0.05,
        edge_dim: 16,
        beta: 0.05,
    }
}

fn gcn_cfg(classes: usize, dim: usize, dropout: f32) -> GnnConfig {
    GnnConfig {
        in_dim: dim,
        hidden: dim,
        out_dim: classes,
        layers: 2,
        heads: 1,
        dropout,
        ..GnnConfig::default()
    }
}

fn sampled_schedule() -> MinibatchConfig {
    MinibatchConfig {
        batch_size: 1024,
        fanout: Some(10),
        hops: 2,
        batches_per_epoch: 4,
        ..MinibatchConfig::default()
    }
}

/// Span totals by leaf name: `(total ns, self ns, count)`.
fn by_leaf(rep: &autoac_obs::ObsReport) -> HashMap<&'static str, (u64, u64, u64)> {
    let mut m: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();
    for s in &rep.spans {
        let e = m.entry(s.name).or_default();
        e.0 += s.total_ns;
        e.1 += s.self_ns;
        e.2 += s.count;
    }
    m
}

/// Spans that are a layer's own work (not a phase container); the rest of
/// the training wall time is reported as unattributed.
const LAYER_SPANS: [&str; 11] = [
    "matmul",
    "matmul_tn",
    "matmul_nt",
    "spmm",
    "csr_transpose",
    "sample_batch",
    "sampler_build",
    "opcache_build",
    "prox_c1",
    "prox_c2",
    "cluster",
];

fn fnv(bits: impl Iterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bits {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Compares this run's digest with the one an earlier run of the same
/// workload and source recorded in this checkout, or records it. The
/// training stage does not depend on `--seed`, so every run must match.
fn check_repeat(out_dir: &Path, key: &str, digest: &str) -> Result<(), String> {
    let path = out_dir.join("digests.txt");
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    if let Some(prev) = text
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix(' ')))
    {
        return if prev == digest {
            Ok(())
        } else {
            Err(format!(
                "{key}: digest {digest} differs from an earlier run's {prev}"
            ))
        };
    }
    let line = format!("{key} {digest}\n");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()))
        .map_err(|e| format!("cannot record digest: {e}"))
}

/// One serving checkpoint: trained, exported, and written to `path`.
struct Fixture {
    state: ServeState,
    path: PathBuf,
    id: String,
    trained: train::Trained,
}

fn fixture_cfg(imdb: &Dataset) -> GnnConfig {
    gcn_cfg(imdb.num_classes, 16, 0.0)
}

/// Trains one IMDB GCN serving checkpoint (search + retrain).
fn fixture(
    imdb: &Dataset,
    cache: &OpCache,
    seed: u64,
    budget: (usize, usize, usize),
    path: PathBuf,
) -> Fixture {
    let ac = train::autoac(budget.0, budget.1, budget.2);
    let (trained, pipe, ctor_rng) =
        train::full_batch(imdb, Backbone::Gcn, &fixture_cfg(imdb), &ac, seed, cache);
    package(imdb, &trained, &pipe, ctor_rng, seed, path)
}

/// Exports a trained IMDB GCN as a serving checkpoint bound for `path`.
fn package(
    imdb: &Dataset,
    trained: &train::Trained,
    pipe: &Pipeline,
    ctor_rng: [u64; 4],
    seed: u64,
    path: PathBuf,
) -> Fixture {
    let cfg = fixture_cfg(imdb);
    let state = train::export(
        imdb,
        "IMDB",
        "paper",
        DATA_SEED,
        Backbone::Gcn,
        &cfg,
        trained,
        pipe,
        ctor_rng,
        seed,
    );
    let id = format!("{:016x}", state.meta.config_fp);
    Fixture {
        state,
        path,
        id,
        trained: trained.clone(),
    }
}

/// What the workload trained, for the probes that rebuild its pipeline.
struct Model<'a> {
    data: &'a Dataset,
    backbone: Backbone,
    cfg: GnnConfig,
    assignment: Vec<CompletionOp>,
    cache: &'a OpCache,
    sampled: bool,
}

impl Model<'_> {
    fn pipeline(&self, mode: CompletionMode, seed: u64) -> Pipeline {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        Pipeline::new_cached(
            self.data,
            self.backbone,
            &self.cfg,
            mode,
            self.cache,
            &mut rng,
        )
    }

    fn assigned(&self, seed: u64) -> Pipeline {
        self.pipeline(CompletionMode::Assigned(self.assignment.clone()), seed)
    }

    /// One retrain epoch from a fresh pipeline, seconds.
    fn one_epoch(&self, seed: u64) -> f64 {
        let tc = autoac_core::TrainConfig {
            epochs: 1,
            patience: 1,
            ..Default::default()
        };
        let t = Instant::now();
        if self.sampled {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let pipe = autoac_core::MinibatchPipeline::new_cached(
                self.data,
                &self.cfg,
                CompletionMode::Assigned(self.assignment.clone()),
                self.cache,
                &mut rng,
            );
            autoac_core::train_node_classification_minibatch(
                &pipe,
                self.data,
                &tc,
                &sampled_schedule(),
                seed,
                None,
            );
        } else {
            autoac_core::train_node_classification(&self.assigned(seed), self.data, &tc, seed);
        }
        t.elapsed().as_secs_f64()
    }
}

/// The per-layer probes that call one layer's public entry point directly
/// (traced runs only).
fn probe_layers(m: &Model, seed: u64, layer: &mut Metrics) {
    for op in CompletionOp::ALL {
        let pipe = m.pipeline(CompletionMode::Single(op), seed);
        let ms = median_ms(3, || {
            autoac_tensor::no_grad(|| pipe.completed_x());
        });
        let name = match op {
            CompletionOp::Mean => "mean",
            CompletionOp::Gcn => "gcn",
            CompletionOp::Ppnp => "ppnp",
            CompletionOp::OneHot => "onehot",
        };
        layer.set(&format!("completion.{name}_ms"), ms, "ms");
    }
    let pipe = m.assigned(seed);
    let x = autoac_tensor::no_grad(|| pipe.completed_x());
    let mut rng = StdRng::seed_from_u64(seed);
    let fwd = median_ms(3, || {
        autoac_tensor::no_grad(|| pipe.model.forward(&x, false, &mut rng));
    });
    let labels = m.data.global_labels();
    let step = median_ms(3, || {
        let f = pipe.model.forward(&x, true, &mut rng);
        f.output
            .cross_entropy_rows(&labels, &m.data.split.train)
            .backward();
    });
    let eval = median_ms(3, || {
        eval_classification(&pipe, m.data, &m.data.split.test, &mut rng);
    });
    layer.set("nn.forward_ms", fwd, "ms");
    layer.set("nn.step_ms", step, "ms");
    layer.set("eval.classify_ms", eval, "ms");
}

/// Tracing overhead: one retrain epoch with obs off against one with obs
/// on, three interleaved pairs, as `median(on) / median(off) - 1`.
fn trace_overhead(m: &Model, seed: u64) -> f64 {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for i in 0..3 {
        for obs in if i % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        } {
            autoac_obs::set_force(Some(obs));
            let s = m.one_epoch(seed);
            if obs {
                on.push(s)
            } else {
                off.push(s)
            }
        }
    }
    autoac_obs::set_force(Some(true));
    let _ = autoac_obs::drain();
    median(&on) / median(&off) - 1.0
}

fn latencies(
    step: &serving::Step,
    keep: impl Fn(&perfbench::loadgen::Outcome) -> bool,
) -> Vec<f64> {
    step.outcomes
        .iter()
        .filter(|o| o.ok() && keep(o))
        .filter_map(|o| o.latency_ms())
        .collect()
}

fn run(args: &Args) -> i32 {
    let out_dir = PathBuf::from("perfbench/out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return 1;
    }
    let out_dir = out_dir.canonicalize().unwrap_or(out_dir);
    let (w, seed, trace) = (args.workload.as_str(), args.seed, args.trace);
    autoac_obs::set_force(Some(trace));
    let mut e2e = Metrics::default();
    let mut layer = Metrics::default();
    let mut failures: Vec<String> = Vec::new();
    let mut report: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    let wall = Instant::now();
    let mut speed = perfbench::cpu::Reference::new();
    speed.probe();
    let ticks0 = perfbench::cpu::host_ticks();
    let source_fp = prov::source_fingerprint();

    // ---------------- set-up: data generation ----------------
    let imdb_spec = presets::by_name("IMDB").expect("IMDB preset");
    let (imdb, gen_imdb_s, gen_imdb_wall_s) =
        median_time(|| synth::generate(&imdb_spec, Scale::Paper, DATA_SEED));
    let (train_data, gen_train_s, scale_gen_s, gen_train_wall_s) = match w {
        "search-dblp-simplehgn" => {
            let spec = presets::by_name("DBLP").expect("DBLP preset");
            let (d, s, ws) = median_time(|| synth::generate(&spec, Scale::Paper, DATA_SEED));
            (Some(d), s, 0.0, ws)
        }
        "sampled-scale-gcn" => {
            let spec = ScaleSpec::with_total_nodes("perfbench-scale", SCALE_NODES);
            let (d, s, ws) = median_time(|| generate_scale(&spec, DATA_SEED));
            (Some(d), 0.0, s, ws)
        }
        _ => (None, 0.0, 0.0, 0.0),
    };
    let data = train_data.as_ref().unwrap_or(&imdb);
    let _ = autoac_obs::drain();
    speed.probe();

    // ---------------- training stage: TRAIN_REPEATS identical runs ----------------
    let pool0 = autoac_tensor::pool::stats_snapshot();
    let t_train = Instant::now();
    let ckpt = |k: &str| out_dir.join(format!("{w}-{k}.ckpt"));
    let serve_w = w == "serve-imdb-gcn";
    let (backbone, cfg, sampled, budget) = match w {
        "search-dblp-simplehgn" => (
            Backbone::SimpleHgn,
            dblp_cfg(data.num_classes),
            false,
            DBLP_BUDGET,
        ),
        "sampled-scale-gcn" => (
            Backbone::Gcn,
            gcn_cfg(data.num_classes, 32, 0.1),
            true,
            SCALE_BUDGET,
        ),
        _ => (Backbone::Gcn, fixture_cfg(&imdb), false, FIXTURE_BUDGET),
    };
    let run_seed = if serve_w { RUN_SEED ^ 0xA } else { RUN_SEED };
    let ac = train::autoac(budget.0, budget.1, budget.2);
    let missing = data.missing_nodes().len();
    let mut runs: Vec<train::Trained> = Vec::new();
    let mut exportable = None;
    let (mut cache_hits, mut cache_misses) = (0usize, 0usize);
    for _ in 0..TRAIN_REPEATS {
        // A fresh cache per repeat, so every repeat builds its operators.
        let cache = OpCache::new(&data.graph);
        let t = if sampled {
            train::sampled(data, &cfg, &ac, &sampled_schedule(), run_seed, &cache).0
        } else {
            let (t, pipe, ctor_rng) =
                train::full_batch(data, backbone, &cfg, &ac, run_seed, &cache);
            exportable = Some((pipe, ctor_rng));
            t
        };
        let (h, m) = cache.stats();
        cache_hits += h;
        cache_misses += m;
        failures.extend(t.check(budget.0, budget.1, missing));
        if let Some(first) = runs.first() {
            if first.digest() != t.digest() {
                failures.push(format!(
                    "repeat gave {} after {}",
                    t.digest(),
                    first.digest()
                ));
            }
        }
        runs.push(t);
        speed.probe();
    }
    let mut trained = runs[0].clone();
    trained.search_s = median(&runs.iter().map(|t| t.search_s).collect::<Vec<_>>());
    trained.retrain_s = median(&runs.iter().map(|t| t.retrain_s).collect::<Vec<_>>());
    let train_total_s: f64 = runs.iter().map(|t| t.wall_s.0 + t.wall_s.1).sum();
    let per_repeat = |f: fn(&train::Trained) -> f64| {
        runs.iter()
            .map(|t| format!("{:.3}", f(t)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.push(format!(
        "training repeats, CPU s: search {} | retrain {}; wall s: search {} | retrain {}",
        per_repeat(|t| t.search_s),
        per_repeat(|t| t.retrain_s),
        per_repeat(|t| t.wall_s.0),
        per_repeat(|t| t.wall_s.1)
    ));
    let train_wall_s = t_train.elapsed().as_secs_f64();
    let pool1 = autoac_tensor::pool::stats_snapshot();
    let rep_train = autoac_obs::drain();
    let train_rss_mb = vm_hwm_mb("/proc/self/status");
    // Every loss the traced loops recorded must be finite.
    for ev in &rep_train.events {
        if let autoac_obs::Event::Series {
            name, step, values, ..
        } = ev
        {
            if name.contains("loss") && !values.iter().all(|v| v.is_finite()) {
                failures.push(format!("non-finite {name} at step {step}"));
            }
        }
    }

    // ---------------- serving fixtures and checkpoints ----------------
    let t_fix = Instant::now();
    let imdb_cache = OpCache::new(&imdb.graph);
    let imdb_missing = imdb.missing_nodes().len();
    let mut fixtures: Vec<Fixture> = Vec::new();
    match (serve_w, exportable) {
        (true, Some((pipe, ctor_rng))) => {
            fixtures.push(package(
                &imdb,
                &trained,
                &pipe,
                ctor_rng,
                RUN_SEED ^ 0xA,
                ckpt("a"),
            ));
            let b = fixture(
                &imdb,
                &imdb_cache,
                RUN_SEED ^ 0xB,
                FIXTURE_BUDGET,
                ckpt("b"),
            );
            failures.extend(
                b.trained
                    .check(FIXTURE_BUDGET.0, FIXTURE_BUDGET.1, imdb_missing),
            );
            fixtures.push(b);
        }
        _ => {
            for (k, s) in [("a", RUN_SEED ^ 0xA), ("b", RUN_SEED ^ 0xB)] {
                let f = fixture(&imdb, &imdb_cache, s, SMALL_FIXTURE_BUDGET, ckpt(k));
                let (se, ep) = (SMALL_FIXTURE_BUDGET.0, SMALL_FIXTURE_BUDGET.1);
                failures.extend(f.trained.check(se, ep, imdb_missing));
                fixtures.push(f);
            }
        }
    }
    let fixture_s = t_fix.elapsed().as_secs_f64();
    speed.probe();
    let mut write_ms = Vec::new();
    let mut read_ms = Vec::new();
    let mut load_ms = Vec::new();
    let mut infer_ms = Vec::new();
    let mut expected: HashMap<String, Matrix> = HashMap::new();
    let mut digest = trained.digest();
    for f in &fixtures {
        let t = Instant::now();
        if let Err(e) = f.state.write_atomic(&f.path) {
            failures.push(format!("write {}: {e}", f.path.display()));
        }
        write_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        match ServeState::read(&f.path) {
            Ok(s) if s.meta.config_fp == f.state.meta.config_fp => {}
            Ok(_) => failures.push("checkpoint read back with another identity".into()),
            Err(e) => failures.push(format!("read {}: {e}", f.path.display())),
        }
        read_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        match InferenceModel::from_state(&f.state) {
            Ok(model) => {
                load_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                let logits = model.logits();
                infer_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if logits.check_finite().is_err() {
                    failures.push(format!("checkpoint {} has non-finite logits", f.id));
                }
                let bits = fnv(logits.data().iter().map(|v| v.to_bits()));
                digest.push_str(&format!(" fixture={}:{bits:016x}", f.trained.digest()));
                expected.insert(f.id.clone(), logits);
            }
            Err(e) => failures.push(format!("InferenceModel::from_state: {e}")),
        }
    }
    if let Err(e) = check_repeat(&out_dir, &format!("{w} {source_fp}"), &digest) {
        failures.push(e);
    }

    // ---------------- serving set-up: server start, repeated ----------------
    let workers = nproc() + 1;
    let mut ready_s = Vec::new();
    let mut ready_cpu_s = Vec::new();
    let mut start_ms = Vec::new();
    let mut server = None;
    for i in 0..SETUP_REPEATS {
        match serving::spawn(&fixtures[0].path, workers, &out_dir) {
            Ok(c) => {
                ready_s.push(c.ready_s);
                ready_cpu_s.push(c.ready_cpu_s);
                start_ms.push(c.start_ms);
                if i + 1 < SETUP_REPEATS {
                    if let Err(e) = c.stop() {
                        failures.push(e);
                    }
                } else {
                    server = Some(c);
                }
            }
            Err(e) => {
                failures.push(e);
                break;
            }
        }
    }

    // ---------------- serving steps ----------------
    let conns = nproc();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e);
    let n = imdb.graph.num_nodes();
    let sets: Vec<Vec<usize>> = (0..NODE_SETS)
        .map(|_| {
            (0..NODES_PER_REQUEST)
                .map(|_| rng.gen_range(0..n))
                .collect()
        })
        .collect();
    let ckpts: Vec<(PathBuf, String)> = fixtures
        .iter()
        .map(|f| (f.path.clone(), f.id.clone()))
        .collect();
    let secs = |frac: f64| Duration::from_secs_f64(args.seconds as f64 * frac);
    let mut steps: Vec<(&str, serving::Step)> = Vec::new();
    let mut serve_rss_mb = 0.0;
    let mut write_trace_ms = 0.0;
    let t_serve = Instant::now();
    if let Some(server) = server {
        match Client::connect(server.addr) {
            Ok(mut ctl) => {
                let burst = BURST_PER_CONN * conns;
                let plan = [
                    ("warmup", BURST_PERIOD, burst, Duration::from_secs(1), 2),
                    ("light", LIGHT_PERIOD, 1, secs(0.25), 0),
                    ("burst", BURST_PERIOD, burst, secs(0.25), 0),
                    ("reload", LIGHT_PERIOD, 1, secs(0.2), usize::MAX),
                    ("reload-solo", LIGHT_PERIOD, 0, secs(0.3), usize::MAX),
                ];
                for (name, period, burst, duration, reloads) in plan {
                    let gap = if name == "reload-solo" {
                        SOLO_RELOAD_GAP
                    } else {
                        RELOAD_GAP
                    };
                    let load = serving::Load {
                        period,
                        burst,
                        duration,
                        conns,
                        node_sets: &sets,
                        reload: (&ckpts, gap, reloads),
                    };
                    steps.push((name, serving::step(&server, &mut ctl, &load)));
                    speed.probe();
                    if name == "burst" {
                        write_trace_ms = serving::traced_write_ms(&mut ctl);
                    }
                }
            }
            Err(e) => failures.push(format!("control connection: {e}")),
        }
        serve_rss_mb = server.peak_rss_mb();
        if let Err(e) = server.stop() {
            failures.push(e);
        }
    }
    let serve_wall_s = t_serve.elapsed().as_secs_f64();

    // ---------------- correctness of every response ----------------
    let mut mismatches = 0usize;
    for (name, s) in &steps {
        for (o, nodes) in s.outcomes.iter().zip(&s.nodes) {
            attempted += 1;
            if let Err(e) = serving::verify(o, nodes, &expected) {
                failed += 1;
                if o.ok() {
                    mismatches += 1;
                    if mismatches <= 3 {
                        failures.push(format!("{name}: {e}"));
                    }
                }
            }
        }
        attempted += s.reloads.len();
        failed += s.reloads.iter().filter(|r| !r.ok).count();
    }
    if steps.len() < 5 {
        failures.push("serving stage did not run".into());
    }

    // ---------------- end-to-end metrics ----------------
    let step = |name: &str| steps.iter().find(|(n, _)| *n == name).map(|(_, s)| s);
    let lat = |name: &str| {
        step(name)
            .map(|s| latencies(s, |_| true))
            .unwrap_or_default()
    };
    let (light, burst) = (lat("light"), lat("burst"));
    let reload_step = step("reload");
    let reload_calls: Vec<f64> = reload_step
        .map(|s| {
            s.reloads
                .iter()
                .map(|r| (r.end - r.start).as_secs_f64() * 1e3)
                .collect()
        })
        .unwrap_or_default();
    let in_window: Vec<f64> = reload_step
        .map(|s| {
            latencies(s, |o| {
                s.reloads.iter().any(|r| o.due >= r.start && o.due <= r.end)
            })
        })
        .unwrap_or_default();
    let setup_s = gen_imdb_s + gen_train_s + scale_gen_s + median(&ready_cpu_s);
    let setup_wall_s = gen_imdb_wall_s + gen_train_wall_s + median(&ready_s);
    // Server CPU milliseconds per classify request answered, or per reload.
    let cpu_per = |name: &str, per_reload: bool| {
        step(name).map_or(f64::NAN, |s| {
            let n = if per_reload {
                s.reloads.len()
            } else {
                s.outcomes.iter().filter(|o| o.ok()).count()
            };
            s.server_cpu_s * 1e3 / n.max(1) as f64
        })
    };
    let peak_rss_mb = if w == "serve-imdb-gcn" {
        serve_rss_mb
    } else {
        train_rss_mb
    };
    let (lq, lt) = tail(&light);
    let (bq, bt) = tail(&burst);
    let (rq, rt) = tail(&in_window);
    let scale = REF_NOMINAL_MS / speed.mean_ms();
    e2e.set("setup_s", setup_s * scale, "s");
    e2e.set("peak_rss_mb", peak_rss_mb, "MB");
    e2e.set(
        "ok_ratio",
        1.0 - failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    e2e.set("search_s", trained.search_s * scale, "s");
    e2e.set("retrain_s", trained.retrain_s * scale, "s");
    e2e.set("micro_f1", trained.outcome.micro_f1, "ratio");
    e2e.set("macro_f1", trained.outcome.macro_f1, "ratio");
    e2e.set("light.cpu_ms", cpu_per("light", false) * scale, "ms");
    e2e.set("reload.cpu_ms", cpu_per("reload-solo", true) * scale, "ms");
    let diagnostics = [
        ("burst.cpu_ms", cpu_per("burst", false)),
        ("light.p50_ms", median(&light)),
        ("light.tail_ms", lt),
        ("burst.p50_ms", median(&burst)),
        ("burst.tail_ms", bt),
        ("reload_ms", median(&reload_calls)),
        ("reload.tail_ms", rt),
    ];
    report.push(format!(
        "tails: light p{lq} of {} requests, burst p{bq} of {}, reload p{rq} of {} requests due \
         during {} reloads",
        light.len(),
        burst.len(),
        in_window.len(),
        reload_calls.len()
    ));
    report.push(format!(
        "host speed: reference probe {:.2} ms (mean of {:.1?}; {REF_NOMINAL_MS} nominal), so \
         CPU times scale by {scale:.4}; unscaled: setup_s {setup_s:.4}, search_s {:.4}, \
         retrain_s {:.4}, light.cpu_ms {:.3}, reload.cpu_ms {:.3}",
        speed.mean_ms(),
        speed.probes_ms(),
        trained.search_s,
        trained.retrain_s,
        cpu_per("light", false),
        cpu_per("reload-solo", true)
    ));
    report.push(format!(
        "failed: {failed} of {attempted} operations (classify requests and reload calls)"
    ));
    let median_of = |f: fn(&train::Trained) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let wall_clock = [
        ("setup_wall_s", setup_wall_s, "s"),
        ("search_wall_s", median_of(|t| t.wall_s.0), "s"),
        ("retrain_wall_s", median_of(|t| t.wall_s.1), "s"),
    ];
    report.push(format!(
        "unbounded: {}",
        diagnostics
            .iter()
            .map(|(n, v)| format!("{n} {v:.3}"))
            .chain(wall_clock.iter().map(|(n, v, _)| format!("{n} {v:.3}")))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let named = e2e.0.iter().map(|(n, v, _)| (n.as_str(), *v));
    for (n, v) in named.chain(diagnostics) {
        if !v.is_finite() {
            failures.push(format!("{n} has no value (no samples)"));
        }
    }

    // ---------------- provenance: kernel variants ----------------
    let probe_cache = OpCache::new(&data.graph);
    let model = Model {
        data,
        backbone,
        cfg,
        assignment: trained.search.assignment.clone(),
        cache: &probe_cache,
        sampled,
    };
    let variants = if trace {
        prov::kernel_variants(&rep_train)
    } else {
        autoac_obs::set_force(Some(true));
        let _ = autoac_obs::drain();
        let pipe = model.assigned(RUN_SEED);
        autoac_tensor::no_grad(|| pipe.forward(false, &mut StdRng::seed_from_u64(RUN_SEED)));
        let v = prov::kernel_variants(&autoac_obs::drain());
        autoac_obs::set_force(Some(false));
        v
    };

    // ---------------- per-layer metrics (traced run) ----------------
    if trace {
        // Training-stage figures are per repeat.
        let leaf = by_leaf(&rep_train);
        let r = TRAIN_REPEATS as u64;
        let get = |k: &str| {
            let (t, s, c) = leaf.get(k).copied().unwrap_or_default();
            (t / r, s / r, c / r)
        };
        for (n, v) in diagnostics {
            layer.set(n, v, "ms");
        }
        for (n, v, u) in wall_clock {
            layer.set(n, v, u);
        }
        layer.set("data.generate_s", gen_imdb_s + gen_train_s, "s");
        layer.set("data.scale_generate_s", scale_gen_s, "s");
        layer.set(
            "graph.opcache_build_s",
            get("opcache_build").0 as f64 / 1e9,
            "s",
        );
        let lookups = (cache_hits + cache_misses).max(1) as f64;
        layer.set(
            "graph.opcache_hit_ratio",
            cache_hits as f64 / lookups,
            "ratio",
        );
        for k in ["matmul", "matmul_tn", "matmul_nt", "spmm", "csr_transpose"] {
            layer.set(&format!("tensor.{k}_s"), get(k).0 as f64 / 1e9, "s");
            layer.set(&format!("tensor.{k}_calls"), get(k).2 as f64, "count");
        }
        let (ph, pm) = (pool1.hits - pool0.hits, pool1.misses - pool0.misses);
        layer.set(
            "tensor.pool_hit_ratio",
            ph as f64 / (ph + pm).max(1) as f64,
            "ratio",
        );
        let recycled =
            (pool1.bytes_recycled - pool0.bytes_recycled) as f64 / (1u64 << 20) as f64 / r as f64;
        layer.set("tensor.pool_recycled_mb", recycled, "MB");
        for (i, name) in ["mean", "gcn", "ppnp", "onehot"].iter().enumerate() {
            let count = trained.search.op_histogram[i] as f64;
            layer.set(&format!("completion.assigned_{name}"), count, "count");
        }
        for k in ["alpha", "omega", "cluster"] {
            layer.set(&format!("core.search.{k}_s"), get(k).0 as f64 / 1e9, "s");
        }
        let epoch = rep_train
            .span("train/epoch")
            .map_or(0.0, |s| s.total_ns as f64 / 1e6 / s.count.max(1) as f64);
        layer.set("core.train.epoch_ms", epoch, "ms");
        let (st, _, sc) = get("sample_batch");
        layer.set(
            "core.sampler.sample_ms",
            st as f64 / 1e6 / sc.max(1) as f64,
            "ms",
        );
        let nodes = rep_train.counter("sampler_nodes") as f64 / (sc * r).max(1) as f64;
        layer.set("core.sampler.batch_nodes", nodes, "count");
        layer.set("core.infer.load_ms", median(&load_ms), "ms");
        layer.set("core.infer.forward_ms", median(&infer_ms), "ms");
        layer.set("ckpt.read_ms", median(&read_ms), "ms");
        layer.set("ckpt.write_ms", median(&write_ms), "ms");
        layer.set("serve.start_ms", median(&start_ms), "ms");
        let bs = step("burst").map(|s| s.stages.clone()).unwrap_or_default();
        layer.set("serve.queue_wait_ms", bs.queue_wait_ms, "ms");
        layer.set("serve.batch_wait_ms", bs.batch_wait_ms, "ms");
        layer.set("serve.compute_ms", bs.compute_ms, "ms");
        layer.set("serve.write_ms", write_trace_ms, "ms");
        layer.set(
            "serve.requests_per_forward",
            bs.requests_per_forward,
            "count",
        );
        let late: Vec<f64> = steps
            .iter()
            .flat_map(|(_, s)| s.outcomes.iter().filter_map(|o| o.late_ms()))
            .collect();
        layer.set("bench.generator_late_ms", tail(&late).1, "ms");
        let backlog = steps
            .iter()
            .map(|(_, s)| s.backlog_at_end)
            .max()
            .unwrap_or(0);
        layer.set("bench.backlog_at_step_end", backlog as f64, "count");
        layer.set("bench.reference_ms", speed.mean_ms(), "ms");
        let attributed: u64 = LAYER_SPANS.iter().map(|k| get(k).1).sum();
        let per_repeat_s = train_total_s / TRAIN_REPEATS as f64;
        layer.set(
            "unattributed_ratio",
            1.0 - attributed as f64 / 1e9 / per_repeat_s,
            "ratio",
        );
        probe_layers(&model, RUN_SEED, &mut layer);
        layer.set(
            "trace_overhead_ratio",
            trace_overhead(&model, RUN_SEED),
            "ratio",
        );
        if let Some(s) = step("light") {
            report.push(format!("light stages: {:?}", s.stages));
        }
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let ticks1 = perfbench::cpu::host_ticks();
    report.push(format!(
        "host steal: {:.2}% of CPU time during the run",
        100.0 * (ticks1.0 - ticks0.0) as f64 / (ticks1.1 - ticks0.1).max(1) as f64
    ));
    let accounted = setup_wall_s + train_wall_s + fixture_s + serve_wall_s;
    report.push(format!(
        "wall {wall_s:.2}s: set-up {setup_wall_s:.2}s, training {train_wall_s:.2}s, serving fixtures \
         {fixture_s:.2}s, serving {serve_wall_s:.2}s, rest {:.2}s",
        wall_s - accounted
    ));

    // ---------------- output ----------------
    let correct = failures.is_empty();
    let header = prov::header(w, seed, trace, &source_fp, &variants);
    let mut text = format!(
        "perfbench {w} --seed {seed} --seconds {} --trace {}\n",
        args.seconds,
        u8::from(trace)
    );
    text.push_str(&format!("provenance: {header}\n"));
    for line in &report {
        text.push_str(&format!("  {line}\n"));
    }
    for (title, m) in [("end-to-end", &e2e), ("per-layer", &layer)] {
        if m.0.is_empty() {
            continue;
        }
        text.push_str(&format!("{title} metrics:\n"));
        for (n, v, u) in &m.0 {
            text.push_str(&format!("  {n:<30} {v:>16.6} {u}\n"));
        }
    }
    for f in &failures {
        text.push_str(&format!("CHECK FAILED: {f}\n"));
    }
    let metrics = if trace { &layer } else { &e2e };
    let last = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
    let file = out_dir.join(format!("{w}-{seed}-trace{}.txt", u8::from(trace)));
    let _ = std::fs::write(&file, format!("{text}{last}\n"));
    print!("{text}");
    println!("{last}");
    if correct {
        0
    } else {
        1
    }
}
