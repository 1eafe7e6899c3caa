//! The training stages: AutoAC search then retrain, full-batch or
//! neighbour-sampled, and the serving fixtures (trained, then exported as
//! serving checkpoints).

use std::time::Instant;

use perfbench::cpu;

use autoac_ckpt::{RunMeta, ServeState, SERVE_KIND};
use autoac_core::search::search_cached;
use autoac_core::{
    search_minibatch, train_node_classification, train_node_classification_minibatch, AutoAcConfig,
    Backbone, ClassificationTask, ClsOutcome, CompletionMode, MinibatchConfig, MinibatchPipeline,
    Pipeline, SearchOutcome, TrainConfig,
};
use autoac_data::Dataset;
use autoac_graph::OpCache;
use autoac_nn::GnnConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What one search + retrain produced.
#[derive(Clone, Debug)]
pub struct Trained {
    /// CPU seconds of the search call.
    pub search_s: f64,
    /// CPU seconds of pipeline assembly plus the retrain call (which ends
    /// with the test evaluation).
    pub retrain_s: f64,
    /// Wall seconds of the same two stages, for the report.
    pub wall_s: (f64, f64),
    /// The search result.
    pub search: SearchOutcome,
    /// The retrain result.
    pub outcome: ClsOutcome,
}

impl Trained {
    /// Fixed-work and sanity checks; each failure is described.
    pub fn check(&self, search_epochs: usize, epochs: usize, missing: usize) -> Vec<String> {
        let mut bad = Vec::new();
        if self.search.gmoc_trace.len() != search_epochs {
            bad.push(format!(
                "search ran {} GmoC epochs, budget {search_epochs}",
                self.search.gmoc_trace.len()
            ));
        }
        if !self.search.gmoc_trace.iter().all(|l| l.is_finite()) {
            bad.push("non-finite GmoC loss".into());
        }
        if self.outcome.epochs_run != epochs {
            bad.push(format!(
                "retrain ran {} epochs, budget {epochs}",
                self.outcome.epochs_run
            ));
        }
        if self.search.op_histogram.iter().sum::<usize>() != missing {
            bad.push("op histogram does not cover the attribute-missing nodes".into());
        }
        for f in [self.outcome.micro_f1, self.outcome.macro_f1] {
            if !(f.is_finite() && f > 0.0 && f <= 1.0) {
                bad.push(format!("F1 {f} out of (0, 1]"));
            }
        }
        bad
    }

    /// Exact bits of everything a fixed seed must repeat.
    pub fn digest(&self) -> String {
        let h = &self.search.op_histogram;
        format!(
            "f1={:016x}/{:016x} ops={}/{}/{}/{} epochs={}",
            self.outcome.micro_f1.to_bits(),
            self.outcome.macro_f1.to_bits(),
            h[0],
            h[1],
            h[2],
            h[3],
            self.outcome.epochs_run
        )
    }
}

/// Fixed epoch budget: patience equal to the budget, so no run stops
/// early.
pub fn autoac(search_epochs: usize, epochs: usize, clusters: usize) -> AutoAcConfig {
    AutoAcConfig {
        clusters,
        search_epochs,
        omega_warmup: 1,
        train: TrainConfig {
            epochs,
            patience: epochs,
            ..TrainConfig::default()
        },
        ..AutoAcConfig::default()
    }
}

/// Full-batch search then retrain of a fresh pipeline on the searched
/// assignment, sharing one operator cache.
pub fn full_batch(
    data: &Dataset,
    backbone: Backbone,
    cfg: &GnnConfig,
    ac: &AutoAcConfig,
    seed: u64,
    cache: &OpCache,
) -> (Trained, Pipeline, [u64; 4]) {
    let task = ClassificationTask::new(data);
    let t = Instant::now();
    let (search, search_s) =
        cpu::timed(|| search_cached(data, backbone, cfg, ac, &task, seed, cache));
    let search_wall_s = t.elapsed().as_secs_f64();
    let (t, c) = (Instant::now(), cpu::process_s());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let ctor_rng = rng.state();
    let pipe = Pipeline::new_cached(
        data,
        backbone,
        cfg,
        CompletionMode::Assigned(search.assignment.clone()),
        cache,
        &mut rng,
    );
    let outcome = train_node_classification(&pipe, data, &ac.train, seed ^ 0x7e7e);
    let retrain_s = cpu::process_s() - c;
    (
        Trained {
            search_s,
            retrain_s,
            wall_s: (search_wall_s, t.elapsed().as_secs_f64()),
            search,
            outcome,
        },
        pipe,
        ctor_rng,
    )
}

/// Neighbour-sampled search then sampled retrain (GCN).
pub fn sampled(
    data: &Dataset,
    cfg: &GnnConfig,
    ac: &AutoAcConfig,
    mb: &MinibatchConfig,
    seed: u64,
    cache: &OpCache,
) -> (Trained, MinibatchPipeline) {
    let t = Instant::now();
    let (search, search_s) = cpu::timed(|| search_minibatch(data, cfg, ac, mb, seed, cache, None));
    let search_wall_s = t.elapsed().as_secs_f64();
    let (t, c) = (Instant::now(), cpu::process_s());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let pipe = MinibatchPipeline::new_cached(
        data,
        cfg,
        CompletionMode::Assigned(search.assignment.clone()),
        cache,
        &mut rng,
    );
    let outcome =
        train_node_classification_minibatch(&pipe, data, &ac.train, mb, seed ^ 0x7e7e, None);
    let retrain_s = cpu::process_s() - c;
    (
        Trained {
            search_s,
            retrain_s,
            wall_s: (search_wall_s, t.elapsed().as_secs_f64()),
            search,
            outcome,
        },
        pipe,
    )
}

/// Packages a retrained full-batch pipeline as a serving checkpoint, the
/// same layout `autoac_core::train_serve_state` writes.
#[allow(clippy::too_many_arguments)]
pub fn export(
    data: &Dataset,
    preset: &str,
    scale: &str,
    data_seed: u64,
    backbone: Backbone,
    cfg: &GnnConfig,
    trained: &Trained,
    pipe: &Pipeline,
    ctor_rng: [u64; 4],
    seed: u64,
) -> ServeState {
    let params = autoac_core::trainer::snapshot(&autoac_core::ForwardPipe::params(pipe));
    let mut state = ServeState {
        meta: RunMeta {
            kind: SERVE_KIND.into(),
            graph_fp: data.graph.structural_fingerprint(),
            config_fp: 0,
            seed,
            segment_fp: 0,
        },
        preset: preset.into(),
        scale: scale.into(),
        data_seed,
        backbone: backbone.tag().into(),
        in_dim: cfg.in_dim as u64,
        hidden: cfg.hidden as u64,
        out_dim: cfg.out_dim as u64,
        layers: cfg.layers as u64,
        heads: cfg.heads as u64,
        edge_dim: cfg.edge_dim as u64,
        dropout: cfg.dropout,
        slope: cfg.slope,
        beta: cfg.beta,
        assignment: trained
            .search
            .assignment
            .iter()
            .map(|op| op.index() as u32)
            .collect(),
        ctor_rng,
        infer_seed: seed ^ 0xCAFE,
        params,
        epochs_done: trained.outcome.epochs_run as u64,
        macro_f1: trained.outcome.macro_f1,
        micro_f1: trained.outcome.micro_f1,
    };
    state.meta.config_fp = state.config_fingerprint();
    state
}
