//! Checkpoint residency: the per-checkpoint logits table and hot-reload.
//!
//! AutoAC serving is transductive. Once a checkpoint has fixed the
//! completion-op assignment and the weights, every node's logits are a
//! constant: [`InferenceModel::logits`] reads a materialized attribute
//! block and reseeds its RNG on every call. So no model stays resident.
//! Loading a checkpoint builds an [`InferenceModel`], runs its one
//! full-graph forward, copies the `(N, C)` logits and the completed
//! attributes into an immutable [`SharedView`], and drops the model.
//! `/v1/classify` and `/v1/attrs` are then row lookups in that view, on
//! the worker thread that parsed the request.
//!
//! The model types hold `Rc`-shared tensors and are not `Send`, so every
//! table is built on one loader thread ([`run_loader`]), and the thread
//! that asks for it — the caller of `Server::start`, or the worker
//! handling `POST /admin/reload` — waits for the view. One loader rather
//! than the asking thread, because each thread allocates from its own
//! malloc arena: building on whichever worker took a reload left a model's
//! worth of freed pages in every such worker (DESIGN.md §10 has the
//! measurement). The loader also keeps its recycled-buffer pool warm from
//! one build to the next.
//!
//! Reloads are serialized by a mutex held across the whole
//! graph-fingerprint check, build and swap, so at most one model is ever
//! resident, and only while its table is being built. A failed reload
//! leaves the published view untouched; an accepted one is a single `Arc`
//! swap, so every response is answered wholly from one checkpoint.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use autoac_ckpt::ServeState;
use autoac_core::{InferenceModel, ServeStateInfo};
use autoac_obs::{counter_add, flight_record, hist_record, FlightKind};

/// Immutable worker-visible snapshot of one loaded checkpoint: everything
/// the endpoints need, in `Send + Sync` form.
pub struct SharedView {
    /// Materialized completed attributes, row-major `(num_nodes, attr_dim)`.
    pub attrs: Vec<f32>,
    /// Attribute dimensionality (`in_dim`).
    pub attr_dim: usize,
    /// The checkpoint's `InferenceModel::logits()`, row-major
    /// `(num_nodes, num_classes)`.
    pub logits: Vec<f32>,
    /// Argmax class of each logits row.
    pub labels: Vec<usize>,
    /// Total node count; valid ids are `0..num_nodes`.
    pub num_nodes: usize,
    /// Logit columns.
    pub num_classes: usize,
    /// Accepted loads so far: 0 for the startup checkpoint, +1 per
    /// accepted reload. Orders reloads that race each other.
    pub generation: u64,
    /// Checkpoint identity (config fingerprint hex, backbone, F1s, ...).
    pub info: ServeStateInfo,
}

impl SharedView {
    /// One attribute row, or `None` when `node` is out of range.
    pub fn attr_row(&self, node: usize) -> Option<&[f32]> {
        if node >= self.num_nodes {
            return None;
        }
        self.attrs.get(node * self.attr_dim..(node + 1) * self.attr_dim)
    }

    /// One logits row and its argmax label, or `None` when `node` is out
    /// of range.
    pub fn scores(&self, node: usize) -> Option<(usize, &[f32])> {
        if node >= self.num_nodes {
            return None;
        }
        let row = self.logits.get(node * self.num_classes..(node + 1) * self.num_classes)?;
        Some((*self.labels.get(node)?, row))
    }
}

/// Loads `state`, runs its single forward, and keeps only the tables. The
/// model is dropped before this returns.
fn build_table(state: &ServeState) -> Result<SharedView, String> {
    let model = InferenceModel::from_state(state).map_err(|e| e.to_string())?;
    let t0 = std::time::Instant::now();
    let logits = model.logits();
    hist_record("serve_forward_ns", t0.elapsed().as_nanos() as f64);
    let attrs = model.attrs();
    Ok(SharedView {
        attrs: attrs.data().to_vec(),
        attr_dim: attrs.cols(),
        labels: (0..logits.rows()).map(|r| logits.argmax_row(r)).collect(),
        logits: logits.data().to_vec(),
        num_nodes: model.num_nodes(),
        num_classes: model.num_classes(),
        generation: 0,
        info: model.info().clone(),
    })
}

/// A table to build: the checkpoint, and where its view (or why it failed)
/// goes.
type LoadJob = (ServeState, Sender<Result<SharedView, String>>);

/// Body of the loader thread: builds every table the server publishes,
/// one at a time, until its [`ModelHost`] is dropped.
fn run_loader(jobs: Receiver<LoadJob>) {
    for (state, reply) in jobs {
        // A send failure only means the requester gave up; nothing to do.
        let _ = reply.send(build_table(&state));
    }
}

/// The published view and the loader thread that builds views.
pub struct ModelHost {
    view: Mutex<Arc<SharedView>>,
    /// Queue to the loader thread. Its mutex is held across a whole reload,
    /// which serializes reloads.
    loader: Mutex<Option<Sender<LoadJob>>>,
    thread: Option<JoinHandle<()>>,
}

/// Has the loader thread behind `loader` build `state`'s view, and waits.
fn load(loader: Option<&Sender<LoadJob>>, state: ServeState) -> Result<SharedView, String> {
    let (reply, view) = mpsc::channel();
    loader
        .and_then(|tx| tx.send((state, reply)).ok())
        .ok_or_else(|| "the loader thread has stopped".to_string())?;
    view.recv().map_err(|_| "the loader thread died".to_string())?
}

impl ModelHost {
    /// Starts the loader thread and publishes the initial checkpoint's view.
    pub fn new(state: ServeState) -> Result<Self, String> {
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("serve-loader".into())
            .spawn(move || run_loader(rx))
            .map_err(|e| format!("cannot start the loader thread: {e}"))?;
        let view = match load(Some(&tx), state) {
            Ok(view) => view,
            Err(e) => {
                drop(tx);
                let _ = thread.join();
                return Err(e);
            }
        };
        flight_record(
            FlightKind::Lifecycle,
            view.info.graph_fp,
            0,
            &format!("model loaded: {}", view.info.config_fp_hex),
        );
        Ok(Self {
            view: Mutex::new(Arc::new(view)),
            loader: Mutex::new(Some(tx)),
            thread: Some(thread),
        })
    }

    /// The current view. Cloning the `Arc` out is the whole critical
    /// section, so the lock is never held across real work.
    pub fn view(&self) -> Arc<SharedView> {
        // A poisoned lock only means a thread panicked *after* a completed
        // swap (the stored Arc is always whole), so serving from it is sound.
        Arc::clone(&self.view.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// Builds `state`'s view on the loader thread and publishes it,
    /// keeping the old view on any failure. The new checkpoint must
    /// describe the *same graph* (identical structural fingerprint) so
    /// node ids keep their meaning across the swap; callers surface a
    /// violation as HTTP 409. Returns the view it published.
    pub fn reload(&self, state: ServeState) -> Result<Arc<SharedView>, String> {
        let loader = self.loader.lock().unwrap_or_else(|p| p.into_inner());
        let current = self.view();
        // `from_state` refuses a checkpoint whose regenerated graph differs
        // from its own `meta.graph_fp`, so comparing the recorded value
        // here is exact and saves building a model that would be refused.
        if state.meta.graph_fp != current.info.graph_fp {
            flight_record(
                FlightKind::Reload,
                current.info.graph_fp,
                state.meta.graph_fp,
                "rejected: graph fingerprint mismatch",
            );
            return Err(format!(
                "graph fingerprint mismatch: serving {:016x}, checkpoint {:016x} — \
                 node ids would silently change meaning",
                current.info.graph_fp, state.meta.graph_fp
            ));
        }
        let mut next = load(loader.as_ref(), state).map_err(|e| {
            flight_record(FlightKind::Reload, 0, 0, &format!("rejected: {e}"));
            e
        })?;
        next.generation = current.generation + 1;
        flight_record(
            FlightKind::Reload,
            next.info.graph_fp,
            next.generation,
            &format!("accepted: {}", next.info.config_fp_hex),
        );
        counter_add("serve_reloads_total", 1);
        let next = Arc::new(next);
        *self.view.lock().unwrap_or_else(|p| p.into_inner()) = Arc::clone(&next);
        Ok(next)
    }
}

impl Drop for ModelHost {
    fn drop(&mut self) {
        // Closing the queue ends the loader's loop.
        *self.loader.get_mut().unwrap_or_else(|p| p.into_inner()) = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoac_core::{train_serve_state, ServeTrainSpec, TrainConfig};

    fn quick_state(seed: u64, data_seed: u64) -> ServeState {
        let spec = ServeTrainSpec {
            data_seed,
            train: TrainConfig { epochs: 2, patience: 2, ..Default::default() },
            seed,
            ..Default::default()
        };
        train_serve_state(&spec).expect("train").0
    }

    #[test]
    fn view_tables_equal_the_model_and_bound_node_ids() {
        let state = quick_state(3, 1);
        let host = ModelHost::new(state.clone()).expect("load");
        let view = host.view();
        let model = InferenceModel::from_state(&state).expect("load");
        let logits = model.logits();
        assert_eq!(view.num_nodes * view.attr_dim, view.attrs.len());
        assert_eq!(view.attrs, model.attrs().data());
        assert_eq!(view.logits, logits.data(), "table is the model's logits, bit for bit");
        for n in [0, view.num_nodes / 2, view.num_nodes - 1] {
            assert_eq!(view.scores(n), Some((logits.argmax_row(n), logits.row(n))));
            assert_eq!(view.attr_row(n), Some(model.attrs().row(n)));
        }
        assert!(view.attr_row(view.num_nodes).is_none());
        assert!(view.scores(view.num_nodes).is_none());
    }

    #[test]
    fn reload_swaps_view_atomically_and_rejects_foreign_graphs() {
        let host = ModelHost::new(quick_state(3, 1)).expect("load");
        let before = host.view().info.config_fp_hex.clone();

        // Same graph, different seed: accepted, view swapped.
        let next = host.reload(quick_state(4, 1)).expect("reload");
        assert_ne!(next.info.config_fp_hex, before);
        assert!(Arc::ptr_eq(&next, &host.view()), "the returned view is the published one");
        assert_eq!(next.generation, 1);

        // Different data seed regenerates a different graph: rejected,
        // old view still published.
        let Err(err) = host.reload(quick_state(5, 2)) else { panic!("must reject") };
        assert!(err.contains("graph fingerprint mismatch"), "{err}");
        assert!(Arc::ptr_eq(&next, &host.view()), "a rejected reload publishes nothing");
    }
}
