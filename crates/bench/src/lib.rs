//! # autoac-bench
//!
//! Shared harness utilities for the experiment binaries that regenerate
//! every table and figure of the paper (see `DESIGN.md` §3 for the
//! experiment index). Each binary accepts:
//!
//! ```text
//! --scale tiny|small|paper   dataset size profile            (default: small)
//! --seeds N                  repetitions                     (default: 3)
//! --epochs N                 max training epochs             (default: 120)
//! --search-epochs N          AutoAC search epochs            (default: 30)
//! --checkpoint-dir DIR       write crash-safe snapshots here (default: off)
//! --checkpoint-every N       snapshot cadence in epochs      (default: 5)
//! --resume                   resume from DIR's snapshots     (default: fresh)
//! ```

#![warn(missing_docs)]

use std::path::PathBuf;

use autoac_ckpt::CheckpointPolicy;
use autoac_core::{AutoAcConfig, Backbone, ClusteringMode, TrainConfig};
use autoac_data::{presets, synth, Dataset, Scale};
use autoac_nn::GnnConfig;

/// Parsed harness arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Dataset scale profile.
    pub scale: Scale,
    /// Number of seeds per configuration.
    pub seeds: usize,
    /// Maximum training epochs.
    pub epochs: usize,
    /// AutoAC search epochs.
    pub search_epochs: usize,
    /// Root directory for crash-safe snapshots (`None` disables
    /// checkpointing).
    pub checkpoint_dir: Option<PathBuf>,
    /// Snapshot cadence in epochs.
    pub checkpoint_every: usize,
    /// Resume from existing snapshots under `checkpoint_dir` instead of
    /// starting fresh.
    pub resume: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            scale: Scale::Small,
            seeds: 3,
            epochs: 120,
            search_epochs: 30,
            checkpoint_dir: None,
            checkpoint_every: 5,
            resume: false,
        }
    }
}

impl Args {
    /// Parses `std::env::args`; unknown flags abort with a usage message.
    pub fn parse() -> Args {
        Self::parse_extra(|_, _| false)
    }

    /// [`Args::parse`] with an escape hatch for binary-specific flags: the
    /// handler sees each `(flag, value)` pair first and returns `true` to
    /// claim it. Unclaimed unknown flags still abort with the usage
    /// message.
    pub fn parse_extra(mut extra: impl FnMut(&str, &str) -> bool) -> Args {
        let mut out = Args::default();
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            let flag = argv[i].as_str();
            // `--resume` is a boolean switch: no value, advances by one.
            if flag == "--resume" {
                out.resume = true;
                i += 1;
                continue;
            }
            let value = argv.get(i + 1).unwrap_or_else(|| usage(flag));
            match flag {
                "--scale" => {
                    out.scale = Scale::parse(value).unwrap_or_else(|| usage(flag));
                }
                "--seeds" => out.seeds = value.parse().unwrap_or_else(|_| usage(flag)),
                "--epochs" => out.epochs = value.parse().unwrap_or_else(|_| usage(flag)),
                "--search-epochs" => {
                    out.search_epochs = value.parse().unwrap_or_else(|_| usage(flag))
                }
                "--checkpoint-dir" => out.checkpoint_dir = Some(PathBuf::from(value)),
                "--checkpoint-every" => {
                    out.checkpoint_every = value.parse().unwrap_or_else(|_| usage(flag));
                    if out.checkpoint_every == 0 {
                        usage(flag);
                    }
                }
                _ if extra(flag, value) => {}
                _ => usage(flag),
            }
            i += 2;
        }
        out
    }

    /// Checkpoint policy for one named run (e.g. one dataset×seed cell),
    /// rooted at `<checkpoint-dir>/<label>`; `None` when checkpointing is
    /// off. Without `--resume` existing snapshots are ignored (snapshots
    /// are still written), so reruns stay reproducible by default.
    pub fn ckpt_policy(&self, label: &str) -> Option<CheckpointPolicy> {
        let dir = self.checkpoint_dir.as_ref()?;
        let policy = CheckpointPolicy::new(dir.join(label)).checkpoint_every(self.checkpoint_every);
        Some(if self.resume { policy } else { policy.fresh() })
    }

    /// Training settings derived from the arguments.
    pub fn train_cfg(&self) -> TrainConfig {
        TrainConfig { epochs: self.epochs, patience: 20, ..TrainConfig::default() }
    }

    /// Loads a preset dataset at the configured scale.
    pub fn dataset(&self, name: &str, seed: u64) -> Dataset {
        let spec = presets::by_name(name).unwrap_or_else(|| {
            // lint:allow(eprintln) — CLI-facing usage error, not library telemetry
            eprintln!("unknown dataset {name}");
            std::process::exit(2);
        });
        synth::generate(&spec, self.scale, seed)
    }
}

fn usage(flag: &str) -> ! {
    // lint:allow(eprintln) — CLI-facing usage error, not library telemetry
    eprintln!(
        "unexpected argument {flag}\nusage: --scale tiny|small|paper --seeds N --epochs N \
         --search-epochs N --checkpoint-dir DIR --checkpoint-every N --resume"
    );
    std::process::exit(2)
}

/// GNN hyperparameters per backbone (HGB-flavored defaults scaled to the
/// CPU substrate).
pub fn gnn_cfg(data: &Dataset, backbone: Backbone, lp: bool) -> GnnConfig {
    let out_dim = if lp { 64 } else { data.num_classes.max(2) };
    let layers = match backbone {
        Backbone::SimpleHgn | Backbone::SimpleHgnLp | Backbone::Gcn | Backbone::Gat => 2,
        Backbone::Hgt | Backbone::Gtn => 2,
        _ => 1,
    };
    GnnConfig {
        in_dim: 64,
        hidden: 64,
        out_dim,
        layers,
        heads: 2,
        dropout: 0.4,
        slope: 0.05,
        edge_dim: 32,
        beta: 0.05,
    }
}

/// AutoAC hyperparameters per backbone/dataset (paper §V-B: λ = 0.4 and
/// per-dataset M for SimpleHGN; λ = 0.5 and per-dataset M for MAGNN).
pub fn autoac_cfg(backbone: Backbone, dataset: &str, args: &Args) -> AutoAcConfig {
    let (lambda, clusters) = match backbone {
        Backbone::Magnn => {
            let m = match dataset {
                "DBLP" | "ACM" => 4,
                "IMDB" => 16,
                _ => 8,
            };
            (0.5, m)
        }
        _ => {
            let m = match dataset {
                "DBLP" => 8,
                "ACM" | "IMDB" => 12,
                _ => 8,
            };
            (0.4, m)
        }
    };
    AutoAcConfig {
        clusters,
        lambda,
        search_epochs: args.search_epochs,
        clustering: ClusteringMode::GmoC,
        train: args.train_cfg(),
        ..AutoAcConfig::default()
    }
}

/// Formats a `mean±std` cell from fractional scores.
pub fn cell(scores: &[f64]) -> String {
    autoac_eval::mean_std_pct(scores)
}

/// Prints a markdown-ish table row.
pub fn row(name: &str, cells: &[String]) {
    println!("| {:<22} | {} |", name, cells.join(" | "));
}

/// Prints a section header.
pub fn header(title: &str, cols: &[&str]) {
    println!("\n### {title}");
    println!("| {:<22} | {} |", "model", cols.join(" | "));
    println!("|{}|", "-".repeat(24 + cols.iter().map(|c| c.len() + 3).sum::<usize>()));
}

/// Provenance header for a `results/BENCH_*.json` file, as one JSON
/// object: the git revision (`"unknown"` outside a git checkout), the core
/// count, every `AUTOAC_*` setting, the kernel policy, and how many of the
/// recorded kernel shapes (`ObsReport::shapes` of a run with obs on)
/// dispatch sends to each variant (`op → [scalar, blocked]`).
pub fn provenance(shapes: &std::collections::BTreeMap<autoac_obs::ShapeKey, u64>) -> String {
    use autoac_data::json::{self, Value};
    use autoac_tensor::dispatch::{self, CostModel, KernelChoice, KernelOp, Variant};

    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let env: Vec<(String, Value)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("AUTOAC_"))
        .map(|(k, v)| (k, Value::Str(v)))
        .collect();
    let policy = dispatch::choice();
    let mut variants: std::collections::BTreeMap<&str, [u64; 2]> = Default::default();
    for (key, &count) in shapes {
        let op = match key.op {
            "matmul" => KernelOp::MatMul,
            "matmul_tn" => KernelOp::MatMulTn,
            "matmul_nt" => KernelOp::MatMulNt,
            "spmm" => KernelOp::Spmm,
            _ => continue,
        };
        let [m, k, n, nnz] = key.dims;
        let variant = match policy {
            KernelChoice::Scalar => Variant::Scalar,
            KernelChoice::Blocked => Variant::Blocked,
            KernelChoice::Auto => {
                let nnz = matches!(op, KernelOp::Spmm).then_some(nnz);
                CostModel::default_for(op).pick(dispatch::classify(m, k, n, nnz))
            }
        };
        variants.entry(op.name()).or_default()[usize::from(variant == Variant::Blocked)] += count;
    }
    let variants = variants
        .into_iter()
        .map(|(op, [s, b])| {
            (op.into(), Value::Arr(vec![Value::Num(s as f64), Value::Num(b as f64)]))
        })
        .collect();
    json::to_string(&Value::Obj(vec![
        ("git_rev".into(), Value::Str(git_rev)),
        ("nproc".into(), Value::Num(nproc as f64)),
        ("autoac_env".into(), Value::Obj(env)),
        ("kernel_policy".into(), Value::Str(format!("{policy:?}").to_lowercase())),
        ("kernel_variants".into(), Value::Obj(variants)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_is_strict_json_with_every_field() {
        let doc =
            autoac_data::json::parse(&provenance(&Default::default())).expect("provenance parses");
        for field in ["git_rev", "nproc", "autoac_env", "kernel_policy", "kernel_variants"] {
            assert!(doc.get(field).is_some(), "provenance misses {field}");
        }
    }

    #[test]
    fn default_args() {
        let a = Args::default();
        assert_eq!(a.seeds, 3);
        assert!(matches!(a.scale, Scale::Small));
        assert!(!a.resume);
        assert_eq!(a.checkpoint_every, 5);
    }

    #[test]
    fn ckpt_policy_off_by_default_and_rooted_per_label() {
        assert!(Args::default().ckpt_policy("x").is_none());
        let with_dir =
            Args { checkpoint_dir: Some("/tmp/ckpts".into()), ..Args::default() };
        let p = with_dir.ckpt_policy("dblp-s0").unwrap();
        assert_eq!(p.dir(), std::path::Path::new("/tmp/ckpts/dblp-s0"));
    }

    #[test]
    fn autoac_cfg_follows_paper_hparams() {
        let args = Args::default();
        let c = autoac_cfg(Backbone::SimpleHgn, "DBLP", &args);
        assert_eq!(c.clusters, 8);
        assert!((c.lambda - 0.4).abs() < 1e-6);
        let c = autoac_cfg(Backbone::Magnn, "IMDB", &args);
        assert_eq!(c.clusters, 16);
        assert!((c.lambda - 0.5).abs() < 1e-6);
    }

    #[test]
    fn gnn_cfg_dimensions() {
        let args = Args { scale: Scale::Tiny, ..Args::default() };
        let data = args.dataset("imdb", 0);
        let c = gnn_cfg(&data, Backbone::SimpleHgn, false);
        assert_eq!(c.out_dim, data.num_classes);
        let c = gnn_cfg(&data, Backbone::SimpleHgnLp, true);
        assert_eq!(c.out_dim, 64);
    }
}
