//! Provenance attached to every result: source revision, machine, seed,
//! every `AUTOAC_*` setting, and the kernel variants dispatch chose.

use std::collections::BTreeMap;
use std::path::Path;

use autoac_data::json::{self, Value};
use autoac_tensor::dispatch::{self, CostModel, KernelChoice, KernelOp, Variant};

/// Git revision of the checkout, or `"unknown"` when it is not a git
/// repository (then [`source_fingerprint`] identifies the code).
pub fn git_rev() -> String {
    // Only this checkout's own repository counts, never an enclosing one.
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the path and bytes of every file under `crates/`,
/// `vendor/` and `perfbench/src`, in sorted order: identifies the code
/// that was measured even without git.
pub fn source_fingerprint() -> String {
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench/src", "Cargo.lock"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect(p: &Path, out: &mut Vec<std::path::PathBuf>) {
    if p.is_file() {
        out.push(p.to_path_buf());
    } else if let Ok(rd) = std::fs::read_dir(p) {
        for e in rd.flatten() {
            let path = e.path();
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&path, out);
        }
    }
}

/// Every `AUTOAC_*` environment setting, sorted.
pub fn autoac_env() -> BTreeMap<String, String> {
    std::env::vars()
        .filter(|(k, _)| k.starts_with("AUTOAC_"))
        .collect()
}

fn kernel_op(name: &str) -> Option<KernelOp> {
    Some(match name {
        "matmul" => KernelOp::MatMul,
        "matmul_tn" => KernelOp::MatMulTn,
        "matmul_nt" => KernelOp::MatMulNt,
        "spmm" => KernelOp::Spmm,
        _ => return None,
    })
}

/// Which variant dispatch picks for each recorded kernel shape, as
/// `op → (scalar calls, blocked calls)`. Replays the shape records of an
/// obs report through the same selection rule `dispatch` applies.
pub fn kernel_variants(rep: &autoac_obs::ObsReport) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let policy = dispatch::choice();
    for (key, &count) in &rep.shapes {
        let Some(op) = kernel_op(key.op) else {
            continue;
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
        let e = out.entry(op.name()).or_default();
        match variant {
            Variant::Scalar => e.0 += count,
            Variant::Blocked => e.1 += count,
        }
    }
    out
}

/// The provenance header as one JSON object.
pub fn header(
    workload: &str,
    seed: u64,
    trace: bool,
    source_fp: &str,
    variants: &BTreeMap<&'static str, (u64, u64)>,
) -> String {
    let env = autoac_env()
        .into_iter()
        .map(|(k, v)| (k, Value::Str(v)))
        .collect::<Vec<_>>();
    let kv = variants
        .iter()
        .map(|(op, (s, b))| {
            (
                op.to_string(),
                Value::Obj(vec![
                    ("scalar".into(), Value::Num(*s as f64)),
                    ("blocked".into(), Value::Num(*b as f64)),
                ]),
            )
        })
        .collect::<Vec<_>>();
    let policy = match dispatch::choice() {
        KernelChoice::Scalar => "scalar",
        KernelChoice::Blocked => "blocked",
        KernelChoice::Auto => "auto",
    };
    json::to_string(&Value::Obj(vec![
        ("git_rev".into(), Value::Str(git_rev())),
        ("source_fp".into(), Value::Str(source_fp.into())),
        ("nproc".into(), Value::Num(crate::nproc() as f64)),
        (
            "kernel_threads".into(),
            Value::Num(autoac_tensor::parallel::num_threads() as f64),
        ),
        ("workload".into(), Value::Str(workload.into())),
        ("seed".into(), Value::Num(seed as f64)),
        ("trace".into(), Value::Bool(trace)),
        ("autoac_env".into(), Value::Obj(env)),
        ("kernel_policy".into(), Value::Str(policy.into())),
        ("kernel_variants".into(), Value::Obj(kv)),
    ]))
}
