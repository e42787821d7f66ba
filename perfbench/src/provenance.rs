//! Where a result came from: source revision, toolchain, host and flags.

use crate::obj;
use crate::workloads::{repo_root, WORKERS};
use serde_json::Value;
use std::process::Command;

/// Runs a command to completion and returns its trimmed stdout, if it
/// succeeded.
fn output_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Runs git in the repository root without letting it search parent
/// directories for another repository (a source checkout need not be a
/// git repository).
fn git(args: &[&str]) -> Option<String> {
    let root = repo_root().canonicalize().ok()?;
    let ceiling = root.parent()?.to_path_buf();
    output_of(
        Command::new("git").arg("-C").arg(&root).args(args).env("GIT_CEILING_DIRECTORIES", ceiling),
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The `-C target-cpu=` the benchmark was compiled with.
fn target_cpu(flags: &str) -> String {
    let words: Vec<&str> = flags.split_whitespace().collect();
    words
        .iter()
        .enumerate()
        .find_map(|(i, w)| {
            let arg = if *w == "-C" { words.get(i + 1).copied()? } else { w.strip_prefix("-C")? };
            arg.strip_prefix("target-cpu=").map(str::to_string)
        })
        .unwrap_or_else(|| "default".into())
}

/// Target features the compiled code may use beyond the baseline.
fn target_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    if cfg!(target_feature = "sse4.2") {
        f.push("sse4.2");
    }
    if cfg!(target_feature = "avx") {
        f.push("avx");
    }
    if cfg!(target_feature = "avx2") {
        f.push("avx2");
    }
    if cfg!(target_feature = "fma") {
        f.push("fma");
    }
    if cfg!(target_feature = "avx512f") {
        f.push("avx512f");
    }
    f
}

/// The provenance block printed with every result.
pub fn provenance(workload: &str, seed: u64, seconds: f64, trace: bool) -> Value {
    let flags = env!("PERFBENCH_RUSTFLAGS");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
    let text = |s: String| Value::Str(s);
    let unknown = || "unknown".to_string();
    obj(vec![
        ("workload", text(workload.to_string())),
        ("seed", Value::Int(seed.into())),
        ("seconds", Value::Float(seconds)),
        ("trace", Value::Bool(trace)),
        ("workers", Value::Int(WORKERS as i128)),
        ("git_rev", text(git(&["rev-parse", "HEAD"]).unwrap_or_else(unknown))),
        ("git_dirty", dirty.map_or(Value::Null, Value::Bool)),
        ("rustc", text(output_of(Command::new(rustc).arg("-V")).unwrap_or_else(unknown))),
        ("cpu_model", text(cpu_model())),
        ("nproc", Value::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as i128)),
        ("target_cpu", text(target_cpu(flags))),
        (
            "target_features",
            Value::Arr(target_features().into_iter().map(|f| text(f.into())).collect()),
        ),
        ("rustflags", text(flags.to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::target_cpu;

    #[test]
    fn target_cpu_is_read_from_either_flag_form() {
        assert_eq!(target_cpu("-C target-cpu=native -C opt-level=3"), "native");
        assert_eq!(target_cpu("-Ctarget-cpu=skylake"), "skylake");
        assert_eq!(target_cpu(""), "default");
    }
}
