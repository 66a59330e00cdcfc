//! Provenance stamped on every result: which code, compiler and machine
//! produced the numbers.

use serde::Value;

/// Reads the checked-out commit from `.git` in the working directory
/// (never a parent); "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{refname}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == refname).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The provenance object for one run.
pub fn collect(workload: &str, seed: u64, seconds: u64, trace: bool) -> Value {
    let s = |v: &str| Value::Str(v.to_string());
    Value::Map(vec![
        ("git_rev".into(), s(&git_rev())),
        ("rustc".into(), s(env!("BENCH_RUSTC_VERSION"))),
        ("target_cpu".into(), s(env!("BENCH_TARGET_CPU"))),
        ("cpu_model".into(), s(&cpu_model())),
        ("cores".into(), Value::U64(cores() as u64)),
        ("workload".into(), s(workload)),
        ("seed".into(), Value::U64(seed)),
        ("seconds".into(), Value::U64(seconds)),
        ("trace".into(), Value::Bool(trace)),
    ])
}
