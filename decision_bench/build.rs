//! Stamps the compiler version and target CPU into the binary, so every
//! result the benchmark prints names the toolchain that produced it.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");

    // `-C target-cpu=X` arrives as one flag or as `-C` followed by
    // `target-cpu=X`; either way the value follows `target-cpu=`.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let cpu = flags
        .split('\x1f')
        .find_map(|f| f.split_once("target-cpu=").map(|(_, cpu)| cpu.to_string()))
        .unwrap_or_else(|| "default".into());
    println!("cargo:rustc-env=BENCH_TARGET_CPU={cpu}");
    println!("cargo:rerun-if-changed=build.rs");
}
