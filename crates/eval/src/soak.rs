//! Process peak RSS, kept at this path because `decision_bench` reads its
//! `peak_rss_mb` through `eval::soak::rss_peak_mb`.

/// Parses `/proc/self/status` for peak RSS in MB (0.0 where the proc
/// filesystem is unavailable).
pub fn rss_peak_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
