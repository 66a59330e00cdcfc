//! End-to-end observability: a traced CSS session through the real `talon`
//! binary must come back as one rooted causal tree, render as valid
//! folded-stack flamegraph lines, and be scrapeable over plain TCP from
//! `talon serve`'s Prometheus endpoint — including the live-monitor routes
//! (`/healthz`, `/readyz`, `/alerts`, `/timeseries`, `/links`, `/flight`,
//! `/profile`) and the injected-drift drill that must flip `/healthz` to
//! 503 and back, deterministically. The fleet variants additionally
//! assert labeled per-link series in valid exposition text and that the
//! drill's alert-triggered flight-recorder dump replays bit-exactly. The
//! self-observability variants sample the drill with the in-process
//! profiler (`--profile-hz`) and attribute its critical path from the
//! recorded trace.

use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn talon() -> Command {
    Command::new(env!("CARGO_BIN_EXE_talon"))
}

/// One GET over raw TCP; returns `(status_code, body)`.
fn http_get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let code = response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((code, body))
}

/// Reads the `serving metrics on http://…/metrics` announce line and
/// returns the bound address.
fn read_announce(lines: &mut impl Iterator<Item = std::io::Result<String>>) -> String {
    let announce = lines
        .next()
        .expect("announce line")
        .expect("readable stdout");
    announce
        .strip_prefix("serving metrics on http://")
        .and_then(|rest| rest.strip_suffix("/metrics"))
        .unwrap_or_else(|| panic!("unexpected announce line: {announce}"))
        .to_string()
}

/// Kills the child on drop so a failing assertion never leaks a serve
/// process holding the test run open.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

/// A fresh scratch directory for one use: keyed by `name`, the process id
/// and a per-process counter, so concurrently running tests never share
/// (or delete) each other's files.
fn workdir(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("talon-obs-{name}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A [`workdir`] that is removed on drop, so a failing assertion leaves
/// nothing behind either. `talon serve` writes its flight-recorder dumps
/// (alert or panic) to `--flight-dir`, default `.`; every serve child here
/// gets one of these or a [`workdir`] its test removes, so no run can drop
/// a dump into the checkout.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        TempDir(workdir(name))
    }

    fn arg(&self) -> &str {
        self.0.to_str().expect("UTF-8 temp path")
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn traced_session_builds_one_tree_and_valid_folded_stacks() {
    let dir = workdir("traced_session");
    let trace = dir.join("session.bin");

    // One compressive training with tracing on.
    let out = talon()
        .args([
            "sls",
            "--scenario",
            "lab",
            "--policy",
            "css",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("run sls --trace");
    assert!(
        out.status.success(),
        "sls: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace.exists());

    // The trace parses cleanly and holds exactly one CSS session: a single
    // rooted tree whose root is the `css.session` span.
    let parsed = obs::open_trace(&trace).expect("readable trace");
    assert_eq!(parsed.skipped, 0, "clean file");
    let trees = obs::tree::build_trees(&parsed.events);
    assert_eq!(trees.len(), 1, "one CSS session = one trace");
    let tree = &trees[0];
    assert_eq!(tree.roots.len(), 1, "single root");
    assert_eq!(tree.nodes[tree.roots[0]].stage, "css.session");
    // The firmware sweep spans nest under the session, not beside it.
    assert!(
        tree.nodes.iter().any(|n| n.stage == "wil.sweep"),
        "sweep span present in the session tree"
    );

    // `report --tree` renders the same structure.
    let out = talon()
        .args(["report", trace.to_str().unwrap(), "--tree"])
        .output()
        .expect("run report --tree");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("css.session"), "{stdout}");

    // `report --flame` emits only folded-stack lines: `a;b;c <self_us>`,
    // rooted at css.session, directly consumable by flamegraph tooling.
    let out = talon()
        .args(["report", trace.to_str().unwrap(), "--flame"])
        .output()
        .expect("run report --flame");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(!lines.is_empty(), "flame output non-empty");
    for line in &lines {
        let (stack, value) = line.rsplit_once(' ').expect("`stack value` shape");
        assert!(!stack.is_empty());
        assert!(
            stack.split(';').all(|frame| !frame.is_empty()),
            "no empty frames: {line}"
        );
        value.parse::<u64>().expect("self-time is an integer");
    }
    assert!(
        lines.iter().all(|l| l.starts_with("css.session")),
        "all stacks root at the session: {stdout}"
    );
    assert!(
        lines.iter().any(|l| l.starts_with("css.session;")),
        "nested frames present: {stdout}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_exposes_scrapeable_prometheus_text() {
    let flight_dir = TempDir::new("serve-prom-flight");
    let mut child = talon()
        .args([
            "serve",
            "--metrics-addr",
            "127.0.0.1:0",
            "--sessions",
            "1",
            "--scenario",
            "lab",
            "--policy",
            "css",
            "--hold-ms",
            "30000",
            "--flight-dir",
            flight_dir.arg(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn talon serve");

    // The bound address is announced on the first stdout line.
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let announce = lines
        .next()
        .expect("announce line")
        .expect("readable stdout");
    let addr = announce
        .strip_prefix("serving metrics on http://")
        .and_then(|rest| rest.strip_suffix("/metrics"))
        .unwrap_or_else(|| panic!("unexpected announce line: {announce}"))
        .to_string();

    // Session summaries go to stderr; wait for the first one so the scrape
    // observes a fully-run CSS session, not just the freshly-bound server.
    let stderr = child.stderr.take().expect("piped stderr");
    let session_line = BufReader::new(stderr)
        .lines()
        .next()
        .expect("session line")
        .expect("readable stderr");
    assert!(session_line.starts_with("session 0:"), "{session_line}");

    // Scrape with a raw TCP socket — no HTTP client in the workspace, and
    // none needed: one request line, headers, body.
    let body = (|| -> std::io::Result<String> {
        let mut stream = TcpStream::connect(&addr)?;
        write!(stream, "GET /metrics HTTP/1.1\r\nHost: {addr}\r\n\r\n")?;
        let mut response = String::new();
        stream.read_to_string(&mut response)?;
        assert!(
            response.starts_with("HTTP/1.1 200 OK\r\n"),
            "status: {}",
            response.lines().next().unwrap_or("")
        );
        assert!(
            response.contains("Content-Type: text/plain; version=0.0.4"),
            "exposition content type"
        );
        let (_, body) = response
            .split_once("\r\n\r\n")
            .expect("header/body separator");
        Ok(body.to_string())
    })()
    .expect("scrape");
    child.kill().ok();
    child.wait().ok();

    // Every line is valid exposition text: a comment or `name value`.
    assert!(!body.is_empty());
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("`series value` shape");
        assert!(series.starts_with("talon_"), "namespaced: {line}");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("numeric value: {line}"));
    }
    // Link-health counters are present (pre-registered, so even
    // never-fired kinds expose a zero-valued series).
    for kind in ["snr_clamped", "missing_probe", "outlier_residual"] {
        assert!(
            body.contains(&format!("talon_health_{kind}_total")),
            "health series {kind} present"
        );
    }
    // The session that ran before the scrape left real counters behind.
    assert!(
        body.contains("talon_css_estimates_total"),
        "pipeline counters present:\n{body}"
    );
}

#[test]
fn serve_answers_live_monitor_routes() {
    let flight_dir = TempDir::new("serve-routes-flight");
    let child = talon()
        .args([
            "serve",
            "--metrics-addr",
            "127.0.0.1:0",
            "--sessions",
            "1",
            "--scenario",
            "lab",
            "--tick-ms",
            "25",
            "--hold-ms",
            "60000",
            "--flight-dir",
            flight_dir.arg(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn talon serve");
    let mut child = KillOnDrop(child);
    let stdout = child.0.stdout.take().expect("piped stdout");
    let addr = read_announce(&mut BufReader::new(stdout).lines());

    // Wait until the background ticker has taken a few samples, so the
    // overview carries rates (they need ≥2 ring entries).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let overview = loop {
        let (code, body) = http_get(&addr, "/timeseries?window=10").expect("scrape /timeseries");
        assert_eq!(code, 200, "{body}");
        let overview = Value::from_json(&body).expect("overview is JSON");
        if overview.get("tick").and_then(Value::as_u64).unwrap_or(0) >= 3 {
            break overview;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sampler never reached tick 3"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    };
    let counters = overview
        .get("counters")
        .and_then(Value::as_seq)
        .expect("counters array");
    assert!(
        counters
            .iter()
            .any(|c| c.get("name").and_then(Value::as_str) == Some("sls.runs")),
        "the session's counters are sampled"
    );

    // Per-metric query, and a 404 for a metric the sampler never saw.
    let (code, body) = http_get(&addr, "/timeseries?metric=sls.runs&window=10").expect("scrape");
    assert_eq!(code, 200, "{body}");
    let series = Value::from_json(&body).expect("series is JSON");
    assert_eq!(series.get("kind").and_then(Value::as_str), Some("counter"));
    assert!(!series
        .get("points")
        .and_then(Value::as_seq)
        .expect("points")
        .is_empty());
    let (code, _) = http_get(&addr, "/timeseries?metric=no.such.metric").expect("scrape");
    assert_eq!(code, 404);

    // /alerts: the compiled-in default rules, none firing on a healthy run.
    let (code, body) = http_get(&addr, "/alerts").expect("scrape /alerts");
    assert_eq!(code, 200, "{body}");
    let alerts = Value::from_json(&body).expect("alerts is JSON");
    assert_eq!(alerts.get("firing_page").and_then(Value::as_u64), Some(0));
    let rules = alerts.get("alerts").and_then(Value::as_seq).expect("rules");
    assert!(
        rules
            .iter()
            .any(|r| r.get("name").and_then(Value::as_str) == Some("snr_loss_high")),
        "default ruleset is loaded"
    );

    // /healthz: healthy, plain text.
    let (code, body) = http_get(&addr, "/healthz").expect("scrape /healthz");
    assert_eq!(code, 200, "{body}");
    assert!(body.starts_with("ok"), "{body}");

    // /metrics now carries HELP lines and the build-info/uptime series.
    let (code, body) = http_get(&addr, "/metrics").expect("scrape /metrics");
    assert_eq!(code, 200);
    assert!(body.contains("# HELP talon_sls_runs_total "), "{body}");
    assert!(body.contains("talon_build_info{version="), "{body}");
    assert!(body.contains("talon_process_uptime_seconds "), "{body}");
}

/// Spawns the injected-drift drill, dumping into `flight_dir`, and
/// returns `(addr, stdout_thread, child)`; the thread collects the
/// remaining stdout lines. The caller holds `flight_dir` past the child.
fn spawn_drill(
    hold_ms: &str,
    flight_dir: &TempDir,
) -> (String, std::thread::JoinHandle<Vec<String>>, KillOnDrop) {
    let child = talon()
        .args([
            "serve",
            "--metrics-addr",
            "127.0.0.1:0",
            "--sessions",
            "0",
            "--inject-drift",
            "--tick-ms",
            "40",
            "--ticks",
            "45",
            "--hold-ms",
            hold_ms,
            "--flight-dir",
            flight_dir.arg(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn drift drill");
    let mut child = KillOnDrop(child);
    let stdout = child.0.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = read_announce(&mut lines);
    let reader = std::thread::spawn(move || lines.map_while(Result::ok).collect::<Vec<_>>());
    (addr, reader, child)
}

#[test]
fn drill_exposes_labeled_per_link_series_and_links_rollup() {
    let flight_dir = TempDir::new("drill-flight");
    let (addr, _reader, child) = spawn_drill("60000", &flight_dir);

    // Wait until the fleet's staggered drift episodes are underway (link 2
    // degrades at tick 16), so every link has labeled series sampled.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let (code, body) = http_get(&addr, "/timeseries").expect("poll tick");
        assert_eq!(code, 200, "{body}");
        let tick = Value::from_json(&body)
            .ok()
            .and_then(|v| v.get("tick").and_then(Value::as_u64))
            .unwrap_or(0);
        if tick >= 20 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "drill never reached tick 20"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    }

    // /metrics carries the per-link labeled series in valid exposition
    // text: every labeled sample line is `name{k="v",…} value` with
    // identifier keys and space-free quoted values.
    let (code, body) = http_get(&addr, "/metrics").expect("scrape /metrics");
    assert_eq!(code, 200);
    for link in 0..3 {
        assert!(
            body.contains(&format!("talon_quality_snr_loss_mdb{{link=\"{link}\"}}")),
            "labeled loss gauge for link {link}:\n{body}"
        );
    }
    assert!(
        body.contains("talon_health_link_drift_total{link=\"0\"}"),
        "labeled drift counter present:\n{body}"
    );
    let mut labeled_lines = 0;
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("`series value` shape");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("numeric value: {line}"));
        let Some(inner) = series
            .strip_suffix('}')
            .and_then(|s| s.split_once('{'))
            .map(|(_, inner)| inner)
        else {
            continue;
        };
        labeled_lines += 1;
        for pair in inner.split(',') {
            let (k, v) = pair.split_once('=').expect("k=\"v\" pair");
            assert!(
                !k.is_empty() && k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "identifier label key: {line}"
            );
            let v = v
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .expect("quoted label value");
            assert!(!v.contains(' '), "space-free label value: {line}");
        }
    }
    assert!(labeled_lines > 0, "at least one labeled sample line");

    // /links ranks the fleet; all three drill links are listed.
    let (code, body) = http_get(&addr, "/links?window=30").expect("scrape /links");
    assert_eq!(code, 200, "{body}");
    let links = Value::from_json(&body).expect("links JSON");
    assert_eq!(links.get("count").and_then(Value::as_u64), Some(3));
    let rows = links.get("links").and_then(Value::as_seq).expect("rows");
    assert_eq!(rows.len(), 3);
    for row in rows {
        assert!(row.get("link").and_then(Value::as_str).is_some());
        assert!(row.get("snr_loss_mdb").and_then(Value::as_i64).is_some());
    }

    // /flight reports the always-on recorder; by tick 20 the drift alerts
    // have fired at least once, so a dump has been written.
    let (code, body) = http_get(&addr, "/flight").expect("scrape /flight");
    assert_eq!(code, 200, "{body}");
    let flight = Value::from_json(&body).expect("flight JSON");
    assert!(
        flight.get("dumps").and_then(Value::as_u64).unwrap_or(0) >= 1,
        "alert firing produced a flight dump: {body}"
    );
    drop(child);
}

#[test]
fn drill_flight_dump_replays_bit_exactly() {
    let dir = workdir("flight-replay");

    // Sessions run with the flight sink already installed, so their
    // decision records are in the ring when the drift alert fires and the
    // recorder dumps. `--policy css` makes those decisions replayable.
    let out = talon()
        .args([
            "serve",
            "--metrics-addr",
            "127.0.0.1:0",
            "--sessions",
            "2",
            "--scenario",
            "lab",
            "--policy",
            "css",
            "--inject-drift",
            "--tick-ms",
            "5",
            "--ticks",
            "45",
            "--flight-dir",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("run fleet drill");
    assert!(
        out.status.success(),
        "drill: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let dumps: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("list flight dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().unwrap_or_default().to_string_lossy();
            name.starts_with("flight-") && name.ends_with(".bin")
        })
        .collect();
    assert!(!dumps.is_empty(), "drill wrote at least one flight dump");
    let drift_dump = dumps
        .iter()
        .find(|p| {
            p.file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .contains("link_drift")
        })
        .expect("a drift-alert dump among the flight recordings");

    // The dump is a plain binary trace: `talon replay` re-executes its
    // decisions and they must reproduce bit-exactly. The ring also holds
    // each session's SLS sweep records (`sls.iss`/`sls.rss`), which their
    // producer marks non-replayable, so the verdict names both counts.
    let out = talon()
        .args(["replay", drift_dump.to_str().unwrap()])
        .output()
        .expect("replay the dump");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "replay failed: {}\n{}",
        String::from_utf8_lossy(&out.stderr),
        stdout
    );
    assert!(
        stdout.contains(
            "replay OK: 2 decision(s) reproduced bit-exactly, 8 skipped as non-replayable"
        ),
        "{stdout}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Every folded-stack line is `path;to;span count` with no empty frames.
fn assert_valid_folded(text: &str) {
    assert!(!text.trim().is_empty(), "folded output non-empty");
    for line in text.lines() {
        let (stack, value) = line.rsplit_once(' ').expect("`stack count` shape");
        assert!(
            stack.split(';').all(|frame| !frame.is_empty()),
            "no empty frames: {line}"
        );
        value
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("integer sample count: {line}"));
    }
}

#[test]
fn profiled_drill_emits_folded_stacks_and_critical_path() {
    let dir = workdir("profiled-drill");
    let trace = dir.join("drill.bin");
    let folded = dir.join("drill.folded");

    // The drift drill with the in-process sampler running at 1 kHz: on
    // exit, serve writes the folded stacks it accumulated.
    let out = talon()
        .args([
            "serve",
            "--metrics-addr",
            "127.0.0.1:0",
            "--sessions",
            "2",
            "--scenario",
            "lab",
            "--policy",
            "css",
            "--seed",
            "42",
            "--inject-drift",
            "--tick-ms",
            "5",
            "--ticks",
            "45",
            "--flight-dir",
            dir.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
            "--profile-hz",
            "1000",
            "--profile-out",
            folded.to_str().unwrap(),
        ])
        .output()
        .expect("run profiled drill");
    assert!(
        out.status.success(),
        "drill: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let folded_text = std::fs::read_to_string(&folded).expect("profile written");
    assert_valid_folded(&folded_text);

    // The recorded trace attributes its own critical path: the dominant
    // root-to-leaf chain with per-hop quantiles.
    let out = talon()
        .args(["report", trace.to_str().unwrap(), "--critical-path"])
        .output()
        .expect("run report --critical-path");
    assert!(
        out.status.success(),
        "report: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trace(s)"), "{stdout}");
    assert!(
        stdout.contains("css.session"),
        "critical path names the session root: {stdout}"
    );
    assert!(stdout.contains("p95"), "per-hop quantile table: {stdout}");

    // The same decisions profile offline: `talon profile <trace>` replays
    // them under the sampler and emits folded stacks to stdout.
    let out = talon()
        .args(["profile", trace.to_str().unwrap(), "--hz", "2000"])
        .output()
        .expect("run talon profile");
    assert!(
        out.status.success(),
        "profile: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_valid_folded(&String::from_utf8_lossy(&out.stdout));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn readyz_and_profile_routes_respond() {
    // A server with the profiler attached: /readyz answers as soon as the
    // socket serves, /profile is routed (its body depends on whether the
    // timer sampler caught the short session, so the folded stacks are
    // asserted in-process by `profile_route_serves_a_held_span_as_folded_stacks`).
    let flight_dir = TempDir::new("readyz-flight");
    let child = talon()
        .args([
            "serve",
            "--metrics-addr",
            "127.0.0.1:0",
            "--sessions",
            "1",
            "--scenario",
            "lab",
            "--policy",
            "css",
            "--hold-ms",
            "60000",
            "--profile-hz",
            "500",
            "--flight-dir",
            flight_dir.arg(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn profiled serve");
    let mut child = KillOnDrop(child);
    let stdout = child.0.stdout.take().expect("piped stdout");
    let addr = read_announce(&mut BufReader::new(stdout).lines());

    let (code, body) = http_get(&addr, "/readyz").expect("scrape /readyz");
    assert_eq!(code, 200, "{body}");
    assert!(body.starts_with("ready"), "{body}");
    let (code, body) = http_get(&addr, "/profile").expect("scrape /profile");
    assert_eq!(code, 200, "{body}");

    // `talon profile --attach` takes a windowed capture over the same
    // endpoint (seconds=1 → the server holds the connection for the
    // window, then sends only stacks accumulated inside it).
    let out = talon()
        .args(["profile", "--attach", &addr, "--seconds", "1"])
        .output()
        .expect("run talon profile --attach");
    assert!(
        out.status.success(),
        "attach: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    drop(child);

    // Without --profile-hz there is no profiler to expose: /profile is a
    // 404 while /readyz still answers 200.
    let flight_dir = TempDir::new("readyz-unprofiled-flight");
    let child = talon()
        .args([
            "serve",
            "--metrics-addr",
            "127.0.0.1:0",
            "--sessions",
            "0",
            "--hold-ms",
            "60000",
            "--flight-dir",
            flight_dir.arg(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn unprofiled serve");
    let mut child = KillOnDrop(child);
    let stdout = child.0.stdout.take().expect("piped stdout");
    let addr = read_announce(&mut BufReader::new(stdout).lines());
    let (code, body) = http_get(&addr, "/readyz").expect("scrape /readyz");
    assert_eq!(code, 200, "{body}");
    let (code, _) = http_get(&addr, "/profile").expect("scrape /profile");
    assert_eq!(code, 404, "no profiler attached");
}

#[test]
fn profile_route_serves_a_held_span_as_folded_stacks() {
    // The same server, in process, at the serve test's 500 Hz: a span
    // held open across one synchronous sampler pass is in the tally no
    // matter when (or whether) the timer thread runs.
    let _guard = obs::testing::lock();
    let monitor = Arc::new(obs::LiveMonitor::with_defaults());
    let profiler = Arc::new(obs::Profiler::start_hz(500));
    monitor.attach_profiler(Arc::clone(&profiler));
    let server =
        obs::MetricsServer::start_with_monitor("127.0.0.1:0", Arc::clone(&monitor)).expect("bind");
    let addr = server.local_addr().to_string();

    let session = obs::span("css.session");
    let run = obs::span("sls.run");
    profiler.sample_now();
    drop(run);
    drop(session);

    let (code, folded) = http_get(&addr, "/profile").expect("scrape /profile");
    assert_eq!(code, 200, "{folded}");
    assert_valid_folded(&folded);
    assert!(
        folded
            .lines()
            .any(|line| line.starts_with("css.session;sls.run ")),
        "the held stack was sampled: {folded}"
    );
}

#[test]
fn injected_drift_flips_healthz_and_is_deterministic() {
    // Run 1: watch /healthz while the drill runs. The drill holds the
    // degraded link for ~17 ticks at 40 ms each, so 10 ms polling cannot
    // miss the 503 window.
    let flight_dir = TempDir::new("drill-flight");
    let (addr, reader, child) = spawn_drill("60000", &flight_dir);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let mut observed: Vec<u16> = Vec::new();
    loop {
        let (code, _) = http_get(&addr, "/healthz").expect("poll /healthz");
        assert!(code == 200 || code == 503, "unexpected status {code}");
        if observed.last() != Some(&code) {
            observed.push(code);
        }
        // Done once we've seen unhealthy and then healthy again.
        if observed.ends_with(&[503, 200]) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "healthz never flipped 503→200; saw {observed:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        observed == [200, 503, 200] || observed == [503, 200],
        "one degradation episode: {observed:?}"
    );

    // The transition log names the drill's page alert.
    let (code, body) = http_get(&addr, "/alerts").expect("scrape /alerts");
    assert_eq!(code, 200);
    let alerts = Value::from_json(&body).expect("alerts JSON");
    assert_eq!(alerts.get("firing_page").and_then(Value::as_u64), Some(0));
    let transitions = alerts
        .get("transitions")
        .and_then(Value::as_seq)
        .expect("transition log");
    assert!(
        transitions
            .iter()
            .any(|t| t.get("rule").and_then(Value::as_str) == Some("snr_loss_high")),
        "snr_loss_high in the log: {body}"
    );
    // Let the drill finish all 45 ticks before killing, so run 1's stdout
    // carries every transition line (the sampler tick count is the ground
    // truth for "done"; a short grace covers the final println).
    loop {
        let (_, body) = http_get(&addr, "/timeseries").expect("poll tick count");
        let tick = Value::from_json(&body)
            .ok()
            .and_then(|v| v.get("tick").and_then(Value::as_u64))
            .unwrap_or(0);
        if tick >= 45 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "drill never finished; at tick {tick}"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    std::thread::sleep(std::time::Duration::from_millis(200));
    drop(child); // kill; the reader sees EOF and returns
    let run1: Vec<String> = reader
        .join()
        .expect("reader thread")
        .into_iter()
        .filter(|l| l.contains(": alert "))
        .collect();
    assert!(!run1.is_empty(), "drill printed alert transitions");

    // Run 2: same flags, no polling — the printed alert transition
    // sequence must be byte-identical (the acceptance contract: the
    // pipeline is tick-driven, so wall-clock jitter cannot reorder it).
    let flight_dir = TempDir::new("drill-flight-run2");
    let out = talon()
        .args([
            "serve",
            "--metrics-addr",
            "127.0.0.1:0",
            "--sessions",
            "0",
            "--inject-drift",
            "--tick-ms",
            "5",
            "--ticks",
            "45",
            "--flight-dir",
            flight_dir.arg(),
        ])
        .output()
        .expect("run drill to completion");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let run2: Vec<&str> = stdout.lines().filter(|l| l.contains(": alert ")).collect();
    assert_eq!(run1, run2, "identical transition sequences across runs");
    assert!(
        stdout.contains("drift drill complete"),
        "drill ran to completion: {stdout}"
    );
}
