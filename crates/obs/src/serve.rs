//! A zero-dependency operational endpoint on `std::net::TcpListener`.
//!
//! [`MetricsServer::start`] binds an address (use port 0 for an ephemeral
//! port), spawns one background thread, and answers:
//!
//! * `GET /metrics` (or `/`) — Prometheus text exposition of the global
//!   registry plus the [`crate::prometheus::process_series`] build-info /
//!   uptime series;
//! * `GET /healthz` — `200 ok` normally, **503** while any page-severity
//!   alert fires on the attached [`LiveMonitor`];
//! * `GET /alerts` — JSON: every rule's state plus the recent transition
//!   log;
//! * `GET /timeseries[?metric=<name>&window=<ticks>]` — JSON: the
//!   windowed overview, or one metric's ring;
//! * `GET /links[?window=<ticks>&k=<rows>]` — JSON: per-link fleet
//!   rollup, worst links first;
//! * `GET /flight` — JSON: the attached flight recorder's ring/dump
//!   status (404 when none is attached);
//! * `GET /readyz` — `200 ready` always: the process is up and serving.
//!   Readiness (can answer) is deliberately split from health (no page
//!   alert firing) so a monitorless `talon serve` is ready-but-unhealthy
//!   rather than invisible to orchestration probes;
//! * `GET /profile[?seconds=N]` — folded flame stacks from the attached
//!   [`crate::prof::Profiler`] (404 when none is attached). `seconds=0`
//!   (the default) returns the cumulative tally inline; `seconds=N`
//!   captures an N-second window on a one-shot thread that owns the
//!   connection, so a capture never blocks the accept loop.
//!
//! The monitor-backed routes need [`MetricsServer::start_with_monitor`];
//! without a monitor they answer 503 (`/healthz` has nothing watching, so
//! claiming health would be a lie) and 404. `/readyz` answers 200 either
//! way.
//!
//! The accept loop is non-blocking and polls a shutdown flag, so dropping
//! the server stops the thread promptly without needing a self-connect
//! trick. This is a diagnostics endpoint, not a web server: one connection
//! is served at a time, each under a hard wall-clock deadline
//! ([`CONNECTION_DEADLINE`]) so a slow or stalled client cannot wedge the
//! loop, and unknown paths get a 404.

use crate::live::LiveMonitor;
use crate::prometheus;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Total wall-clock budget for one connection (read + respond). The server
/// handles connections inline on its single thread, so without a *total*
/// bound a client trickling one byte per read-timeout window could hold
/// the endpoint — and `Drop`'s join — hostage for minutes.
const CONNECTION_DEADLINE: Duration = Duration::from_secs(2);

/// Poll granularity for the read loop's deadline / stop-flag checks.
const READ_POLL: Duration = Duration::from_millis(100);

/// Default `window` for `/timeseries` and `/links` queries, ticks.
const DEFAULT_WINDOW: u64 = 60;

/// Default row cap for `/links` (`k` query parameter).
const DEFAULT_LINKS: usize = 16;

/// Ceiling on `/profile?seconds=N`: a capture thread owns its connection
/// for the whole window, so the window is bounded.
const MAX_PROFILE_SECONDS: u64 = 60;

/// Concurrent windowed profile captures allowed; each is one detached
/// thread, so the cap bounds how many a scrape storm can spawn.
const MAX_PROFILE_CAPTURES: usize = 4;

/// A running metrics endpoint; stops when dropped.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving `/metrics`
    /// only (no live monitor — `/healthz` answers 503, `/alerts` and
    /// `/timeseries` 404).
    pub fn start(addr: &str) -> std::io::Result<Self> {
        Self::spawn(addr, None)
    }

    /// Binds `addr` and starts serving with the live-monitoring routes
    /// backed by `monitor`.
    pub fn start_with_monitor(addr: &str, monitor: Arc<LiveMonitor>) -> std::io::Result<Self> {
        Self::spawn(addr, Some(monitor))
    }

    fn spawn(addr: &str, monitor: Option<Arc<LiveMonitor>>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("talon-metrics".into())
            .spawn(move || {
                let captures = Arc::new(AtomicUsize::new(0));
                accept_loop(listener, &stop_flag, &captures, monitor.as_deref())
            })?;
        Ok(MetricsServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    stop: &Arc<AtomicBool>,
    captures: &Arc<AtomicUsize>,
    monitor: Option<&LiveMonitor>,
) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Serve inline: operational scrapes are small and rare, so
                // a per-connection thread would be pure overhead. The
                // deadline inside bounds how long one client can occupy
                // the loop; the stop flag cuts even that short. (The one
                // exception is a windowed `/profile` capture, which hands
                // the stream to a one-shot thread.)
                let _ = serve_connection(stream, stop, captures, monitor);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Routes one request. `(status line, content type, body)`.
fn respond(
    path_and_query: &str,
    monitor: Option<&LiveMonitor>,
) -> (&'static str, &'static str, String) {
    const TEXT: &str = "text/plain; version=0.0.4";
    const JSON: &str = "application/json";
    let (path, query) = match path_and_query.split_once('?') {
        Some((p, q)) => (p, q),
        None => (path_and_query, ""),
    };
    match path {
        "/metrics" | "/" => {
            // With a monitor attached, expose its merged view so per-link
            // shard series scrape alongside the global registry.
            let snapshot = match monitor {
                Some(m) => m.merged_snapshot(),
                None => crate::global().snapshot(),
            };
            let mut body = prometheus::render(&snapshot);
            body.push_str(&prometheus::process_series());
            ("200 OK", TEXT, body)
        }
        // Readiness is "the endpoint answers", nothing more: keep it 200
        // even monitorless, where /healthz (rightly) refuses to vouch.
        "/readyz" => ("200 OK", TEXT, String::from("ready\n")),
        "/profile" => match monitor.and_then(|m| m.profiler()) {
            // Only the cumulative (seconds=0) tally is served inline;
            // windowed captures are intercepted in `serve_connection`
            // before routing gets here.
            Some(profiler) => ("200 OK", TEXT, profiler.folded_text()),
            None => (
                "404 Not Found",
                TEXT,
                String::from("no profiler attached\n"),
            ),
        },
        "/healthz" => match monitor {
            Some(m) => {
                let (healthy, body) = m.healthz();
                if healthy {
                    ("200 OK", TEXT, body)
                } else {
                    ("503 Service Unavailable", TEXT, body)
                }
            }
            None => (
                "503 Service Unavailable",
                TEXT,
                String::from("no live monitor attached\n"),
            ),
        },
        "/alerts" => match monitor {
            Some(m) => ("200 OK", JSON, m.alerts_json()),
            None => ("404 Not Found", TEXT, String::from("no live monitor\n")),
        },
        "/timeseries" => match monitor {
            Some(m) => {
                let window = query_param(query, "window")
                    .and_then(|w| w.parse().ok())
                    .unwrap_or(DEFAULT_WINDOW);
                match query_param(query, "metric") {
                    Some(metric) => match m.series_json(metric, window) {
                        Some(body) => ("200 OK", JSON, body),
                        None => (
                            "404 Not Found",
                            TEXT,
                            format!("metric not sampled: {metric}\n"),
                        ),
                    },
                    None => ("200 OK", JSON, m.overview_json(window)),
                }
            }
            None => ("404 Not Found", TEXT, String::from("no live monitor\n")),
        },
        "/links" => match monitor {
            Some(m) => {
                let window = query_param(query, "window")
                    .and_then(|w| w.parse().ok())
                    .unwrap_or(DEFAULT_WINDOW);
                let k = query_param(query, "k")
                    .and_then(|k| k.parse().ok())
                    .unwrap_or(DEFAULT_LINKS);
                ("200 OK", JSON, m.links_json(window, k))
            }
            None => ("404 Not Found", TEXT, String::from("no live monitor\n")),
        },
        "/flight" => match monitor.and_then(|m| m.flight_status_json()) {
            Some(body) => ("200 OK", JSON, body),
            None => (
                "404 Not Found",
                TEXT,
                String::from("no flight recorder attached\n"),
            ),
        },
        _ => ("404 Not Found", TEXT, String::from("not found\n")),
    }
}

/// The value of `key` in a `k=v&k2=v2` query string. No percent-decoding:
/// metric names are plain identifiers.
fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

fn serve_connection(
    mut stream: TcpStream,
    stop: &Arc<AtomicBool>,
    captures: &Arc<AtomicUsize>,
    monitor: Option<&LiveMonitor>,
) -> std::io::Result<()> {
    let deadline = Instant::now() + CONNECTION_DEADLINE;
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(READ_POLL))?;
    stream.set_write_timeout(Some(CONNECTION_DEADLINE))?;
    let request_line = read_request_line(&mut stream, deadline, stop)?;
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    // A windowed profile capture blocks for the whole window; hand the
    // connection to a one-shot thread so the accept loop stays free.
    if let Some(seconds) = windowed_profile_seconds(path) {
        if let Some(profiler) = monitor.and_then(|m| m.profiler()) {
            return spawn_profile_capture(stream, profiler, seconds, stop, captures);
        }
    }
    let (status, content_type, body) = respond(path, monitor);
    write_response(&mut stream, status, content_type, &body)
}

/// `Some(seconds)` when `path` is a `/profile` request for a non-zero
/// capture window (clamped to [`MAX_PROFILE_SECONDS`]), `None` otherwise.
fn windowed_profile_seconds(path_and_query: &str) -> Option<u64> {
    let (path, query) = path_and_query
        .split_once('?')
        .unwrap_or((path_and_query, ""));
    if path != "/profile" {
        return None;
    }
    let seconds: u64 = query_param(query, "seconds")?.parse().ok()?;
    (seconds > 0).then_some(seconds.min(MAX_PROFILE_SECONDS))
}

/// Hands `stream` to a detached thread that waits out the capture window
/// (polling the stop flag so shutdown isn't held up) and answers with the
/// folded stacks accumulated *during* the window. The thread count is
/// bounded by [`MAX_PROFILE_CAPTURES`]; excess requests get a 503.
fn spawn_profile_capture(
    mut stream: TcpStream,
    profiler: Arc<crate::prof::Profiler>,
    seconds: u64,
    stop: &Arc<AtomicBool>,
    captures: &Arc<AtomicUsize>,
) -> std::io::Result<()> {
    if captures.fetch_add(1, Ordering::AcqRel) >= MAX_PROFILE_CAPTURES {
        captures.fetch_sub(1, Ordering::AcqRel);
        return write_response(
            &mut stream,
            "503 Service Unavailable",
            "text/plain; version=0.0.4",
            "too many concurrent profile captures\n",
        );
    }
    let stop = Arc::clone(stop);
    let slots = Arc::clone(captures);
    let spawned = std::thread::Builder::new()
        .name("talon-profile-capture".into())
        .spawn(move || {
            let baseline = profiler.folded();
            let deadline = Instant::now() + Duration::from_secs(seconds);
            while Instant::now() < deadline && !stop.load(Ordering::Acquire) {
                std::thread::sleep(READ_POLL.min(deadline - Instant::now()));
            }
            let body = crate::prof::folded_to_text(&profiler.folded_since(&baseline));
            let _ = write_response(&mut stream, "200 OK", "text/plain; version=0.0.4", &body);
            slots.fetch_sub(1, Ordering::AcqRel);
        });
    if spawned.is_err() {
        captures.fetch_sub(1, Ordering::AcqRel);
    }
    spawned.map(|_| ())
}

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Reads the request head (through the blank line ending the headers) and
/// returns the first line. Draining the whole head matters: closing the
/// socket with unread bytes pending makes the kernel send RST instead of
/// FIN, which resets the client before it reads the response.
///
/// The loop re-checks the connection deadline and the server stop flag at
/// [`READ_POLL`] granularity, so a client that stalls mid-request is cut
/// off at the deadline (it gets an RST, which it earned) and shutdown
/// never waits on a straggler.
fn read_request_line(
    stream: &mut TcpStream,
    deadline: Instant,
    stop: &AtomicBool,
) -> std::io::Result<String> {
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while head.len() < 8192 && !head.ends_with(b"\r\n\r\n") && !head.ends_with(b"\n\n") {
        if stop.load(Ordering::Acquire) || Instant::now() >= deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request head not received within the connection deadline",
            ));
        }
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => head.push(byte[0]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Read-timeout tick: loop to re-check deadline and stop.
            }
            Err(e) => return Err(e),
        }
    }
    let first = head.split(|&b| b == b'\n').next().unwrap_or(&[]);
    Ok(String::from_utf8_lossy(first)
        .trim_end_matches('\r')
        .to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::{Predicate, Rule, Severity};
    use crate::timeseries::SamplerConfig;
    use serde::Value;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    fn body_of(response: &str) -> &str {
        response.split_once("\r\n\r\n").expect("head/body split").1
    }

    #[test]
    fn serves_prometheus_text_on_metrics_path() {
        crate::counter("serve.test.requests").add(7);
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let response = get(server.local_addr(), "/metrics");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("text/plain"), "{response}");
        assert!(
            response.contains("talon_serve_test_requests_total 7"),
            "{response}"
        );
        // Build-info and uptime ride along on every scrape.
        assert!(response.contains("talon_build_info{version="), "{response}");
        assert!(
            response.contains("talon_process_uptime_seconds"),
            "{response}"
        );
    }

    #[test]
    fn monitorless_server_refuses_health_and_404s_live_routes() {
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        assert!(
            get(addr, "/healthz").starts_with("HTTP/1.1 503"),
            "nothing is watching"
        );
        assert!(get(addr, "/alerts").starts_with("HTTP/1.1 404"));
        assert!(get(addr, "/timeseries").starts_with("HTTP/1.1 404"));
        assert!(get(addr, "/links").starts_with("HTTP/1.1 404"));
        assert!(get(addr, "/flight").starts_with("HTTP/1.1 404"));
        assert!(get(addr, "/profile").starts_with("HTTP/1.1 404"));
        // Readiness is split from health: the endpoint is up and serving,
        // so /readyz is 200 even while /healthz refuses to vouch.
        let response = get(addr, "/readyz");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert_eq!(body_of(&response), "ready\n");
    }

    #[test]
    fn profile_endpoint_serves_cumulative_and_windowed_captures() {
        let _guard = crate::testing::lock();
        let monitor = Arc::new(LiveMonitor::with_defaults());
        let profiler = Arc::new(crate::prof::Profiler::start(Duration::from_secs(3600)));
        monitor.attach_profiler(Arc::clone(&profiler));
        let server =
            MetricsServer::start_with_monitor("127.0.0.1:0", Arc::clone(&monitor)).expect("bind");
        let addr = server.local_addr();

        // Hold a span open and take one manual sample so the tally has a
        // stack regardless of timer scheduling.
        let _outer = crate::span("serve.profile.outer");
        let inner = crate::span("serve.profile.inner");
        profiler.sample_now();
        drop(inner);

        let response = get(addr, "/profile");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(
            body_of(&response).contains("serve.profile.outer;serve.profile.inner 1"),
            "{response}"
        );

        // A windowed capture reports only samples taken inside the window:
        // the pre-existing stack is the baseline, so the body is empty.
        let start = Instant::now();
        let response = get(addr, "/profile?seconds=1");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(
            start.elapsed() >= Duration::from_millis(900),
            "window waited out"
        );
        assert_eq!(body_of(&response), "", "no samples during the window");
    }

    #[test]
    fn windowed_profile_capture_does_not_block_other_routes() {
        let _guard = crate::testing::lock();
        let monitor = Arc::new(LiveMonitor::with_defaults());
        monitor.attach_profiler(Arc::new(crate::prof::Profiler::start(Duration::from_secs(
            3600,
        ))));
        let server =
            MetricsServer::start_with_monitor("127.0.0.1:0", Arc::clone(&monitor)).expect("bind");
        let addr = server.local_addr();
        // Start a 5 s capture on a background client, then prove the
        // single-threaded loop still answers instantly.
        let capture = std::thread::spawn(move || get(addr, "/profile?seconds=5"));
        std::thread::sleep(Duration::from_millis(200));
        let start = Instant::now();
        let response = get(addr, "/readyz");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "/readyz waited {:?} behind a profile capture",
            start.elapsed()
        );
        // Dropping the server cuts the capture short (stop flag polled in
        // the capture wait), so shutdown stays prompt too.
        let start = Instant::now();
        drop(server);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "drop waited {:?} on a profile capture",
            start.elapsed()
        );
        let response = capture.join().expect("capture client");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    }

    #[test]
    fn live_routes_answer_from_the_attached_monitor() {
        let rule = Rule {
            name: "serve_test_high".into(),
            severity: Severity::Page,
            predicate: Predicate::ValueAbove {
                metric: "serve.test.live_gauge".into(),
                threshold: 10.0,
            },
            for_ticks: 1,
            clear_below: 2.0,
            clear_for_ticks: 1,
        };
        let monitor = Arc::new(LiveMonitor::new(SamplerConfig::default(), vec![rule]));
        let server =
            MetricsServer::start_with_monitor("127.0.0.1:0", Arc::clone(&monitor)).expect("bind");
        let addr = server.local_addr();

        // Healthy before the gauge spikes.
        let mut snap = crate::registry::Snapshot::default();
        snap.gauges.insert("serve.test.live_gauge".to_string(), 1);
        monitor.tick_with(&snap);
        let response = get(addr, "/healthz");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(body_of(&response).starts_with("ok"), "{response}");

        // Spike → page alert → 503 with the rule named.
        snap.gauges.insert("serve.test.live_gauge".to_string(), 99);
        monitor.tick_with(&snap);
        let response = get(addr, "/healthz");
        assert!(response.starts_with("HTTP/1.1 503"), "{response}");
        assert!(body_of(&response).contains("serve_test_high"), "{response}");

        // /alerts is parseable JSON naming the firing rule.
        let response = get(addr, "/alerts");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("application/json"), "{response}");
        let alerts = Value::from_json(body_of(&response)).expect("alerts JSON");
        assert_eq!(alerts.get("firing_page").and_then(Value::as_u64), Some(1));

        // /timeseries overview and the per-metric query.
        let response = get(addr, "/timeseries?window=5");
        let overview = Value::from_json(body_of(&response)).expect("overview JSON");
        assert_eq!(overview.get("window").and_then(Value::as_u64), Some(5));
        let response = get(addr, "/timeseries?metric=serve.test.live_gauge&window=5");
        let series = Value::from_json(body_of(&response)).expect("series JSON");
        assert_eq!(series.get("kind").and_then(Value::as_str), Some("gauge"));
        let response = get(addr, "/timeseries?metric=no.such.metric");
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");

        // /links rolls up link-labeled series; /flight 404s until a
        // recorder is attached, then reports its status.
        snap.gauges
            .insert("quality.snr_loss_mdb{link=\"4\"}".to_string(), 1234);
        monitor.tick_with(&snap);
        let response = get(addr, "/links?window=5&k=2");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        let links = Value::from_json(body_of(&response)).expect("links JSON");
        assert_eq!(links.get("count").and_then(Value::as_u64), Some(1));
        let rows = links.get("links").and_then(Value::as_seq).expect("rows");
        assert_eq!(rows[0].get("link").and_then(Value::as_str), Some("4"));
        assert!(get(addr, "/flight").starts_with("HTTP/1.1 404"));
        monitor.attach_flight(Arc::new(crate::flight::FlightRecorder::with_defaults()));
        let response = get(addr, "/flight");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        let status = Value::from_json(body_of(&response)).expect("flight JSON");
        assert_eq!(status.get("dumps").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn slow_client_cannot_stall_other_scrapes_or_shutdown() {
        crate::counter("serve.test.slow").add(1);
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        // A slow-loris: opens a connection, sends a partial request head,
        // and never finishes it. The old per-read timeout reset on every
        // byte, so this held the single serving thread indefinitely.
        let mut loris = TcpStream::connect(addr).expect("connect");
        write!(loris, "GET /metrics HTTP/1.1\r\n").unwrap();
        let start = Instant::now();
        let response = get(addr, "/metrics");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(
            start.elapsed() < CONNECTION_DEADLINE + Duration::from_secs(2),
            "healthy scrape waited {:?} behind a stalled client",
            start.elapsed()
        );
        // The newer routes ride the same single-thread loop, so they must
        // also answer promptly behind the stalled client (404 here — no
        // monitor attached — but a prompt 404, not a stall).
        for path in ["/links", "/flight", "/profile", "/profile?seconds=3"] {
            let start = Instant::now();
            let response = get(addr, path);
            assert!(response.starts_with("HTTP/1.1 404"), "{response}");
            assert!(
                start.elapsed() < CONNECTION_DEADLINE + Duration::from_secs(2),
                "{path} waited {:?} behind a stalled client",
                start.elapsed()
            );
        }
        // Readiness keeps answering 200 behind the stalled client.
        let start = Instant::now();
        let response = get(addr, "/readyz");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(
            start.elapsed() < CONNECTION_DEADLINE + Duration::from_secs(2),
            "/readyz waited {:?} behind a stalled client",
            start.elapsed()
        );
        // And shutdown must not wait out a second straggler's deadline:
        // the stop flag is polled inside the read loop.
        let mut loris2 = TcpStream::connect(addr).expect("connect");
        write!(loris2, "GET /").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        drop(server);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "drop waited {:?} on a stalled client",
            start.elapsed()
        );
    }

    #[test]
    fn unknown_paths_get_404_and_server_stops_on_drop() {
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let response = get(addr, "/nope");
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");
        drop(server);
        // The port may linger in TIME_WAIT; what matters is the accept
        // thread exited, which Drop joins on — reaching here is the test.
    }
}
