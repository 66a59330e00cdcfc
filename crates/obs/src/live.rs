//! The live-monitoring bundle: one sampler + one alert engine behind a
//! lock, tickable from anywhere, queryable from the metrics endpoint.
//!
//! [`LiveMonitor`] is what `talon serve` (and eventually `talond`) holds:
//! each [`LiveMonitor::tick`] snapshots the global registry, appends it to
//! the [`Sampler`] rings, and runs the [`AlertEngine`] — one lock
//! acquisition, no clock reads, so a test (or a deterministic injection
//! run) that calls `tick()` in a loop gets the exact transition sequence a
//! production timer loop would produce. [`LiveMonitor::start_ticker`]
//! spawns the production timer thread; drop the handle to stop it.
//!
//! The JSON renderers here back the `/healthz`, `/alerts`,
//! `/timeseries`, `/links` and `/flight` endpoints on
//! [`crate::MetricsServer`] and the `talon top` dashboard. `/healthz` is
//! the operational contract: **503 while any page-severity alert fires**,
//! 200 otherwise, with the firing rule names in the body either way.
//!
//! Two optional attachments make the monitor fleet-aware:
//!
//! * [`LiveMonitor::attach_shards`] — a [`crate::ShardedRegistry`] whose
//!   merged (label-qualified) snapshot is overlaid on the global registry
//!   every [`LiveMonitor::tick`], so per-link series flow into the sampler
//!   and per-link template alert rules see them;
//! * [`LiveMonitor::attach_flight`] — a [`crate::FlightRecorder`] dumped
//!   automatically on every transition *into* firing, capturing the trace
//!   history leading up to the incident.

use crate::alert::{default_rules, AlertEngine, Rule, Severity, Transition};
use crate::flight::FlightRecorder;
use crate::labels;
use crate::prof::Profiler;
use crate::registry::ShardedRegistry;
use crate::sync::TimedMutex;
use crate::timeseries::{Sampler, SamplerConfig};
use parking_lot::Mutex;
use serde::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Points of history included per metric in the `/timeseries` overview
/// (sparkline feed; the per-metric query returns up to the full ring).
const OVERVIEW_POINTS: u64 = 30;

/// Links listed in the overview's worst-links rollup.
const OVERVIEW_WORST_LINKS: usize = 3;

struct Inner {
    sampler: Sampler,
    engine: AlertEngine,
}

/// Sampler + alert engine behind one lock. See the module docs.
///
/// The state lock is a [`TimedMutex`] (`lock="live_monitor"`), so tick vs.
/// scrape contention shows up on `/metrics` like any other series.
pub struct LiveMonitor {
    inner: TimedMutex<Inner>,
    shards: Mutex<Option<Arc<ShardedRegistry>>>,
    flight: Mutex<Option<Arc<FlightRecorder>>>,
    profiler: Mutex<Option<Arc<Profiler>>>,
}

impl LiveMonitor {
    /// A monitor with explicit sampler tuning and rule set.
    pub fn new(config: SamplerConfig, rules: Vec<Rule>) -> Self {
        LiveMonitor {
            inner: TimedMutex::new(
                "live_monitor",
                Inner {
                    sampler: Sampler::new(config),
                    engine: AlertEngine::new(rules),
                },
            ),
            shards: Mutex::new(None),
            flight: Mutex::new(None),
            profiler: Mutex::new(None),
        }
    }

    /// A monitor with the default sampler tuning and the compiled-in
    /// default rule set ([`default_rules`]).
    pub fn with_defaults() -> Self {
        LiveMonitor::new(SamplerConfig::default(), default_rules())
    }

    /// Attaches a sharded registry: every [`LiveMonitor::tick`] overlays
    /// its merged label-qualified snapshot on the global one.
    pub fn attach_shards(&self, shards: Arc<ShardedRegistry>) {
        *self.shards.lock() = Some(shards);
    }

    /// Attaches a flight recorder, dumped (reason = rule instance name) on
    /// every alert transition into the firing state.
    pub fn attach_flight(&self, flight: Arc<FlightRecorder>) {
        *self.flight.lock() = Some(flight);
    }

    /// The attached flight recorder, if any.
    pub fn flight(&self) -> Option<Arc<FlightRecorder>> {
        self.flight.lock().clone()
    }

    /// Attaches a running [`Profiler`], exposing cumulative and windowed
    /// folded-stack captures through the `/profile` endpoint.
    pub fn attach_profiler(&self, profiler: Arc<Profiler>) {
        *self.profiler.lock() = Some(profiler);
    }

    /// The attached profiler, if any.
    pub fn profiler(&self) -> Option<Arc<Profiler>> {
        self.profiler.lock().clone()
    }

    /// The global registry's snapshot overlaid with the attached shards'
    /// merged (label-qualified) snapshot, if any — what [`LiveMonitor::tick`]
    /// samples and what `/metrics` exposes when a monitor is attached.
    pub fn merged_snapshot(&self) -> crate::registry::Snapshot {
        let mut snapshot = crate::global().snapshot();
        let shards = self.shards.lock().clone();
        if let Some(shards) = shards {
            snapshot.merge(&shards.merged_snapshot());
        }
        snapshot
    }

    /// One tick: snapshot the global registry (overlaying the attached
    /// shards, if any), sample it, evaluate every rule. Returns the alert
    /// edges this tick produced.
    pub fn tick(&self) -> Vec<Transition> {
        self.tick_with(&self.merged_snapshot())
    }

    /// [`LiveMonitor::tick`] against a caller-provided snapshot
    /// (deterministic test / replay entry point).
    pub fn tick_with(&self, snapshot: &crate::registry::Snapshot) -> Vec<Transition> {
        let edges = {
            let mut inner = self.inner.lock();
            inner.sampler.sample(snapshot);
            let inner = &mut *inner;
            inner.engine.evaluate(&inner.sampler)
        };
        // Dump outside the monitor lock: a slow disk must not stall
        // scrapes or the next tick.
        if edges.iter().any(|e| e.to == "firing") {
            let flight = self.flight.lock().clone();
            if let Some(flight) = flight {
                for edge in edges.iter().filter(|e| e.to == "firing") {
                    let _ = flight.dump(&edge.rule);
                }
            }
        }
        edges
    }

    /// Ticks taken so far.
    pub fn ticks(&self) -> u64 {
        self.inner.lock().sampler.ticks()
    }

    /// The `/healthz` answer: `(healthy, body)`. Unhealthy means at least
    /// one page-severity alert is firing; the body names the firing rules
    /// (all severities) either way.
    pub fn healthz(&self) -> (bool, String) {
        let inner = self.inner.lock();
        let paging = inner.engine.firing_names(Some(Severity::Page));
        let firing = inner.engine.firing_names(None);
        let healthy = paging.is_empty();
        let mut body = String::from(if healthy { "ok" } else { "unhealthy" });
        if !firing.is_empty() {
            body.push_str("\nfiring: ");
            body.push_str(&firing.join(", "));
        }
        body.push('\n');
        (healthy, body)
    }

    /// The `/alerts` JSON: every rule's status plus the recent transition
    /// log, oldest first.
    pub fn alerts_json(&self) -> String {
        let inner = self.inner.lock();
        let alerts: Vec<Value> = inner
            .engine
            .statuses()
            .iter()
            .map(|s| s.to_value())
            .collect();
        let transitions: Vec<Value> = inner
            .engine
            .transitions()
            .iter()
            .map(|t| {
                Value::Map(vec![
                    ("rule".into(), Value::Str(t.rule.clone())),
                    ("tick".into(), Value::U64(t.tick)),
                    ("from".into(), Value::Str(t.from.clone())),
                    ("to".into(), Value::Str(t.to.clone())),
                    ("value".into(), Value::F64(t.value)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("tick".into(), Value::U64(inner.sampler.ticks())),
            (
                "firing".into(),
                Value::U64(inner.engine.firing_count(None) as u64),
            ),
            (
                "firing_page".into(),
                Value::U64(inner.engine.firing_count(Some(Severity::Page)) as u64),
            ),
            ("alerts".into(), Value::Seq(alerts)),
            ("transitions".into(), Value::Seq(transitions)),
        ])
        .to_json()
    }

    /// The `/timeseries` overview JSON: per-metric windowed signals
    /// (counter rates, gauge stats, histogram quantiles) plus short
    /// sparkline feeds, over the last `window` ticks.
    pub fn overview_json(&self, window: u64) -> String {
        let inner = self.inner.lock();
        let s = &inner.sampler;
        let spark = OVERVIEW_POINTS.min(window.max(2));
        let counters: Vec<Value> = s
            .counter_names()
            .iter()
            .map(|name| {
                Value::Map(vec![
                    ("name".into(), Value::Str((*name).into())),
                    (
                        "value".into(),
                        Value::U64(s.counter_value(name).unwrap_or(0)),
                    ),
                    (
                        "rate_per_s".into(),
                        s.counter_rate_per_sec(name, window)
                            .map_or(Value::Null, Value::F64),
                    ),
                    (
                        "deltas".into(),
                        Value::Seq(
                            s.counter_deltas(name, spark)
                                .into_iter()
                                .map(Value::F64)
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let gauges: Vec<Value> = s
            .gauge_names()
            .iter()
            .filter_map(|name| {
                let stats = s.gauge_stats(name, window)?;
                let points = s.points(name, spark).unwrap_or_default();
                Some(Value::Map(vec![
                    ("name".into(), Value::Str((*name).into())),
                    ("last".into(), Value::I64(stats.last)),
                    ("min".into(), Value::I64(stats.min)),
                    ("mean".into(), Value::F64(stats.mean)),
                    ("max".into(), Value::I64(stats.max)),
                    (
                        "points".into(),
                        Value::Seq(points.into_iter().map(|(_, v)| Value::F64(v)).collect()),
                    ),
                ]))
            })
            .collect();
        let histograms: Vec<Value> = s
            .histogram_names()
            .iter()
            .filter_map(|name| {
                let h = s.windowed_histogram(name, window)?;
                Some(Value::Map(vec![
                    ("name".into(), Value::Str((*name).into())),
                    ("count".into(), Value::U64(h.count)),
                    ("mean".into(), Value::F64(h.mean())),
                    ("p50".into(), Value::U64(h.p50())),
                    ("p95".into(), Value::U64(h.p95())),
                    ("p99".into(), Value::U64(h.p99())),
                ]))
            })
            .collect();
        let worst: Vec<Value> = link_rows(s, &inner.engine, window)
            .into_iter()
            .take(OVERVIEW_WORST_LINKS)
            .map(|row| {
                Value::Map(vec![
                    ("link".into(), Value::Str(row.link)),
                    (
                        "snr_loss_mdb".into(),
                        row.snr_loss_mdb.map_or(Value::Null, Value::I64),
                    ),
                    ("firing".into(), Value::U64(row.firing.len() as u64)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("tick".into(), Value::U64(s.ticks())),
            ("tick_ms".into(), Value::U64(s.config().tick_ms)),
            ("window".into(), Value::U64(window)),
            ("counters".into(), Value::Seq(counters)),
            ("gauges".into(), Value::Seq(gauges)),
            ("histograms".into(), Value::Seq(histograms)),
            ("worst_links".into(), Value::Seq(worst)),
        ])
        .to_json()
    }

    /// The `/links` JSON: one row per `link`-labeled series group, sorted
    /// worst first (highest SNR loss, then most drift epochs). `k` caps the
    /// rows emitted; `count` always reports the full fleet size.
    pub fn links_json(&self, window: u64, k: usize) -> String {
        let inner = self.inner.lock();
        let s = &inner.sampler;
        let rows = link_rows(s, &inner.engine, window);
        let count = rows.len();
        let links: Vec<Value> = rows
            .into_iter()
            .take(k.max(1))
            .map(|row| {
                Value::Map(vec![
                    ("link".into(), Value::Str(row.link)),
                    (
                        "snr_loss_mdb".into(),
                        row.snr_loss_mdb.map_or(Value::Null, Value::I64),
                    ),
                    (
                        "misselection_ppm".into(),
                        row.misselection_ppm.map_or(Value::Null, Value::I64),
                    ),
                    ("drift_total".into(), Value::U64(row.drift_total)),
                    (
                        "drift_rate_per_tick".into(),
                        row.drift_rate.map_or(Value::Null, Value::F64),
                    ),
                    (
                        "firing".into(),
                        Value::Seq(row.firing.into_iter().map(Value::Str).collect()),
                    ),
                ])
            })
            .collect();
        Value::Map(vec![
            ("tick".into(), Value::U64(s.ticks())),
            ("window".into(), Value::U64(window)),
            ("count".into(), Value::U64(count as u64)),
            ("links".into(), Value::Seq(links)),
        ])
        .to_json()
    }

    /// The `/flight` JSON: ring/dump status of the attached flight
    /// recorder, or `None` when no recorder is attached.
    pub fn flight_status_json(&self) -> Option<String> {
        self.flight.lock().as_ref().map(|f| f.status_json())
    }

    /// The per-metric `/timeseries?metric=` JSON: raw ring points over the
    /// last `window` ticks plus the windowed derivation for the metric's
    /// kind. `None` for a metric the sampler has never seen.
    pub fn series_json(&self, metric: &str, window: u64) -> Option<String> {
        let inner = self.inner.lock();
        let s = &inner.sampler;
        let kind = s.kind_of(metric)?;
        let points = s.points(metric, window.max(1))?;
        let mut map = vec![
            ("metric".into(), Value::Str(metric.into())),
            ("kind".into(), Value::Str(kind.into())),
            ("tick".into(), Value::U64(s.ticks())),
            ("tick_ms".into(), Value::U64(s.config().tick_ms)),
            ("window".into(), Value::U64(window)),
            (
                "points".into(),
                Value::Seq(
                    points
                        .into_iter()
                        .map(|(t, v)| {
                            Value::Map(vec![
                                ("t".into(), Value::U64(t)),
                                ("v".into(), Value::F64(v)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        match kind {
            "counter" => {
                map.push((
                    "rate_per_s".into(),
                    s.counter_rate_per_sec(metric, window)
                        .map_or(Value::Null, Value::F64),
                ));
            }
            "gauge" => {
                if let Some(stats) = s.gauge_stats(metric, window) {
                    map.push(("min".into(), Value::I64(stats.min)));
                    map.push(("mean".into(), Value::F64(stats.mean)));
                    map.push(("max".into(), Value::I64(stats.max)));
                }
            }
            _ => {
                if let Some(h) = s.windowed_histogram(metric, window) {
                    map.push(("count".into(), Value::U64(h.count)));
                    map.push(("p50".into(), Value::U64(h.p50())));
                    map.push(("p95".into(), Value::U64(h.p95())));
                    map.push(("p99".into(), Value::U64(h.p99())));
                }
            }
        }
        Some(Value::Map(map).to_json())
    }

    /// Spawns a timer thread calling [`LiveMonitor::tick`] every `period`
    /// until the returned handle is dropped.
    pub fn start_ticker(self: &Arc<Self>, period: Duration) -> Ticker {
        let monitor = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("talon-sampler".into())
            .spawn(move || {
                // Poll the stop flag at a finer grain than the tick so
                // drop never waits out a long period.
                let poll = period.min(Duration::from_millis(50));
                let mut elapsed = Duration::ZERO;
                while !stop_flag.load(Ordering::Acquire) {
                    std::thread::sleep(poll);
                    elapsed += poll;
                    if elapsed >= period {
                        elapsed = Duration::ZERO;
                        monitor.tick();
                    }
                }
            })
            .expect("spawn sampler thread");
        Ticker {
            stop,
            thread: Some(thread),
        }
    }
}

/// One per-link rollup row; see [`LiveMonitor::links_json`].
struct LinkRow {
    link: String,
    snr_loss_mdb: Option<i64>,
    misselection_ppm: Option<i64>,
    drift_total: u64,
    drift_rate: Option<f64>,
    firing: Vec<String>,
}

/// Scans the sampler for every series carrying a `link` label and folds
/// the well-known quality/health series into per-link rows, sorted worst
/// first: highest SNR loss, then most drift epochs, then link id.
fn link_rows(s: &Sampler, engine: &AlertEngine, window: u64) -> Vec<LinkRow> {
    let mut rows: std::collections::BTreeMap<String, LinkRow> = std::collections::BTreeMap::new();
    let row = |rows: &mut std::collections::BTreeMap<String, LinkRow>, id: &str| {
        rows.entry(id.to_string()).or_insert_with(|| LinkRow {
            link: id.to_string(),
            snr_loss_mdb: None,
            misselection_ppm: None,
            drift_total: 0,
            drift_rate: None,
            firing: Vec::new(),
        });
    };
    for name in s.gauge_names() {
        let Some(id) = labels::label_value(name, "link") else {
            continue;
        };
        row(&mut rows, id);
        let entry = rows.get_mut(id).expect("row just inserted");
        match labels::split_name(name).0 {
            "quality.snr_loss_mdb" => entry.snr_loss_mdb = s.gauge_value(name),
            "quality.misselection_ppm" => entry.misselection_ppm = s.gauge_value(name),
            _ => {}
        }
    }
    for name in s.counter_names() {
        let Some(id) = labels::label_value(name, "link") else {
            continue;
        };
        row(&mut rows, id);
        let entry = rows.get_mut(id).expect("row just inserted");
        if labels::split_name(name).0 == "health.link_drift" {
            entry.drift_total = s.counter_value(name).unwrap_or(0);
            entry.drift_rate = s.counter_rate(name, window);
        }
    }
    for name in engine.firing_names(None) {
        if let Some(id) = labels::label_value(&name, "link") {
            if let Some(entry) = rows.get_mut(id) {
                entry.firing.push(name.clone());
            }
        }
    }
    let mut out: Vec<LinkRow> = rows.into_values().collect();
    out.sort_by(|a, b| {
        b.snr_loss_mdb
            .unwrap_or(i64::MIN)
            .cmp(&a.snr_loss_mdb.unwrap_or(i64::MIN))
            .then(b.drift_total.cmp(&a.drift_total))
            .then(a.link.cmp(&b.link))
    });
    out
}

impl std::fmt::Debug for LiveMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveMonitor")
            .field("ticks", &self.ticks())
            .finish()
    }
}

/// Handle to a running sampler timer thread; stops it on drop.
#[derive(Debug)]
pub struct Ticker {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for Ticker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::{Predicate, Rule, Severity};
    use crate::registry::Snapshot;

    fn gauge_rule(metric: &str) -> Rule {
        Rule {
            name: "g_high".into(),
            severity: Severity::Page,
            predicate: Predicate::ValueAbove {
                metric: metric.into(),
                threshold: 10.0,
            },
            for_ticks: 2,
            clear_below: 5.0,
            clear_for_ticks: 2,
        }
    }

    fn snap(v: i64) -> Snapshot {
        let mut s = Snapshot::default();
        s.gauges.insert("live.test.g".to_string(), v);
        s.counters
            .insert("live.test.c".to_string(), v.max(0) as u64);
        s
    }

    #[test]
    fn healthz_flips_with_the_page_alert() {
        let _guard = crate::testing::lock();
        let m = LiveMonitor::new(SamplerConfig::default(), vec![gauge_rule("live.test.g")]);
        assert!(m.healthz().0, "healthy before any tick");
        m.tick_with(&snap(20));
        assert!(m.healthz().0, "pending is not unhealthy");
        m.tick_with(&snap(20));
        let (healthy, body) = m.healthz();
        assert!(!healthy);
        assert!(body.contains("firing: g_high"), "{body}");
        // Hysteresis: two ticks at/below the clear bar resolve.
        m.tick_with(&snap(1));
        m.tick_with(&snap(1));
        let (healthy, body) = m.healthz();
        assert!(healthy, "{body}");
        assert_eq!(body, "ok\n");
    }

    #[test]
    fn json_payloads_parse_and_carry_the_series() {
        let _guard = crate::testing::lock();
        let m = LiveMonitor::new(SamplerConfig::default(), vec![gauge_rule("live.test.g")]);
        for v in [1, 2, 20, 20, 20] {
            m.tick_with(&snap(v));
        }
        let alerts = Value::from_json(&m.alerts_json()).expect("alerts JSON parses");
        assert_eq!(alerts.get("firing_page").and_then(Value::as_u64), Some(1));
        let rows = alerts.get("alerts").and_then(Value::as_seq).expect("rows");
        assert_eq!(rows[0].get("state").and_then(Value::as_str), Some("firing"));
        assert!(!alerts
            .get("transitions")
            .and_then(Value::as_seq)
            .expect("log")
            .is_empty());

        let overview = Value::from_json(&m.overview_json(10)).expect("overview parses");
        let counters = overview
            .get("counters")
            .and_then(Value::as_seq)
            .expect("counters");
        let c = counters
            .iter()
            .find(|c| c.get("name").and_then(Value::as_str) == Some("live.test.c"))
            .expect("sampled counter listed");
        assert!(c.get("rate_per_s").and_then(Value::as_f64).is_some());

        let series = Value::from_json(&m.series_json("live.test.g", 10).expect("known metric"))
            .expect("series parses");
        assert_eq!(series.get("kind").and_then(Value::as_str), Some("gauge"));
        assert_eq!(
            series
                .get("points")
                .and_then(Value::as_seq)
                .expect("points")
                .len(),
            5
        );
        assert!(m.series_json("no.such.metric", 10).is_none());
    }

    #[test]
    fn links_rollup_sorts_worst_first_and_flight_dumps_on_firing() {
        let _guard = crate::testing::lock();
        use crate::flight::{FlightConfig, FlightRecorder};
        let rule = Rule {
            name: "loss_per_link".into(),
            severity: Severity::Warn,
            predicate: Predicate::ValueAbove {
                metric: "quality.snr_loss_mdb{link=*}".into(),
                threshold: 1000.0,
            },
            for_ticks: 1,
            clear_below: 500.0,
            clear_for_ticks: 2,
        };
        let m = LiveMonitor::new(SamplerConfig::default(), vec![rule]);
        let dir = std::env::temp_dir().join(format!("talon-live-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create flight dir");
        let flight = Arc::new(FlightRecorder::new(FlightConfig {
            dir: dir.clone(),
            ..FlightConfig::default()
        }));
        flight.append(&crate::binfmt::TraceRecord::Snapshot(Snapshot::default()));
        m.attach_flight(Arc::clone(&flight));

        let mut snap = Snapshot::default();
        snap.gauges
            .insert("quality.snr_loss_mdb{link=\"1\"}".into(), 500);
        snap.gauges
            .insert("quality.snr_loss_mdb{link=\"2\"}".into(), 9000);
        snap.counters
            .insert("health.link_drift{link=\"2\"}".into(), 3);
        m.tick_with(&snap);
        m.tick_with(&snap);
        assert_eq!(flight.dumps(), 1, "firing edge triggered one dump");
        let dumped = std::fs::read_dir(&dir)
            .expect("list flight dir")
            .filter_map(|e| e.ok())
            .any(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with("flight-loss_per_link")
            });
        assert!(dumped, "dump file named after the rule instance");

        let links = Value::from_json(&m.links_json(10, 16)).expect("links JSON parses");
        assert_eq!(links.get("count").and_then(Value::as_u64), Some(2));
        let rows = links.get("links").and_then(Value::as_seq).expect("rows");
        assert_eq!(rows[0].get("link").and_then(Value::as_str), Some("2"));
        assert_eq!(
            rows[0].get("snr_loss_mdb").and_then(Value::as_i64),
            Some(9000)
        );
        assert_eq!(rows[0].get("drift_total").and_then(Value::as_u64), Some(3));
        let firing = rows[0]
            .get("firing")
            .and_then(Value::as_seq)
            .expect("firing");
        assert_eq!(firing.len(), 1);
        assert!(firing[0].as_str().expect("name").contains("link=\"2\""));
        assert_eq!(rows[1].get("link").and_then(Value::as_str), Some("1"));
        assert!(rows[1]
            .get("firing")
            .and_then(Value::as_seq)
            .expect("firing")
            .is_empty());

        let overview = Value::from_json(&m.overview_json(10)).expect("overview parses");
        let worst = overview
            .get("worst_links")
            .and_then(Value::as_seq)
            .expect("worst_links");
        assert_eq!(worst[0].get("link").and_then(Value::as_str), Some("2"));
        assert_eq!(worst[0].get("firing").and_then(Value::as_u64), Some(1));

        let status =
            Value::from_json(&m.flight_status_json().expect("recorder attached")).expect("parses");
        assert_eq!(status.get("dumps").and_then(Value::as_u64), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ticker_ticks_and_stops_on_drop() {
        let _guard = crate::testing::lock();
        let m = Arc::new(LiveMonitor::with_defaults());
        let ticker = m.start_ticker(Duration::from_millis(10));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while m.ticks() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(m.ticks() > 0, "ticker produced at least one tick");
        drop(ticker);
        let after = m.ticks();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(m.ticks(), after, "no ticks after drop");
    }
}
