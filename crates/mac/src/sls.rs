//! The Sector Level Sweep (SLS) beamforming protocol.
//!
//! Two stations mutually train their transmit sectors (Fig. 2 of the
//! paper): the initiator sweeps probe frames (ISS), the responder measures
//! them, sweeps back (RSS) while echoing its choice of initiator sector in
//! the SSW feedback field, the initiator answers with an SSW-Feedback frame
//! carrying its choice of responder sector, and the responder closes with
//! an SSW-ACK.
//!
//! The *selection* step is pluggable through [`FeedbackPolicy`]. The stock
//! firmware behaviour is [`MaxSnrPolicy`] (Eq. 1: pick the sector with the
//! strongest reported SNR, probing everything). The paper's compressive
//! selection plugs in at exactly this point — in the real system via the
//! Nexmon firmware hooks modelled in the `wil6210` crate.
//!
//! Nothing moves while an [`SlsRunner`] exists: it borrows both devices
//! and the link for its whole life. So the first [`SlsRunner::run`] takes
//! the two probe plans (ISS: initiator → responder, RSS: responder →
//! initiator) from [`Link::plan`] and builds both codebook sweep orders,
//! and every later run on the same runner reuses them, including each
//! plan's memo of the sectors already priced (see
//! [`talon_channel::ProbePlan`]). The link remembers the plans of its
//! last few geometries, so a new runner at an unchanged geometry (one
//! runner per decision, as in a closed loop) shares the plans and prices
//! of the runners before it; moving a device makes its next runner plan
//! afresh. The RNG draws and the arithmetic are the same either way, so K
//! runs on one runner give the same bits as K fresh runners on a
//! memo-less link sharing one RNG.

use crate::addr::MacAddr;
use crate::fields::{encode_snr, SswFeedbackField, SswField, SweepDirection};
use crate::frames::{Frame, SswAckFrame, SswFeedbackFrame, SswFrame};
use crate::schedule::BurstSchedule;
use crate::timing::{SimDuration, SimTime, SLS_OVERHEAD, SSW_FRAME_TIME};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;
use talon_array::SectorId;
use talon_channel::{Device, Link, ProbePlan, SweepReading};

/// Chooses sectors from sweep measurements and decides what to probe.
///
/// One policy instance belongs to one station. `select` corresponds to the
/// "Select Best Sector" box of Fig. 2; `probe_sectors` determines the
/// station's own transmit sweep (the stock firmware probes everything; the
/// compressive selection probes a random subset).
pub trait FeedbackPolicy {
    /// Which sectors to transmit during this station's sweep, given the
    /// codebook's full sweep order.
    fn probe_sectors(&mut self, full_sweep: &[SectorId]) -> Vec<SectorId>;

    /// Which sector to feed back to the peer, given the readings collected
    /// while the peer swept. `None` if nothing usable was received.
    fn select(&mut self, readings: &[SweepReading]) -> Option<SectorId>;
}

/// The stock sector sweep behaviour: probe all sectors, pick the highest
/// reported SNR (Eq. 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxSnrPolicy;

impl FeedbackPolicy for MaxSnrPolicy {
    fn probe_sectors(&mut self, full_sweep: &[SectorId]) -> Vec<SectorId> {
        full_sweep.to_vec()
    }

    /// A non-finite SNR (trace input is not range-checked) counts as a
    /// missing report.
    fn select(&mut self, readings: &[SweepReading]) -> Option<SectorId> {
        readings
            .iter()
            .filter_map(|r| r.measurement.map(|m| (r.sector, m.snr_db)))
            .filter(|(_, snr)| snr.is_finite())
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite SNRs compare"))
            .map(|(s, _)| s)
    }
}

/// Configuration of one SLS run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlsConfig {
    /// MAC address of the initiator.
    pub initiator_addr: MacAddr,
    /// MAC address of the responder.
    pub responder_addr: MacAddr,
}

impl Default for SlsConfig {
    fn default() -> Self {
        SlsConfig {
            initiator_addr: MacAddr::device(1),
            responder_addr: MacAddr::device(2),
        }
    }
}

/// Everything one SLS run produced.
#[derive(Debug, Clone)]
pub struct SlsOutcome {
    /// Sector the responder selected for the *initiator's* transmissions
    /// (fed back in the RSS frames' feedback field).
    pub initiator_tx_sector: Option<SectorId>,
    /// Sector the initiator selected for the *responder's* transmissions
    /// (carried in the SSW-Feedback frame).
    pub responder_tx_sector: Option<SectorId>,
    /// Readings the responder collected during the ISS.
    pub iss_readings: Vec<SweepReading>,
    /// Readings the initiator collected during the RSS.
    pub rss_readings: Vec<SweepReading>,
    /// All frames put on the air, with their transmit times.
    pub frames: Vec<(SimTime, Frame)>,
    /// Total duration of the training.
    pub duration: SimDuration,
}

/// Drives one or more SLS trainings between two devices over a link.
///
/// The devices and the link are fixed for the runner's life, so its plans
/// and sweep orders are taken once, by the first [`SlsRunner::run`] (see
/// the module docs).
pub struct SlsRunner<'a> {
    /// The propagation link (initiator → responder direction; the model is
    /// symmetric, so the same link serves both sweep halves).
    link: &'a Link,
    /// The initiating device.
    initiator: &'a Device,
    /// The responding device.
    responder: &'a Device,
    /// Addressing.
    pub config: SlsConfig,
    /// The per-geometry work, taken by the first run.
    geometry: OnceCell<Geometry<'a>>,
    /// Metric handles, resolved once.
    runs: std::sync::Arc<obs::Counter>,
    ssw_frames: std::sync::Arc<obs::Counter>,
}

/// What every run of one runner shares: both probe plans (handles on the
/// link's remembered geometries) and both codebook sweep orders.
struct Geometry<'a> {
    /// Initiator → responder: the ISS probes.
    iss_plan: ProbePlan<'a>,
    /// Responder → initiator: the RSS probes.
    rss_plan: ProbePlan<'a>,
    /// The initiator's full sweep order, handed to its policy.
    initiator_sweep: Vec<SectorId>,
    /// The responder's full sweep order, handed to its policy.
    responder_sweep: Vec<SectorId>,
}

impl<'a> SlsRunner<'a> {
    /// Creates a runner with default addressing. Builds no plan: the
    /// first [`Self::run`] does.
    pub fn new(link: &'a Link, initiator: &'a Device, responder: &'a Device) -> Self {
        SlsRunner {
            link,
            initiator,
            responder,
            config: SlsConfig::default(),
            geometry: OnceCell::new(),
            runs: obs::counter("sls.runs"),
            ssw_frames: obs::counter("sls.ssw_frames"),
        }
    }

    /// The plans and sweep orders, built on the first call.
    fn geometry(&self) -> &Geometry<'a> {
        self.geometry.get_or_init(|| Geometry {
            iss_plan: self.link.plan(self.initiator, self.responder),
            rss_plan: self.link.plan(self.responder, self.initiator),
            initiator_sweep: self.initiator.codebook.sweep_order(),
            responder_sweep: self.responder.codebook.sweep_order(),
        })
    }

    /// Runs one mutual training.
    ///
    /// `initiator_policy` selects the responder's sector and decides the
    /// initiator's probes; `responder_policy` the converse.
    pub fn run<R, PI, PR>(
        &self,
        rng: &mut R,
        initiator_policy: &mut PI,
        responder_policy: &mut PR,
    ) -> SlsOutcome
    where
        R: Rng,
        PI: FeedbackPolicy + ?Sized,
        PR: FeedbackPolicy + ?Sized,
    {
        let mut span = obs::sink_active().then(|| obs::span!("sls.run"));
        self.runs.inc();
        let geometry = self.geometry();
        let mut now = SimTime::ZERO;

        // --- Initiator Sector Sweep (ISS) -------------------------------
        let iss_sectors = initiator_policy.probe_sectors(&geometry.initiator_sweep);
        let iss_schedule = BurstSchedule::custom_sweep(&iss_sectors);
        // The responder's subset is drawn only after the ISS, so the
        // transcript is sized for its full sweep: ISS + RSS + feedback +
        // ack in one allocation.
        let mut frames = Vec::with_capacity(iss_sectors.len() + geometry.responder_sweep.len() + 2);
        let mut iss_readings = Vec::with_capacity(iss_sectors.len());
        for (cdown, sector) in iss_schedule.transmissions() {
            let frame = Frame::Ssw(SswFrame {
                ra: self.config.responder_addr,
                ta: self.config.initiator_addr,
                ssw: SswField {
                    direction: SweepDirection::Initiator,
                    cdown,
                    sector_id: sector,
                    dmg_antenna_id: 0,
                    rxss_length: 0,
                },
                // During the ISS the initiator has nothing to feed back yet.
                feedback: SswFeedbackField {
                    sector_select: SectorId(0),
                    dmg_antenna_select: 0,
                    snr_report: 0,
                    poll_required: false,
                },
            });
            frames.push((now, frame));
            now += SSW_FRAME_TIME;
            // The responder's firmware measures the received probe.
            iss_readings.push(SweepReading {
                sector,
                measurement: geometry.iss_plan.probe(rng, sector),
            });
        }

        report_missing_probes("iss", &iss_readings);

        // The responder picks the initiator's sector ("Select Best Sector"
        // box of Fig. 2 — or our patched override).
        let initiator_tx_sector = responder_policy.select(&iss_readings);
        emit_sweep_decision("sls.iss", &iss_readings, initiator_tx_sector);
        let fb_to_initiator = feedback_field(initiator_tx_sector, &iss_readings);

        // --- Responder Sector Sweep (RSS) --------------------------------
        let rss_sectors = responder_policy.probe_sectors(&geometry.responder_sweep);
        let rss_schedule = BurstSchedule::custom_sweep(&rss_sectors);
        let mut rss_readings = Vec::with_capacity(rss_sectors.len());
        for (cdown, sector) in rss_schedule.transmissions() {
            let frame = Frame::Ssw(SswFrame {
                ra: self.config.initiator_addr,
                ta: self.config.responder_addr,
                ssw: SswField {
                    direction: SweepDirection::Responder,
                    cdown,
                    sector_id: sector,
                    dmg_antenna_id: 0,
                    rxss_length: 0,
                },
                feedback: fb_to_initiator,
            });
            frames.push((now, frame));
            now += SSW_FRAME_TIME;
            rss_readings.push(SweepReading {
                sector,
                measurement: geometry.rss_plan.probe(rng, sector),
            });
        }

        report_missing_probes("rss", &rss_readings);

        // The initiator picks the responder's sector and sends feedback;
        // the responder acknowledges. We account for both plus the sweep
        // initialization with the measured 49.1 µs overhead (§4.1).
        let responder_tx_sector = initiator_policy.select(&rss_readings);
        emit_sweep_decision("sls.rss", &rss_readings, responder_tx_sector);
        let fb_to_responder = feedback_field(responder_tx_sector, &rss_readings);
        frames.push((
            now,
            Frame::SswFeedback(SswFeedbackFrame {
                ra: self.config.responder_addr,
                ta: self.config.initiator_addr,
                feedback: fb_to_responder,
            }),
        ));
        frames.push((
            now,
            Frame::SswAck(SswAckFrame {
                ra: self.config.initiator_addr,
                ta: self.config.responder_addr,
                feedback: fb_to_initiator,
            }),
        ));
        now += SLS_OVERHEAD;

        self.ssw_frames.add(frames.len() as u64);
        if let Some(span) = &mut span {
            span.field("iss_frames", iss_readings.len() as f64);
            span.field("rss_frames", rss_readings.len() as f64);
            span.field(
                "feedback_sector",
                initiator_tx_sector.map_or(-1.0, |s| f64::from(s.raw())),
            );
            span.field("sim_duration_us", now.since(SimTime::ZERO).as_ms() * 1000.0);
        }
        SlsOutcome {
            initiator_tx_sector,
            responder_tx_sector,
            iss_readings,
            rss_readings,
            frames,
            duration: now.since(SimTime::ZERO),
        }
    }
}

/// Emits the provenance record of one sweep-level selection: which sectors
/// were probed, what they measured, and what the policy fed back. These
/// records are pure provenance (`replayable = false`) — the kernel
/// intermediates belong to the CSS policy's own `css.select` record, which
/// follows under the same trace when the policy is compressive. Sink-gated:
/// without a sink, this is one atomic load.
fn emit_sweep_decision(source: &str, readings: &[SweepReading], chosen: Option<SectorId>) {
    if !obs::sink_active() {
        return;
    }
    let mut rec = obs::DecisionRecord::new(source);
    for r in readings {
        rec.push_probe(
            u64::from(r.sector.raw()),
            r.measurement.map(|m| (m.snr_db, m.rssi_dbm)),
        );
    }
    rec.chosen_sector = chosen.map_or(obs::decision::NO_SECTOR, |s| i64::from(s.raw()));
    obs::decision::emit(&mut rec);
}

/// Flags probes that went on the air but produced no measurement (below
/// sensitivity, blockage, or a deaf receiver) as link-health anomalies.
fn report_missing_probes(sweep: &str, readings: &[SweepReading]) {
    let missing = readings.iter().filter(|r| r.measurement.is_none()).count();
    if missing > 0 {
        obs::health::anomaly(
            "missing_probe",
            &[
                ("missing", missing as f64),
                ("swept", readings.len() as f64),
                ("rss", f64::from(u8::from(sweep == "rss"))),
            ],
        );
    }
}

/// Builds the feedback field for a selection, reporting the selected
/// sector's SNR when available.
fn feedback_field(selection: Option<SectorId>, readings: &[SweepReading]) -> SswFeedbackField {
    let measured = selection.and_then(|sel| {
        readings
            .iter()
            .find(|r| r.sector == sel)
            .and_then(|r| r.measurement)
    });
    if let Some(m) = measured {
        // The wire format saturates outside [-8.0, 55.75] dB (see
        // `encode_snr`); a clamp means the peer sees a lie about the link.
        if !(-8.0..=55.75).contains(&m.snr_db) {
            obs::health::anomaly(
                "snr_clamped",
                &[
                    ("snr_db", m.snr_db),
                    ("sector", selection.map_or(-1.0, |s| f64::from(s.raw()))),
                ],
            );
        }
    }
    let snr = measured.map(|m| m.snr_db).unwrap_or(-8.0);
    SswFeedbackField {
        sector_select: selection.unwrap_or(SectorId(0)),
        dmg_antenna_select: 0,
        snr_report: encode_snr(snr),
        poll_required: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::rng::sub_rng;
    use talon_channel::Environment;

    // Every test that runs an SLS holds `obs::testing::lock()`: a run
    // emits its sweep decisions into whatever sink another test installed.
    fn setup() -> (Link, Device, Device) {
        (
            Link::new(Environment::anechoic(3.0)),
            Device::talon(1),
            Device::talon(2),
        )
    }

    #[test]
    fn full_sweep_duration_matches_fig10() {
        let _guard = obs::testing::lock();
        let (link, ini, res) = setup();
        let runner = SlsRunner::new(&link, &ini, &res);
        let mut rng = sub_rng(1, "sls");
        let out = runner.run(&mut rng, &mut MaxSnrPolicy, &mut MaxSnrPolicy);
        // 2×34 frames à 18 µs + 49.1 µs = 1273.1 µs ≈ 1.27 ms.
        assert!((out.duration.as_ms() - 1.2731).abs() < 1e-9);
        assert_eq!(out.iss_readings.len(), 34);
        assert_eq!(out.rss_readings.len(), 34);
    }

    #[test]
    fn outcome_selects_usable_sectors() {
        let _guard = obs::testing::lock();
        let (link, ini, res) = setup();
        let runner = SlsRunner::new(&link, &ini, &res);
        let mut rng = sub_rng(2, "sls");
        let out = runner.run(&mut rng, &mut MaxSnrPolicy, &mut MaxSnrPolicy);
        let i_sec = out.initiator_tx_sector.expect("initiator sector chosen");
        let r_sec = out.responder_tx_sector.expect("responder sector chosen");
        // Devices face each other: the chosen sectors must have healthy SNR.
        let rxw = res.codebook.rx_sector().weights.clone();
        let snr = link.true_snr_db(&ini, i_sec, &res, &rxw);
        assert!(snr > 3.0, "selected initiator sector SNR {snr}");
        let rxw = ini.codebook.rx_sector().weights.clone();
        let snr = link.true_snr_db(&res, r_sec, &ini, &rxw);
        assert!(snr > 3.0, "selected responder sector SNR {snr}");
    }

    #[test]
    fn frame_transcript_is_well_formed() {
        let _guard = obs::testing::lock();
        let (link, ini, res) = setup();
        let runner = SlsRunner::new(&link, &ini, &res);
        let mut rng = sub_rng(3, "sls");
        let out = runner.run(&mut rng, &mut MaxSnrPolicy, &mut MaxSnrPolicy);
        // 34 ISS + 34 RSS + feedback + ack.
        assert_eq!(out.frames.len(), 70);
        // Times are monotonically non-decreasing and every frame re-decodes
        // from its wire representation.
        let mut last = SimTime::ZERO;
        for (t, f) in &out.frames {
            assert!(*t >= last);
            last = *t;
            assert_eq!(Frame::decode(&f.encode()), Some(*f));
        }
        // The last two frames are feedback + ack.
        assert!(matches!(out.frames[68].1, Frame::SswFeedback(_)));
        assert!(matches!(out.frames[69].1, Frame::SswAck(_)));
    }

    #[test]
    fn rss_frames_echo_the_initiator_selection() {
        let _guard = obs::testing::lock();
        let (link, ini, res) = setup();
        let runner = SlsRunner::new(&link, &ini, &res);
        let mut rng = sub_rng(4, "sls");
        let out = runner.run(&mut rng, &mut MaxSnrPolicy, &mut MaxSnrPolicy);
        let selected = out.initiator_tx_sector.unwrap();
        for (_, f) in &out.frames {
            if let Frame::Ssw(s) = f {
                if s.ssw.direction == SweepDirection::Responder {
                    assert_eq!(s.feedback.sector_select, selected);
                }
            }
        }
    }

    #[test]
    fn subset_probing_policy_shortens_training() {
        let _guard = obs::testing::lock();
        struct Subset;
        impl FeedbackPolicy for Subset {
            fn probe_sectors(&mut self, full: &[SectorId]) -> Vec<SectorId> {
                full.iter().copied().take(14).collect()
            }
            fn select(&mut self, readings: &[SweepReading]) -> Option<SectorId> {
                MaxSnrPolicy.select(readings)
            }
        }
        let (link, ini, res) = setup();
        let runner = SlsRunner::new(&link, &ini, &res);
        let mut rng = sub_rng(5, "sls");
        let out = runner.run(&mut rng, &mut Subset, &mut Subset);
        assert_eq!(out.iss_readings.len(), 14);
        // 2×14×18 + 49.1 = 553.1 µs ≈ 0.55 ms (Fig. 10).
        assert!((out.duration.as_ms() - 0.5531).abs() < 1e-9);
    }

    #[test]
    fn missing_probes_and_clamped_snr_raise_health_counters() {
        let before = obs::global().snapshot().counter("health.missing_probe");
        report_missing_probes(
            "iss",
            &[SweepReading {
                sector: SectorId(1),
                measurement: None,
            }],
        );
        assert_eq!(
            obs::global().snapshot().counter("health.missing_probe"),
            before + 1
        );

        let before = obs::global().snapshot().counter("health.snr_clamped");
        feedback_field(
            Some(SectorId(2)),
            &[SweepReading {
                sector: SectorId(2),
                measurement: Some(talon_channel::Measurement {
                    snr_db: 60.0, // above the 55.75 dB wire ceiling
                    rssi_dbm: -30.0,
                }),
            }],
        );
        assert_eq!(
            obs::global().snapshot().counter("health.snr_clamped"),
            before + 1
        );
        // An in-range SNR must not be flagged.
        let before = obs::global().snapshot().counter("health.snr_clamped");
        feedback_field(
            Some(SectorId(2)),
            &[SweepReading {
                sector: SectorId(2),
                measurement: Some(talon_channel::Measurement {
                    snr_db: 12.0,
                    rssi_dbm: -55.0,
                }),
            }],
        );
        assert_eq!(
            obs::global().snapshot().counter("health.snr_clamped"),
            before
        );
    }

    #[test]
    fn sls_run_emits_iss_and_rss_sweep_decisions() {
        let _guard = obs::testing::lock();
        let (link, ini, res) = setup();
        let runner = SlsRunner::new(&link, &ini, &res);
        let mut rng = sub_rng(7, "sls-decisions");
        let mem = std::sync::Arc::new(obs::MemorySink::new());
        obs::set_sink(mem.clone());
        let out = runner.run(&mut rng, &mut MaxSnrPolicy, &mut MaxSnrPolicy);
        obs::clear_sink();
        let decisions = mem.take_decisions();
        assert_eq!(decisions.len(), 2);
        let iss = &decisions[0];
        assert_eq!(iss.source, "sls.iss");
        assert!(!iss.replayable, "sweep records are pure provenance");
        assert_eq!(iss.probed.len(), out.iss_readings.len());
        assert_eq!(
            iss.chosen_sector,
            out.initiator_tx_sector.map_or(-1, |s| i64::from(s.raw()))
        );
        let rss = &decisions[1];
        assert_eq!(rss.source, "sls.rss");
        assert_eq!(
            rss.chosen_sector,
            out.responder_tx_sector.map_or(-1, |s| i64::from(s.raw()))
        );
    }

    #[test]
    fn max_snr_policy_ignores_missing_measurements() {
        let readings = vec![
            SweepReading {
                sector: SectorId(1),
                measurement: None,
            },
            SweepReading {
                sector: SectorId(2),
                measurement: Some(talon_channel::Measurement {
                    snr_db: 3.0,
                    rssi_dbm: -60.0,
                }),
            },
        ];
        assert_eq!(MaxSnrPolicy.select(&readings), Some(SectorId(2)));
        let empty: Vec<SweepReading> = vec![SweepReading {
            sector: SectorId(1),
            measurement: None,
        }];
        assert_eq!(MaxSnrPolicy.select(&empty), None);
    }

    #[test]
    fn max_snr_policy_treats_non_finite_snrs_as_missing() {
        const VALUES: [f64; 9] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e300,
            f64::MAX,
            -f64::MAX,
            4.25,
            -3.0,
        ];
        let reading = |sector: u8, snr_db: f64| SweepReading {
            sector: SectorId(sector),
            measurement: Some(talon_channel::Measurement {
                snr_db,
                rssi_dbm: -60.0,
            }),
        };
        for a in VALUES {
            for b in VALUES {
                for c in VALUES {
                    let readings = [reading(1, a), reading(2, b), reading(3, c)];
                    let masked: Vec<SweepReading> = readings
                        .iter()
                        .map(|r| SweepReading {
                            measurement: r.measurement.filter(|m| m.snr_db.is_finite()),
                            ..*r
                        })
                        .collect();
                    assert_eq!(
                        MaxSnrPolicy.select(&readings),
                        MaxSnrPolicy.select(&masked),
                        "snr {a:?} {b:?} {c:?}"
                    );
                }
            }
        }
    }
}
