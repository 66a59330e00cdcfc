//! `live_css`: the `talon sls --policy css` path as a closed loop over one
//! link, one decision at a time.
//!
//! Lab scenario (LOS + reflectors), DUT fixed at yaw −25°, M = 14, joint
//! Eq. 5. Each decision runs sweep 1 (the patched firmware exports the
//! measurements to its ring), drains the ring through the driver, runs
//! `select_from_readings`, arms the pick with `wmi(SetSectorOverride)`,
//! and runs sweep 2, which must carry the override. No trace sink is
//! installed.

use crate::clock::CpuInstant;
use crate::spans::{timed, Call};
use crate::{Phase, Tally, Workload};
use css::{CompressiveSelection, CssConfig};
use eval::scenario::{EvalScenario, Fidelity};
use geom::rng::sub_rng;
use mac80211ad::sls::{FeedbackPolicy, MaxSnrPolicy, SlsOutcome, SlsRunner};
use mac80211ad::timing::mutual_training_time;
use mac80211ad::{Frame, SweepDirection};
use rand::rngs::StdRng;
use std::sync::Arc;
use std::time::Duration;
use talon_array::SectorId;
use talon_channel::{Device, Measurement, Orientation, SweepReading};
use wil6210::{Qca9500Firmware, Wil6210Driver, WmiCommand};

/// The DUT's fixed yaw, as in `talon sls`.
const YAW_DEG: f64 = -25.0;
/// Probes per sweep: the paper's operating point.
const PROBES: usize = 14;
/// Decisions in the fixed pass that yields the deterministic metrics.
const FIXED_DECISIONS: usize = 1000;

/// The DUT's own sweep: restricted to the compressive probe subset,
/// stock argmax selection of the peer's sector.
struct ProbeOnly<'a>(&'a mut CompressiveSelection);

impl FeedbackPolicy for ProbeOnly<'_> {
    fn probe_sectors(&mut self, full: &[SectorId]) -> Vec<SectorId> {
        timed(Call::CssProbeDraw, || self.0.probe_sectors(full))
    }

    fn select(&mut self, readings: &[SweepReading]) -> Option<SectorId> {
        MaxSnrPolicy.select(readings)
    }
}

/// The peer: patched firmware handles the frames (ring export and
/// override), its user-space agent restricts the peer's own sweep.
struct FirmwareCss<'a> {
    fw: &'a Qca9500Firmware,
    agent: &'a mut CompressiveSelection,
}

impl FeedbackPolicy for FirmwareCss<'_> {
    fn probe_sectors(&mut self, full: &[SectorId]) -> Vec<SectorId> {
        timed(Call::CssProbeDraw, || self.agent.probe_sectors(full))
    }

    fn select(&mut self, readings: &[SweepReading]) -> Option<SectorId> {
        timed(Call::WilSelect, || (&mut &*self.fw).select(readings))
    }
}

/// What one decision produced.
struct Decision {
    sweep1: SlsOutcome,
    sweep2: SlsOutcome,
    /// Ring entries of sweep 1 handed to the selection.
    exported: usize,
    /// The sector armed through WMI, if any.
    armed: Option<SectorId>,
    cpu: Duration,
    agent: Duration,
}

pub struct LiveCss {
    scenario: EvalScenario,
    dut: Device,
    dut_side: CompressiveSelection,
    agent: CompressiveSelection,
    firmware: Arc<Qca9500Firmware>,
    driver: Wil6210Driver,
    rng: StdRng,
    /// True SNR of every DUT sector at the fixed geometry (the oracle).
    true_snr: Vec<(SectorId, f64)>,
    best_snr: f64,
    airtime: mac80211ad::SimDuration,
}

impl LiveCss {
    pub fn setup(seed: u64) -> Self {
        let scenario = EvalScenario::lab(Fidelity::Fast, seed);
        let mut dut = scenario.dut.clone();
        dut.orientation = Orientation::new(YAW_DEG, 0.0);
        let config = CssConfig {
            num_probes: PROBES,
            ..CssConfig::paper_default()
        };
        let dut_side = CompressiveSelection::new(scenario.patterns.clone(), config.clone(), seed);
        let agent = CompressiveSelection::new(scenario.patterns.clone(), config, seed + 1);
        let firmware = Arc::new(Qca9500Firmware::patched());
        let driver = Wil6210Driver::new(Arc::clone(&firmware));
        // The geometry never changes, so the exhaustive-sweep oracle is
        // computed once, outside every timed interval.
        let rxw = scenario.fixed.codebook.rx_sector().weights.clone();
        let true_snr: Vec<(SectorId, f64)> = dut
            .codebook
            .sweep_order()
            .into_iter()
            .map(|s| (s, scenario.link.true_snr_db(&dut, s, &scenario.fixed, &rxw)))
            .collect();
        let best_snr = true_snr.iter().map(|&(_, v)| v).fold(f64::MIN, f64::max);
        LiveCss {
            scenario,
            dut,
            dut_side,
            agent,
            firmware,
            driver,
            rng: sub_rng(seed, "bench-live-css"),
            true_snr,
            best_snr,
            airtime: mutual_training_time(PROBES),
        }
    }

    fn decide(&mut self) -> Decision {
        let runner = SlsRunner::new(&self.scenario.link, &self.dut, &self.scenario.fixed);
        let (rng, dut_side, agent, fw, driver) = (
            &mut self.rng,
            &mut self.dut_side,
            &mut self.agent,
            &*self.firmware,
            &self.driver,
        );
        let start = CpuInstant::now();
        let (sweep1, exported, armed, agent_time, sweep2) = timed(Call::Unit, || {
            // Sweep 1: the firmware's export patch fills the ring buffer.
            let sweep1 = timed(Call::SlsRun, || {
                runner.run(
                    rng,
                    &mut ProbeOnly(dut_side),
                    &mut FirmwareCss { fw, agent },
                )
            });
            // User space drains the export, computes CSS and arms it.
            let agent_start = CpuInstant::now();
            let entries = timed(Call::WilDrain, || driver.read_sweep_info());
            // The ring still holds the previous decision's sweep 2; the
            // agent keeps only the newest sweep's entries.
            let newest = entries.iter().map(|e| e.sweep_id).max();
            let readings: Vec<SweepReading> = entries
                .iter()
                .filter(|e| Some(e.sweep_id) == newest)
                .map(|e| SweepReading {
                    sector: e.sector,
                    measurement: Some(Measurement {
                        snr_db: e.snr_db,
                        rssi_dbm: e.rssi_dbm,
                    }),
                })
                .collect();
            let choice = timed(Call::CssSelect, || agent.select_from_readings(&readings));
            let armed = choice.filter(|&c| {
                timed(Call::WilWmi, || {
                    driver.wmi(&WmiCommand::SetSectorOverride(c)).is_ok()
                })
            });
            let agent_time = agent_start.elapsed();
            // Sweep 2: the armed override rides the feedback field.
            let sweep2 = timed(Call::SlsRun, || {
                runner.run(
                    rng,
                    &mut ProbeOnly(dut_side),
                    &mut FirmwareCss { fw, agent },
                )
            });
            (sweep1, readings.len(), armed, agent_time, sweep2)
        });
        Decision {
            cpu: start.elapsed(),
            sweep1,
            sweep2,
            exported,
            armed,
            agent: agent_time,
        }
    }

    /// Whether the decision armed a sector, sweep 2 carried it in every
    /// responder frame, and both trainings took the M = 14 airtime.
    fn correct(&self, d: &Decision) -> bool {
        let Some(armed) = d.armed else {
            return false;
        };
        let carried = d.sweep2.initiator_tx_sector == Some(armed)
            && d.sweep2.frames.iter().all(|(_, frame)| match frame {
                Frame::Ssw(f) if f.ssw.direction == SweepDirection::Responder => {
                    f.feedback.sector_select == armed
                }
                _ => true,
            });
        carried && d.sweep1.duration == self.airtime && d.sweep2.duration == self.airtime
    }

    fn snr_loss_db(&self, sector: SectorId) -> f64 {
        self.true_snr
            .iter()
            .find(|&&(s, _)| s == sector)
            .map_or(f64::NAN, |&(_, snr)| self.best_snr - snr)
    }
}

impl Workload for LiveCss {
    fn fixed_pass(&mut self, tally: &mut Tally) -> Result<(), String> {
        let (mut loss, mut frames, mut trainings) = (0.0, 0usize, 0usize);
        let (mut missed, mut probes, mut exported) = (0usize, 0usize, 0usize);
        let mut airtime_us = 0.0;
        for _ in 0..FIXED_DECISIONS {
            let d = self.decide();
            tally.attempted += 1;
            if !self.correct(&d) {
                tally.failed += 1;
                continue;
            }
            loss += self.snr_loss_db(d.armed.expect("correct decisions armed a sector"));
            airtime_us += d.sweep2.duration.as_us();
            exported += d.exported;
            for sweep in [&d.sweep1, &d.sweep2] {
                trainings += 1;
                frames += sweep.frames.len();
                for r in sweep.iss_readings.iter().chain(&sweep.rss_readings) {
                    probes += 1;
                    missed += usize::from(r.measurement.is_none());
                }
            }
        }
        let ok = (FIXED_DECISIONS as u64 - tally.failed).max(1) as f64;
        let airtime_us = airtime_us / ok;
        if (airtime_us - 553.0).abs() >= 0.5 {
            tally.problems.push(format!(
                "airtime {airtime_us} us per training, expected 553 at M=14"
            ));
        }
        tally.set("airtime_us", airtime_us);
        tally.set("snr_loss_db", loss / ok);
        tally.set(
            "sls.frames_per_training",
            frames as f64 / trainings.max(1) as f64,
        );
        tally.set(
            "channel.probe_miss_ratio",
            missed as f64 / probes.max(1) as f64,
        );
        tally.set("wil.exported_per_decision", exported as f64 / ok);
        Ok(())
    }

    fn step(&mut self, phase: &mut Phase, tally: &mut Tally) -> Result<(), String> {
        let d = self.decide();
        phase.add(d.cpu, d.agent, 1);
        tally.attempted += 1;
        if !self.correct(&d) {
            tally.failed += 1;
        }
        Ok(())
    }
}
