//! Baseline algorithms the paper compares against or builds on.
//!
//! * [`ExhaustiveSweep`] — the stock sector sweep (Eq. 1): probe all `N`
//!   sectors, pick the strongest report. This is the "SSW" line of every
//!   evaluation figure.
//! * [`random_beam_device`] — a device whose codebook consists of
//!   pseudo-random beams, as used by compressive path tracking on custom
//!   arrays (Rasekh et al.). The paper's §2.1 observation — random phase
//!   shifts "substantially reduced the link quality" on low-cost hardware —
//!   is reproduced by running the same CSS pipeline on such a device (the
//!   `random_vs_firmware_beams` ablation bench).
//! * [`HierarchicalSearch`] — a two-stage wide-then-narrow search in the
//!   spirit of [15]: first probe a spread of anchor sectors, then the
//!   sectors whose measured lobes are closest to the winning anchor's. It
//!   needs two sweep rounds (extra feedback overhead, §8) but fewer probes
//!   per round.

use chamber::SectorPatterns;
use geom::sphere::Direction;
use mac80211ad::sls::{FeedbackPolicy, MaxSnrPolicy};
use talon_array::{Codebook, PhasedArray, SectorId};
use talon_channel::{Device, SweepReading};

/// The stock IEEE 802.11ad sector sweep (Eq. 1), as a named policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustiveSweep;

impl FeedbackPolicy for ExhaustiveSweep {
    fn probe_sectors(&mut self, full_sweep: &[SectorId]) -> Vec<SectorId> {
        full_sweep.to_vec()
    }

    fn select(&mut self, readings: &[SweepReading]) -> Option<SectorId> {
        MaxSnrPolicy.select(readings)
    }
}

/// Builds a device whose transmit codebook consists of `count`
/// pseudo-random quantized beams on the same physical array as a Talon
/// device with the given seed.
pub fn random_beam_device(device_seed: u64, count: usize) -> Device {
    let array = PhasedArray::talon(device_seed);
    let codebook = Codebook::pseudo_random(&array, count, device_seed);
    Device::new(array, codebook)
}

/// Which phase a hierarchical search is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Probing the spread-out anchors.
    Wide,
    /// Probing the winner's neighbours.
    Narrow,
}

/// A two-stage hierarchical beam search.
pub struct HierarchicalSearch {
    /// Anchor sectors probed in the wide phase.
    anchors: Vec<SectorId>,
    /// Measured peak direction of every sector (for neighbour lookup).
    peaks: Vec<(SectorId, Direction)>,
    /// Neighbours probed per narrow phase.
    pub narrow_probes: usize,
    phase: Phase,
    /// Winner of the last wide phase.
    wide_winner: Option<SectorId>,
    /// Final selection of the last completed narrow phase.
    pub last_selection: Option<SectorId>,
}

impl HierarchicalSearch {
    /// Builds the search from measured patterns.
    ///
    /// `num_anchors` sectors with the widest spread of peak directions are
    /// chosen as the wide phase; `narrow_probes` nearest-peak sectors form
    /// each narrow phase.
    pub fn new(patterns: &SectorPatterns, num_anchors: usize, narrow_probes: usize) -> Self {
        let peaks: Vec<(SectorId, Direction)> = patterns
            .sector_ids()
            .into_iter()
            .map(|id| (id, patterns.get(id).unwrap().peak().1))
            .collect();
        // Greedy max-min spread of peak directions, anchored at the sector
        // with the strongest peak gain.
        let mut anchors: Vec<SectorId> = Vec::new();
        if let Some(first) = patterns.sector_ids().into_iter().max_by(|&a, &b| {
            let ga = patterns.get(a).unwrap().peak().0;
            let gb = patterns.get(b).unwrap().peak().0;
            ga.partial_cmp(&gb).expect("gain is finite")
        }) {
            anchors.push(first);
        }
        while anchors.len() < num_anchors.min(peaks.len()) {
            let next = peaks
                .iter()
                .filter(|(id, _)| !anchors.contains(id))
                .max_by(|(_, da), (_, db)| {
                    let ma = min_dist_to_anchors(da, &anchors, &peaks);
                    let mb = min_dist_to_anchors(db, &anchors, &peaks);
                    ma.partial_cmp(&mb).expect("distance is finite")
                })
                .map(|(id, _)| *id);
            match next {
                Some(id) => anchors.push(id),
                None => break,
            }
        }
        HierarchicalSearch {
            anchors,
            peaks,
            narrow_probes,
            phase: Phase::Wide,
            wide_winner: None,
            last_selection: None,
        }
    }

    /// The sectors whose measured peaks are nearest the given sector's.
    fn neighbours_of(&self, winner: SectorId) -> Vec<SectorId> {
        let Some(&(_, center)) = self.peaks.iter().find(|(id, _)| *id == winner) else {
            return vec![winner];
        };
        let mut by_dist: Vec<(f64, SectorId)> = self
            .peaks
            .iter()
            .map(|(id, d)| (d.angle_to(&center), *id))
            .collect();
        by_dist.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("distance is finite"));
        by_dist
            .into_iter()
            .take(self.narrow_probes)
            .map(|(_, id)| id)
            .collect()
    }

    /// Probes needed for one complete decision (both rounds).
    pub fn probes_per_decision(&self) -> usize {
        self.anchors.len() + self.narrow_probes
    }
}

fn min_dist_to_anchors(
    d: &Direction,
    anchors: &[SectorId],
    peaks: &[(SectorId, Direction)],
) -> f64 {
    anchors
        .iter()
        .filter_map(|a| peaks.iter().find(|(id, _)| id == a))
        .map(|(_, pd)| d.angle_to(pd))
        .fold(f64::INFINITY, f64::min)
}

impl FeedbackPolicy for HierarchicalSearch {
    fn probe_sectors(&mut self, full_sweep: &[SectorId]) -> Vec<SectorId> {
        match self.phase {
            Phase::Wide => self
                .anchors
                .iter()
                .copied()
                .filter(|id| full_sweep.contains(id))
                .collect(),
            Phase::Narrow => match self.wide_winner {
                Some(w) => self
                    .neighbours_of(w)
                    .into_iter()
                    .filter(|id| full_sweep.contains(id))
                    .collect(),
                None => self.anchors.clone(),
            },
        }
    }

    fn select(&mut self, readings: &[SweepReading]) -> Option<SectorId> {
        let best = MaxSnrPolicy.select(readings);
        match self.phase {
            Phase::Wide => {
                self.wide_winner = best;
                self.phase = Phase::Narrow;
                // Intermediate result: the wide winner is the best known.
                best
            }
            Phase::Narrow => {
                self.phase = Phase::Wide;
                self.last_selection = best.or(self.wide_winner);
                self.last_selection
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chamber::{Campaign, CampaignConfig};
    use geom::rng::sub_rng;
    use talon_channel::{Environment, Link, Measurement};

    fn reading(sector: u8, snr: f64) -> SweepReading {
        SweepReading {
            sector: SectorId(sector),
            measurement: Some(Measurement {
                snr_db: snr,
                rssi_dbm: -60.0,
            }),
        }
    }

    #[test]
    fn exhaustive_sweep_probes_everything() {
        let full: Vec<SectorId> = (1..=31).map(SectorId).collect();
        assert_eq!(ExhaustiveSweep.probe_sectors(&full), full);
        assert_eq!(
            ExhaustiveSweep.select(&[reading(3, 1.0), reading(9, 5.0)]),
            Some(SectorId(9))
        );
    }

    #[test]
    fn random_beam_device_has_random_codebook() {
        let dev = random_beam_device(31, 34);
        assert_eq!(dev.codebook.num_tx_sectors(), 34);
        // Random beams activate all elements (phase-only randomization).
        let s = dev.codebook.get(SectorId(63)).unwrap();
        assert_eq!(s.weights.active_elements(), 32);
        assert!(s.nominal_dir.is_none());
    }

    #[test]
    fn random_beams_have_less_peak_gain_than_firmware_beams() {
        // §2.1: random phase shifts substantially reduce link quality.
        let talon = Device::talon(31);
        let random = random_beam_device(31, 34);
        let dir = Direction::new(0.0, 0.0);
        let best = |dev: &Device| {
            dev.codebook
                .sweep_order()
                .into_iter()
                .map(|id| {
                    dev.array
                        .gain_dbi(&dev.codebook.get(id).unwrap().weights, &dir)
                })
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let g_talon = best(&talon);
        let g_random = best(&random);
        assert!(
            g_talon > g_random + 5.0,
            "firmware beams {g_talon:.1} dBi vs random {g_random:.1} dBi"
        );
    }

    fn measured_patterns() -> SectorPatterns {
        let link = Link::new(Environment::anechoic(3.0));
        let mut dut = Device::talon(41);
        let observer = Device::talon(42);
        let mut campaign = Campaign::new(CampaignConfig::coarse(), 41);
        let mut rng = sub_rng(41, "hier-campaign");
        campaign.measure_tx_patterns(&mut rng, &link, &mut dut, &observer)
    }

    #[test]
    fn hierarchical_anchors_are_spread_out() {
        let store = measured_patterns();
        let h = HierarchicalSearch::new(&store, 6, 8);
        assert_eq!(h.anchors.len(), 6);
        assert_eq!(h.probes_per_decision(), 14);
        // Pairwise peak distances of the anchors should be substantial.
        let peaks: Vec<Direction> = h
            .anchors
            .iter()
            .map(|id| store.get(*id).unwrap().peak().1)
            .collect();
        let mut min_pair = f64::INFINITY;
        for i in 0..peaks.len() {
            for j in i + 1..peaks.len() {
                min_pair = min_pair.min(peaks[i].angle_to(&peaks[j]));
            }
        }
        assert!(min_pair > 5.0, "anchor spread {min_pair}");
    }

    #[test]
    fn hierarchical_two_phase_cycle() {
        let store = measured_patterns();
        let mut h = HierarchicalSearch::new(&store, 6, 8);
        let full: Vec<SectorId> = store.sector_ids();
        // Wide phase.
        let wide = h.probe_sectors(&full);
        assert_eq!(wide.len(), 6);
        let readings: Vec<SweepReading> = wide
            .iter()
            .enumerate()
            .map(|(i, &s)| reading(s.raw(), i as f64))
            .collect();
        let wide_winner = h.select(&readings).unwrap();
        assert_eq!(wide_winner, *wide.last().unwrap());
        // Narrow phase probes neighbours of the winner.
        let narrow = h.probe_sectors(&full);
        assert_eq!(narrow.len(), 8);
        assert!(narrow.contains(&wide_winner), "winner re-probed");
        let readings: Vec<SweepReading> = narrow
            .iter()
            .map(|&s| reading(s.raw(), if s == wide_winner { 9.0 } else { 1.0 }))
            .collect();
        let final_sel = h.select(&readings).unwrap();
        assert_eq!(final_sel, wide_winner);
        assert_eq!(h.last_selection, Some(wide_winner));
        // Cycle restarts.
        assert_eq!(h.probe_sectors(&full).len(), 6);
    }

    #[test]
    fn hierarchical_survives_empty_narrow_readings() {
        let store = measured_patterns();
        let mut h = HierarchicalSearch::new(&store, 4, 6);
        let full: Vec<SectorId> = store.sector_ids();
        let wide = h.probe_sectors(&full);
        let readings: Vec<SweepReading> = wide.iter().map(|&s| reading(s.raw(), 3.0)).collect();
        let winner = h.select(&readings);
        let _ = h.probe_sectors(&full);
        // All narrow probes missing: fall back to the wide winner.
        let empty: Vec<SweepReading> = vec![SweepReading {
            sector: SectorId(1),
            measurement: None,
        }];
        assert_eq!(h.select(&empty), winner);
    }
}
