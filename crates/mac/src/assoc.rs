//! Network bring-up: beacon discovery and A-BFT association.
//!
//! §4.1: "As Access points (APs) do not know the best sectors to advertise
//! their existence to potential clients, they periodically transmit beacon
//! frames successively over multiple sectors." A joining station listens
//! quasi-omni, learns the AP's best transmit sector from the strongest
//! decoded beacon, then answers in an A-BFT slot with its own responder
//! sweep so the AP can pick the station's sector.
//!
//! [`associate`] runs that whole discovery + initial-beamforming flow over
//! the channel simulator and reports which sector pair the link starts on
//! and how long bring-up took.

use crate::addr::MacAddr;
use crate::bti::{AbftConfig, AbftSlots, BeaconScheduler};
use crate::sls::FeedbackPolicy;
use crate::sls::MaxSnrPolicy;
use crate::timing::{SimDuration, BEACON_INTERVAL};
use rand::Rng;
use talon_array::SectorId;
use talon_channel::{Device, Link, SweepReading};

/// Outcome of a bring-up attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct AssociationOutcome {
    /// The AP transmit sector the station selected from the beacons.
    pub ap_tx_sector: SectorId,
    /// The station transmit sector the AP selected from the A-BFT sweep.
    pub sta_tx_sector: SectorId,
    /// Beacon intervals consumed (≥ 1; collisions add intervals).
    pub beacon_intervals: u64,
    /// Total bring-up time.
    pub duration: SimDuration,
    /// Number of beacons the station actually decoded in the final
    /// interval.
    pub beacons_decoded: usize,
}

/// Errors during bring-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssociationError {
    /// The station never decoded a beacon (devices out of range or facing
    /// away).
    NoBeaconDecoded,
    /// The AP received no usable A-BFT sweep.
    AbftFailed,
}

impl std::fmt::Display for AssociationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssociationError::NoBeaconDecoded => write!(f, "no beacon decoded"),
            AssociationError::AbftFailed => write!(f, "A-BFT sweep yielded no selection"),
        }
    }
}

impl std::error::Error for AssociationError {}

/// Runs discovery + A-BFT between an AP and one joining station.
///
/// `contending_stations` simulates other stations drawing A-BFT slots: a
/// slot collision costs a full extra beacon interval, which is how dense
/// deployments inflate bring-up latency (§7).
pub fn associate<R: Rng>(
    rng: &mut R,
    link: &Link,
    ap: &Device,
    ap_addr: MacAddr,
    sta: &Device,
    sta_addr: MacAddr,
    contending_stations: usize,
) -> Result<AssociationOutcome, AssociationError> {
    let mut scheduler = BeaconScheduler::new(ap_addr);
    let abft = AbftConfig::default();
    let max_intervals = 16;

    // Neither device moves during association: one plan per direction.
    let bti_plan = link.plan(ap, sta);
    for _ in 0..max_intervals {
        // --- BTI: the AP beacons over its schedule; the station listens
        // quasi-omni and records what decodes.
        let burst = scheduler.next_interval();
        let mut readings: Vec<SweepReading> = Vec::with_capacity(burst.len());
        for beacon in &burst {
            let sector = beacon.frame.ssw.sector_id;
            readings.push(SweepReading {
                sector,
                measurement: bti_plan.probe(rng, sector),
            });
        }
        let decoded = readings.iter().filter(|r| r.measurement.is_some()).count();
        let Some(ap_tx_sector) = MaxSnrPolicy.select(&readings) else {
            continue; // nothing decoded this interval; keep listening
        };

        // --- A-BFT: draw a slot among the contenders.
        let mut slots = AbftSlots::new();
        let _ = slots.draw(rng, sta_addr, &abft);
        for i in 0..contending_stations {
            let _ = slots.draw(rng, MacAddr::device(1000 + i as u16), &abft);
        }
        if !slots.winners().contains(&sta_addr) {
            continue; // collided; retry next beacon interval
        }

        // The station sweeps its sectors in its slot (responder sweep,
        // bounded by the slot's frame budget); the AP picks the best.
        let sweep_order = sta.codebook.sweep_order();
        let budget = (abft.frames_per_slot as usize).min(sweep_order.len());
        // Real stations sweep in schedule order across intervals; one slot
        // carries the first `budget` sectors — enough for selection when
        // the codebook's fan covers the frontal range early.
        let swept: Vec<SectorId> = sweep_order.into_iter().take(budget).collect();
        let abft_readings = link.sweep(rng, sta, &swept, ap);
        let Some(sta_tx_sector) = MaxSnrPolicy.select(&abft_readings) else {
            return Err(AssociationError::AbftFailed);
        };

        let intervals = scheduler.intervals();
        return Ok(AssociationOutcome {
            ap_tx_sector,
            sta_tx_sector,
            beacon_intervals: intervals,
            duration: BEACON_INTERVAL.times(intervals - 1)
                + SimDuration::from_us(burst.len() as f64 * 18.0)
                + abft.duration(),
            beacons_decoded: decoded,
        });
    }
    Err(AssociationError::NoBeaconDecoded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::rng::sub_rng;
    use talon_channel::Environment;

    fn setup() -> (Link, Device, Device) {
        (
            Link::new(Environment::lab()),
            Device::talon(1),
            Device::talon(2),
        )
    }

    #[test]
    fn facing_devices_associate_in_one_interval() {
        let (link, ap, sta) = setup();
        let mut rng = sub_rng(10, "assoc");
        let out = associate(
            &mut rng,
            &link,
            &ap,
            MacAddr::device(1),
            &sta,
            MacAddr::device(2),
            0,
        )
        .expect("association succeeds");
        assert_eq!(out.beacon_intervals, 1);
        assert!(out.beacons_decoded > 10, "most beacons decode at 3 m");
        // Selected sectors provide healthy links in both directions.
        let rxw = sta.codebook.rx_sector().weights.clone();
        assert!(link.true_snr_db(&ap, out.ap_tx_sector, &sta, &rxw) > 5.0);
        let rxw = ap.codebook.rx_sector().weights.clone();
        assert!(link.true_snr_db(&sta, out.sta_tx_sector, &ap, &rxw) > 0.0);
        // Bring-up fits in one interval's BTI + A-BFT.
        assert!(out.duration.as_ms() < 3.0, "{} ms", out.duration.as_ms());
    }

    #[test]
    fn contention_costs_extra_intervals() {
        let (link, ap, sta) = setup();
        // Average over seeds: with 7 contenders on 8 slots, collisions are
        // common and must push the mean interval count above the
        // collision-free case.
        let mut with_contention = 0.0;
        let mut without = 0.0;
        let runs = 20;
        for seed in 0..runs {
            let mut rng = sub_rng(seed, "assoc-contention");
            let a = associate(
                &mut rng,
                &link,
                &ap,
                MacAddr::device(1),
                &sta,
                MacAddr::device(2),
                7,
            )
            .expect("associates eventually");
            with_contention += a.beacon_intervals as f64;
            let mut rng = sub_rng(seed, "assoc-free");
            let b = associate(
                &mut rng,
                &link,
                &ap,
                MacAddr::device(1),
                &sta,
                MacAddr::device(2),
                0,
            )
            .expect("associates");
            without += b.beacon_intervals as f64;
        }
        assert!(
            with_contention > without,
            "contention {with_contention} vs free {without}"
        );
        assert_eq!(without, runs as f64, "no collisions without contenders");
    }

    #[test]
    fn out_of_range_station_fails_cleanly() {
        let link = Link::new(Environment::anechoic(500.0));
        let ap = Device::talon(1);
        let sta = Device::talon(2);
        let mut rng = sub_rng(11, "assoc-far");
        let err = associate(
            &mut rng,
            &link,
            &ap,
            MacAddr::device(1),
            &sta,
            MacAddr::device(2),
            0,
        )
        .unwrap_err();
        assert_eq!(err, AssociationError::NoBeaconDecoded);
        assert!(err.to_string().contains("beacon"));
    }
}
