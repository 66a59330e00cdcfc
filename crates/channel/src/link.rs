//! The composite link: two devices, an environment, a measurement chain.
//!
//! [`Link::probe`] is the physical core of every experiment: given the
//! transmit sector and the receive excitation, it accumulates the received
//! power over all environment rays (non-coherent power sum — SSW frames are
//! short control-PHY bursts, so we do not model phase-coherent multipath
//! combining) and pushes the result through the firmware measurement model.
//!
//! Almost all of that work does not depend on the transmit sector, and
//! what does never changes for a device. Each [`Device`] therefore holds a
//! sector table, built once by [`Device::new`]: per codebook sector the
//! [`talon_array::Excitation`], i.e. the `w_i·ε_i` products of its active
//! elements and its feed power. A [`ProbePlan`], built by [`Link::plan`]
//! for one (link, tx, rx) geometry, holds the rest: per ray the
//! transmitter's element phasors, element gain and shadow
//! ([`talon_array::DirectionTerms`]), the receiver's gain and the path
//! loss. [`ProbePlan::probe`] then runs only one multiply-accumulate of the
//! sector's products against each ray's phasors, the dB sum over rays and
//! [`MeasurementModel::report`]. [`Link::probe`] is a plan used once;
//! callers that probe many sectors at one geometry (a sweep half, a
//! rotation position) build the plan once.
//!
//! So the work splits three ways: per device (the sector table, built
//! once), per geometry (the plan: ~60 `sin`/`cos` per ray for the phasors
//! and the receive gain) and per probe. A plan also prices each transmit
//! sector at most once: the received power of a codebook sector is fixed
//! for the geometry, so [`ProbePlan::probe`], [`ProbePlan::true_snr_db`]
//! and [`ProbePlan::sweep`] fill a per-sector slot on the first use and
//! read it afterwards. What is left per probe is
//! [`MeasurementModel::report`], the RNG draws that make each reading
//! differ. [`ProbePlan::rx_power_dbm`] prices arbitrary weights and is not
//! memoized.
//!
//! A geometry usually outlives one plan: a closed loop re-trains a link
//! that has not moved, one `SlsRunner` per decision. So a [`Link`]
//! remembers the last 16 geometries [`Link::plan`] built (a fixed bound,
//! so a link that keeps moving holds no more), keyed on each device's
//! identity (stamped by [`Device::new`], kept by `Clone`) and the bit
//! patterns of both orientations. A plan of a remembered geometry shares
//! the rays and the per-sector prices of every earlier plan of it; moving
//! a device changes the key, and past the capacity the oldest geometry is
//! forgotten. The memo's inputs, the link's environment and budget, are
//! private, so they cannot change under it; the measurement model is
//! applied per probe and stays public. A cloned link starts with an empty
//! memo. [`Link::plan_with_rx`] serves arbitrary receive weights and is
//! never remembered.
//!
//! The table, the plan and both memos give the same bits as evaluating
//! [`talon_array::PhasedArray::gain_dbi`] per ray: they only move work,
//! they do not reorder any arithmetic or RNG draw.
//!
//! [`Link::sweep`] produces one full sector sweep transcript: for each
//! requested transmit sector, the reading the responder's firmware would
//! put into its ring buffer.

use crate::environment::Environment;
use crate::linkbudget::LinkBudget;
use crate::measurement::{Measurement, MeasurementModel};
use crate::orientation::Orientation;
use geom::db::{db_to_linear, linear_to_db};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use talon_array::{Codebook, DirectionTerms, Excitation, PhasedArray, SectorId, WeightVector};

/// How many geometries a [`Link`] remembers: both sweep halves of eight
/// geometries.
const PLAN_MEMO_CAPACITY: usize = 16;

/// The identity [`Device::new`] stamps on the next device.
static NEXT_DEVICE_ID: AtomicU64 = AtomicU64::new(0);

/// One physical device: its antenna, its predefined codebook and how it is
/// currently mounted.
///
/// [`Device::new`] is the only constructor: it builds the device's sector
/// table from `array` and `codebook`, so neither may change afterwards
/// (the table and every plan a [`Link`] remembers for the device would go
/// stale). Only `orientation` is meant to be mutated. Each device gets an
/// identity of its own, which a clone keeps.
#[derive(Debug, Clone)]
pub struct Device {
    /// The phased array with frozen imperfections. Must not change after
    /// construction.
    pub array: PhasedArray,
    /// The firmware's predefined sectors. Must not change after
    /// construction.
    pub codebook: Codebook,
    /// Current mounting orientation (mutated by the rotation head).
    pub orientation: Orientation,
    /// Each codebook sector's excitation on `array`, indexed by raw sector
    /// ID (the first sector with an ID wins, as in [`Codebook::get`]).
    sectors: Vec<Option<Excitation>>,
    /// Which device this is, for [`Link::plan`]'s memo.
    id: u64,
}

impl Device {
    /// Builds a device at the neutral orientation, folding every codebook
    /// sector's weights with the array's element factors once.
    pub fn new(array: PhasedArray, codebook: Codebook) -> Self {
        let mut sectors: Vec<Option<Excitation>> = Vec::new();
        for sector in codebook.sectors() {
            let slot = usize::from(sector.id.raw());
            if sectors.len() <= slot {
                sectors.resize(slot + 1, None);
            }
            if sectors[slot].is_none() {
                sectors[slot] = Some(array.excitation(&sector.weights));
            }
        }
        Device {
            array,
            codebook,
            orientation: Orientation::NEUTRAL,
            sectors,
            // Only uniqueness matters; the counter publishes no other data.
            id: NEXT_DEVICE_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Builds a Talon-like device with its codebook, from a device seed.
    pub fn talon(device_seed: u64) -> Self {
        let array = PhasedArray::talon(device_seed);
        let codebook = Codebook::talon(&array, device_seed);
        Device::new(array, codebook)
    }

    /// The excitation of sector `id`.
    ///
    /// # Panics
    /// Panics if the codebook has no such sector.
    pub fn sector_weights(&self, id: SectorId) -> &WeightVector {
        &self
            .codebook
            .get(id)
            .expect("transmit sector must exist in the codebook")
            .weights
    }

    /// The table entry of sector `id`.
    ///
    /// # Panics
    /// Panics if the codebook has no such sector.
    fn sector_excitation(&self, id: SectorId) -> &Excitation {
        self.sectors
            .get(usize::from(id.raw()))
            .and_then(Option::as_ref)
            .expect("sector must exist in the codebook")
    }
}

/// The reading for one probed sector within a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepReading {
    /// Which transmit sector was probed.
    pub sector: SectorId,
    /// What the firmware reported (None: frame missed / report dropped).
    pub measurement: Option<Measurement>,
}

/// A directional link between an initiator (transmitter of SSW frames) and
/// a responder (receiver), through an environment.
///
/// The budget and the environment are fixed at construction: the plans
/// the link remembers were built from them (see the module docs).
#[derive(Debug, Clone)]
pub struct Link {
    /// Static link-budget parameters.
    budget: LinkBudget,
    /// The propagation environment.
    environment: Environment,
    /// The firmware measurement chain at the receiver.
    pub model: MeasurementModel,
    /// The geometries [`Link::plan`] built last.
    plans: PlanMemo,
}

impl Link {
    /// Creates a link with default budget and measurement model.
    pub fn new(environment: Environment) -> Self {
        Link {
            budget: LinkBudget::default(),
            environment,
            model: MeasurementModel::default(),
            plans: PlanMemo::default(),
        }
    }

    /// Static link-budget parameters.
    pub fn budget(&self) -> &LinkBudget {
        &self.budget
    }

    /// The propagation environment.
    pub fn environment(&self) -> &Environment {
        &self.environment
    }

    /// Plans probes from `tx` to `rx` at the devices' current orientations,
    /// with `rx` listening on its quasi-omni receive sector (as every SSW
    /// probe is received). A geometry the link remembers is not planned
    /// again: the plan shares its rays and prices.
    pub fn plan<'a>(&'a self, tx: &'a Device, rx: &Device) -> ProbePlan<'a> {
        let key = PlanKey::new(tx, rx);
        let planned = self.plans.get(&key).unwrap_or_else(|| {
            self.plans.insert(
                key,
                self.planned(tx, rx, rx.sector_excitation(SectorId::RX)),
            )
        });
        ProbePlan {
            link: self,
            tx,
            planned,
        }
    }

    /// Plans probes from `tx` to `rx`, with `rx` listening on `rx_weights`.
    /// Never remembered.
    pub fn plan_with_rx<'a>(
        &'a self,
        tx: &'a Device,
        rx: &Device,
        rx_weights: &WeightVector,
    ) -> ProbePlan<'a> {
        ProbePlan {
            link: self,
            tx,
            planned: self.planned(tx, rx, &rx.array.excitation(rx_weights)),
        }
    }

    fn planned(&self, tx: &Device, rx: &Device, rx_excitation: &Excitation) -> Arc<Planned> {
        let rays = self
            .environment
            .rays
            .iter()
            .map(|ray| PlannedRay {
                tx: tx
                    .array
                    .direction_terms(&tx.orientation.world_to_device(&ray.depart_world)),
                rx_gain_dbi: rx.array.excitation_gain_dbi(
                    rx_excitation,
                    &rx.orientation.world_to_device(&ray.arrive_world),
                ),
                loss_db: ray.total_loss_db(&self.budget),
            })
            .collect();
        Arc::new(Planned {
            rays,
            priced: tx.sectors.iter().map(|_| OnceLock::new()).collect(),
        })
    }

    /// True received power in dBm at `rx` when `tx` transmits with
    /// `tx_weights` and `rx` listens with `rx_weights`.
    pub fn rx_power_dbm(
        &self,
        tx: &Device,
        tx_weights: &WeightVector,
        rx: &Device,
        rx_weights: &WeightVector,
    ) -> f64 {
        self.plan_with_rx(tx, rx, rx_weights)
            .rx_power_dbm(tx_weights)
    }

    /// True SNR in dB for a given sector pair (no measurement noise).
    pub fn true_snr_db(
        &self,
        tx: &Device,
        tx_sector: SectorId,
        rx: &Device,
        rx_weights: &WeightVector,
    ) -> f64 {
        self.plan_with_rx(tx, rx, rx_weights).true_snr_db(tx_sector)
    }

    /// Simulates the reception of one SSW probe frame sent on `tx_sector`
    /// and received with the responder's quasi-omni pattern.
    pub fn probe<R: Rng>(
        &self,
        rng: &mut R,
        tx: &Device,
        tx_sector: SectorId,
        rx: &Device,
    ) -> Option<Measurement> {
        self.plan(tx, rx).probe(rng, tx_sector)
    }

    /// Simulates one sector sweep over `sectors`, in order, producing the
    /// readings the responder firmware would collect.
    pub fn sweep<R: Rng>(
        &self,
        rng: &mut R,
        tx: &Device,
        sectors: &[SectorId],
        rx: &Device,
    ) -> Vec<SweepReading> {
        self.plan(tx, rx).sweep(rng, sectors)
    }
}

/// Which geometry a plan of [`Link::plan`] serves: the devices'
/// identities and the bit patterns of their orientations (yaw, tilt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlanKey {
    tx: u64,
    tx_orientation: [u64; 2],
    rx: u64,
    rx_orientation: [u64; 2],
}

impl PlanKey {
    fn new(tx: &Device, rx: &Device) -> Self {
        let bits = |o: Orientation| [o.yaw_deg.to_bits(), o.tilt_deg.to_bits()];
        PlanKey {
            tx: tx.id,
            tx_orientation: bits(tx.orientation),
            rx: rx.id,
            rx_orientation: bits(rx.orientation),
        }
    }
}

/// The last [`PLAN_MEMO_CAPACITY`] geometries [`Link::plan`] built, oldest
/// first. A clone starts empty.
#[derive(Debug, Default)]
struct PlanMemo(Mutex<VecDeque<(PlanKey, Arc<Planned>)>>);

impl Clone for PlanMemo {
    fn clone(&self) -> Self {
        PlanMemo::default()
    }
}

impl PlanMemo {
    fn entries(&self) -> MutexGuard<'_, VecDeque<(PlanKey, Arc<Planned>)>> {
        // Every update leaves the deque whole, so a panic elsewhere while
        // the lock was held cannot have left it half-changed.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, key: &PlanKey) -> Option<Arc<Planned>> {
        let entries = self.entries();
        entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, p)| Arc::clone(p))
    }

    /// Remembers `planned` for `key`, forgetting the oldest geometry past
    /// the capacity. If another thread remembered `key` first, returns its
    /// plan instead, so both share one set of prices.
    fn insert(&self, key: PlanKey, planned: Arc<Planned>) -> Arc<Planned> {
        let mut entries = self.entries();
        if let Some((_, p)) = entries.iter().find(|(k, _)| *k == key) {
            return Arc::clone(p);
        }
        if entries.len() == PLAN_MEMO_CAPACITY {
            entries.pop_front();
        }
        entries.push_back((key, Arc::clone(&planned)));
        planned
    }
}

/// One planned geometry, shared by every [`ProbePlan`] of it.
#[derive(Debug)]
struct Planned {
    rays: Vec<PlannedRay>,
    /// Received power in dBm per raw sector ID, filled on first use. Sized
    /// like the transmitter's sector table. A `Vec` rather than an
    /// `Arc<[_]>`: the 1 KiB table behind an `Arc` header measured ~0.4 µs
    /// slower per miss.
    priced: Vec<OnceLock<f64>>,
}

/// The sector-independent part of the received power for one (link, tx,
/// rx) geometry, plus the received power of each transmit sector priced so
/// far; see the module docs. Built by [`Link::plan`]; valid while neither
/// device moves.
#[derive(Debug, Clone)]
pub struct ProbePlan<'a> {
    link: &'a Link,
    tx: &'a Device,
    planned: Arc<Planned>,
}

/// One environment ray, as seen by a planned geometry.
#[derive(Debug, Clone)]
struct PlannedRay {
    tx: DirectionTerms,
    rx_gain_dbi: f64,
    loss_db: f64,
}

impl ProbePlan<'_> {
    /// True received power in dBm when the transmitter uses `tx_weights`
    /// (for excitations that are not codebook sectors).
    pub fn rx_power_dbm(&self, tx_weights: &WeightVector) -> f64 {
        self.excitation_power_dbm(&self.tx.array.excitation(tx_weights))
    }

    fn excitation_power_dbm(&self, x: &Excitation) -> f64 {
        let mut total_mw = 0.0;
        for ray in &self.planned.rays {
            let g_tx = ray.tx.gain_dbi(x);
            let p = self
                .link
                .budget
                .rx_power_dbm(g_tx, ray.rx_gain_dbi, ray.loss_db);
            total_mw += db_to_linear(p);
        }
        if total_mw <= 0.0 {
            -200.0
        } else {
            linear_to_db(total_mw)
        }
    }

    /// Received power in dBm of transmit sector `id`, priced on the first
    /// call and read from the memo afterwards.
    ///
    /// # Panics
    /// Panics if the transmitter's codebook has no such sector.
    fn sector_power_dbm(&self, id: SectorId) -> f64 {
        let x = self.tx.sector_excitation(id);
        *self.planned.priced[usize::from(id.raw())].get_or_init(|| self.excitation_power_dbm(x))
    }

    /// True SNR in dB of transmit sector `tx_sector` (no measurement noise).
    pub fn true_snr_db(&self, tx_sector: SectorId) -> f64 {
        self.link.budget.snr_db(self.sector_power_dbm(tx_sector))
    }

    /// Simulates the reception of one SSW probe frame sent on `tx_sector`.
    ///
    /// # Panics
    /// Panics if the transmitter's codebook has no such sector.
    pub fn probe<R: Rng>(&self, rng: &mut R, tx_sector: SectorId) -> Option<Measurement> {
        let p = self.sector_power_dbm(tx_sector);
        let snr = self.link.budget.snr_db(p);
        self.link.model.report(rng, snr, p)
    }

    /// Simulates one sector sweep over `sectors`, in order.
    pub fn sweep<R: Rng>(&self, rng: &mut R, sectors: &[SectorId]) -> Vec<SweepReading> {
        sectors
            .iter()
            .map(|&s| SweepReading {
                sector: s,
                measurement: self.probe(rng, s),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::rng::sub_rng;
    use geom::Direction;

    fn setup() -> (Link, Device, Device) {
        let link = Link::new(Environment::anechoic(3.0));
        let tx = Device::talon(1);
        let rx = Device::talon(2);
        (link, tx, rx)
    }

    #[test]
    fn facing_devices_have_usable_snr_on_strong_sector() {
        let (link, tx, rx) = setup();
        let rxw = rx.codebook.rx_sector().weights.clone();
        let snr = link.true_snr_db(&tx, SectorId(63), &rx, &rxw);
        assert!(snr > 5.0, "broadside sector over 3 m: {snr} dB");
    }

    #[test]
    fn rotating_the_tx_away_reduces_snr() {
        let (link, mut tx, rx) = setup();
        let rxw = rx.codebook.rx_sector().weights.clone();
        let facing = link.true_snr_db(&tx, SectorId(63), &rx, &rxw);
        tx.orientation = Orientation::new(50.0, 0.0);
        let rotated = link.true_snr_db(&tx, SectorId(63), &rx, &rxw);
        assert!(
            facing > rotated + 5.0,
            "facing {facing} vs rotated {rotated}"
        );
    }

    #[test]
    fn rotation_makes_a_matching_steered_sector_best() {
        // When the TX is rotated by -40°, a sector steered to device azimuth
        // +40° should now beat the broadside sector.
        let (link, mut tx, rx) = setup();
        let rxw = rx.codebook.rx_sector().weights.clone();
        tx.orientation = Orientation::new(-40.0, 0.0);
        let broadside = link.true_snr_db(&tx, SectorId(63), &rx, &rxw);
        // Find the strongest regular sector.
        let best = tx
            .codebook
            .sweep_order()
            .iter()
            .map(|&s| link.true_snr_db(&tx, s, &rx, &rxw))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            best > broadside + 3.0,
            "best {best} vs broadside {broadside}"
        );
    }

    #[test]
    fn probe_reports_track_true_snr() {
        let (link, tx, rx) = setup();
        let rxw = rx.codebook.rx_sector().weights.clone();
        let true_snr = link.true_snr_db(&tx, SectorId(63), &rx, &rxw);
        let mut rng = sub_rng(7, "probe");
        let mut readings = Vec::new();
        for _ in 0..200 {
            if let Some(m) = link.probe(&mut rng, &tx, SectorId(63), &rx) {
                readings.push(m.snr_db);
            }
        }
        assert!(readings.len() > 150);
        let mean = geom::stats::mean(&readings).unwrap();
        let expected = (true_snr - link.model.report_offset_db).clamp(-7.0, 12.0);
        assert!(
            (mean - expected).abs() < 1.5,
            "mean report {mean} vs expected {expected} (true {true_snr})"
        );
    }

    #[test]
    fn sweep_covers_requested_sectors_in_order() {
        let (link, tx, rx) = setup();
        let mut rng = sub_rng(8, "sweep");
        let order = tx.codebook.sweep_order();
        let sweep = link.sweep(&mut rng, &tx, &order, &rx);
        assert_eq!(sweep.len(), 34);
        for (r, &s) in sweep.iter().zip(order.iter()) {
            assert_eq!(r.sector, s);
        }
    }

    #[test]
    fn multipath_environment_raises_offboresight_power() {
        // In the conference room, a sector pointed at the whiteboard path
        // receives noticeably more than in an anechoic room.
        let tx = Device::talon(3);
        let rx = Device::talon(4);
        let rxw = rx.codebook.rx_sector().weights.clone();
        let conf = Link::new(Environment::conference_room());
        let anech = Link::new(Environment::anechoic(6.0));
        // Steer at the strongest reflection's departure azimuth (~-26.6°).
        let refl_dir = conf.environment().rays[1].depart_world;
        let w = tx.array.quantize(
            &tx.array
                .steering_weights(&Direction::new(refl_dir.az_deg, refl_dir.el_deg)),
        );
        let p_conf = conf.rx_power_dbm(&tx, &w, &rx, &rxw);
        let p_anech = anech.rx_power_dbm(&tx, &w, &rx, &rxw);
        assert!(
            p_conf > p_anech + 2.0,
            "conference {p_conf} vs anechoic {p_anech}"
        );
    }

    /// The gain formula of `PhasedArray::gain_dbi`, written out directly
    /// from the array's primitives in the same operation order.
    fn reference_gain_dbi(array: &PhasedArray, w: &WeightVector, dir: &Direction) -> f64 {
        let feed = w.feed_power();
        if feed <= 0.0 {
            return -60.0;
        }
        let mut af = talon_array::Complex::ZERO;
        for i in 0..w.len() {
            let eps = array.imperfections.element_factor(i);
            if w.get(i).abs2() == 0.0 || eps.abs2() == 0.0 {
                continue;
            }
            af +=
                w.get(i) * eps * talon_array::Complex::from_phase(array.geometry.phase_at(i, dir));
        }
        let af2 = af.abs2() / feed;
        if af2 > 0.0 {
            let g = array.element.gain_dbi(dir) + geom::db::linear_to_db(af2)
                - array.imperfections.shadow_db(dir);
            g.max(-60.0)
        } else {
            -60.0
        }
    }

    #[test]
    fn sector_table_gain_matches_gain_dbi_bit_for_bit() {
        // A Talon device with dead elements, and a random-beam device.
        let array = PhasedArray::talon(12);
        let codebook = Codebook::pseudo_random(&array, 34, 12);
        let devices = [Device::talon(11), Device::new(array, codebook)];
        for dev in &devices {
            assert!(dev.array.imperfections.dead.iter().any(|&d| d));
            for az in (-180..=180).step_by(30) {
                for el in [-40.0, -10.0, 15.0, 45.0] {
                    let dir = Direction::new(f64::from(az), el);
                    let terms = dev.array.direction_terms(&dir);
                    for sector in dev.codebook.sectors() {
                        let x = dev.sector_excitation(sector.id);
                        let expected = dev.array.gain_dbi(&sector.weights, &dir);
                        let at = format!("sector {} az {az} el {el}", sector.id);
                        assert_eq!(terms.gain_dbi(x).to_bits(), expected.to_bits(), "{at}");
                        assert_eq!(
                            dev.array.excitation_gain_dbi(x, &dir).to_bits(),
                            expected.to_bits(),
                            "{at}"
                        );
                        assert_eq!(
                            reference_gain_dbi(&dev.array, &sector.weights, &dir).to_bits(),
                            expected.to_bits(),
                            "{at}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sector_table_skips_dead_and_switched_off_elements() {
        let dev = Device::talon(11);
        let dead = &dev.array.imperfections.dead;
        for sector in dev.codebook.sectors() {
            let w = &sector.weights;
            let alive = (0..w.len())
                .filter(|&i| w.get(i).abs2() > 0.0 && !dead[i])
                .count();
            assert_eq!(dev.sector_excitation(sector.id).active_elements(), alive);
        }
    }

    #[test]
    fn the_plan_memo_stays_within_its_capacity() {
        let (link, mut tx, rx) = setup();
        for i in 0..1000 {
            tx.orientation = Orientation::new(-90.0 + f64::from(i) * 0.18, 0.0);
            link.plan(&tx, &rx).true_snr_db(SectorId(63));
            let remembered = link.plans.entries().len();
            assert!(remembered <= PLAN_MEMO_CAPACITY, "{remembered} after {i}");
        }
        assert_eq!(link.plans.entries().len(), PLAN_MEMO_CAPACITY);
    }

    #[test]
    fn a_clone_is_the_same_device_and_a_twin_is_not() {
        let (link, tx, rx) = setup();
        let twin = Device::talon(1);
        let clone = tx.clone();
        for dev in [&tx, &twin, &clone] {
            link.plan(dev, &rx);
        }
        assert_eq!(link.plans.entries().len(), 2);
        assert!(link.clone().plans.entries().is_empty());
    }

    #[test]
    #[should_panic(expected = "must exist in the codebook")]
    fn probing_unknown_sector_panics() {
        let (link, tx, rx) = setup();
        let mut rng = sub_rng(9, "bad");
        link.probe(&mut rng, &tx, SectorId(40), &rx);
    }
}
