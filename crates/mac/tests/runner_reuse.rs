//! An `SlsRunner` takes its probe plans and builds its sweep orders on
//! the first run and reuses them afterwards. K runs on one runner must
//! produce the same outcomes, bit for bit, as K runs that each use a fresh
//! runner on a memo-less link (so every plan is built and priced cold) and
//! share one RNG: every frame, every reading, both selected sectors and
//! the duration.

use geom::rng::{sample_indices, sub_rng};
use mac80211ad::sls::{FeedbackPolicy, MaxSnrPolicy, SlsOutcome, SlsRunner};
use rand::rngs::StdRng;
use rand::SeedableRng;
use talon_array::SectorId;
use talon_channel::{Device, Environment, Link, Orientation, SweepReading};

/// Runs per comparison.
const RUNS: usize = 6;

/// Probes a fresh random subset per sweep (so later runs price sectors
/// the first run never drew, and re-draw some it did), picks by max SNR.
struct RandomSubset {
    rng: StdRng,
    m: usize,
}

impl RandomSubset {
    fn new(seed: u64, m: usize) -> Self {
        RandomSubset {
            rng: StdRng::seed_from_u64(seed),
            m,
        }
    }
}

impl FeedbackPolicy for RandomSubset {
    fn probe_sectors(&mut self, full: &[SectorId]) -> Vec<SectorId> {
        sample_indices(&mut self.rng, full.len(), self.m.min(full.len()))
            .into_iter()
            .map(|i| full[i])
            .collect()
    }

    fn select(&mut self, readings: &[SweepReading]) -> Option<SectorId> {
        MaxSnrPolicy.select(readings)
    }
}

/// The two policies of one comparison, built afresh for each side.
type Policies = (Box<dyn FeedbackPolicy>, Box<dyn FeedbackPolicy>);

/// Stock max-SNR on both sides (`None`), or `M`-sector random subsets.
const CASES: [(&str, Option<usize>); 3] = [
    ("max_snr", None),
    ("random_m14", Some(14)),
    ("random_m5", Some(5)),
];

fn policies(m: Option<usize>) -> Policies {
    match m {
        None => (Box::new(MaxSnrPolicy), Box::new(MaxSnrPolicy)),
        Some(m) => (
            Box::new(RandomSubset::new(1, m)),
            Box::new(RandomSubset::new(2, m)),
        ),
    }
}

fn links() -> Vec<Link> {
    vec![
        Link::new(Environment::anechoic(3.0)),
        Link::new(Environment::lab()),
        Link::new(Environment::conference_room()),
    ]
}

/// A reading's bit patterns, so the comparison cannot pass on
/// `-0.0 == 0.0` or fail on NaN.
fn reading_bits(readings: &[SweepReading]) -> Vec<(u8, Option<(u64, u64)>)> {
    readings
        .iter()
        .map(|r| {
            let m = r
                .measurement
                .map(|m| (m.snr_db.to_bits(), m.rssi_dbm.to_bits()));
            (r.sector.raw(), m)
        })
        .collect()
}

fn assert_same(reused: &SlsOutcome, fresh: &SlsOutcome, at: &str) {
    assert_eq!(reused.frames, fresh.frames, "{at}: frames");
    assert_eq!(
        reading_bits(&reused.iss_readings),
        reading_bits(&fresh.iss_readings),
        "{at}: ISS readings"
    );
    assert_eq!(
        reading_bits(&reused.rss_readings),
        reading_bits(&fresh.rss_readings),
        "{at}: RSS readings"
    );
    assert_eq!(
        reused.initiator_tx_sector, fresh.initiator_tx_sector,
        "{at}: initiator sector"
    );
    assert_eq!(
        reused.responder_tx_sector, fresh.responder_tx_sector,
        "{at}: responder sector"
    );
    assert_eq!(reused.duration, fresh.duration, "{at}: duration");
}

#[test]
fn runs_on_one_runner_equal_runs_on_fresh_runners() {
    for (li, link) in links().iter().enumerate() {
        let mut initiator = Device::talon(1);
        initiator.orientation = Orientation::new(-25.0, 5.0);
        let responder = Device::talon(2);
        for (name, m) in CASES {
            let seed = li as u64;

            let runner = SlsRunner::new(link, &initiator, &responder);
            let (mut pi, mut pr) = policies(m);
            let mut rng = sub_rng(seed, "runner-reuse");
            let reused: Vec<SlsOutcome> = (0..RUNS)
                .map(|_| runner.run(&mut rng, &mut *pi, &mut *pr))
                .collect();

            let (mut pi, mut pr) = policies(m);
            let mut rng = sub_rng(seed, "runner-reuse");
            let fresh: Vec<SlsOutcome> = (0..RUNS)
                .map(|_| {
                    let cold = link.clone();
                    SlsRunner::new(&cold, &initiator, &responder).run(&mut rng, &mut *pi, &mut *pr)
                })
                .collect();

            for (k, (r, f)) in reused.iter().zip(&fresh).enumerate() {
                assert_same(r, f, &format!("link {li} {name} run {k}"));
            }
        }
    }
}

#[test]
fn the_frame_transcript_is_allocated_once() {
    let link = Link::new(Environment::lab());
    let (initiator, responder) = (Device::talon(1), Device::talon(2));
    let runner = SlsRunner::new(&link, &initiator, &responder);
    let mut rng = sub_rng(9, "runner-reuse-frames");
    for m in [34, 14, 2] {
        let out = runner.run(
            &mut rng,
            &mut RandomSubset::new(5, m),
            &mut RandomSubset::new(6, m),
        );
        assert_eq!(out.frames.len(), 2 * m + 2, "M = {m}");
        // Sized for the full responder sweep before the RSS subset is
        // known: never grown, so never reallocated.
        assert_eq!(out.frames.capacity(), m + 34 + 2, "M = {m}");
    }
}
