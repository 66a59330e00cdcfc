//! Golden-equivalence for the GEMM-shaped batched estimator
//! (`css::batch`) against the scalar fused kernel:
//!
//! * the batch must match the scalar estimator to ≤ 1e-12 on scores for
//!   every link of every batch, and agree on the argmax up to exact
//!   plateau ties (the report-floor clip of the gain matrix makes distant
//!   cells mathematically identical when only one probed sector survives
//!   the clip — rounding, not logic, picks among them);
//! * batch composition (alone, inside a batch that runs the 16-, 8-, 4-
//!   and 1-lane kernels, or in a shuffled sub-batch) must not change any
//!   link's bits — the property the deterministic parallel engine relies
//!   on.

use chamber::SectorPatterns;
use css::estimator::{CompressiveEstimator, CorrelationMode, EstimatorOptions};
use css::{BatchEstimator, BatchScratch, LinkEstimate};
use geom::rng::sub_rng;
use geom::sphere::{GridSpec, SphericalGrid};
use rand::rngs::StdRng;
use rand::Rng;
use talon_array::{GainPattern, SectorId};
use talon_channel::{Measurement, SweepReading};

const TOL: f64 = 1e-12;

/// A pattern store with random geometry and fully random gains. Under the
/// −7 dB report-floor clip this is deliberately pathological: many cells
/// keep only one unclipped probed sector, which produces exact
/// correlation plateaus — the hardest case for argmax agreement.
fn random_store(rng: &mut StdRng) -> SectorPatterns {
    let az_step = [2.0, 3.0, 7.5][rng.gen_range(0..3usize)];
    let el = if rng.gen_bool(0.5) {
        GridSpec::fixed(0.0)
    } else {
        GridSpec::new(0.0, 30.0, 10.0)
    };
    let grid = SphericalGrid::new(GridSpec::new(-60.0, 60.0, az_step), el);
    let n_sectors = rng.gen_range(3..=20);
    let mut store = SectorPatterns::new(grid.clone());
    for s in 0..n_sectors {
        let gains: Vec<f64> = (0..grid.len())
            .map(|_| rng.gen_range(-30.0..15.0))
            .collect();
        store.insert(
            SectorId(s as u8 + 1),
            GainPattern::from_table(grid.clone(), gains),
        );
    }
    store
}

/// Random readings over a random probe subset: some masked, some for
/// sectors the store has never measured.
fn random_readings(rng: &mut StdRng, store: &SectorPatterns) -> Vec<SweepReading> {
    let ids = store.sector_ids();
    let m = rng.gen_range(0..=ids.len());
    let subset = geom::rng::sample_indices(rng, ids.len(), m);
    let mut readings: Vec<SweepReading> = subset
        .into_iter()
        .map(|i| {
            let measurement = if rng.gen_bool(0.25) {
                None
            } else {
                let snr = rng.gen_range(-7.0..25.0);
                Some(Measurement {
                    snr_db: snr,
                    rssi_dbm: snr - 65.0 + rng.gen_range(-3.0..3.0),
                })
            };
            SweepReading {
                sector: ids[i],
                measurement,
            }
        })
        .collect();
    if rng.gen_bool(0.3) {
        readings.push(SweepReading {
            sector: SectorId(200),
            measurement: Some(Measurement {
                snr_db: 10.0,
                rssi_dbm: -55.0,
            }),
        });
    }
    readings
}

fn options_for(variant: usize) -> EstimatorOptions {
    EstimatorOptions {
        energy_prior: variant.is_multiple_of(2),
        smoothing: variant % 4 < 2,
        subcell_refinement: !variant.is_multiple_of(3),
    }
}

#[test]
fn f64_batch_matches_scalar_estimator() {
    let mut rng = sub_rng(3101, "batch-golden-f64");
    let mut nontrivial = 0usize;
    let mut plateau_ties = 0usize;
    for trial in 0..40 {
        let store = random_store(&mut rng);
        let links_store: Vec<Vec<SweepReading>> =
            (0..7).map(|_| random_readings(&mut rng, &store)).collect();
        let links: Vec<&[SweepReading]> = links_store.iter().map(Vec::as_slice).collect();
        for mode in [CorrelationMode::SnrOnly, CorrelationMode::JointSnrRssi] {
            let options = options_for(trial);
            let scalar = CompressiveEstimator::new(&store, mode).with_options(options);
            let batch = BatchEstimator::new(&store, mode, options);
            let mut scratch = BatchScratch::new();
            let got = batch.estimate_batch(&mut scratch, &links);
            assert_eq!(got.len(), links.len());
            for (b, readings) in links_store.iter().enumerate() {
                let want = scalar.estimate(readings);
                let ctx = format!("trial {trial}, mode {mode:?}, link {b}");
                match (got[b], want) {
                    (None, None) => {}
                    (Some(e), Some((dir, score))) => {
                        nontrivial += 1;
                        assert!(
                            (e.score - score).abs() <= TOL,
                            "{ctx}: scores diverge: {} vs {score}",
                            e.score
                        );
                        let same_dir = (e.direction.az_deg - dir.az_deg).abs() <= 1e-6
                            && (e.direction.el_deg - dir.el_deg).abs() <= 1e-6;
                        if !same_dir {
                            // The clipped gain matrix can make distant
                            // cells mathematically identical (exact
                            // plateau). The two kernels round `w`
                            // differently — uv²/(uu·vv) vs
                            // (uv/(√uu·√vv))² — so each may land on a
                            // different plateau member. Accept the
                            // disagreement iff the batch's cell sits on
                            // the scalar map's 1e-12 plateau.
                            let smap = scalar.correlation_map(readings);
                            let best = smap.iter().copied().fold(0.0, f64::max);
                            assert!(
                                smap[e.cell] >= best - TOL,
                                "{ctx}: batch argmax {} is not on the scalar plateau \
                                 ({} vs best {best}); scalar dir {dir}, batch {}",
                                e.cell,
                                smap[e.cell],
                                e.direction
                            );
                            plateau_ties += 1;
                        }
                    }
                    (a, b) => panic!("{ctx}: one path degenerate: batch {a:?} vs scalar {b:?}"),
                }
            }
        }
    }
    assert!(
        nontrivial >= 150,
        "randomization produced only {nontrivial} non-degenerate estimates"
    );
    assert!(
        plateau_ties * 4 <= nontrivial,
        "plateau ties should be the exception: {plateau_ties}/{nontrivial}"
    );
}

/// Every bit of one link's estimate.
fn bits(e: Option<LinkEstimate>) -> Option<(u64, u64, u64, usize)> {
    e.map(|e| {
        (
            e.score.to_bits(),
            e.direction.az_deg.to_bits(),
            e.direction.el_deg.to_bits(),
            e.cell,
        )
    })
}

#[test]
fn batch_composition_does_not_change_any_link() {
    // Link b's column depends only on its own panel column: estimating a
    // link alone, or inside any batch, at any position and lane width,
    // must be bit-identical. This is what makes the batched eval engine
    // thread-count-invariant.
    let mut rng = sub_rng(616, "batch-golden-composition");
    let mut nontrivial = 0usize;
    for trial in 0..20 {
        let store = random_store(&mut rng);
        // 29 = 16 + 8 + 4 + 1 links runs every lane kernel in one sweep.
        let links_store: Vec<Vec<SweepReading>> =
            (0..29).map(|_| random_readings(&mut rng, &store)).collect();
        let links: Vec<&[SweepReading]> = links_store.iter().map(Vec::as_slice).collect();
        let est = BatchEstimator::new(&store, CorrelationMode::JointSnrRssi, options_for(trial));
        let mut scratch = BatchScratch::new();
        let whole = est.estimate_batch(&mut scratch, &links);
        nontrivial += whole.iter().flatten().count();
        for (b, link) in links.iter().enumerate() {
            let alone = est.estimate_batch(&mut scratch, &[link])[0];
            assert_eq!(
                bits(alone),
                bits(whole[b]),
                "trial {trial}, link {b}: alone"
            );
        }
        // A shuffled sub-batch of random size sees the same per-link bits.
        let mut order: Vec<usize> = (0..links.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        order.truncate(rng.gen_range(2..=links.len()));
        let sub: Vec<&[SweepReading]> = order.iter().map(|&i| links[i]).collect();
        let sub_out = est.estimate_batch(&mut scratch, &sub);
        for (&i, &got) in order.iter().zip(&sub_out) {
            assert_eq!(
                bits(got),
                bits(whole[i]),
                "trial {trial}, link {i}: sub-batch"
            );
        }
    }
    assert!(
        nontrivial >= 200,
        "only {nontrivial} of 580 links estimated"
    );
}
