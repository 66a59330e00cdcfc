//! Golden-equivalence: the fused grid-major correlation kernel must match
//! the retained naive reference implementation to ≤ 1e-12 over randomized
//! pattern stores, probe subsets, masks, and both correlation modes.
//!
//! The only intentional numerical deviation between the two paths is the
//! energy prior (`powf(0.25)` vs two square roots), which differs by a few
//! ulps on values in [0, 1] — far inside the tolerance.

use chamber::SectorPatterns;
use css::estimator::reference::ReferenceEstimator;
use css::estimator::{CompressiveEstimator, CorrelationMode, EstimatorOptions, EstimatorScratch};
use geom::rng::sub_rng;
use geom::sphere::{GridSpec, SphericalGrid};
use rand::rngs::StdRng;
use rand::Rng;
use talon_array::{GainPattern, SectorId};
use talon_channel::{Measurement, SweepReading};

const TOL: f64 = 1e-12;

/// A pattern store with random geometry and random (but plausible) gains.
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
        // Gains span below and above the report floor so the floor clamp
        // is exercised.
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
                None // masked: probed but nothing reported
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
            sector: SectorId(200), // no measured pattern
            measurement: Some(Measurement {
                snr_db: 10.0,
                rssi_dbm: -55.0,
            }),
        });
    }
    readings
}

fn assert_maps_match(fast: &[f64], golden: &[f64], ctx: &str) {
    assert_eq!(fast.len(), golden.len(), "{ctx}: map sizes");
    for (i, (a, b)) in fast.iter().zip(golden).enumerate() {
        assert!(
            (a - b).abs() <= TOL,
            "{ctx}: map[{i}] diverges: fast {a} vs golden {b} (|Δ| = {})",
            (a - b).abs()
        );
    }
}

#[test]
fn fused_kernel_matches_reference_over_randomized_inputs() {
    let mut rng = sub_rng(2024, "golden-kernel");
    let option_grid = [
        EstimatorOptions {
            energy_prior: true,
            smoothing: true,
            subcell_refinement: true,
        },
        EstimatorOptions {
            energy_prior: false,
            smoothing: true,
            subcell_refinement: false,
        },
        EstimatorOptions {
            energy_prior: true,
            smoothing: false,
            subcell_refinement: true,
        },
        EstimatorOptions {
            energy_prior: false,
            smoothing: false,
            subcell_refinement: false,
        },
    ];
    let mut nontrivial = 0usize;
    for trial in 0..60 {
        let store = random_store(&mut rng);
        let readings = random_readings(&mut rng, &store);
        for mode in [CorrelationMode::SnrOnly, CorrelationMode::JointSnrRssi] {
            let options = option_grid[trial % option_grid.len()];
            let fast = CompressiveEstimator::new(&store, mode).with_options(options);
            let golden = ReferenceEstimator::new(&store, mode).with_options(options);
            let ctx = format!("trial {trial}, mode {mode:?}, options {options:?}");

            assert_maps_match(
                &fast.correlation_map(&readings),
                &golden.correlation_map(&readings),
                &ctx,
            );

            let a = fast.estimate(&readings);
            let b = golden.estimate(&readings);
            match (a, b) {
                (None, None) => {}
                (Some((da, wa)), Some((db, wb))) => {
                    nontrivial += 1;
                    assert!(
                        (da.az_deg - db.az_deg).abs() <= 1e-9
                            && (da.el_deg - db.el_deg).abs() <= 1e-9,
                        "{ctx}: directions diverge: {da} vs {db}"
                    );
                    assert!(
                        (wa - wb).abs() <= TOL,
                        "{ctx}: scores diverge: {wa} vs {wb}"
                    );
                }
                (a, b) => panic!("{ctx}: one path degenerate: fast {a:?} vs golden {b:?}"),
            }
        }
    }
    assert!(
        nontrivial >= 40,
        "randomization produced only {nontrivial} non-degenerate estimates"
    );
}

#[test]
fn scratch_reuse_does_not_perturb_results() {
    // One warm scratch across many different inputs must give the same
    // answers as fresh allocation every time.
    let mut rng = sub_rng(7, "golden-scratch");
    let store = random_store(&mut rng);
    let est = CompressiveEstimator::new(&store, CorrelationMode::JointSnrRssi);
    let mut scratch = EstimatorScratch::new();
    for _ in 0..25 {
        let readings = random_readings(&mut rng, &store);
        let warm = est.estimate_with(&mut scratch, &readings);
        let cold = est.estimate_with(&mut EstimatorScratch::new(), &readings);
        assert_eq!(warm, cold, "warm scratch must not leak state");
    }
}
