//! Golden-equivalence for the GEMM-shaped batched estimator
//! (`css::batch`) against the scalar fused kernel:
//!
//! * the `F64` batch path must match the scalar estimator to ≤ 1e-12 on
//!   scores for every link of every batch, and agree on the argmax up to
//!   exact plateau ties (the report-floor clip of the gain matrix makes
//!   distant cells mathematically identical when only one probed sector
//!   survives the clip — rounding, not logic, picks among them);
//! * the reduced-precision `F32` path must stay within its documented
//!   tolerance and agree with the f64 argmax (same winning cell, same
//!   selected sector) at the configured rates over 1 000 seeded
//!   beam-pattern scenarios;
//! * the 1-, 4- and 8-lane inner kernels must be bit-identical;
//! * batch composition (alone vs inside a larger batch) must not change
//!   any link's bits — the property the deterministic parallel engine
//!   relies on.

use chamber::SectorPatterns;
use css::estimator::{CompressiveEstimator, CorrelationMode, EstimatorOptions};
use css::{BatchEstimator, BatchScratch, KernelPath};
use geom::rng::sub_rng;
use geom::sphere::{Direction, GridSpec, SphericalGrid};
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

/// A realistic store: directional lobes with random centers, widths and
/// ripple, like the chamber-measured Talon patterns. Correlation maps
/// over these are smooth with a dominant peak, so argmax agreement is a
/// meaningful metric (no exact plateaus).
fn beam_store(rng: &mut StdRng) -> SectorPatterns {
    let az_step = [2.0, 3.0][rng.gen_range(0..2usize)];
    let el = if rng.gen_bool(0.5) {
        GridSpec::fixed(0.0)
    } else {
        GridSpec::new(0.0, 30.0, 10.0)
    };
    let grid = SphericalGrid::new(GridSpec::new(-60.0, 60.0, az_step), el);
    let n_sectors = rng.gen_range(6..=16);
    let mut store = SectorPatterns::new(grid.clone());
    for s in 0..n_sectors {
        let az0 = rng.gen_range(-55.0..55.0);
        let el0 = rng.gen_range(0.0..30.0);
        let width = rng.gen_range(60.0..160.0);
        let peak = rng.gen_range(5.0..15.0);
        let gains: Vec<f64> = grid
            .iter()
            .map(|(_, d)| {
                let da = d.az_deg - az0;
                let de = d.el_deg - el0;
                peak - (da * da + 0.5 * de * de) / width + rng.gen_range(-1.0..1.0)
            })
            .collect();
        store.insert(
            SectorId(s as u8 + 1),
            GainPattern::from_table(grid.clone(), gains),
        );
    }
    store
}

/// Readings consistent with a hidden source direction: each probed
/// sector reads its pattern gain at the truth minus a common path loss,
/// plus noise; weak sectors are sometimes reported as masked. Retries
/// until at least four probes carry a measurement — fewer usable probes
/// leave the correlation map multi-modal with knife-edge argmaxes, which
/// measures tie-breaking luck rather than kernel precision.
fn beam_readings(rng: &mut StdRng, store: &SectorPatterns) -> Vec<SweepReading> {
    loop {
        let readings = beam_readings_once(rng, store);
        if readings.iter().filter(|r| r.measurement.is_some()).count() >= 4 {
            return readings;
        }
    }
}

fn beam_readings_once(rng: &mut StdRng, store: &SectorPatterns) -> Vec<SweepReading> {
    let ids = store.sector_ids();
    let truth = Direction::new(rng.gen_range(-55.0..55.0), rng.gen_range(0.0..30.0));
    let m = rng.gen_range(4..=ids.len());
    let subset = geom::rng::sample_indices(rng, ids.len(), m);
    let path_loss = rng.gen_range(0.0..8.0);
    subset
        .into_iter()
        .map(|i| {
            let gain = store
                .get(ids[i])
                .expect("id from store")
                .gain_interp(&truth);
            let snr = gain - path_loss + rng.gen_range(-1.0..1.0);
            let measurement = if snr < -7.0 && rng.gen_bool(0.5) {
                None
            } else {
                Some(Measurement {
                    snr_db: snr,
                    rssi_dbm: snr - 65.0 + rng.gen_range(-0.5..0.5),
                })
            };
            SweepReading {
                sector: ids[i],
                measurement,
            }
        })
        .collect()
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
            let batch = BatchEstimator::new(&store, mode, options, KernelPath::F64);
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

/// Measured agreement of the reduced-precision path against the f64
/// reference over many seeded beam-pattern scenarios, at the deployment
/// options (energy prior + smoothing + sub-cell refinement).
struct Agreement {
    compared: usize,
    same_presence: usize,
    same_cell: usize,
    same_sector: usize,
    max_score_err_same_cell: f64,
}

fn measure_agreement(path: KernelPath, scenarios: usize) -> Agreement {
    let mut rng = sub_rng(777, "batch-golden-quantized");
    let mut agg = Agreement {
        compared: 0,
        same_presence: 0,
        same_cell: 0,
        same_sector: 0,
        max_score_err_same_cell: 0.0,
    };
    for _ in 0..scenarios {
        let store = beam_store(&mut rng);
        let readings = beam_readings(&mut rng, &store);
        let options = EstimatorOptions::default();
        let golden = BatchEstimator::new(
            &store,
            CorrelationMode::JointSnrRssi,
            options,
            KernelPath::F64,
        );
        let quant = BatchEstimator::new(&store, CorrelationMode::JointSnrRssi, options, path);
        let mut scratch = BatchScratch::new();
        let a = golden.estimate_batch(&mut scratch, &[&readings])[0];
        let b = quant.estimate_batch(&mut scratch, &[&readings])[0];
        agg.compared += 1;
        if a.is_some() != b.is_some() {
            continue;
        }
        agg.same_presence += 1;
        let (Some(a), Some(b)) = (a, b) else { continue };
        if a.cell == b.cell {
            agg.same_cell += 1;
            agg.max_score_err_same_cell =
                agg.max_score_err_same_cell.max((a.score - b.score).abs());
        }
        if store.best_sector_at(&a.direction) == store.best_sector_at(&b.direction) {
            agg.same_sector += 1;
        }
    }
    println!(
        "{path:?}: compared {}, presence {}, cell {}, sector {}, max score err {:.3e}",
        agg.compared,
        agg.same_presence,
        agg.same_cell,
        agg.same_sector,
        agg.max_score_err_same_cell
    );
    agg
}

#[test]
fn f32_path_agrees_with_f64_within_documented_tolerance() {
    // Documented contract (DESIGN.md "Batched estimation & precision
    // modes"): the f32 path reproduces the f64 winning cell in ≥ 99 % of
    // scenarios, selects the same sector in ≥ 99 %, and same-cell scores
    // agree to ≤ 1e-4.
    let agg = measure_agreement(KernelPath::F32, 1_000);
    assert_eq!(agg.same_presence, agg.compared, "degeneracy must agree");
    assert!(
        agg.same_cell as f64 >= 0.99 * agg.compared as f64,
        "f32 argmax agreement too low: {}/{}",
        agg.same_cell,
        agg.compared
    );
    assert!(
        agg.same_sector as f64 >= 0.99 * agg.compared as f64,
        "f32 sector agreement too low: {}/{}",
        agg.same_sector,
        agg.compared
    );
    assert!(
        agg.max_score_err_same_cell <= 1e-4,
        "f32 same-cell score error {} above 1e-4",
        agg.max_score_err_same_cell
    );
}

#[test]
fn lane_widths_are_bit_identical() {
    let mut rng = sub_rng(515, "batch-golden-lanes");
    for trial in 0..20 {
        let store = random_store(&mut rng);
        // 13 links exercises the 8-, 4- and 1-lane kernels in one sweep.
        let links_store: Vec<Vec<SweepReading>> =
            (0..13).map(|_| random_readings(&mut rng, &store)).collect();
        let links: Vec<&[SweepReading]> = links_store.iter().map(Vec::as_slice).collect();
        for path in [KernelPath::F64, KernelPath::F32] {
            let options = options_for(trial);
            let mut scratch = BatchScratch::new();
            let runs: Vec<_> = [None, Some(1), Some(4), Some(8)]
                .into_iter()
                .map(|lanes| {
                    BatchEstimator::new(&store, CorrelationMode::JointSnrRssi, options, path)
                        .with_forced_lanes(lanes)
                        .estimate_batch(&mut scratch, &links)
                })
                .collect();
            for other in &runs[1..] {
                for (b, (a, o)) in runs[0].iter().zip(other).enumerate() {
                    let ctx = format!("trial {trial}, path {path:?}, link {b}");
                    match (a, o) {
                        (None, None) => {}
                        (Some(a), Some(o)) => {
                            assert_eq!(
                                a.score.to_bits(),
                                o.score.to_bits(),
                                "{ctx}: lane width changed the score"
                            );
                            assert_eq!(
                                (a.direction.az_deg.to_bits(), a.direction.el_deg.to_bits()),
                                (o.direction.az_deg.to_bits(), o.direction.el_deg.to_bits()),
                                "{ctx}: lane width changed the direction"
                            );
                            assert_eq!(a.cell, o.cell, "{ctx}: lane width changed the argmax");
                        }
                        (a, o) => panic!("{ctx}: lane width changed degeneracy: {a:?} vs {o:?}"),
                    }
                }
            }
        }
    }
}

#[test]
fn batch_composition_does_not_change_any_link() {
    // Link b's column depends only on its own panel column: estimating a
    // link alone, or inside any batch, at any position, must be
    // bit-identical. This is what makes the batched eval engine
    // thread-count-invariant.
    let mut rng = sub_rng(616, "batch-golden-composition");
    let store = random_store(&mut rng);
    let links_store: Vec<Vec<SweepReading>> =
        (0..16).map(|_| random_readings(&mut rng, &store)).collect();
    let links: Vec<&[SweepReading]> = links_store.iter().map(Vec::as_slice).collect();
    for path in [KernelPath::F64, KernelPath::F32] {
        let options = options_for(0);
        let est = BatchEstimator::new(&store, CorrelationMode::JointSnrRssi, options, path);
        let mut scratch = BatchScratch::new();
        let whole = est.estimate_batch(&mut scratch, &links);
        for (b, link) in links.iter().enumerate() {
            let alone = est.estimate_batch(&mut scratch, &[link])[0];
            assert_eq!(alone, whole[b], "path {path:?}, link {b}: alone vs batched");
        }
        // A shuffled sub-batch sees the same per-link numbers.
        let sub: Vec<&[SweepReading]> = vec![links[9], links[2], links[14]];
        let sub_out = est.estimate_batch(&mut scratch, &sub);
        assert_eq!(sub_out[0], whole[9], "path {path:?}");
        assert_eq!(sub_out[1], whole[2], "path {path:?}");
        assert_eq!(sub_out[2], whole[14], "path {path:?}");
    }
}
