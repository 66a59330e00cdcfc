//! Non-finite readings are missing readings.
//!
//! `talon replay` feeds the kernels readings decoded from a trace, and the
//! decoder does not range-check them. Over readings drawn from {NaN, ±inf,
//! ±1e300, ±f64::MAX, normal}, neither kernel may panic, and each must
//! return, bit for bit, what it returns with every non-finite measurement
//! replaced by `None`.

use chamber::SectorPatterns;
use css::estimator::{CompressiveEstimator, CorrelationMode, EstimatorOptions};
use css::{BatchEstimator, BatchScratch, KernelClosure, LinkEstimate};
use geom::rng::sub_rng;
use geom::sphere::{Direction, GridSpec, SphericalGrid};
use rand::rngs::StdRng;
use rand::Rng;
use talon_array::{GainPattern, SectorId};
use talon_channel::{Measurement, SweepReading};

const SPECIAL: [f64; 7] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e300,
    -1e300,
    f64::MAX,
    -f64::MAX,
];

/// Six directional lobes on a 2-D grid, so both refinement axes run.
fn store() -> SectorPatterns {
    let grid = SphericalGrid::new(
        GridSpec::new(-60.0, 60.0, 4.0),
        GridSpec::new(0.0, 30.0, 10.0),
    );
    let mut store = SectorPatterns::new(grid.clone());
    for s in 0..6u8 {
        let az0 = -50.0 + 20.0 * f64::from(s);
        let gains: Vec<f64> = grid
            .iter()
            .map(|(_, d)| {
                let (da, de) = (d.az_deg - az0, d.el_deg - 10.0);
                12.0 - (da * da + de * de) / 60.0
            })
            .collect();
        store.insert(
            SectorId(s + 1),
            GainPattern::from_table(grid.clone(), gains),
        );
    }
    store
}

fn value(rng: &mut StdRng, normal: f64) -> f64 {
    if rng.gen_bool(0.6) {
        normal
    } else {
        SPECIAL[rng.gen_range(0..SPECIAL.len())]
    }
}

/// Readings over every pattern sector plus an unknown one; some masked,
/// many carrying a special value in SNR, RSSI or both.
fn readings(rng: &mut StdRng) -> Vec<SweepReading> {
    (1..=7u8)
        .map(|s| {
            let snr = rng.gen_range(-7.0..25.0);
            let measurement = (!rng.gen_bool(0.15)).then(|| Measurement {
                snr_db: value(rng, snr),
                rssi_dbm: value(rng, snr - 65.0),
            });
            SweepReading {
                sector: SectorId(if s == 7 { 200 } else { s }),
                measurement,
            }
        })
        .collect()
}

/// The same readings with every non-finite measurement reported missing.
fn masked(readings: &[SweepReading]) -> Vec<SweepReading> {
    readings
        .iter()
        .map(|r| SweepReading {
            measurement: r
                .measurement
                .filter(|m| m.snr_db.is_finite() && m.rssi_dbm.is_finite()),
            ..*r
        })
        .collect()
}

fn dir_bits(d: Direction) -> (u64, u64) {
    (d.az_deg.to_bits(), d.el_deg.to_bits())
}

fn scalar_bits(e: Option<(Direction, f64)>) -> Option<((u64, u64), u64)> {
    e.map(|(d, w)| (dir_bits(d), w.to_bits()))
}

fn batch_bits(e: Option<LinkEstimate>) -> Option<((u64, u64), u64, usize)> {
    e.map(|e| (dir_bits(e.direction), e.score.to_bits(), e.cell))
}

fn closure_bits(c: &KernelClosure) -> Vec<u64> {
    let mut out: Vec<u64> = [&c.p_snr, &c.p_rssi, &c.top_weights]
        .into_iter()
        .flatten()
        .map(|v| v.to_bits())
        .collect();
    out.extend(&c.top_cells);
    out.push(c.energy_max.to_bits());
    out
}

#[test]
fn non_finite_readings_act_as_missing_in_both_kernels() {
    let store = store();
    let mut rng = sub_rng(2517, "non-finite-readings");
    let (mut closure, mut want) = (KernelClosure::default(), KernelClosure::default());
    let mut estimated = 0usize;
    for variant in 0..8usize {
        let options = EstimatorOptions {
            energy_prior: variant & 1 == 0,
            smoothing: variant & 2 == 0,
            subcell_refinement: variant & 4 == 0,
        };
        for mode in [CorrelationMode::SnrOnly, CorrelationMode::JointSnrRssi] {
            let scalar = CompressiveEstimator::new(&store, mode).with_options(options);
            let batch = BatchEstimator::new(&store, mode, options);
            let mut scratch = BatchScratch::new();
            for case in 0..60 {
                let ctx = format!("variant {variant}, {mode:?}, case {case}");
                let links: Vec<Vec<SweepReading>> = (0..5).map(|_| readings(&mut rng)).collect();
                let clean: Vec<Vec<SweepReading>> = links.iter().map(|l| masked(l)).collect();
                for (raw, clean) in links.iter().zip(&clean) {
                    let got = scalar.estimate(raw);
                    assert_eq!(
                        scalar_bits(got),
                        scalar_bits(scalar.estimate(clean)),
                        "{ctx}"
                    );
                    estimated += usize::from(got.is_some());
                    let with_closure = scalar.estimate_with_closure(raw, 8, &mut closure);
                    scalar.estimate_with_closure(clean, 8, &mut want);
                    assert_eq!(scalar_bits(with_closure), scalar_bits(got), "{ctx}");
                    assert_eq!(closure_bits(&closure), closure_bits(&want), "{ctx}");
                }
                let raw: Vec<&[SweepReading]> = links.iter().map(Vec::as_slice).collect();
                let clean: Vec<&[SweepReading]> = clean.iter().map(Vec::as_slice).collect();
                let got = batch.estimate_batch(&mut scratch, &raw);
                let want = batch.estimate_batch(&mut scratch, &clean);
                assert_eq!(
                    got.into_iter().map(batch_bits).collect::<Vec<_>>(),
                    want.into_iter().map(batch_bits).collect::<Vec<_>>(),
                    "{ctx}: batch"
                );
            }
        }
    }
    assert!(
        estimated >= 500,
        "only {estimated} of 4800 readings estimated"
    );
}
