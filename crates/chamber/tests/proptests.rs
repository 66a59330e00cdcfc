//! Property-based tests for the pattern store and campaign post-processing.

use chamber::SectorPatterns;
use geom::sphere::{GridSpec, SphericalGrid};
use proptest::prelude::*;
use talon_array::{GainPattern, SectorId};

fn arb_grid() -> impl Strategy<Value = SphericalGrid> {
    (2usize..8, 1usize..5).prop_map(|(naz, nel)| {
        SphericalGrid::new(
            GridSpec::new(-30.0, -30.0 + (naz - 1) as f64 * 5.0, 5.0),
            GridSpec::new(0.0, (nel - 1) as f64 * 5.0, 5.0),
        )
    })
}

proptest! {
    #[test]
    fn parser_never_panics_on_arbitrary_input(text in ".{0,300}") {
        // Any input must produce Ok or Err, never a panic.
        let _ = SectorPatterns::from_text(&text);
    }

    #[test]
    fn parser_never_panics_on_structured_garbage(
        nums in prop::collection::vec(-1e3f64..1e3, 0..12),
        id in any::<u8>(),
    ) {
        let mut text = String::from("talon-patterns-v1\naz 0 10 5\nel 0 0 1\n");
        text.push_str(&format!("sector {id}"));
        for n in nums {
            text.push_str(&format!(" {n}"));
        }
        text.push('\n');
        let _ = SectorPatterns::from_text(&text);
    }

    #[test]
    fn store_roundtrips_through_text(
        grid in arb_grid(),
        seed_gains in prop::collection::vec(-7.0f64..12.0, 1..200),
        ids in prop::collection::btree_set(1u8..32, 1..6),
    ) {
        let mut store = SectorPatterns::new(grid.clone());
        for (k, id) in ids.iter().enumerate() {
            let gains: Vec<f64> = (0..grid.len())
                .map(|i| seed_gains[(i + k * 7) % seed_gains.len()])
                .collect();
            store.insert(SectorId(*id), GainPattern::from_table(grid.clone(), gains));
        }
        let text = store.to_text();
        let back = SectorPatterns::from_text(&text).unwrap();
        prop_assert_eq!(back, store);
    }

    #[test]
    fn best_sector_at_returns_a_stored_id(
        grid in arb_grid(),
        az in -30.0f64..30.0,
        el in 0.0f64..20.0,
    ) {
        let mut store = SectorPatterns::new(grid.clone());
        for id in [3u8, 9, 27] {
            let gains: Vec<f64> = (0..grid.len())
                .map(|i| ((i * id as usize) % 19) as f64 - 7.0)
                .collect();
            store.insert(SectorId(id), GainPattern::from_table(grid.clone(), gains));
        }
        let best = store.best_sector_at(&geom::Direction::new(az, el)).unwrap();
        prop_assert!(store.get(best).is_some());
        // The winner really has the maximal interpolated gain.
        let dir = geom::Direction::new(az, el);
        let g_best = store.get(best).unwrap().gain_interp(&dir);
        for id in store.sector_ids() {
            prop_assert!(store.get(id).unwrap().gain_interp(&dir) <= g_best + 1e-9);
        }
    }

    #[test]
    fn best_sector_at_is_the_per_pattern_interpolated_argmax(
        grid in arb_grid(),
        ids in prop::collection::btree_set(1u8..64, 1..8),
        levels in prop::collection::vec(0u8..4, 1..64),
        // Reaches past the grid on every side, where the lookup clamps.
        az in -80.0f64..40.0,
        el in -15.0f64..40.0,
    ) {
        // Few distinct gain levels, so equal maxima (ties) are common.
        let mut store = SectorPatterns::new(grid.clone());
        for (k, id) in ids.iter().enumerate() {
            let gains: Vec<f64> = (0..grid.len())
                .map(|i| f64::from(levels[(i + 3 * k) % levels.len()]) * 2.5 - 4.0)
                .collect();
            store.insert(SectorId(*id), GainPattern::from_table(grid.clone(), gains));
        }
        let dir = geom::Direction::new(az, el);
        // The reference: each pattern read on its own, last max wins.
        let mut expected = None;
        let mut best = f64::NEG_INFINITY;
        for id in store.sector_ids() {
            let g = store.get(id).unwrap().gain_interp(&dir);
            if g >= best {
                best = g;
                expected = Some(id);
            }
        }
        prop_assert_eq!(store.best_sector_at(&dir), expected);
    }

    #[test]
    fn pattern_peak_is_max_of_table(
        grid in arb_grid(),
        gains_seed in any::<u64>(),
    ) {
        let gains: Vec<f64> = (0..grid.len())
            .map(|i| {
                let x = gains_seed.wrapping_mul(i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
                (x % 1900) as f64 / 100.0 - 7.0
            })
            .collect();
        let p = GainPattern::from_table(grid, gains.clone());
        let (peak, dir) = p.peak();
        let max = gains.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(peak, max);
        prop_assert_eq!(p.gain_at(&dir), peak);
    }
}
