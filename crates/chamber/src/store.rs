//! The measured-pattern database.
//!
//! "All our measurement results can be found online" (§4.5) — the paper
//! ships its measured patterns as data files, and the selection algorithm
//! loads them. [`SectorPatterns`] is that artifact: one measured
//! [`GainPattern`] per sector on a common grid, with a plain-text
//! serialization so campaigns are measured once and reused.
//!
//! Format (line-oriented, whitespace-separated):
//!
//! ```text
//! talon-patterns-v1
//! az <start> <end> <step>
//! el <start> <end> <step>
//! sector <id> <g0> <g1> … <gN>     # flat elevation-major gains, dB
//! ```

use geom::sphere::{Direction, GridSpec, SphericalGrid};
use std::collections::BTreeMap;
use talon_array::{GainPattern, SectorId};

/// A database of measured sector patterns on a common grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SectorPatterns {
    grid: SphericalGrid,
    patterns: BTreeMap<SectorId, GainPattern>,
}

/// Errors when loading a pattern file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Missing or wrong magic line.
    BadMagic,
    /// A header or data line did not parse.
    Malformed(usize),
    /// A sector's gain table does not match the grid size.
    WrongLength(u8),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::BadMagic => write!(f, "not a talon-patterns-v1 file"),
            StoreError::Malformed(line) => write!(f, "malformed line {line}"),
            StoreError::WrongLength(s) => write!(f, "sector {s} has wrong table length"),
        }
    }
}

impl std::error::Error for StoreError {}

impl SectorPatterns {
    /// Creates an empty database on a grid.
    pub fn new(grid: SphericalGrid) -> Self {
        SectorPatterns {
            grid,
            patterns: BTreeMap::new(),
        }
    }

    /// The common measurement grid.
    pub fn grid(&self) -> &SphericalGrid {
        &self.grid
    }

    /// Inserts a measured pattern.
    ///
    /// # Panics
    /// Panics if the pattern's grid differs from the database grid.
    pub fn insert(&mut self, id: SectorId, pattern: GainPattern) {
        assert_eq!(pattern.grid, self.grid, "pattern grid mismatch");
        self.patterns.insert(id, pattern);
    }

    /// Pattern of a sector.
    pub fn get(&self, id: SectorId) -> Option<&GainPattern> {
        self.patterns.get(&id)
    }

    /// All sector IDs present, ascending.
    pub fn sector_ids(&self) -> Vec<SectorId> {
        self.patterns.keys().copied().collect()
    }

    /// Number of stored patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True if no patterns stored.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The sector with the highest measured gain towards `dir` — Eq. 4's
    /// `argmax_n x_n(φ̂, θ̂)`.
    pub fn best_sector_at(&self, dir: &Direction) -> Option<SectorId> {
        self.patterns
            .iter()
            .map(|(id, p)| (*id, p.gain_interp(dir)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("gains are never NaN"))
            .map(|(id, _)| id)
    }

    /// Resamples every pattern onto a different grid by bilinear
    /// interpolation (clamped at the measured extent).
    ///
    /// Useful to run the estimator on a finer search grid than the
    /// campaign measured, or to unify stores measured with different
    /// resolutions.
    pub fn resample(&self, grid: &SphericalGrid) -> SectorPatterns {
        let mut out = SectorPatterns::new(grid.clone());
        for id in self.sector_ids() {
            let src = self.get(id).expect("id from store");
            let gains: Vec<f64> = grid.iter().map(|(_, d)| src.gain_interp(&d)).collect();
            out.insert(id, GainPattern::from_table(grid.clone(), gains));
        }
        out
    }

    /// Serializes the database.
    pub fn to_text(&self) -> String {
        let mut out = String::from("talon-patterns-v1\n");
        let w = |g: &GridSpec| format!("{} {} {}", g.start_deg, g.end_deg, g.step_deg);
        out.push_str(&format!("az {}\n", w(&self.grid.az)));
        out.push_str(&format!("el {}\n", w(&self.grid.el)));
        for (id, p) in &self.patterns {
            out.push_str(&format!("sector {}", id.raw()));
            for g in &p.gain_db {
                // Rust's default float formatting is shortest-round-trip,
                // so loading reproduces the exact measured values.
                out.push_str(&format!(" {g}"));
            }
            out.push('\n');
        }
        out
    }

    /// Parses a database from its text form.
    pub fn from_text(text: &str) -> Result<SectorPatterns, StoreError> {
        let mut lines = text.lines().enumerate();
        let (_, magic) = lines.next().ok_or(StoreError::BadMagic)?;
        if magic.trim() != "talon-patterns-v1" {
            return Err(StoreError::BadMagic);
        }
        let parse_axis = |line: Option<(usize, &str)>, tag: &str| -> Result<GridSpec, StoreError> {
            let (n, l) = line.ok_or(StoreError::Malformed(0))?;
            let parts: Vec<&str> = l.split_whitespace().collect();
            if parts.len() != 4 || parts[0] != tag {
                return Err(StoreError::Malformed(n + 1));
            }
            let vals: Result<Vec<f64>, _> = parts[1..].iter().map(|s| s.parse()).collect();
            let vals = vals.map_err(|_| StoreError::Malformed(n + 1))?;
            Ok(GridSpec::new(vals[0], vals[1], vals[2]))
        };
        let az = parse_axis(lines.next(), "az")?;
        let el = parse_axis(lines.next(), "el")?;
        let grid = SphericalGrid::new(az, el);
        let mut store = SectorPatterns::new(grid.clone());
        for (n, l) in lines {
            let l = l.trim();
            if l.is_empty() || l.starts_with('#') {
                continue;
            }
            let mut parts = l.split_whitespace();
            if parts.next() != Some("sector") {
                return Err(StoreError::Malformed(n + 1));
            }
            let id: u8 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or(StoreError::Malformed(n + 1))?;
            let gains: Result<Vec<f64>, _> = parts.map(|s| s.parse()).collect();
            let gains = gains.map_err(|_| StoreError::Malformed(n + 1))?;
            if gains.len() != grid.len() {
                return Err(StoreError::WrongLength(id));
            }
            store.insert(SectorId(id), GainPattern::from_table(grid.clone(), gains));
        }
        Ok(store)
    }

    /// Writes the database to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Loads a database from a file.
    pub fn load(path: &std::path::Path) -> std::io::Result<Result<SectorPatterns, StoreError>> {
        Ok(Self::from_text(&std::fs::read_to_string(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_store() -> SectorPatterns {
        let grid = SphericalGrid::new(
            GridSpec::new(-10.0, 10.0, 10.0),
            GridSpec::new(0.0, 10.0, 10.0),
        );
        let mut s = SectorPatterns::new(grid.clone());
        s.insert(
            SectorId(1),
            GainPattern::from_table(grid.clone(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        );
        s.insert(
            SectorId(63),
            GainPattern::from_table(grid, vec![6.0, 5.0, 4.0, 3.0, 2.0, 1.0]),
        );
        s
    }

    #[test]
    fn roundtrip_through_text() {
        let s = tiny_store();
        let text = s.to_text();
        let back = SectorPatterns::from_text(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn best_sector_at_picks_argmax() {
        let s = tiny_store();
        // At (az=-10, el=0) sector 63 has 6.0, sector 1 has 1.0.
        assert_eq!(
            s.best_sector_at(&Direction::new(-10.0, 0.0)),
            Some(SectorId(63))
        );
        // At (az=10, el=10) sector 1 has 6.0.
        assert_eq!(
            s.best_sector_at(&Direction::new(10.0, 10.0)),
            Some(SectorId(1))
        );
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(
            SectorPatterns::from_text("nope\naz 0 1 1\nel 0 1 1\n"),
            Err(StoreError::BadMagic)
        );
    }

    #[test]
    fn malformed_lines_rejected_with_line_numbers() {
        let text = "talon-patterns-v1\naz 0 10 5\nel 0 0 1\nsector x 1 2 3\n";
        assert_eq!(
            SectorPatterns::from_text(text),
            Err(StoreError::Malformed(4))
        );
        let text = "talon-patterns-v1\nzz 0 10 5\nel 0 0 1\n";
        assert_eq!(
            SectorPatterns::from_text(text),
            Err(StoreError::Malformed(2))
        );
    }

    #[test]
    fn wrong_table_length_rejected() {
        let text = "talon-patterns-v1\naz 0 10 5\nel 0 0 1\nsector 5 1.0 2.0\n";
        assert_eq!(
            SectorPatterns::from_text(text),
            Err(StoreError::WrongLength(5))
        );
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let s = tiny_store();
        let mut text = s.to_text();
        text.push_str("\n# trailing comment\n\n");
        assert_eq!(SectorPatterns::from_text(&text).unwrap(), s);
    }

    #[test]
    fn resample_preserves_values_at_original_points() {
        let s = tiny_store();
        // Upsample to 5° steps: original grid points must be exact.
        let fine = SphericalGrid::new(
            GridSpec::new(-10.0, 10.0, 5.0),
            GridSpec::new(0.0, 10.0, 5.0),
        );
        let r = s.resample(&fine);
        assert_eq!(r.len(), s.len());
        for id in s.sector_ids() {
            let src = s.get(id).unwrap();
            let dst = r.get(id).unwrap();
            for (_, d) in s.grid().iter() {
                assert!((src.gain_at(&d) - dst.gain_interp(&d)).abs() < 1e-9);
            }
        }
        // Interpolated midpoint of sector 1's ramp (1.0 → 2.0 at el 0).
        let mid = r
            .get(SectorId(1))
            .unwrap()
            .gain_interp(&Direction::new(-5.0, 0.0));
        assert!((mid - 1.5).abs() < 1e-9, "midpoint {mid}");
    }

    #[test]
    fn save_and_load_via_file() {
        let s = tiny_store();
        // A directory of this process and call alone: concurrent test runs
        // on one host never share (or delete) each other's files.
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("talon-store-test-{}-{call}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("patterns.txt");
        s.save(&path).unwrap();
        let back = SectorPatterns::load(&path).unwrap().unwrap();
        assert_eq!(back, s);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "grid mismatch")]
    fn inserting_wrong_grid_panics() {
        let mut s = tiny_store();
        let other = SphericalGrid::new(GridSpec::new(0.0, 5.0, 5.0), GridSpec::fixed(0.0));
        s.insert(SectorId(2), GainPattern::from_table(other, vec![0.0, 1.0]));
    }
}
