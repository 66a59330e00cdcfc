//! Recorded-dataset persistence.
//!
//! The paper's evaluation records full sweeps on the devices and analyses
//! them offline in MATLAB ("We then perform offline analyses…", §6.1), and
//! the authors publish their measurements. This module gives
//! [`RecordedDataset`] the same property: a line-oriented text format that
//! round-trips exactly, so an expensive recording session can be archived
//! and re-analysed with different probe counts, estimators or seeds.
//!
//! ```text
//! talon-dataset-v1
//! scenario <name>
//! position <idx> <truth_az> <truth_el>
//! truesnr <idx> <sector>:<snr> <sector>:<snr> …
//! sweep <idx> <sweep_no> <sector>:<snr>:<rssi>|<sector>:- …
//! ```

use crate::scenario::{RecordedDataset, RecordedPosition};
use geom::sphere::Direction;
use talon_array::SectorId;
use talon_channel::{Measurement, SweepReading};

/// Errors when loading a dataset file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// Missing or wrong magic line.
    BadMagic,
    /// A line did not parse (1-based line number).
    Malformed(usize),
    /// A record referenced a position that was never declared.
    UnknownPosition(usize),
    /// The file declares no position.
    NoPositions,
    /// A position has no `truesnr` entry, so it has no optimal sector
    /// (0-based position index).
    NoTrueSnr(usize),
    /// A position has no `sweep` line, so there is nothing to analyse
    /// (0-based position index).
    NoSweeps(usize),
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::BadMagic => write!(f, "not a talon-dataset-v1 file"),
            DatasetError::Malformed(n) => write!(f, "malformed line {n}"),
            DatasetError::UnknownPosition(p) => write!(f, "unknown position index {p}"),
            DatasetError::NoPositions => write!(f, "no position recorded"),
            DatasetError::NoTrueSnr(p) => write!(f, "position {p} has no truesnr entry"),
            DatasetError::NoSweeps(p) => write!(f, "position {p} has no sweep"),
        }
    }
}

impl std::error::Error for DatasetError {}

/// Serializes a dataset.
pub fn to_text(data: &RecordedDataset) -> String {
    let mut out = String::from("talon-dataset-v1\n");
    out.push_str(&format!("scenario {}\n", data.scenario));
    for (i, pos) in data.positions.iter().enumerate() {
        out.push_str(&format!(
            "position {i} {} {}\n",
            pos.truth.az_deg, pos.truth.el_deg
        ));
        out.push_str(&format!("truesnr {i}"));
        for (sector, snr) in &pos.true_snr {
            out.push_str(&format!(" {}:{snr}", sector.raw()));
        }
        out.push('\n');
        for (k, sweep) in pos.sweeps.iter().enumerate() {
            out.push_str(&format!("sweep {i} {k}"));
            for r in sweep {
                match r.measurement {
                    Some(m) => {
                        out.push_str(&format!(" {}:{}:{}", r.sector.raw(), m.snr_db, m.rssi_dbm))
                    }
                    None => out.push_str(&format!(" {}:-", r.sector.raw())),
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Parses a dataset back. Every analysis needs at least one position, and
/// each position needs its noise-free SNRs and at least one sweep, so a
/// dataset missing any of them is an error rather than a table of `NaN`s.
pub fn from_text(text: &str) -> Result<RecordedDataset, DatasetError> {
    let mut lines = text.lines().enumerate();
    let (_, magic) = lines.next().ok_or(DatasetError::BadMagic)?;
    if magic.trim() != "talon-dataset-v1" {
        return Err(DatasetError::BadMagic);
    }
    let mut scenario = String::new();
    let mut positions: Vec<RecordedPosition> = Vec::new();
    for (n, raw) in lines {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = || DatasetError::Malformed(n + 1);
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("scenario") => {
                scenario = parts.collect::<Vec<_>>().join(" ");
            }
            Some("position") => {
                let idx: usize = parts.next().and_then(|s| s.parse().ok()).ok_or_else(err)?;
                if idx != positions.len() {
                    return Err(DatasetError::Malformed(n + 1));
                }
                let az = parts.next().and_then(finite).ok_or_else(err)?;
                let el = parts.next().and_then(finite).ok_or_else(err)?;
                positions.push(RecordedPosition {
                    truth: Direction::new(az, el),
                    true_snr: Vec::new(),
                    sweeps: Vec::new(),
                });
            }
            Some("truesnr") => {
                let idx: usize = parts.next().and_then(|s| s.parse().ok()).ok_or_else(err)?;
                let pos = positions
                    .get_mut(idx)
                    .ok_or(DatasetError::UnknownPosition(idx))?;
                for tok in parts {
                    let (sec, snr) = tok.split_once(':').ok_or_else(err)?;
                    let sector: u8 = sec.parse().map_err(|_| err())?;
                    let snr = finite(snr).ok_or_else(err)?;
                    pos.true_snr.push((SectorId(sector), snr));
                }
            }
            Some("sweep") => {
                let idx: usize = parts.next().and_then(|s| s.parse().ok()).ok_or_else(err)?;
                let _sweep_no: usize = parts.next().and_then(|s| s.parse().ok()).ok_or_else(err)?;
                let pos = positions
                    .get_mut(idx)
                    .ok_or(DatasetError::UnknownPosition(idx))?;
                let mut readings = Vec::new();
                for tok in parts {
                    let mut fields = tok.split(':');
                    let sector: u8 = fields.next().and_then(|s| s.parse().ok()).ok_or_else(err)?;
                    let second = fields.next().ok_or_else(err)?;
                    let measurement = if second == "-" {
                        None
                    } else {
                        let snr = finite(second).ok_or_else(err)?;
                        let rssi = fields.next().and_then(finite).ok_or_else(err)?;
                        Some(Measurement {
                            snr_db: snr,
                            rssi_dbm: rssi,
                        })
                    };
                    readings.push(SweepReading {
                        sector: SectorId(sector),
                        measurement,
                    });
                }
                pos.sweeps.push(readings);
            }
            _ => return Err(err()),
        }
    }
    if positions.is_empty() {
        return Err(DatasetError::NoPositions);
    }
    for (i, pos) in positions.iter().enumerate() {
        if pos.true_snr.is_empty() {
            return Err(DatasetError::NoTrueSnr(i));
        }
        if pos.sweeps.is_empty() {
            return Err(DatasetError::NoSweeps(i));
        }
    }
    Ok(RecordedDataset {
        scenario,
        positions,
    })
}

/// Parses a finite number: NaN and ±inf are malformed in every field (the
/// recorder never writes them, and the analyses assume finite values).
fn finite(s: &str) -> Option<f64> {
    s.parse().ok().filter(|v: &f64| v.is_finite())
}

/// Saves a dataset to a file.
pub fn save(data: &RecordedDataset, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, to_text(data))
}

/// Loads a dataset from a file.
pub fn load(path: &std::path::Path) -> std::io::Result<Result<RecordedDataset, DatasetError>> {
    Ok(from_text(&std::fs::read_to_string(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{EvalScenario, Fidelity};

    fn tiny_dataset() -> RecordedDataset {
        let mut s = EvalScenario::conference_room(Fidelity::Fast, 1200);
        s.sweeps_per_position = 2;
        s.record(1200)
    }

    #[test]
    fn roundtrip_is_exact() {
        let _guard = obs::testing::lock();
        let data = tiny_dataset();
        let text = to_text(&data);
        let back = from_text(&text).unwrap();
        assert_eq!(back.scenario, data.scenario);
        assert_eq!(back.positions.len(), data.positions.len());
        for (a, b) in data.positions.iter().zip(&back.positions) {
            assert_eq!(a.truth, b.truth);
            assert_eq!(a.true_snr, b.true_snr);
            assert_eq!(a.sweeps, b.sweeps);
        }
    }

    #[test]
    fn reanalysis_on_reloaded_data_matches() {
        let _guard = obs::testing::lock();
        // The Fig. 9 analysis must give identical numbers on the reloaded
        // dataset (the whole point of offline persistence).
        let mut s = EvalScenario::conference_room(Fidelity::Fast, 1201);
        s.sweeps_per_position = 4;
        let data = s.record(1201);
        let reloaded = from_text(&to_text(&data)).unwrap();
        let a = crate::snr_loss::snr_loss(&data, &s.patterns, &[8, 20], 1);
        let b = crate::snr_loss::snr_loss(&reloaded, &s.patterns, &[8, 20], 1);
        assert_eq!(a.ssw_loss_db, b.ssw_loss_db);
        assert_eq!(a.css, b.css);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert_eq!(from_text("nope\n").unwrap_err(), DatasetError::BadMagic);
        assert_eq!(
            from_text("talon-dataset-v1\nbogus line\n").unwrap_err(),
            DatasetError::Malformed(2)
        );
        assert_eq!(
            from_text("talon-dataset-v1\ntruesnr 3 1:2.0\n").unwrap_err(),
            DatasetError::UnknownPosition(3)
        );
        assert_eq!(
            from_text("talon-dataset-v1\nposition 0 0 0\nsweep 0 0 1:x:y\n").unwrap_err(),
            DatasetError::Malformed(3)
        );
        // Non-finite numbers are malformed in every field.
        for body in [
            "position 0 NaN 0\n",
            "position 0 0 0\ntruesnr 0 1:3.5 2:NaN\n",
            "position 0 0 0\ntruesnr 0 1:3.5 2:inf\n",
            "position 0 0 0\nsweep 0 0 1:-inf:-60\n",
            "position 0 0 0\nsweep 0 0 2:- 1:4.0:NaN\n",
        ] {
            let line = body.lines().count() + 1;
            let text = format!("talon-dataset-v1\n{body}");
            assert_eq!(from_text(&text).unwrap_err(), DatasetError::Malformed(line));
        }
        // Every line parses, but an analysis would have nothing to read.
        let complete = "position 0 0 0\ntruesnr 0 1:3.0\nsweep 0 0 1:3.0:-60\n";
        for (body, error) in [
            ("scenario s\n", DatasetError::NoPositions),
            (
                "position 0 0 0\nsweep 0 0 1:3.0:-60\n",
                DatasetError::NoTrueSnr(0),
            ),
            (
                "position 0 0 0\ntruesnr 0\nsweep 0 0 1:3.0:-60\n",
                DatasetError::NoTrueSnr(0),
            ),
            (
                "position 0 0 0\ntruesnr 0 1:3.0\n",
                DatasetError::NoSweeps(0),
            ),
            (
                &format!("{complete}position 1 0 0\nsweep 1 0 1:3.0:-60\n"),
                DatasetError::NoTrueSnr(1),
            ),
        ] {
            let text = format!("talon-dataset-v1\n{body}");
            assert_eq!(from_text(&text).unwrap_err(), error, "{body}");
        }
        assert!(from_text(&format!("talon-dataset-v1\n{complete}")).is_ok());
    }

    #[test]
    fn file_roundtrip() {
        let _guard = obs::testing::lock();
        let data = tiny_dataset();
        // A directory of this process and call alone: concurrent test runs
        // on one host never share (or delete) each other's files.
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("talon-dataset-test-{}-{call}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dataset.txt");
        save(&data, &path).unwrap();
        let back = load(&path).unwrap().unwrap();
        assert_eq!(back.positions[0].sweeps, data.positions[0].sweeps);
        std::fs::remove_dir_all(&dir).ok();
    }
}
