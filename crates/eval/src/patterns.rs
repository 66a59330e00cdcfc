//! Figs. 5 and 6 — the measured sector patterns.
//!
//! Fig. 5 shows the azimuth cut (elevation 0°) of all 35 sector patterns;
//! Fig. 6 the spherical heatmaps over azimuth × elevation. These modules
//! run the chamber campaign and produce the per-sector series, plus the
//! qualitative trait summary the paper discusses in §4.4 (which sectors
//! are strongly directional, multi-lobed, wide, or weak).

use chamber::{Campaign, CampaignConfig, SectorPatterns};
use geom::rng::sub_rng;
use geom::sphere::Direction;
use talon_array::{GainPattern, SectorId};
use talon_channel::{Device, Environment, Link};

/// A full pattern-measurement run: TX patterns plus the RX pattern.
#[derive(Debug, Clone)]
pub struct PatternCampaignResult {
    /// Measured transmit patterns, one per sweep sector.
    pub tx_patterns: SectorPatterns,
    /// Measured quasi-omni receive pattern.
    pub rx_pattern: GainPattern,
}

/// Runs the chamber campaign with the given config (Fig. 5 uses
/// [`CampaignConfig::paper_azimuth_scan`], Fig. 6
/// [`CampaignConfig::paper_3d_scan`]).
pub fn measure_patterns(config: CampaignConfig, seed: u64) -> PatternCampaignResult {
    let link = Link::new(Environment::anechoic(3.0));
    let mut dut = Device::talon(seed);
    let fixed = Device::talon(seed.wrapping_add(1));
    let mut campaign = Campaign::new(config, seed);
    let mut rng = sub_rng(seed, "pattern-campaign");
    let tx_patterns = campaign.measure_tx_patterns(&mut rng, &link, &mut dut, &fixed);
    let rx_pattern = campaign.measure_rx_pattern(&mut rng, &link, &mut dut, &fixed);
    PatternCampaignResult {
        tx_patterns,
        rx_pattern,
    }
}

/// §4.4's qualitative classification of one sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectorTrait {
    /// One dominant lobe well above the rest of the pattern.
    StrongSingleLobe,
    /// Several comparable lobes.
    MultiLobe,
    /// Broad coverage with little azimuth variation.
    Wide,
    /// Low gain everywhere in the measured space.
    Weak,
}

/// Summary row for one sector.
#[derive(Debug, Clone)]
pub struct SectorSummary {
    /// Sector ID.
    pub id: u8,
    /// Peak measured gain, dB.
    pub peak_db: f64,
    /// Direction of the peak.
    pub peak_az_deg: f64,
    /// Elevation of the peak.
    pub peak_el_deg: f64,
    /// Classified trait.
    pub trait_: SectorTrait,
}

/// Classifies every measured sector (the §4.4 discussion, made mechanical).
pub fn classify(patterns: &SectorPatterns) -> Vec<SectorSummary> {
    // Global reference: the strongest peak in the whole codebook.
    let global_peak = patterns
        .sector_ids()
        .iter()
        .map(|&id| patterns.get(id).unwrap().peak().0)
        .fold(f64::NEG_INFINITY, f64::max);
    patterns
        .sector_ids()
        .into_iter()
        .map(|id| {
            let p = patterns.get(id).unwrap();
            let (peak, dir) = p.peak();
            SectorSummary {
                id: id.raw(),
                peak_db: peak,
                peak_az_deg: dir.az_deg,
                peak_el_deg: dir.el_deg,
                trait_: classify_one(p, peak, dir, global_peak),
            }
        })
        .collect()
}

fn classify_one(p: &GainPattern, peak: f64, peak_dir: Direction, global_peak: f64) -> SectorTrait {
    if peak < global_peak - 6.0 {
        return SectorTrait::Weak;
    }
    // Azimuth spread at the peak's elevation row.
    let (_, gains) = p.azimuth_cut(peak_dir.el_deg);
    let above: usize = gains.iter().filter(|&&g| g > peak - 3.0).count();
    let frac_above = above as f64 / gains.len() as f64;
    if frac_above > 0.5 {
        return SectorTrait::Wide;
    }
    // Count separated lobes within 3 dB of the peak: runs of above-threshold
    // samples separated by below-threshold gaps.
    let mut lobes = 0;
    let mut in_lobe = false;
    for &g in &gains {
        if g > peak - 3.0 {
            if !in_lobe {
                lobes += 1;
                in_lobe = true;
            }
        } else {
            in_lobe = false;
        }
    }
    if lobes >= 2 {
        SectorTrait::MultiLobe
    } else {
        SectorTrait::StrongSingleLobe
    }
}

/// Renders one sector's azimuth cut as `(azimuth, gain)` CSV lines
/// (the plottable Fig. 5 series).
pub fn azimuth_cut_csv(patterns: &SectorPatterns, id: SectorId) -> Option<String> {
    let p = patterns.get(id)?;
    let (az, g) = p.azimuth_cut(0.0);
    let mut out = String::from("azimuth_deg,snr_db\n");
    for (a, v) in az.iter().zip(&g) {
        out.push_str(&format!("{a:.2},{v:.3}\n"));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_result() -> PatternCampaignResult {
        measure_patterns(CampaignConfig::coarse(), 501)
    }

    #[test]
    fn campaign_covers_all_sectors_plus_rx() {
        let _guard = obs::testing::lock();
        let res = fast_result();
        assert_eq!(res.tx_patterns.len(), 34);
        assert_eq!(res.rx_pattern.grid, *res.tx_patterns.grid());
    }

    #[test]
    fn classification_finds_the_paper_trait_mix() {
        let _guard = obs::testing::lock();
        let res = fast_result();
        let summary = classify(&res.tx_patterns);
        assert_eq!(summary.len(), 34);
        let count = |t: SectorTrait| summary.iter().filter(|s| s.trait_ == t).count();
        assert!(
            count(SectorTrait::StrongSingleLobe) >= 10,
            "many directional sectors"
        );
        assert!(
            count(SectorTrait::Weak) >= 1,
            "defective sectors exist (25, 62)"
        );
        // Sector 63 is a strong single lobe near broadside.
        let s63 = summary.iter().find(|s| s.id == 63).unwrap();
        assert_eq!(s63.trait_, SectorTrait::StrongSingleLobe);
        assert!(s63.peak_az_deg.abs() < 12.0);
        // The deliberately defective sectors classify as weak.
        for id in [25u8, 62] {
            let s = summary.iter().find(|s| s.id == id).unwrap();
            assert_eq!(s.trait_, SectorTrait::Weak, "sector {id}");
        }
    }

    #[test]
    fn csv_series_is_well_formed() {
        let _guard = obs::testing::lock();
        let res = fast_result();
        let csv = azimuth_cut_csv(&res.tx_patterns, SectorId(8)).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "azimuth_deg,snr_db");
        assert_eq!(lines.len(), 1 + res.tx_patterns.grid().az.len());
        assert!(lines[1].contains(','));
        assert!(azimuth_cut_csv(&res.tx_patterns, SectorId(40)).is_none());
    }
}
