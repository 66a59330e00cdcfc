//! 802.11ad single-carrier PHY rates and the data-plane SNR model.
//!
//! Maps a probe-frame SNR to the modulation-and-coding scheme (MCS) the
//! data plane can sustain, and on to TCP goodput with the MAC efficiency
//! observed on Talon hardware (iPerf3 reaches ≈ 1/3 of the PHY rate).
//!
//! Control-PHY probe frames enjoy a large spreading gain that SC-PHY data
//! frames lack, while data frames gain a beamformed receive sector instead
//! of the probes' quasi-omni pattern; [`DataLinkModel::data_boost_db`] is
//! the small net difference between the two budgets.

/// One 802.11ad single-carrier MCS entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McsEntry {
    /// MCS index (1–12; MCS 0 is the control PHY).
    pub index: u8,
    /// PHY data rate in Mbps.
    pub phy_mbps: f64,
    /// Minimum data SNR in dB.
    pub min_snr_db: f64,
}

/// The 802.11ad SC-PHY rate table with receiver-grade SNR thresholds.
pub const MCS_TABLE: [McsEntry; 12] = [
    McsEntry {
        index: 1,
        phy_mbps: 385.0,
        min_snr_db: 2.0,
    },
    McsEntry {
        index: 2,
        phy_mbps: 770.0,
        min_snr_db: 4.0,
    },
    McsEntry {
        index: 3,
        phy_mbps: 962.5,
        min_snr_db: 5.5,
    },
    McsEntry {
        index: 4,
        phy_mbps: 1155.0,
        min_snr_db: 6.5,
    },
    McsEntry {
        index: 5,
        phy_mbps: 1251.25,
        min_snr_db: 7.5,
    },
    McsEntry {
        index: 6,
        phy_mbps: 1540.0,
        min_snr_db: 9.0,
    },
    McsEntry {
        index: 7,
        phy_mbps: 1925.0,
        min_snr_db: 11.0,
    },
    McsEntry {
        index: 8,
        phy_mbps: 2310.0,
        min_snr_db: 12.5,
    },
    McsEntry {
        index: 9,
        phy_mbps: 2502.5,
        min_snr_db: 14.0,
    },
    McsEntry {
        index: 10,
        phy_mbps: 3080.0,
        min_snr_db: 16.5,
    },
    McsEntry {
        index: 11,
        phy_mbps: 3850.0,
        min_snr_db: 18.5,
    },
    McsEntry {
        index: 12,
        phy_mbps: 4620.0,
        min_snr_db: 20.5,
    },
];

/// Data-plane link model relative to probe frames.
#[derive(Debug, Clone, Copy)]
pub struct DataLinkModel {
    /// Net SNR difference of data frames vs probe frames, dB (beamformed
    /// receive sector minus the probes' control-PHY spreading gain).
    pub data_boost_db: f64,
    /// TCP goodput per PHY bit (Talon hardware measures ≈ 1/3).
    pub tcp_efficiency: f64,
}

impl Default for DataLinkModel {
    fn default() -> Self {
        DataLinkModel {
            data_boost_db: 7.0,
            tcp_efficiency: 1.0 / 3.0,
        }
    }
}

impl DataLinkModel {
    /// Highest MCS supported at a given probe-frame true SNR.
    pub fn mcs_for(&self, probe_snr_db: f64) -> Option<McsEntry> {
        let data_snr = probe_snr_db + self.data_boost_db;
        MCS_TABLE
            .iter()
            .rev()
            .find(|e| data_snr >= e.min_snr_db)
            .copied()
    }

    /// TCP goodput in Gbps at a given probe-frame true SNR.
    pub fn tcp_gbps(&self, probe_snr_db: f64) -> f64 {
        self.mcs_for(probe_snr_db)
            .map(|e| e.phy_mbps * self.tcp_efficiency / 1000.0)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_monotone_in_rate_and_threshold() {
        for w in MCS_TABLE.windows(2) {
            assert!(w[1].phy_mbps > w[0].phy_mbps);
            assert!(w[1].min_snr_db > w[0].min_snr_db);
            assert!(w[1].index == w[0].index + 1);
        }
    }

    #[test]
    fn mapping_covers_the_range() {
        let m = DataLinkModel::default();
        assert_eq!(m.mcs_for(-30.0), None);
        assert_eq!(m.mcs_for(30.0).unwrap().index, 12);
        // First usable MCS just above its threshold.
        let e = m.mcs_for(2.0 - m.data_boost_db + 0.1).unwrap();
        assert_eq!(e.index, 1);
    }

    #[test]
    fn tcp_rate_is_a_third_of_phy() {
        let m = DataLinkModel::default();
        let r = m.tcp_gbps(30.0);
        assert!((r - 4.620 / 3.0).abs() < 1e-12);
        assert_eq!(m.tcp_gbps(-30.0), 0.0);
    }
}
