//! Bit-exact SSW and SSW-Feedback fields.
//!
//! These are the two fields the paper's firmware patches read and overwrite
//! (Fig. 2): the SSW field carries the transmitted sector ID and the CDOWN
//! countdown analysed in Table 1; the SSW-Feedback field carries the sector
//! the peer selected for us — the exact field the compressive selection
//! overwrites via the WMI hook.
//!
//! Layouts follow IEEE 802.11-2016 (Figs. 9-462/9-464). Bits are packed
//! LSB-first into little-endian octets, as on the air.

use talon_array::SectorId;

/// Who is transmitting this SSW frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepDirection {
    /// Transmitted by the beamforming initiator (ISS).
    Initiator,
    /// Transmitted by the beamforming responder (RSS).
    Responder,
}

/// The 24-bit SSW field.
///
/// | bits  | field          |
/// |-------|----------------|
/// | B0    | Direction      |
/// | B1–9  | CDOWN          |
/// | B10–15| Sector ID      |
/// | B16–17| DMG Antenna ID |
/// | B18–23| RXSS Length    |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SswField {
    /// Sweep direction.
    pub direction: SweepDirection,
    /// Remaining frames in the burst (decreasing counter, 9 bits).
    pub cdown: u16,
    /// Sector used to transmit this frame (6 bits).
    pub sector_id: SectorId,
    /// Which DMG antenna is transmitting (2 bits; the Talon has one).
    pub dmg_antenna_id: u8,
    /// Length of a requested receive sweep (6 bits; 0 = none — the Talon
    /// never trains receive sectors, §4.1).
    pub rxss_length: u8,
}

impl SswField {
    /// Encodes into 3 octets.
    ///
    /// # Panics
    /// Panics if a field exceeds its bit width.
    pub fn encode(&self) -> [u8; 3] {
        assert!(self.cdown < 512, "CDOWN is 9 bits");
        assert!(self.sector_id.raw() < 64, "sector ID is 6 bits");
        assert!(self.dmg_antenna_id < 4, "antenna ID is 2 bits");
        assert!(self.rxss_length < 64, "RXSS length is 6 bits");
        let dir_bit = match self.direction {
            SweepDirection::Initiator => 0u32,
            SweepDirection::Responder => 1u32,
        };
        let v: u32 = dir_bit
            | (self.cdown as u32) << 1
            | (self.sector_id.raw() as u32) << 10
            | (self.dmg_antenna_id as u32) << 16
            | (self.rxss_length as u32) << 18;
        [v as u8, (v >> 8) as u8, (v >> 16) as u8]
    }

    /// Decodes from 3 octets.
    pub fn decode(b: &[u8; 3]) -> SswField {
        let v = b[0] as u32 | (b[1] as u32) << 8 | (b[2] as u32) << 16;
        SswField {
            direction: if v & 1 == 0 {
                SweepDirection::Initiator
            } else {
                SweepDirection::Responder
            },
            cdown: ((v >> 1) & 0x1FF) as u16,
            sector_id: SectorId(((v >> 10) & 0x3F) as u8),
            dmg_antenna_id: ((v >> 16) & 0x3) as u8,
            rxss_length: ((v >> 18) & 0x3F) as u8,
        }
    }
}

/// The 24-bit SSW-Feedback field (format used outside an ISS).
///
/// | bits  | field              |
/// |-------|--------------------|
/// | B0–5  | Sector Select      |
/// | B6–7  | DMG Antenna Select |
/// | B8–15 | SNR Report         |
/// | B16   | Poll Required      |
/// | B17–23| Reserved           |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SswFeedbackField {
    /// The sector the peer should use towards us — the field the paper's
    /// WMI hook overwrites.
    pub sector_select: SectorId,
    /// Antenna select (0 on the Talon).
    pub dmg_antenna_select: u8,
    /// SNR of the selected sector, encoded per [`encode_snr`].
    pub snr_report: u8,
    /// Poll-required flag.
    pub poll_required: bool,
}

impl SswFeedbackField {
    /// Encodes into 3 octets.
    pub fn encode(&self) -> [u8; 3] {
        assert!(self.sector_select.raw() < 64, "sector select is 6 bits");
        assert!(self.dmg_antenna_select < 4, "antenna select is 2 bits");
        let v: u32 = self.sector_select.raw() as u32
            | (self.dmg_antenna_select as u32) << 6
            | (self.snr_report as u32) << 8
            | (self.poll_required as u32) << 16;
        [v as u8, (v >> 8) as u8, (v >> 16) as u8]
    }

    /// Decodes from 3 octets.
    pub fn decode(b: &[u8; 3]) -> SswFeedbackField {
        let v = b[0] as u32 | (b[1] as u32) << 8 | (b[2] as u32) << 16;
        SswFeedbackField {
            sector_select: SectorId((v & 0x3F) as u8),
            dmg_antenna_select: ((v >> 6) & 0x3) as u8,
            snr_report: ((v >> 8) & 0xFF) as u8,
            poll_required: (v >> 16) & 1 != 0,
        }
    }
}

/// Encodes an SNR in dB into the 8-bit SNR Report representation:
/// −8 dB ↦ 0, quarter-dB steps, saturating at 55.75 dB ↦ 255.
///
/// This standard encoding is exactly the quarter-dB granularity the paper
/// observes in the Talon firmware's reports (§4.3).
pub fn encode_snr(snr_db: f64) -> u8 {
    (((snr_db + 8.0) * 4.0).round().clamp(0.0, 255.0)) as u8
}

/// Decodes an 8-bit SNR Report back to dB.
pub fn decode_snr(report: u8) -> f64 {
    report as f64 / 4.0 - 8.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssw_field_roundtrip() {
        let f = SswField {
            direction: SweepDirection::Responder,
            cdown: 317,
            sector_id: SectorId(61),
            dmg_antenna_id: 2,
            rxss_length: 33,
        };
        assert_eq!(SswField::decode(&f.encode()), f);
    }

    #[test]
    fn ssw_field_known_bytes() {
        // Initiator, CDOWN=1, sector 2, antenna 0, rxss 0:
        // bits: dir=0, cdown=1 at B1 → byte0 = 0b0000_0010;
        // sector 2 at B10 → bits 10..16 = 2 → byte1 = 0b0000_1000.
        let f = SswField {
            direction: SweepDirection::Initiator,
            cdown: 1,
            sector_id: SectorId(2),
            dmg_antenna_id: 0,
            rxss_length: 0,
        };
        assert_eq!(f.encode(), [0x02, 0x08, 0x00]);
    }

    #[test]
    fn ssw_field_max_values() {
        let f = SswField {
            direction: SweepDirection::Responder,
            cdown: 511,
            sector_id: SectorId(63),
            dmg_antenna_id: 3,
            rxss_length: 63,
        };
        assert_eq!(f.encode(), [0xFF, 0xFF, 0xFF]);
        assert_eq!(SswField::decode(&[0xFF, 0xFF, 0xFF]), f);
    }

    #[test]
    #[should_panic(expected = "CDOWN is 9 bits")]
    fn oversized_cdown_panics() {
        SswField {
            direction: SweepDirection::Initiator,
            cdown: 512,
            sector_id: SectorId(1),
            dmg_antenna_id: 0,
            rxss_length: 0,
        }
        .encode();
    }

    #[test]
    fn feedback_field_roundtrip() {
        let f = SswFeedbackField {
            sector_select: SectorId(14),
            dmg_antenna_select: 1,
            snr_report: encode_snr(9.25),
            poll_required: true,
        };
        let d = SswFeedbackField::decode(&f.encode());
        assert_eq!(d, f);
        assert_eq!(decode_snr(d.snr_report), 9.25);
    }

    #[test]
    fn feedback_known_bytes() {
        // sector 63, antenna 0, snr_report 0, no poll → byte0 = 0x3F.
        let f = SswFeedbackField {
            sector_select: SectorId(63),
            dmg_antenna_select: 0,
            snr_report: 0,
            poll_required: false,
        };
        assert_eq!(f.encode(), [0x3F, 0x00, 0x00]);
    }

    #[test]
    fn snr_encoding_matches_talon_range() {
        assert_eq!(encode_snr(-8.0), 0);
        assert_eq!(encode_snr(-20.0), 0, "saturates low");
        assert_eq!(encode_snr(0.0), 32);
        assert_eq!(encode_snr(12.0), 80);
        assert_eq!(encode_snr(100.0), 255, "saturates high");
        assert_eq!(decode_snr(encode_snr(7.25)), 7.25, "quarter dB exact");
    }
}
