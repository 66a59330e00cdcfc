//! DMG frame encode/decode.
//!
//! Four frame types appear in the paper's protocol flow (Fig. 2): DMG
//! Beacons (the AP's periodic sector-swept announcements), SSW frames (the
//! probes of both sweep halves), SSW-Feedback and SSW-ACK frames.
//!
//! Framing follows 802.11: a 2-octet Frame Control, addresses, the
//! beamforming fields from [`crate::fields`], and a CRC-32 FCS. The DMG
//! Beacon is reduced to the fields our experiments read (timestamp, beacon
//! interval and the SSW field carrying sector ID + CDOWN); the full
//! beacon's DMG-parameter soup is irrelevant to sector selection.
//!
//! Frames encode to a `Vec<u8>` and decode from a `&[u8]`; decoding
//! verifies the FCS — a corrupted frame is indistinguishable from a missed
//! frame, just like on real hardware.

use crate::addr::MacAddr;
use crate::crc::{append_fcs, check_and_strip_fcs};
use crate::fields::{SswFeedbackField, SswField};

/// Frame Control values for the frames we model.
///
/// 802.11ad carries SSW/SSW-Feedback/SSW-ACK as control-frame extensions
/// (type 01, subtype 0110, extension selector in B8–B11); the DMG Beacon is
/// an extension-type frame (type 11, subtype 0000).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)]
enum FrameKind {
    DmgBeacon,
    Ssw,
    SswFeedback,
    SswAck,
}

impl FrameKind {
    fn frame_control(self) -> u16 {
        // [proto(2)=0 | type(2) | subtype(4) | ext(4) | flags(4)=0]
        match self {
            // Extension frame type 0b11, subtype 0000.
            FrameKind::DmgBeacon => 0b11 << 2,
            // Control 0b01, subtype 0110 (control frame extension),
            // extension selector: SSW=2, SSW-Feedback=3, SSW-ACK=4.
            FrameKind::Ssw => (0b01 << 2) | (0b0110 << 4) | (2 << 8),
            FrameKind::SswFeedback => (0b01 << 2) | (0b0110 << 4) | (3 << 8),
            FrameKind::SswAck => (0b01 << 2) | (0b0110 << 4) | (4 << 8),
        }
    }

    fn from_frame_control(fc: u16) -> Option<FrameKind> {
        match fc {
            x if x == FrameKind::DmgBeacon.frame_control() => Some(FrameKind::DmgBeacon),
            x if x == FrameKind::Ssw.frame_control() => Some(FrameKind::Ssw),
            x if x == FrameKind::SswFeedback.frame_control() => Some(FrameKind::SswFeedback),
            x if x == FrameKind::SswAck.frame_control() => Some(FrameKind::SswAck),
            _ => None,
        }
    }
}

/// A DMG Beacon (simplified to the experiment-relevant fields).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmgBeacon {
    /// BSSID of the transmitting AP.
    pub bssid: MacAddr,
    /// TSF timestamp in microseconds.
    pub timestamp_us: u64,
    /// Beacon interval in time units (1 TU = 1024 µs; 100 TU = 102.4 ms).
    pub beacon_interval_tu: u16,
    /// The sector sweep field (sector ID + CDOWN, Table 1).
    pub ssw: SswField,
}

/// An SSW probe frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SswFrame {
    /// Receiver address.
    pub ra: MacAddr,
    /// Transmitter address.
    pub ta: MacAddr,
    /// The sector sweep field.
    pub ssw: SswField,
    /// The feedback field (meaningful in responder frames, which echo the
    /// best initiator sector back — the field our firmware patch rewrites).
    pub feedback: SswFeedbackField,
}

/// An SSW-Feedback frame (initiator → responder, ends the RSS).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SswFeedbackFrame {
    /// Receiver address.
    pub ra: MacAddr,
    /// Transmitter address.
    pub ta: MacAddr,
    /// The feedback field.
    pub feedback: SswFeedbackField,
}

/// An SSW-ACK frame (responder → initiator, closes the SLS phase).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SswAckFrame {
    /// Receiver address.
    pub ra: MacAddr,
    /// Transmitter address.
    pub ta: MacAddr,
    /// The feedback field.
    pub feedback: SswFeedbackField,
}

/// Any frame the simulator can put on the air.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Frame {
    /// A DMG beacon.
    Beacon(DmgBeacon),
    /// An SSW probe frame.
    Ssw(SswFrame),
    /// An SSW feedback frame.
    SswFeedback(SswFeedbackFrame),
    /// An SSW acknowledgment frame.
    SswAck(SswAckFrame),
}

impl Frame {
    /// Serializes the frame, appending the FCS.
    pub fn encode(&self) -> Vec<u8> {
        let mut out: Vec<u8> = Vec::with_capacity(32);
        match self {
            Frame::Beacon(b) => {
                out.extend_from_slice(&FrameKind::DmgBeacon.frame_control().to_le_bytes());
                out.extend_from_slice(&0u16.to_le_bytes()); // duration
                out.extend_from_slice(&b.bssid.0);
                out.extend_from_slice(&b.timestamp_us.to_le_bytes());
                out.extend_from_slice(&b.beacon_interval_tu.to_le_bytes());
                out.extend_from_slice(&b.ssw.encode());
            }
            Frame::Ssw(f) => {
                out.extend_from_slice(&FrameKind::Ssw.frame_control().to_le_bytes());
                out.extend_from_slice(&0u16.to_le_bytes());
                out.extend_from_slice(&f.ra.0);
                out.extend_from_slice(&f.ta.0);
                out.extend_from_slice(&f.ssw.encode());
                out.extend_from_slice(&f.feedback.encode());
            }
            Frame::SswFeedback(f) => {
                out.extend_from_slice(&FrameKind::SswFeedback.frame_control().to_le_bytes());
                out.extend_from_slice(&0u16.to_le_bytes());
                out.extend_from_slice(&f.ra.0);
                out.extend_from_slice(&f.ta.0);
                out.extend_from_slice(&f.feedback.encode());
            }
            Frame::SswAck(f) => {
                out.extend_from_slice(&FrameKind::SswAck.frame_control().to_le_bytes());
                out.extend_from_slice(&0u16.to_le_bytes());
                out.extend_from_slice(&f.ra.0);
                out.extend_from_slice(&f.ta.0);
                out.extend_from_slice(&f.feedback.encode());
            }
        }
        append_fcs(&mut out);
        out
    }

    /// Parses a frame, verifying the FCS. Returns `None` on bad checksum,
    /// truncation or unknown frame control.
    pub fn decode(raw: &[u8]) -> Option<Frame> {
        let mut buf = check_and_strip_fcs(raw)?;
        if buf.len() < 4 {
            return None;
        }
        let fc = u16::from_le_bytes(take(&mut buf));
        let _duration: [u8; 2] = take(&mut buf);
        let kind = FrameKind::from_frame_control(fc)?;
        match kind {
            FrameKind::DmgBeacon => {
                if buf.len() != 6 + 8 + 2 + 3 {
                    return None;
                }
                Some(Frame::Beacon(DmgBeacon {
                    bssid: MacAddr(take(&mut buf)),
                    timestamp_us: u64::from_le_bytes(take(&mut buf)),
                    beacon_interval_tu: u16::from_le_bytes(take(&mut buf)),
                    ssw: SswField::decode(&take(&mut buf)),
                }))
            }
            FrameKind::Ssw => {
                if buf.len() != 6 + 6 + 3 + 3 {
                    return None;
                }
                Some(Frame::Ssw(SswFrame {
                    ra: MacAddr(take(&mut buf)),
                    ta: MacAddr(take(&mut buf)),
                    ssw: SswField::decode(&take(&mut buf)),
                    feedback: SswFeedbackField::decode(&take(&mut buf)),
                }))
            }
            FrameKind::SswFeedback | FrameKind::SswAck => {
                if buf.len() != 6 + 6 + 3 {
                    return None;
                }
                let ra = MacAddr(take(&mut buf));
                let ta = MacAddr(take(&mut buf));
                let feedback = SswFeedbackField::decode(&take(&mut buf));
                Some(match kind {
                    FrameKind::SswFeedback => {
                        Frame::SswFeedback(SswFeedbackFrame { ra, ta, feedback })
                    }
                    _ => Frame::SswAck(SswAckFrame { ra, ta, feedback }),
                })
            }
        }
    }
}

/// Reads the next `N` bytes off the front of `buf`; the caller has checked
/// the length.
fn take<const N: usize>(buf: &mut &[u8]) -> [u8; N] {
    let (head, rest) = buf
        .split_first_chunk::<N>()
        .expect("frame length checked before reading");
    *buf = rest;
    *head
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{encode_snr, SweepDirection};
    use talon_array::SectorId;

    fn sample_ssw_field() -> SswField {
        SswField {
            direction: SweepDirection::Initiator,
            cdown: 17,
            sector_id: SectorId(18),
            dmg_antenna_id: 0,
            rxss_length: 0,
        }
    }

    fn sample_feedback() -> SswFeedbackField {
        SswFeedbackField {
            sector_select: SectorId(24),
            dmg_antenna_select: 0,
            snr_report: encode_snr(10.5),
            poll_required: false,
        }
    }

    #[test]
    fn beacon_roundtrip() {
        let b = Frame::Beacon(DmgBeacon {
            bssid: MacAddr::device(1),
            timestamp_us: 123_456_789,
            beacon_interval_tu: 100,
            ssw: sample_ssw_field(),
        });
        let enc = b.encode();
        assert_eq!(enc.len(), 2 + 2 + 6 + 8 + 2 + 3 + 4);
        assert_eq!(Frame::decode(&enc), Some(b));
    }

    #[test]
    fn ssw_frame_roundtrip_and_size() {
        let f = Frame::Ssw(SswFrame {
            ra: MacAddr::device(2),
            ta: MacAddr::device(1),
            ssw: sample_ssw_field(),
            feedback: sample_feedback(),
        });
        let enc = f.encode();
        // FC(2)+Dur(2)+RA(6)+TA(6)+SSW(3)+FBCK(3)+FCS(4) = 26 octets, the
        // standard's SSW frame length.
        assert_eq!(enc.len(), 26);
        assert_eq!(Frame::decode(&enc), Some(f));
    }

    #[test]
    fn feedback_and_ack_roundtrip() {
        let fb = Frame::SswFeedback(SswFeedbackFrame {
            ra: MacAddr::device(2),
            ta: MacAddr::device(1),
            feedback: sample_feedback(),
        });
        let ack = Frame::SswAck(SswAckFrame {
            ra: MacAddr::device(1),
            ta: MacAddr::device(2),
            feedback: sample_feedback(),
        });
        assert_eq!(Frame::decode(&fb.encode()), Some(fb));
        assert_eq!(Frame::decode(&ack.encode()), Some(ack));
        // Feedback and ACK differ only in frame control.
        assert_ne!(fb.encode(), ack.encode());
    }

    #[test]
    fn corrupted_frame_fails_decode() {
        let f = Frame::Ssw(SswFrame {
            ra: MacAddr::device(2),
            ta: MacAddr::device(1),
            ssw: sample_ssw_field(),
            feedback: sample_feedback(),
        });
        let mut raw = f.encode().to_vec();
        raw[10] ^= 0x01;
        assert_eq!(Frame::decode(&raw), None);
    }

    #[test]
    fn truncated_frame_fails_decode() {
        let f = Frame::Beacon(DmgBeacon {
            bssid: MacAddr::device(1),
            timestamp_us: 0,
            beacon_interval_tu: 100,
            ssw: sample_ssw_field(),
        });
        let raw = f.encode();
        assert_eq!(Frame::decode(&raw[..raw.len() - 5]), None);
    }

    #[test]
    fn unknown_frame_control_rejected() {
        let mut raw = vec![0xAAu8, 0xBB, 0, 0, 1, 2, 3];
        crate::crc::append_fcs(&mut raw);
        assert_eq!(Frame::decode(&raw), None);
    }
}
