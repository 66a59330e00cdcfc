//! The Wireless Module Interface (WMI) command set.
//!
//! The wil6210 driver talks to the QCA9500 firmware through WMI commands.
//! The paper adds one: "a custom Wireless Module Interface (WMI) command"
//! that switches the SSW feedback between the stock selection and a
//! user-space-chosen sector (§3.4). We model the handful of commands the
//! experiments need; unknown or malformed commands fail like the real
//! firmware would.

use talon_array::SectorId;

/// Commands user space can send to the firmware.
#[derive(Debug, Clone, PartialEq)]
pub enum WmiCommand {
    /// Stock command: ask for the firmware/chip revision string.
    GetFirmwareVersion,
    /// Paper extension: force the given sector ID into all outgoing SSW
    /// feedback fields (the "1" position of the switch in Fig. 2).
    SetSectorOverride(SectorId),
    /// Paper extension: return to the stock selection algorithm (the "0"
    /// position of the switch).
    ClearSectorOverride,
    /// Paper extension: query how many measurements are pending in the
    /// ring buffer.
    GetSweepInfoCount,
    /// Paper extension (§6.1 protocol variant): restrict the device's own
    /// transmit sweep to the given probing sectors.
    SetProbeSectors(Vec<SectorId>),
    /// Paper extension: sweep the full codebook again.
    ClearProbeSectors,
}

/// Replies from the firmware.
#[derive(Debug, Clone, PartialEq)]
pub enum WmiReply {
    /// Command accepted, no payload.
    Ok,
    /// Firmware version string.
    FirmwareVersion(String),
    /// Pending ring-buffer entry count.
    SweepInfoCount(usize),
}

/// WMI-level errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WmiError {
    /// The override sector is not a valid Talon transmit sector.
    InvalidSector(u8),
    /// The command needs the paper's firmware patches, which are not
    /// flashed.
    PatchNotApplied,
}

impl std::fmt::Display for WmiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WmiError::InvalidSector(s) => write!(f, "sector {s} is not a valid transmit sector"),
            WmiError::PatchNotApplied => write!(f, "firmware patch not applied"),
        }
    }
}

impl std::error::Error for WmiError {}

/// The firmware version the paper's analysis targets (§3.2): extracted
/// from Acer TravelMate notebooks, runs on the Talon AD7200.
pub const FIRMWARE_VERSION: &str = "3.3.3.7759";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format_usefully() {
        assert!(WmiError::InvalidSector(40).to_string().contains("40"));
        assert!(WmiError::PatchNotApplied.to_string().contains("patch"));
    }

    #[test]
    fn commands_are_value_types() {
        let c = WmiCommand::SetSectorOverride(SectorId(14));
        assert_eq!(c, WmiCommand::SetSectorOverride(SectorId(14)));
        assert_ne!(c, WmiCommand::ClearSectorOverride);
    }
}
