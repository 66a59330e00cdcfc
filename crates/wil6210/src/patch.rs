//! Nexmon-style firmware patching.
//!
//! The Nexmon framework lets researchers write firmware patches in C and
//! place them at chosen addresses (§3.2). For the ARC600 cores this
//! required the paper's key discovery: patches targeting the code
//! partitions must be written through the *high* address mappings, "where
//! code and data sections are merged".
//!
//! Our emulated patches are descriptive records — a name, a target address
//! and the bytes — applied to the [`crate::memmap::MemoryMap`]. The two
//! patches of the paper ship as constants so the firmware emulation can
//! verify it has been "flashed" before enabling its hooks.

use crate::memmap::{MemError, MemoryMap, Region};

/// A single patch blob to be written into chip memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Patch {
    /// Human-readable name.
    pub name: String,
    /// Absolute target address (must be a high mapping for code regions).
    pub address: u32,
    /// The patch bytes (opaque to the emulation; a real patch would be
    /// ARC600 machine code).
    pub payload: Vec<u8>,
}

impl Patch {
    /// The ucode patch exporting SNR/RSSI of received SSW frames into the
    /// ring buffer (§3.3). Lives in the ucode patch area at 0x936000.
    pub fn sweep_info_export() -> Patch {
        Patch {
            name: "ucode-ssw-ringbuffer-export".into(),
            address: 0x0093_6000,
            payload: b"NEXMON:export-ssw-snr-rssi".to_vec(),
        }
    }

    /// The firmware patch adding the sector-override switch to the SSW
    /// feedback path (§3.4). Lives in the firmware patch area at 0x8f5000.
    pub fn sector_override() -> Patch {
        Patch {
            name: "fw-ssw-feedback-override".into(),
            address: 0x008f_5000,
            payload: b"NEXMON:wmi-sector-override".to_vec(),
        }
    }

    /// Applies the patch to the memory map.
    pub fn apply(&self, mem: &mut MemoryMap) -> Result<(), MemError> {
        mem.write(self.address, &self.payload)
    }

    /// Checks whether the patch bytes are present in memory.
    pub fn is_applied(&self, mem: &MemoryMap) -> bool {
        let mut buf = vec![0u8; self.payload.len()];
        mem.read(self.address, &mut buf).is_ok() && buf == self.payload
    }
}

/// Applies the paper's two patches, mimicking a full firmware flash.
pub fn flash_paper_patches(mem: &mut MemoryMap) -> Result<(), MemError> {
    Patch::sweep_info_export().apply(mem)?;
    Patch::sector_override().apply(mem)?;
    Ok(())
}

/// Returns the patch region a given address belongs to, if any — used in
/// diagnostics.
pub fn patch_region(addr: u32) -> Option<Region> {
    match addr {
        0x008f_5000..=0x008f_ffff => Some(Region::FirmwareCode),
        0x0093_6000..=0x0093_ffff => Some(Region::UcodeCode),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_patches_apply_via_high_mappings() {
        let mut mem = MemoryMap::new();
        let p1 = Patch::sweep_info_export();
        let p2 = Patch::sector_override();
        assert!(!p1.is_applied(&mem));
        flash_paper_patches(&mut mem).unwrap();
        assert!(p1.is_applied(&mem));
        assert!(p2.is_applied(&mem));
    }

    #[test]
    fn patching_low_code_address_fails() {
        let mut mem = MemoryMap::new();
        let bad = Patch {
            name: "naive-low-address".into(),
            address: 0x0001_6000, // ucode code, low window
            payload: vec![1, 2, 3],
        };
        assert!(matches!(
            bad.apply(&mut mem),
            Err(MemError::WriteProtected(_))
        ));
    }

    #[test]
    fn patch_addresses_fall_in_documented_patch_areas() {
        assert_eq!(
            patch_region(Patch::sector_override().address),
            Some(Region::FirmwareCode)
        );
        assert_eq!(
            patch_region(Patch::sweep_info_export().address),
            Some(Region::UcodeCode)
        );
        assert_eq!(patch_region(0x0), None);
    }

    #[test]
    fn applied_patch_is_visible_through_low_window() {
        // A patch placed at ucode high 0x936000 shows up at low 0x16000,
        // where the processor fetches it.
        let mut mem = MemoryMap::new();
        Patch::sweep_info_export().apply(&mut mem).unwrap();
        let mut buf = vec![0u8; 6];
        mem.read(0x0001_6000, &mut buf).unwrap();
        assert_eq!(&buf, b"NEXMON");
    }
}
