//! The QCA9500's dual-core memory layout (paper Fig. 1).
//!
//! Two ARC600 processors ("ucode" for real-time and "firmware" for other
//! MAC operations) each see a write-protected code partition and a writable
//! data partition at low addresses. All four regions are additionally
//! remapped into high addresses, where — as the paper discovered — they are
//! *writable* and host-accessible, which is what makes Nexmon-style
//! patching possible at all.
//!
//! | region        | low window            | high mapping |
//! |---------------|-----------------------|--------------|
//! | ucode code    | 0x000000–0x020000 (RO)| 0x920000     |
//! | firmware code | 0x040000–0x080000 (RO)| 0x8c0000     |
//! | firmware data | 0x080000–0x084000 (RW)| 0x900000     |
//! | ucode data    | 0x084000–0x088000 (RW)| 0x940000     |
//!
//! The emulation enforces exactly these rules: writes into a low code
//! window fail with [`MemError::WriteProtected`], the same bytes written
//! through the high mapping succeed, and both views observe each other.

/// Identifies one of the four memory regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Real-time processor's code partition.
    UcodeCode,
    /// MAC processor's code partition.
    FirmwareCode,
    /// MAC processor's data partition.
    FirmwareData,
    /// Real-time processor's data partition.
    UcodeData,
}

impl Region {
    /// All regions.
    pub const ALL: [Region; 4] = [
        Region::UcodeCode,
        Region::FirmwareCode,
        Region::FirmwareData,
        Region::UcodeData,
    ];

    /// Low-window base address.
    pub fn low_base(self) -> u32 {
        match self {
            Region::UcodeCode => 0x0000_0000,
            Region::FirmwareCode => 0x0004_0000,
            Region::FirmwareData => 0x0008_0000,
            Region::UcodeData => 0x0008_4000,
        }
    }

    /// Region size in bytes.
    pub fn size(self) -> u32 {
        match self {
            Region::UcodeCode => 0x2_0000,
            Region::FirmwareCode => 0x4_0000,
            Region::FirmwareData => 0x4000,
            Region::UcodeData => 0x4000,
        }
    }

    /// High-mapping base address.
    pub fn high_base(self) -> u32 {
        match self {
            Region::UcodeCode => 0x0092_0000,
            Region::FirmwareCode => 0x008c_0000,
            Region::FirmwareData => 0x0090_0000,
            Region::UcodeData => 0x0094_0000,
        }
    }

    /// Whether the *low* window is write-protected (code partitions are).
    pub fn low_write_protected(self) -> bool {
        matches!(self, Region::UcodeCode | Region::FirmwareCode)
    }
}

/// Errors of the memory emulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The address does not fall into any mapped region.
    Unmapped(u32),
    /// A write hit a write-protected window.
    WriteProtected(u32),
    /// The access runs past the end of its region.
    OutOfBounds(u32, usize),
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::Unmapped(a) => write!(f, "address {a:#010x} is unmapped"),
            MemError::WriteProtected(a) => {
                write!(f, "address {a:#010x} is in a write-protected window")
            }
            MemError::OutOfBounds(a, n) => {
                write!(f, "access of {n} bytes at {a:#010x} crosses a region end")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// The emulated chip memory: one backing store per region, two views.
#[derive(Debug, Clone)]
pub struct MemoryMap {
    ucode_code: Vec<u8>,
    firmware_code: Vec<u8>,
    firmware_data: Vec<u8>,
    ucode_data: Vec<u8>,
}

impl Default for MemoryMap {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryMap {
    /// Creates a zeroed memory map.
    pub fn new() -> Self {
        MemoryMap {
            ucode_code: vec![0; Region::UcodeCode.size() as usize],
            firmware_code: vec![0; Region::FirmwareCode.size() as usize],
            firmware_data: vec![0; Region::FirmwareData.size() as usize],
            ucode_data: vec![0; Region::UcodeData.size() as usize],
        }
    }

    /// Resolves an absolute address to `(region, offset, via_high_mapping)`.
    pub fn resolve(&self, addr: u32) -> Result<(Region, u32, bool), MemError> {
        for r in Region::ALL {
            if addr >= r.low_base() && addr < r.low_base() + r.size() {
                return Ok((r, addr - r.low_base(), false));
            }
            if addr >= r.high_base() && addr < r.high_base() + r.size() {
                return Ok((r, addr - r.high_base(), true));
            }
        }
        Err(MemError::Unmapped(addr))
    }

    fn store(&self, r: Region) -> &Vec<u8> {
        match r {
            Region::UcodeCode => &self.ucode_code,
            Region::FirmwareCode => &self.firmware_code,
            Region::FirmwareData => &self.firmware_data,
            Region::UcodeData => &self.ucode_data,
        }
    }

    fn store_mut(&mut self, r: Region) -> &mut Vec<u8> {
        match r {
            Region::UcodeCode => &mut self.ucode_code,
            Region::FirmwareCode => &mut self.firmware_code,
            Region::FirmwareData => &mut self.firmware_data,
            Region::UcodeData => &mut self.ucode_data,
        }
    }

    /// Reads `buf.len()` bytes at `addr` (either view).
    pub fn read(&self, addr: u32, buf: &mut [u8]) -> Result<(), MemError> {
        let (r, off, _) = self.resolve(addr)?;
        let end = off as usize + buf.len();
        if end > r.size() as usize {
            return Err(MemError::OutOfBounds(addr, buf.len()));
        }
        buf.copy_from_slice(&self.store(r)[off as usize..end]);
        Ok(())
    }

    /// Writes bytes at `addr`, honouring the low-window write protection.
    ///
    /// This is the crux of the paper's §3.2: the identical bytes that are
    /// rejected at the low code addresses go through at the high mapping.
    pub fn write(&mut self, addr: u32, data: &[u8]) -> Result<(), MemError> {
        let (r, off, via_high) = self.resolve(addr)?;
        if !via_high && r.low_write_protected() {
            return Err(MemError::WriteProtected(addr));
        }
        let end = off as usize + data.len();
        if end > r.size() as usize {
            return Err(MemError::OutOfBounds(addr, data.len()));
        }
        self.store_mut(r)[off as usize..end].copy_from_slice(data);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_matches_figure1() {
        assert_eq!(Region::UcodeCode.low_base(), 0x0);
        assert_eq!(Region::UcodeCode.high_base(), 0x92_0000);
        assert_eq!(Region::FirmwareCode.low_base(), 0x4_0000);
        assert_eq!(Region::FirmwareCode.high_base(), 0x8c_0000);
        assert_eq!(Region::FirmwareData.high_base(), 0x90_0000);
        assert_eq!(Region::UcodeData.high_base(), 0x94_0000);
        assert!(Region::UcodeCode.low_write_protected());
        assert!(!Region::UcodeData.low_write_protected());
    }

    #[test]
    fn low_code_writes_are_rejected_high_writes_succeed() {
        let mut m = MemoryMap::new();
        let patch = [0xde, 0xad, 0xbe, 0xef];
        // Low ucode-code window: write-protected.
        assert_eq!(
            m.write(0x0000_1000, &patch),
            Err(MemError::WriteProtected(0x1000))
        );
        // Same bytes via the high mapping: accepted.
        m.write(0x0092_1000, &patch).unwrap();
        // And visible through the low (read-only) window.
        let mut buf = [0u8; 4];
        m.read(0x0000_1000, &mut buf).unwrap();
        assert_eq!(buf, patch);
    }

    #[test]
    fn data_partitions_are_writable_in_both_views() {
        let mut m = MemoryMap::new();
        m.write(0x0008_0010, &[1, 2, 3]).unwrap();
        let mut buf = [0u8; 3];
        m.read(0x0090_0010, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
        m.write(0x0094_0000, &[9]).unwrap();
        m.read(0x0008_4000, &mut buf[..1]).unwrap();
        assert_eq!(buf[0], 9);
    }

    #[test]
    fn unmapped_addresses_error() {
        let m = MemoryMap::new();
        let mut buf = [0u8; 1];
        assert_eq!(
            m.read(0x0002_0000, &mut buf),
            Err(MemError::Unmapped(0x2_0000))
        );
        assert_eq!(
            m.read(0x00a0_0000, &mut buf),
            Err(MemError::Unmapped(0xa0_0000))
        );
    }

    #[test]
    fn out_of_bounds_access_errors() {
        let mut m = MemoryMap::new();
        let data = vec![0u8; 8];
        // Last byte of the ucode data region + 8 crosses the region end.
        let tail = Region::UcodeData.high_base() + Region::UcodeData.size() - 4;
        assert!(matches!(
            m.write(tail, &data),
            Err(MemError::OutOfBounds(_, 8))
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(MemError::Unmapped(0x123).to_string().contains("unmapped"));
        assert!(MemError::WriteProtected(0x0)
            .to_string()
            .contains("write-protected"));
    }
}
