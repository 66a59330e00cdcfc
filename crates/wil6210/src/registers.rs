//! The host-visible control/status register (CSR) block.
//!
//! The real wil6210 driver drives the chip through a PCIe BAR full of
//! control/status registers: doorbells to kick the firmware, interrupt
//! cause/mask registers, and mailbox offsets. Our emulation models the
//! slice of that interface the paper's patches interact with, so the
//! driver facade reads measurement-counter state the same way the real
//! user-space tooling polls `debugfs`:
//!
//! | offset | register | semantics |
//! |---|---|---|
//! | 0x00 | `CHIP_ID`       | read-only identity (0x6210) |
//! | 0x04 | `FW_STATUS`     | 0 = halted, 1 = running, 2 = patched |
//! | 0x08 | `INT_CAUSE`     | write-1-to-clear interrupt bits |
//! | 0x0C | `INT_MASK`      | masked bits never assert |
//! | 0x10 | `SWEEP_COUNT`   | read-only: sweeps processed |
//! | 0x14 | `RING_PENDING`  | read-only: ring-buffer entries pending |
//! | 0x18 | `DOORBELL`      | write: kick the firmware mailbox |
//!
//! Interrupt bit 0 = "sweep complete", bit 1 = "ring buffer high water".

use obs::sync::lock;
use std::sync::Mutex;

/// Register offsets.
pub mod offsets {
    /// Read-only chip identity.
    pub const CHIP_ID: u32 = 0x00;
    /// Firmware status.
    pub const FW_STATUS: u32 = 0x04;
    /// Interrupt cause (write-1-to-clear).
    pub const INT_CAUSE: u32 = 0x08;
    /// Interrupt mask.
    pub const INT_MASK: u32 = 0x0C;
    /// Sweeps processed.
    pub const SWEEP_COUNT: u32 = 0x10;
    /// Ring-buffer entries pending.
    pub const RING_PENDING: u32 = 0x14;
    /// Mailbox doorbell.
    pub const DOORBELL: u32 = 0x18;
}

/// Interrupt bits.
pub mod irq {
    /// A sector sweep finished processing.
    pub const SWEEP_COMPLETE: u32 = 1 << 0;
    /// The ring buffer crossed its high-water mark.
    pub const RING_HIGH_WATER: u32 = 1 << 1;
}

/// The chip identity value.
pub const CHIP_ID_VALUE: u32 = 0x6210;

/// Firmware status values.
pub mod fw_status {
    /// Processor halted.
    pub const HALTED: u32 = 0;
    /// Stock firmware running.
    pub const RUNNING: u32 = 1;
    /// Patched firmware running.
    pub const PATCHED: u32 = 2;
}

/// Errors of the register block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsrError {
    /// The offset is not a known register.
    UnknownRegister(u32),
    /// The register is read-only.
    ReadOnly(u32),
}

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsrError::UnknownRegister(o) => write!(f, "no register at offset {o:#x}"),
            CsrError::ReadOnly(o) => write!(f, "register {o:#x} is read-only"),
        }
    }
}

impl std::error::Error for CsrError {}

#[derive(Debug, Default)]
struct CsrState {
    fw_status: u32,
    int_cause: u32,
    int_mask: u32,
    sweep_count: u32,
    ring_pending: u32,
    doorbell_rings: u32,
}

/// The emulated CSR block.
#[derive(Debug, Default)]
pub struct CsrBlock {
    state: Mutex<CsrState>,
}

impl CsrBlock {
    /// A fresh block (firmware halted).
    pub fn new() -> Self {
        CsrBlock::default()
    }

    /// Host read of a register.
    pub fn read(&self, offset: u32) -> Result<u32, CsrError> {
        let s = lock(&self.state);
        match offset {
            offsets::CHIP_ID => Ok(CHIP_ID_VALUE),
            offsets::FW_STATUS => Ok(s.fw_status),
            offsets::INT_CAUSE => Ok(s.int_cause),
            offsets::INT_MASK => Ok(s.int_mask),
            offsets::SWEEP_COUNT => Ok(s.sweep_count),
            offsets::RING_PENDING => Ok(s.ring_pending),
            offsets::DOORBELL => Ok(s.doorbell_rings),
            other => Err(CsrError::UnknownRegister(other)),
        }
    }

    /// Host write to a register.
    pub fn write(&self, offset: u32, value: u32) -> Result<(), CsrError> {
        let mut s = lock(&self.state);
        match offset {
            offsets::INT_CAUSE => {
                // Write-1-to-clear.
                s.int_cause &= !value;
                Ok(())
            }
            offsets::INT_MASK => {
                s.int_mask = value;
                Ok(())
            }
            offsets::DOORBELL => {
                s.doorbell_rings = s.doorbell_rings.wrapping_add(1);
                Ok(())
            }
            offsets::CHIP_ID
            | offsets::FW_STATUS
            | offsets::SWEEP_COUNT
            | offsets::RING_PENDING => Err(CsrError::ReadOnly(offset)),
            other => Err(CsrError::UnknownRegister(other)),
        }
    }

    /// Whether an (unmasked) interrupt is currently asserted.
    pub fn irq_asserted(&self) -> bool {
        let s = lock(&self.state);
        s.int_cause & !s.int_mask != 0
    }

    // ---- firmware-side mutators (not host-accessible) -------------------

    /// Firmware: updates the status register.
    pub fn fw_set_status(&self, status: u32) {
        lock(&self.state).fw_status = status;
    }

    /// Firmware: raises interrupt bits and updates the counters.
    pub fn fw_sweep_complete(&self, sweep_count: u64, ring_pending: usize, high_water: bool) {
        let mut s = lock(&self.state);
        s.sweep_count = sweep_count as u32;
        s.ring_pending = ring_pending as u32;
        s.int_cause |= irq::SWEEP_COMPLETE;
        if high_water {
            s.int_cause |= irq::RING_HIGH_WATER;
        }
    }

    /// Firmware: refreshes the pending-entry count (after a host drain).
    pub fn fw_set_ring_pending(&self, pending: usize) {
        lock(&self.state).ring_pending = pending as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_status() {
        let csr = CsrBlock::new();
        assert_eq!(csr.read(offsets::CHIP_ID), Ok(0x6210));
        assert_eq!(csr.read(offsets::FW_STATUS), Ok(fw_status::HALTED));
        csr.fw_set_status(fw_status::PATCHED);
        assert_eq!(csr.read(offsets::FW_STATUS), Ok(fw_status::PATCHED));
    }

    #[test]
    fn read_only_registers_reject_writes() {
        let csr = CsrBlock::new();
        assert_eq!(
            csr.write(offsets::CHIP_ID, 1),
            Err(CsrError::ReadOnly(0x00))
        );
        assert_eq!(
            csr.write(offsets::SWEEP_COUNT, 1),
            Err(CsrError::ReadOnly(0x10))
        );
        assert_eq!(csr.write(0x40, 0), Err(CsrError::UnknownRegister(0x40)));
        assert_eq!(csr.read(0x40), Err(CsrError::UnknownRegister(0x40)));
    }

    #[test]
    fn interrupt_cause_is_write_one_to_clear() {
        let csr = CsrBlock::new();
        csr.fw_sweep_complete(1, 34, true);
        assert!(csr.irq_asserted());
        assert_eq!(
            csr.read(offsets::INT_CAUSE).unwrap(),
            irq::SWEEP_COMPLETE | irq::RING_HIGH_WATER
        );
        // Clearing only one bit leaves the other asserted.
        csr.write(offsets::INT_CAUSE, irq::SWEEP_COMPLETE).unwrap();
        assert_eq!(csr.read(offsets::INT_CAUSE).unwrap(), irq::RING_HIGH_WATER);
        csr.write(offsets::INT_CAUSE, irq::RING_HIGH_WATER).unwrap();
        assert!(!csr.irq_asserted());
    }

    #[test]
    fn masked_interrupts_do_not_assert() {
        let csr = CsrBlock::new();
        csr.write(offsets::INT_MASK, irq::SWEEP_COMPLETE).unwrap();
        csr.fw_sweep_complete(1, 10, false);
        assert!(!csr.irq_asserted(), "masked");
        csr.write(offsets::INT_MASK, 0).unwrap();
        assert!(csr.irq_asserted(), "unmasked bit becomes visible");
    }

    #[test]
    fn counters_track_firmware_state() {
        let csr = CsrBlock::new();
        csr.fw_sweep_complete(7, 42, false);
        assert_eq!(csr.read(offsets::SWEEP_COUNT), Ok(7));
        assert_eq!(csr.read(offsets::RING_PENDING), Ok(42));
        csr.fw_set_ring_pending(0);
        assert_eq!(csr.read(offsets::RING_PENDING), Ok(0));
    }

    #[test]
    fn doorbell_counts_rings() {
        let csr = CsrBlock::new();
        csr.write(offsets::DOORBELL, 0).unwrap();
        csr.write(offsets::DOORBELL, 123).unwrap();
        assert_eq!(csr.read(offsets::DOORBELL), Ok(2));
    }
}
