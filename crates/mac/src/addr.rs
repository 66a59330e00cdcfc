//! MAC addresses.

/// A 48-bit IEEE MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// A deterministic locally-administered unicast address derived from a
    /// small device index (useful in tests and simulations).
    pub fn device(index: u16) -> MacAddr {
        let [hi, lo] = index.to_be_bytes();
        // 0x02 = locally administered, unicast.
        MacAddr([0x02, 0x11, 0xad, 0x00, hi, lo])
    }

    /// Whether this is a group (multicast/broadcast) address.
    pub fn is_group(&self) -> bool {
        self.0[0] & 0x01 != 0
    }
}

impl std::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = &self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_addresses_are_unique_and_unicast() {
        let a = MacAddr::device(1);
        let b = MacAddr::device(2);
        assert_ne!(a, b);
        assert!(!a.is_group());
        assert!(MacAddr::BROADCAST.is_group());
    }

    #[test]
    fn display_formats_colon_hex() {
        assert_eq!(MacAddr::device(0x1234).to_string(), "02:11:ad:00:12:34");
        assert_eq!(MacAddr::BROADCAST.to_string(), "ff:ff:ff:ff:ff:ff");
    }
}
