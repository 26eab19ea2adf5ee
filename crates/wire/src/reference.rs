//! Retained reference kernels: the plain formulations the optimised kernels
//! are proven against, kept in one place so the unit and property suites and
//! the benches all compare against the same code.  Not part of the supported
//! API.

use crate::frame::CRC_TABLES;

/// The one-byte-at-a-time CRC-32 that slicing-by-8 replaced.
/// [`crate::frame::crc32`] must match this on every input.
pub fn crc32_reference(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}
