//! A stable, dependency-free 64-bit fingerprint hasher.
//!
//! [`Fnv64`] implements FNV-1a with the standard 64-bit parameters. Unlike
//! [`std::hash::DefaultHasher`] — whose output is explicitly allowed to
//! change between Rust releases and process runs — FNV-1a over explicit
//! field encodings is *stable*: the same input bytes produce the same
//! fingerprint on every platform, every run, every toolchain. That
//! stability is what lets fingerprints identify circuits and replies in
//! digests and serialized artifacts across process boundaries.
//!
//! Fingerprints are 64-bit and non-cryptographic: collisions are
//! astronomically unlikely for workload-scale inputs but not impossible,
//! so a consumer whose correctness depends on identity compares the
//! values themselves (the `dqc-serve` compile cache matches circuits by
//! structural equality and hashes nothing).

/// FNV-1a offset basis (64-bit).
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a prime (64-bit).
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher with typed write helpers.
///
/// Multi-byte integers are folded in little-endian byte order; floats are
/// folded through their IEEE-754 bit patterns, so `-0.0` and `0.0` hash
/// differently (callers that want them identified should normalize first).
///
/// # Examples
///
/// ```
/// use dqc_types::Fnv64;
///
/// let mut h = Fnv64::new();
/// h.write_str("qaoa");
/// h.write_u32(32);
/// let a = h.finish();
///
/// let mut h = Fnv64::new();
/// h.write_str("qaoa");
/// h.write_u32(32);
/// assert_eq!(h.finish(), a, "same input, same fingerprint");
/// ```
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// Starts a hasher at the FNV-1a offset basis.
    pub const fn new() -> Self {
        Self {
            state: OFFSET_BASIS,
        }
    }

    /// Folds raw bytes into the state.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(PRIME);
        }
    }

    /// Folds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Folds a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a `usize` widened to 64 bits, so 32- and 64-bit platforms
    /// agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds an `f64` through its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a string's UTF-8 bytes, length-prefixed so consecutive
    /// strings cannot alias (`"ab" + "c"` vs `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The fingerprint of everything written so far.
    pub const fn finish(&self) -> u64 {
        self.state
    }
}

/// Hashes one byte slice in a single call.
///
/// # Examples
///
/// ```
/// use dqc_types::fnv64;
///
/// // The canonical FNV-1a test vectors.
/// assert_eq!(fnv64(b""), 0xcbf29ce484222325);
/// assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
/// ```
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_vectors() {
        // Reference values from the FNV specification's test suite.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn typed_writes_are_order_sensitive() {
        let mut ab = Fnv64::new();
        ab.write_u32(1);
        ab.write_u32(2);
        let mut ba = Fnv64::new();
        ba.write_u32(2);
        ba.write_u32(1);
        assert_ne!(ab.finish(), ba.finish());
    }

    #[test]
    fn length_prefix_prevents_string_aliasing() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn floats_hash_by_bit_pattern() {
        let mut pos = Fnv64::new();
        pos.write_f64(0.0);
        let mut neg = Fnv64::new();
        neg.write_f64(-0.0);
        assert_ne!(pos.finish(), neg.finish());

        let mut x = Fnv64::new();
        x.write_f64(0.1 + 0.2);
        let mut y = Fnv64::new();
        y.write_f64(0.30000000000000004);
        assert_eq!(x.finish(), y.finish());
    }

    #[test]
    fn empty_hasher_is_offset_basis() {
        assert_eq!(Fnv64::new().finish(), fnv64(b""));
    }
}
