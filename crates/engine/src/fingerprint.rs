//! Stable 64-bit content fingerprints.
//!
//! The cache keys analysis artefacts by the content of their inputs, not by
//! object identity, so fingerprints must be stable across processes and
//! platform word sizes. This is a self-contained FNV-1a/xxhash-style mixer:
//! not cryptographic, but 64 bits over structured, length-prefixed input
//! makes accidental collisions within one model negligible.

use std::fmt;

/// A stable 64-bit digest of some structured content.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u64);

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({:016x})", self.0)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl Fingerprint {
    /// Parses the `Display` form (16 lowercase hex digits).
    pub fn parse(text: &str) -> Option<Self> {
        if text.len() != 16 {
            return None;
        }
        u64::from_str_radix(text, 16).ok().map(Fingerprint)
    }
}

const SEED: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// An incremental fingerprint builder.
///
/// Every write is length- or tag-prefixed, so concatenation ambiguities
/// (`"ab" + "c"` vs `"a" + "bc"`) produce different digests.
#[derive(Clone, Debug)]
pub struct Hasher {
    state: u64,
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher { state: SEED }
    }
}

impl Hasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    fn mix_byte(&mut self, byte: u8) {
        self.state ^= u64::from(byte);
        self.state = self.state.wrapping_mul(PRIME);
    }

    fn mix_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.mix_byte(byte);
        }
    }

    /// Mixes raw bytes with a length prefix.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.mix_u64(bytes.len() as u64);
        for &b in bytes {
            self.mix_byte(b);
        }
        self
    }

    /// Mixes a string with a length prefix.
    pub fn write_str(&mut self, text: &str) -> &mut Self {
        self.write_bytes(text.as_bytes())
    }

    /// Mixes an unsigned integer.
    pub fn write_u64(&mut self, value: u64) -> &mut Self {
        self.mix_byte(0x01);
        self.mix_u64(value);
        self
    }

    /// Mixes a signed integer.
    pub fn write_i64(&mut self, value: i64) -> &mut Self {
        self.mix_byte(0x02);
        self.mix_u64(value as u64);
        self
    }

    /// Mixes a float by bit pattern, normalising `-0.0` to `0.0` so equal
    /// values hash equally.
    pub fn write_f64(&mut self, value: f64) -> &mut Self {
        let normalised = if value == 0.0 { 0.0f64 } else { value };
        self.mix_byte(0x03);
        self.mix_u64(normalised.to_bits());
        self
    }

    /// Mixes a boolean.
    pub fn write_bool(&mut self, value: bool) -> &mut Self {
        self.mix_byte(if value { 0x05 } else { 0x04 });
        self
    }

    /// Mixes another fingerprint (for composing sub-digests).
    pub fn write_fingerprint(&mut self, fp: Fingerprint) -> &mut Self {
        self.mix_byte(0x08);
        self.mix_u64(fp.0);
        self
    }

    /// Final avalanche, consuming the accumulated state.
    pub fn finish(&self) -> Fingerprint {
        // splitmix64 finaliser on top of FNV accumulation: cheap streaming
        // with good final bit diffusion.
        let mut z = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Fingerprint(z ^ (z >> 31))
    }
}

/// Fingerprints an ordered list of sub-fingerprints.
pub fn combine<I: IntoIterator<Item = Fingerprint>>(parts: I) -> Fingerprint {
    let mut hasher = Hasher::new();
    for part in parts {
        hasher.write_fingerprint(part);
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concatenation_is_unambiguous() {
        let mut a = Hasher::new();
        a.write_str("ab").write_str("c");
        let mut b = Hasher::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn stable_across_runs() {
        let mut h = Hasher::new();
        h.write_str("component").write_f64(12.5).write_bool(true);
        let fp = h.finish();
        assert_eq!(fp, {
            let mut h2 = Hasher::new();
            h2.write_str("component").write_f64(12.5).write_bool(true);
            h2.finish()
        });
        let text = fp.to_string();
        assert_eq!(Fingerprint::parse(&text), Some(fp));
    }

    #[test]
    fn negative_zero_normalises() {
        let mut a = Hasher::new();
        a.write_f64(0.0);
        let mut b = Hasher::new();
        b.write_f64(-0.0);
        assert_eq!(a.finish(), b.finish());
    }
}
