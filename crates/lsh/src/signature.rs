//! Packed binary signatures and Hamming-space operations.

use std::fmt;

/// An `M`-bit binary signature, packed into a `u64`.
///
/// Every configuration in the paper satisfies `M ≤ 64` comfortably
/// (`M = ⌈log₂N⌉/2 − 1 ≤ 15` even at a billion points), so one word is
/// the right representation: comparisons are single XORs, matching the
/// O(1) claim of Eq. 6.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signature {
    bits: u64,
    len: u8,
}

impl Signature {
    /// Maximum supported width.
    pub const MAX_BITS: usize = 64;

    /// Create an all-zero signature of `len` bits.
    ///
    /// # Panics
    /// Panics if `len` is zero or exceeds [`Signature::MAX_BITS`].
    pub fn zero(len: usize) -> Self {
        assert!(
            (1..=Self::MAX_BITS).contains(&len),
            "signature length must be in 1..=64, got {len}"
        );
        Self {
            bits: 0,
            len: len as u8,
        }
    }

    /// Create from a raw bit pattern (low `len` bits are kept).
    pub fn from_bits(bits: u64, len: usize) -> Self {
        let mut s = Self::zero(len);
        s.bits = bits & s.mask();
        s
    }

    #[inline]
    fn mask(&self) -> u64 {
        if self.len as usize == 64 {
            u64::MAX
        } else {
            (1u64 << self.len) - 1
        }
    }

    /// Number of bits in the signature.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Signatures are never empty; kept for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Raw packed bits.
    #[inline]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Set bit `i` (0 = least significant) to `value`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len(), "bit index {i} out of range");
        if value {
            self.bits |= 1u64 << i;
        } else {
            self.bits &= !(1u64 << i);
        }
    }

    /// Read bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len(), "bit index {i} out of range");
        (self.bits >> i) & 1 == 1
    }

    /// Hamming distance to another signature of the same width.
    ///
    /// # Panics
    /// Panics if the widths differ.
    #[inline]
    pub fn hamming(&self, other: &Signature) -> u32 {
        assert_eq!(self.len, other.len, "hamming: width mismatch");
        (self.bits ^ other.bits).count_ones()
    }

    /// Number of agreeing bits (`M − hamming`).
    #[inline]
    pub fn common_bits(&self, other: &Signature) -> u32 {
        self.len() as u32 - self.hamming(other)
    }

    /// The paper's Eq. 6 test: true iff the signatures differ in exactly
    /// one bit, evaluated as `(A⊕B) & (A⊕B − 1) == 0` with a non-zero
    /// XOR. O(1) regardless of `M`.
    #[inline]
    pub fn differs_by_one(&self, other: &Signature) -> bool {
        debug_assert_eq!(self.len, other.len);
        let x = self.bits ^ other.bits;
        x != 0 && x & x.wrapping_sub(1) == 0
    }

    /// True iff the signatures share at least `p` bits. For `p = M − 1`
    /// this is `differs_by_one` or equality.
    #[inline]
    pub fn at_least_p_common(&self, other: &Signature, p: usize) -> bool {
        self.common_bits(other) as usize >= p
    }

    /// Binary string rendering, most significant bit first (matches the
    /// string signatures built by Algorithm 1).
    fn to_bit_string(self) -> String {
        (0..self.len())
            .rev()
            .map(|i| if self.get(i) { '1' } else { '0' })
            .collect()
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature({})", self.to_bit_string())
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_bit_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut s = Signature::zero(8);
        s.set(0, true);
        s.set(7, true);
        assert!(s.get(0));
        assert!(!s.get(3));
        assert!(s.get(7));
        assert_eq!(s.bits(), 0b1000_0001);
        s.set(0, false);
        assert!(!s.get(0));
    }

    #[test]
    fn from_bits_masks_excess() {
        let s = Signature::from_bits(0xFF, 4);
        assert_eq!(s.bits(), 0x0F);
    }

    #[test]
    fn hamming_distance() {
        let a = Signature::from_bits(0b1010, 4);
        let b = Signature::from_bits(0b0110, 4);
        assert_eq!(a.hamming(&b), 2);
        assert_eq!(a.hamming(&a), 0);
        assert_eq!(a.common_bits(&b), 2);
    }

    #[test]
    fn eq6_bit_trick() {
        let a = Signature::from_bits(0b1010, 4);
        let one_off = Signature::from_bits(0b1011, 4);
        let two_off = Signature::from_bits(0b1001, 4);
        assert!(a.differs_by_one(&one_off));
        assert!(!a.differs_by_one(&two_off));
        assert!(
            !a.differs_by_one(&a),
            "identical signatures differ in 0 bits"
        );
    }

    #[test]
    fn p_common_threshold() {
        let a = Signature::from_bits(0b1111, 4);
        let b = Signature::from_bits(0b1110, 4);
        assert!(a.at_least_p_common(&b, 3)); // P = M-1
        assert!(!a.at_least_p_common(&b, 4));
        assert!(a.at_least_p_common(&a, 4));
    }

    #[test]
    fn full_width_64() {
        let a = Signature::from_bits(u64::MAX, 64);
        let b = Signature::from_bits(u64::MAX - 1, 64);
        assert_eq!(a.hamming(&b), 1);
        assert!(a.differs_by_one(&b));
    }

    #[test]
    fn bit_string_msb_first() {
        let s = Signature::from_bits(0b0110, 4);
        assert_eq!(s.to_bit_string(), "0110");
        assert_eq!(format!("{s}"), "0110");
    }

    #[test]
    #[should_panic(expected = "signature length")]
    fn zero_length_panics() {
        Signature::zero(0);
    }

    #[test]
    #[should_panic(expected = "signature length")]
    fn over_64_panics() {
        Signature::zero(65);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_bit_panics() {
        Signature::zero(4).get(4);
    }

    #[test]
    fn ord_is_total_and_consistent() {
        let a = Signature::from_bits(1, 8);
        let b = Signature::from_bits(2, 8);
        assert!(a < b);
        let mut v = vec![b, a];
        v.sort();
        assert_eq!(v, vec![a, b]);
    }
}
