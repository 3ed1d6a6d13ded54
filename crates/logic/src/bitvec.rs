//! Scan-chain bit vectors.
//!
//! JTAG moves data serially: on every Shift-DR/Shift-IR TCK one bit enters
//! the chain at TDI and one bit leaves at TDO. [`BitVector`] stores such
//! data with explicit shift semantics so higher layers never have to think
//! about bit ordering again.
//!
//! Convention (matching IEEE 1149.1 figures): index 0 is the bit *closest
//! to TDO*, i.e. the **first bit shifted out**; when shifting in, the new
//! bit enters at the highest index (closest to TDI) and everything moves
//! one position toward TDO.

use crate::logic::Logic;
use std::fmt;
use std::str::FromStr;

/// A variable-length vector of four-valued logic, with scan semantics.
///
/// ```
/// use sint_logic::{BitVector, Logic};
/// let mut chain: BitVector = "1010".parse().unwrap();
/// // Shift a 1 in from the TDI side; the TDO-side bit falls out.
/// let out = chain.shift(Logic::One);
/// assert_eq!(out, Logic::Zero);            // "1010" is written MSB-first
/// assert_eq!(chain.to_string(), "1101");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVector {
    /// bits[0] is nearest TDO (first out); bits[len-1] is nearest TDI.
    bits: Vec<Logic>,
}

impl BitVector {
    /// Creates an empty vector.
    #[must_use]
    pub fn new() -> Self {
        BitVector { bits: Vec::new() }
    }

    /// Creates a vector of `len` copies of `fill`.
    #[must_use]
    pub fn filled(len: usize, fill: Logic) -> Self {
        BitVector { bits: vec![fill; len] }
    }

    /// Creates an all-zero vector of `len` bits.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Self::filled(len, Logic::Zero)
    }

    /// Creates an all-one vector of `len` bits.
    #[must_use]
    pub fn ones(len: usize) -> Self {
        Self::filled(len, Logic::One)
    }

    /// Builds a vector from the low `len` bits of `value`
    /// (bit 0 of `value` → index 0, the first-out position).
    #[must_use]
    pub fn from_u64(value: u64, len: usize) -> Self {
        assert!(len <= 64, "from_u64 supports at most 64 bits");
        let bits = (0..len).map(|i| Logic::from(value >> i & 1 == 1)).collect();
        BitVector { bits }
    }

    /// Interprets the vector as an unsigned integer (index 0 = bit 0).
    ///
    /// Returns `None` when any bit is `X`/`Z` or the vector is longer than
    /// 64 bits.
    #[must_use]
    pub fn to_u64(&self) -> Option<u64> {
        if self.bits.len() > 64 {
            return None;
        }
        let mut v = 0u64;
        for (i, b) in self.bits.iter().enumerate() {
            v |= u64::from(b.to_bool()?) << i;
        }
        Some(v)
    }

    /// One-hot vector: `len` bits with a single `1` at `index`.
    ///
    /// Used for the paper's victim-select data (Table 2).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[must_use]
    pub fn one_hot(len: usize, index: usize) -> Self {
        assert!(index < len, "one_hot index {index} out of range {len}");
        let mut v = Self::zeros(len);
        v.bits[index] = Logic::One;
        v
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the vector holds no bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The bit at `index` (0 = TDO side), or `None` out of range.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<Logic> {
        self.bits.get(index).copied()
    }

    /// Sets the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set(&mut self, index: usize, value: Logic) {
        self.bits[index] = value;
    }

    /// Appends a bit on the TDI side (highest index).
    pub fn push(&mut self, value: Logic) {
        self.bits.push(value);
    }

    /// Serial shift by one position toward TDO.
    ///
    /// `tdi` enters at the highest index; the bit at index 0 is returned
    /// (what TDO would present). On an empty vector this is a wire:
    /// `tdi` comes straight back out.
    pub fn shift(&mut self, tdi: Logic) -> Logic {
        if self.bits.is_empty() {
            return tdi;
        }
        let out = self.bits[0];
        self.bits.rotate_left(1);
        let last = self.bits.len() - 1;
        self.bits[last] = tdi;
        out
    }

    /// Shifts a whole vector in, returning the same number of bits that
    /// came out (in shift order: element 0 of the result left first).
    pub fn shift_in(&mut self, data: &BitVector) -> BitVector {
        let mut out = BitVector::new();
        for i in 0..data.len() {
            out.push(self.shift(data.bits[i]));
        }
        out
    }

    /// Iterates bits from index 0 (TDO side) upward.
    pub fn iter(&self) -> impl Iterator<Item = Logic> + '_ {
        self.bits.iter().copied()
    }

    /// Count of `1` bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.bits.iter().filter(|b| **b == Logic::One).count()
    }

    /// Reversed copy (TDI side becomes TDO side).
    #[must_use]
    pub fn reversed(&self) -> BitVector {
        let mut bits = self.bits.clone();
        bits.reverse();
        BitVector { bits }
    }

    /// Concatenation: `self` stays on the TDO side, `tail` goes behind it.
    #[must_use]
    pub fn concat(&self, tail: &BitVector) -> BitVector {
        let mut bits = self.bits.clone();
        bits.extend_from_slice(&tail.bits);
        BitVector { bits }
    }

    /// View of the underlying slice (index 0 = TDO side).
    #[must_use]
    pub fn as_slice(&self) -> &[Logic] {
        &self.bits
    }
}

impl fmt::Display for BitVector {
    /// Displays MSB-first (TDI side first), the way scan patterns are
    /// written in the paper's figures.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.bits.iter().rev() {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

/// Error parsing a [`BitVector`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBitVectorError {
    offending: char,
}

impl fmt::Display for ParseBitVectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid logic character {:?} in bit vector", self.offending)
    }
}

impl std::error::Error for ParseBitVectorError {}

impl FromStr for BitVector {
    type Err = ParseBitVectorError;

    /// Parses an MSB-first string of `0/1/x/z` characters; `_` separators
    /// are ignored, so `"1010_1100"` is accepted.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut bits = Vec::with_capacity(s.len());
        for c in s.chars() {
            if c == '_' {
                continue;
            }
            let b = Logic::from_char(c).ok_or(ParseBitVectorError { offending: c })?;
            bits.push(b);
        }
        bits.reverse(); // MSB-first text → index 0 at TDO side
        Ok(BitVector { bits })
    }
}

impl From<Vec<Logic>> for BitVector {
    /// Takes `bits` as they are: element 0 is the TDO side.
    fn from(bits: Vec<Logic>) -> Self {
        BitVector { bits }
    }
}

impl FromIterator<Logic> for BitVector {
    fn from_iter<I: IntoIterator<Item = Logic>>(iter: I) -> Self {
        BitVector { bits: iter.into_iter().collect() }
    }
}

impl FromIterator<bool> for BitVector {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitVector { bits: iter.into_iter().map(Logic::from).collect() }
    }
}

impl Extend<Logic> for BitVector {
    fn extend<I: IntoIterator<Item = Logic>>(&mut self, iter: I) {
        self.bits.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let v: BitVector = "1010".parse().unwrap();
        assert_eq!(v.to_string(), "1010");
        assert_eq!(v.len(), 4);
        // MSB-first text: leftmost '1' is TDI side (highest index).
        assert_eq!(v.get(3), Some(Logic::One));
        assert_eq!(v.get(0), Some(Logic::Zero));
    }

    #[test]
    fn parse_accepts_separators_and_xz() {
        let v: BitVector = "1x_z0".parse().unwrap();
        assert_eq!(v.len(), 4);
        assert_eq!(v.to_string(), "1xz0");
    }

    #[test]
    fn parse_rejects_garbage() {
        let err = "10b1".parse::<BitVector>().unwrap_err();
        assert_eq!(err.to_string(), "invalid logic character 'b' in bit vector");
    }

    #[test]
    fn shift_moves_toward_tdo() {
        let mut v: BitVector = "0001".parse().unwrap(); // index0 = 1
        assert_eq!(v.shift(Logic::One), Logic::One);
        assert_eq!(v.to_string(), "1000");
        assert_eq!(v.shift(Logic::Zero), Logic::Zero);
        assert_eq!(v.to_string(), "0100");
    }

    #[test]
    fn shift_on_empty_is_a_wire() {
        let mut v = BitVector::new();
        assert_eq!(v.shift(Logic::One), Logic::One);
        assert_eq!(v.shift(Logic::X), Logic::X);
    }

    #[test]
    fn full_shift_in_replaces_content() {
        let mut chain = BitVector::zeros(4);
        let data: BitVector = "1011".parse().unwrap();
        let out = chain.shift_in(&data);
        assert_eq!(out, BitVector::zeros(4));
        assert_eq!(chain, data);
    }

    #[test]
    fn shift_in_captures_previous_content_in_order() {
        let mut chain: BitVector = "1100".parse().unwrap();
        let out = chain.shift_in(&BitVector::zeros(4));
        // Bits leave TDO-side first: index0,1,2,3 = 0,0,1,1
        assert_eq!(out.as_slice(), "1100".parse::<BitVector>().unwrap().as_slice());
    }

    #[test]
    fn u64_round_trip() {
        let v = BitVector::from_u64(0b1011, 4);
        assert_eq!(v.to_u64(), Some(0b1011));
        assert_eq!(v.to_string(), "1011");
        let with_x = BitVector::filled(3, Logic::X);
        assert_eq!(with_x.to_u64(), None);
    }

    #[test]
    fn one_hot_matches_table2_semantics() {
        // Table 2: victim-select 10000 selects wire 0 ... as one-hot codes.
        let v = BitVector::one_hot(5, 0);
        assert_eq!(v.count_ones(), 1);
        assert_eq!(v.get(0), Some(Logic::One));
        let v4 = BitVector::one_hot(5, 4);
        assert_eq!(v4.get(4), Some(Logic::One));
        assert_eq!(v4.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "one_hot index")]
    fn one_hot_out_of_range_panics() {
        let _ = BitVector::one_hot(3, 3);
    }

    #[test]
    fn concat_and_reverse() {
        let a: BitVector = "11".parse().unwrap();
        let b: BitVector = "00".parse().unwrap();
        // concat keeps self on the TDO side; display is TDI-first.
        assert_eq!(a.concat(&b).to_string(), "0011");
        assert_eq!(a.concat(&b).reversed().to_string(), "1100");
    }

    #[test]
    fn defined_and_count() {
        let v: BitVector = "1x01".parse().unwrap();
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn collect_from_bools() {
        let v: BitVector = [true, false, true].into_iter().collect();
        assert_eq!(v.get(0), Some(Logic::One));
        assert_eq!(v.get(1), Some(Logic::Zero));
        assert_eq!(v.get(2), Some(Logic::One));
    }
}
