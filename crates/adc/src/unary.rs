//! Parallel unary (thermometer) codes.
//!
//! In unary coding, an `N`-bit binary value `v` becomes a code of `2^N − 1`
//! digits whose lowest `v` digits are 1. The pivotal identity of the paper
//! — equation (2) — falls out of the prefix-closure of the code:
//!
//! ```text
//! I ≥ C  ⇔  I[k]  where k is the position of C's most significant '1'
//! ```
//!
//! …except the *precise* form used throughout this workspace is the integer
//! one: for a threshold level `C ∈ 1..2^N`, `I ≥ C ⇔ U_C` where `U_C` is
//! the C-th thermometer digit (`U_C = 1 ⇔ I ≥ C`). One comparator per
//! retained digit, no digital comparison logic at all.
//!
//! ```
//! use printed_adc::unary::UnaryCode;
//!
//! let code = UnaryCode::from_level(5, 4);
//! assert_eq!(code.to_level(), 5);
//! assert!(code.digit(5));   // 5 ≥ 5
//! assert!(!code.digit(6));  // 5 < 6
//! assert_eq!(code.to_string(), "000000000011111");
//! ```

use core::fmt;

/// A thermometer code of `2^bits − 1` digits.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UnaryCode {
    bits: u32,
    level: u8,
}

impl UnaryCode {
    /// Encodes the quantization level `level` at `bits` resolution.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=8` or `level ≥ 2^bits`.
    pub fn from_level(level: u8, bits: u32) -> Self {
        assert!((1..=8).contains(&bits), "bits must be 1..=8, got {bits}");
        assert!(
            (level as u16) < (1u16 << bits),
            "level {level} out of range for {bits} bits"
        );
        Self { bits, level }
    }

    /// Reconstructs a code from raw digits (LSB-first: `digits[0]` is
    /// `U_1`).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidUnaryError`] if the digit count is not `2^bits − 1`
    /// for some `bits ≤ 8`, or the digits are not prefix-closed (a "bubble"
    /// — a 1 above a 0).
    pub fn from_digits(digits: &[bool]) -> Result<Self, InvalidUnaryError> {
        let m = digits.len();
        let bits = match m {
            1 => 1,
            3 => 2,
            7 => 3,
            15 => 4,
            31 => 5,
            63 => 6,
            127 => 7,
            255 => 8,
            _ => return Err(InvalidUnaryError::BadLength { len: m }),
        };
        let level = digits.iter().filter(|&&d| d).count();
        // Prefix closure: all ones must be at the bottom.
        if digits.iter().take(level).any(|&d| !d) {
            let position = digits.iter().position(|&d| !d).expect("a zero exists") + 1;
            return Err(InvalidUnaryError::Bubble { position });
        }
        Ok(Self {
            bits,
            level: level as u8,
        })
    }

    /// The resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of digits in the code: `2^bits − 1`.
    pub fn len(&self) -> usize {
        (1usize << self.bits) - 1
    }

    /// Never true — a unary code always has at least one digit. Present for
    /// API completeness next to [`UnaryCode::len`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The encoded level (number of 1 digits).
    pub fn to_level(&self) -> u8 {
        self.level
    }

    /// Digit `U_k` (1-based): true iff `level ≥ k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds the digit count.
    pub fn digit(&self, k: usize) -> bool {
        assert!(
            (1..=self.len()).contains(&k),
            "digit {k} out of range 1..={}",
            self.len()
        );
        (self.level as usize) >= k
    }

    /// All digits, LSB-first (`U_1` first).
    pub fn digits(&self) -> Vec<bool> {
        (1..=self.len()).map(|k| self.digit(k)).collect()
    }

    /// Evaluates `self ≥ c` via the unary identity (reads digit `U_c`;
    /// `c = 0` is trivially true).
    ///
    /// # Panics
    ///
    /// Panics if `c ≥ 2^bits`.
    pub fn gte_const(&self, c: u8) -> bool {
        assert!(
            (c as u16) < (1u16 << self.bits),
            "threshold {c} out of range for {} bits",
            self.bits
        );
        if c == 0 {
            true
        } else {
            self.digit(c as usize)
        }
    }
}

impl fmt::Display for UnaryCode {
    /// Prints MSB-first, like the paper's `0000111111111111_U` examples.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for k in (1..=self.len()).rev() {
            write!(f, "{}", if self.digit(k) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

/// Errors from [`UnaryCode::from_digits`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidUnaryError {
    /// The digit count is not `2^bits − 1` for any supported `bits`.
    BadLength {
        /// Offending length.
        len: usize,
    },
    /// The code has a 0 below a 1 (not thermometer-shaped).
    Bubble {
        /// 1-based position of the first offending 0.
        position: usize,
    },
}

impl fmt::Display for InvalidUnaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidUnaryError::BadLength { len } => {
                write!(f, "unary code length {len} is not 2^bits − 1")
            }
            InvalidUnaryError::Bubble { position } => {
                write!(f, "unary code has a bubble at digit {position}")
            }
        }
    }
}

impl std::error::Error for InvalidUnaryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_equation_1_example() {
        // 0011111_U = 101₂ = 5
        let code = UnaryCode::from_level(5, 3);
        assert_eq!(code.to_string(), "0011111");
        assert_eq!(code.to_level(), 5);
    }

    #[test]
    fn paper_equation_2_identity() {
        // I ≥ .1011₂ (= level 11)  ⇔  I[11]
        for level in 0..16u8 {
            let code = UnaryCode::from_level(level, 4);
            assert_eq!(code.gte_const(11), level >= 11, "level {level}");
            assert_eq!(code.gte_const(11), code.digit(11), "digit identity");
        }
    }

    #[test]
    fn gte_const_matches_integer_comparison_exhaustively() {
        for bits in 1..=4u32 {
            for level in 0..(1u16 << bits) as u8 {
                let code = UnaryCode::from_level(level, bits);
                for c in 0..(1u16 << bits) as u8 {
                    assert_eq!(code.gte_const(c), level >= c, "bits={bits} l={level} c={c}");
                }
            }
        }
    }

    #[test]
    fn prefix_closure_holds() {
        for level in 0..16u8 {
            let code = UnaryCode::from_level(level, 4);
            for k in 2..=15 {
                if code.digit(k) {
                    assert!(code.digit(k - 1), "prefix closure at {k}");
                }
            }
        }
    }

    #[test]
    fn digits_roundtrip() {
        for level in 0..16u8 {
            let code = UnaryCode::from_level(level, 4);
            let back = UnaryCode::from_digits(&code.digits()).unwrap();
            assert_eq!(back, code);
        }
    }

    #[test]
    fn from_digits_rejects_bubbles() {
        // U_1=1, U_2=0, U_3=1 — a bubble.
        let err = UnaryCode::from_digits(&[true, false, true]).unwrap_err();
        assert_eq!(err, InvalidUnaryError::Bubble { position: 2 });
        assert!(err.to_string().contains("bubble"));
    }

    #[test]
    fn from_digits_rejects_bad_length() {
        let err = UnaryCode::from_digits(&[true, true]).unwrap_err();
        assert_eq!(err, InvalidUnaryError::BadLength { len: 2 });
    }

    #[test]
    fn display_is_msb_first() {
        assert_eq!(UnaryCode::from_level(11, 4).to_string(), "000011111111111");
        assert_eq!(UnaryCode::from_level(0, 2).to_string(), "000");
        assert_eq!(UnaryCode::from_level(3, 2).to_string(), "111");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_level_rejects_overflow() {
        UnaryCode::from_level(16, 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn digit_zero_is_invalid() {
        UnaryCode::from_level(3, 4).digit(0);
    }
}
