//! Addresses in the 64-bit single address space.
//!
//! BMX offers a single 64-bit address space spanning every node of the
//! network including secondary storage (paper, Section 2.1). An object *is*
//! its address; references are ordinary pointers. The workspace represents
//! such pointers as [`Addr`], a transparent `u64` with word-granular
//! arithmetic helpers.
//!
//! The paper's object/reference maps use one bit per 4-byte range; this
//! reproduction is uniformly 64-bit, so the word size is 8 bytes and all
//! object sizes and field offsets are measured in words.

use core::fmt;

/// Size in bytes of one machine word in the simulated address space.
pub const WORD_BYTES: u64 = 8;

/// An address in the global 64-bit single address space.
///
/// `Addr(0)` is the null reference, never a valid object location; the
/// segment server starts handing out ranges well above zero.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The null reference.
    pub const NULL: Addr = Addr(0);

    /// Returns `true` if this is the null reference.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Returns the address `n` words past `self`.
    ///
    /// # Panics
    ///
    /// Panics on address-space overflow, which indicates a corrupted pointer
    /// rather than a recoverable condition.
    #[inline]
    pub fn add_words(self, n: u64) -> Addr {
        Addr(
            self.0
                .checked_add(n.checked_mul(WORD_BYTES).expect("word count overflow"))
                .expect("address overflow"),
        )
    }

    /// Distance from `base` to `self` in whole words.
    ///
    /// # Panics
    ///
    /// Panics if `self < base` or if the distance is not word-aligned.
    #[inline]
    // `u64::is_multiple_of` needs Rust 1.87; the workspace MSRV is 1.75.
    #[allow(clippy::manual_is_multiple_of)]
    pub fn words_from(self, base: Addr) -> u64 {
        let delta = self.0.checked_sub(base.0).expect("address before base");
        assert!(delta % WORD_BYTES == 0, "unaligned address delta");
        delta / WORD_BYTES
    }

    /// Returns `true` if the address is word-aligned.
    #[inline]
    #[allow(clippy::manual_is_multiple_of)] // MSRV, as above
    pub fn is_aligned(self) -> bool {
        self.0 % WORD_BYTES == 0
    }

    /// Returns `true` if `self` lies in `[start, start + len_words)`.
    #[inline]
    pub fn in_range(self, start: Addr, len_words: u64) -> bool {
        self >= start && self < start.add_words(len_words)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{:#x}", self.0)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_null() {
        assert!(Addr::NULL.is_null());
        assert!(!Addr(8).is_null());
    }

    #[test]
    fn word_arithmetic_round_trips() {
        let base = Addr(0x1000);
        let a = base.add_words(5);
        assert_eq!(a, Addr(0x1000 + 40));
        assert_eq!(a.words_from(base), 5);
    }

    #[test]
    fn in_range_is_half_open() {
        let base = Addr(0x100);
        assert!(base.in_range(base, 1));
        assert!(base.add_words(3).in_range(base, 4));
        assert!(!base.add_words(4).in_range(base, 4));
        assert!(!Addr(0x98).in_range(base, 4));
    }

    #[test]
    fn alignment_checks() {
        assert!(Addr(16).is_aligned());
        assert!(!Addr(17).is_aligned());
    }

    #[test]
    #[should_panic(expected = "address before base")]
    fn words_from_panics_when_reversed() {
        Addr(8).words_from(Addr(16));
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn words_from_panics_on_unaligned_delta() {
        Addr(0x103).words_from(Addr(0x100));
    }
}
