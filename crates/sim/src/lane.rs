//! Lane words: the bit-plane storage unit of the batch engine.
//!
//! A [`LaneWord`] packs one bit per simulated scenario (lane). `u64`
//! is its one implementor: 64 lanes per settle pass, the width every
//! pass runs (lint, `lip-mc`, the CLIs and the benchmark). The engine
//! and the measurement stay generic over the trait so their
//! bitwise algebra reads as lane algebra; every operation is an
//! inlined `u64` op.

/// One bit per lane, `LANES` lanes per word.
///
/// All ops are lane-wise boolean algebra; the engine only ever needs
/// AND/OR/NOT/XOR compositions plus lane extraction. Implementations
/// must satisfy the obvious bitwise identities (each lane behaves as an
/// independent `bool`).
pub trait LaneWord:
    Copy + Clone + PartialEq + Eq + Send + Sync + std::fmt::Debug + 'static
{
    /// Lanes carried per word.
    const LANES: usize;
    /// All lanes clear.
    const ZERO: Self;
    /// All lanes set.
    const ONES: Self;

    /// Every lane set to `bit`.
    #[inline]
    #[must_use]
    fn splat(bit: bool) -> Self {
        if bit {
            Self::ONES
        } else {
            Self::ZERO
        }
    }

    /// Lane-wise AND.
    #[must_use]
    fn and(self, o: Self) -> Self;
    /// Lane-wise OR.
    #[must_use]
    fn or(self, o: Self) -> Self;
    /// Lane-wise XOR.
    #[must_use]
    fn xor(self, o: Self) -> Self;
    /// Lane-wise NOT.
    #[must_use]
    fn not(self) -> Self;

    /// `self & !o` — the and-not every stop/fire formula needs.
    #[inline]
    #[must_use]
    fn andnot(self, o: Self) -> Self {
        self.and(o.not())
    }

    /// `true` if any lane is set.
    #[must_use]
    fn any(self) -> bool;

    /// Set lanes across the whole word.
    #[must_use]
    fn count_ones(self) -> u32;

    /// The bit of lane `l` (`l < LANES`).
    #[must_use]
    fn lane(self, l: usize) -> bool;

    /// `self` with lane `l` set.
    #[must_use]
    fn with_lane(self, l: usize) -> Self;

    /// The lanes as one `u64` (bit `l` is lane `l`): the form the
    /// `lip_obs` mask hooks take.
    #[must_use]
    fn bits(self) -> u64;

    /// Build a word lane by lane.
    #[inline]
    #[must_use]
    fn from_fn(mut f: impl FnMut(usize) -> bool) -> Self {
        let mut w = Self::ZERO;
        for l in 0..Self::LANES {
            if f(l) {
                w = w.with_lane(l);
            }
        }
        w
    }
}

impl LaneWord for u64 {
    const LANES: usize = 64;
    const ZERO: Self = 0;
    const ONES: Self = !0;

    #[inline]
    fn and(self, o: Self) -> Self {
        self & o
    }

    #[inline]
    fn or(self, o: Self) -> Self {
        self | o
    }

    #[inline]
    fn xor(self, o: Self) -> Self {
        self ^ o
    }

    #[inline]
    fn not(self) -> Self {
        !self
    }

    #[inline]
    fn any(self) -> bool {
        self != 0
    }

    #[inline]
    fn count_ones(self) -> u32 {
        u64::count_ones(self)
    }

    #[inline]
    fn lane(self, l: usize) -> bool {
        (self >> l) & 1 == 1
    }

    #[inline]
    fn with_lane(self, l: usize) -> Self {
        self | (1 << l)
    }

    #[inline]
    fn bits(self) -> u64 {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_algebra_is_bitwise() {
        assert!(!u64::ZERO.any());
        assert!(u64::ONES.any());
        assert_eq!(u64::ONES.count_ones() as usize, u64::LANES);
        assert_eq!(u64::splat(true), u64::ONES);
        assert_eq!(u64::splat(false), u64::ZERO);
        // A pseudo-random pattern and its algebra.
        let a = u64::from_fn(|l| l % 3 == 0);
        let b = u64::from_fn(|l| l % 5 == 0);
        assert_eq!(a.and(b), u64::from_fn(|l| l % 15 == 0));
        assert_eq!(a.or(b), u64::from_fn(|l| l % 3 == 0 || l % 5 == 0));
        assert_eq!(a.xor(b), u64::from_fn(|l| (l % 3 == 0) != (l % 5 == 0)));
        assert_eq!(a.not().not(), a);
        assert_eq!(a.andnot(b), u64::from_fn(|l| l % 3 == 0 && l % 5 != 0));
        for l in 0..u64::LANES {
            assert_eq!(a.lane(l), l % 3 == 0, "lane {l}");
            assert_eq!((a.bits() >> l) & 1 == 1, a.lane(l), "lane {l}");
        }
    }
}
