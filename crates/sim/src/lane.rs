//! Lane words: the bit-plane storage unit of the many-lane batch
//! engine.
//!
//! A [`LaneWord`] packs one bit per simulated scenario (lane). The
//! original engine hard-coded `u64` (64 lanes); this trait generalises
//! the layout to `[u64; W]` word shapes up to
//! [`Lanes1024`] (1024 lanes per settle pass) while keeping every
//! operation a wrapper-free inlined bitwise op — the `u64`
//! instantiation monomorphizes to exactly the code the 64-lane engine
//! had, so width 64 is zero-regression by construction.
//!
//! The array shapes are deliberately plain `[u64; W]`: the streaming
//! kernel (see `crate::stream`) executes homogeneous op segments over
//! these words in tight loops, which the compiler auto-vectorizes; no
//! explicit SIMD (and no `unsafe`) is involved.
//!
//! Runtime width selection goes through [`dispatch_lane_width`], a
//! visitor-based monomorphization switch over the supported widths in
//! [`LANE_WIDTHS`].

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
    /// `u64` sub-words per word (`LANES / 64`) — the length of the
    /// slice handed to `lip_obs` mask hooks.
    const WORDS: usize;
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

    /// The `w`-th `u64` sub-word (lane `64·w + b` is bit `b`).
    #[must_use]
    fn word(self, w: usize) -> u64;

    /// Write all sub-words into `out` (`out.len() == WORDS`).
    fn write_words(self, out: &mut [u64]);

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
    const WORDS: usize = 1;
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
    fn word(self, w: usize) -> u64 {
        debug_assert_eq!(w, 0);
        self
    }

    #[inline]
    fn write_words(self, out: &mut [u64]) {
        out[0] = self;
    }
}

impl<const W: usize> LaneWord for [u64; W] {
    const LANES: usize = 64 * W;
    const WORDS: usize = W;
    const ZERO: Self = [0; W];
    const ONES: Self = [!0; W];

    #[inline]
    fn and(mut self, o: Self) -> Self {
        for (a, b) in self.iter_mut().zip(o) {
            *a &= b;
        }
        self
    }

    #[inline]
    fn or(mut self, o: Self) -> Self {
        for (a, b) in self.iter_mut().zip(o) {
            *a |= b;
        }
        self
    }

    #[inline]
    fn xor(mut self, o: Self) -> Self {
        for (a, b) in self.iter_mut().zip(o) {
            *a ^= b;
        }
        self
    }

    #[inline]
    fn not(mut self) -> Self {
        for a in &mut self {
            *a = !*a;
        }
        self
    }

    #[inline]
    fn andnot(mut self, o: Self) -> Self {
        for (a, b) in self.iter_mut().zip(o) {
            *a &= !b;
        }
        self
    }

    #[inline]
    fn any(self) -> bool {
        self.iter().any(|&w| w != 0)
    }

    #[inline]
    fn count_ones(self) -> u32 {
        self.iter().map(|w| w.count_ones()).sum()
    }

    #[inline]
    fn lane(self, l: usize) -> bool {
        (self[l / 64] >> (l % 64)) & 1 == 1
    }

    #[inline]
    fn with_lane(mut self, l: usize) -> Self {
        self[l / 64] |= 1 << (l % 64);
        self
    }

    #[inline]
    fn word(self, w: usize) -> u64 {
        self[w]
    }

    #[inline]
    fn write_words(self, out: &mut [u64]) {
        out[..W].copy_from_slice(&self);
    }
}

/// 128 lanes as two `u64` sub-words.
pub type Lanes128 = [u64; 2];
/// 256 lanes as four `u64` sub-words.
pub type Lanes256 = [u64; 4];
/// 512 lanes as eight `u64` sub-words.
pub type Lanes512 = [u64; 8];
/// 1024 lanes as sixteen `u64` sub-words — the widest supported word.
pub type Lanes1024 = [u64; 16];

/// Every lane width the runtime dispatcher supports, narrowest first.
pub const LANE_WIDTHS: [usize; 5] = [64, 128, 256, 512, 1024];

/// Monomorphization visitor for [`dispatch_lane_width`]: `visit` is
/// instantiated once per supported [`LaneWord`] shape.
pub trait LaneWidthVisitor {
    /// What the visit produces.
    type Out;

    /// Run the width-generic computation at word shape `W`.
    fn visit<W: LaneWord>(&mut self) -> Self::Out;
}

/// Run `v` at the word shape carrying exactly `lanes` lanes.
///
/// # Panics
///
/// Panics if `lanes` is not one of [`LANE_WIDTHS`].
pub fn dispatch_lane_width<V: LaneWidthVisitor>(lanes: usize, v: &mut V) -> V::Out {
    match lanes {
        64 => v.visit::<u64>(),
        128 => v.visit::<Lanes128>(),
        256 => v.visit::<Lanes256>(),
        512 => v.visit::<Lanes512>(),
        1024 => v.visit::<Lanes1024>(),
        _ => panic!("unsupported lane width {lanes}; supported widths: {LANE_WIDTHS:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<W: LaneWord>() {
        assert_eq!(W::LANES, W::WORDS * 64);
        assert!(!W::ZERO.any());
        assert!(W::ONES.any());
        assert_eq!(W::ONES.count_ones() as usize, W::LANES);
        assert_eq!(W::splat(true), W::ONES);
        assert_eq!(W::splat(false), W::ZERO);
        // A pseudo-random pattern and its algebra.
        let a = W::from_fn(|l| l % 3 == 0);
        let b = W::from_fn(|l| l % 5 == 0);
        assert_eq!(a.and(b), W::from_fn(|l| l % 15 == 0));
        assert_eq!(a.or(b), W::from_fn(|l| l % 3 == 0 || l % 5 == 0));
        assert_eq!(a.xor(b), W::from_fn(|l| (l % 3 == 0) != (l % 5 == 0)));
        assert_eq!(a.not().not(), a);
        assert_eq!(a.andnot(b), W::from_fn(|l| l % 3 == 0 && l % 5 != 0));
        for l in 0..W::LANES {
            assert_eq!(a.lane(l), l % 3 == 0, "lane {l}");
        }
        // Sub-word extraction round-trips through write_words.
        let mut buf = vec![0u64; W::WORDS];
        a.write_words(&mut buf);
        for (w, &sub) in buf.iter().enumerate() {
            assert_eq!(a.word(w), sub);
            for bit in 0..64 {
                assert_eq!((sub >> bit) & 1 == 1, a.lane(64 * w + bit));
            }
        }
    }

    #[test]
    fn all_word_shapes_behave_identically() {
        exercise::<u64>();
        exercise::<Lanes128>();
        exercise::<Lanes256>();
        exercise::<Lanes512>();
        exercise::<Lanes1024>();
    }

    #[test]
    fn dispatch_reaches_every_width() {
        struct Lanes;
        impl LaneWidthVisitor for Lanes {
            type Out = usize;
            fn visit<W: LaneWord>(&mut self) -> usize {
                W::LANES
            }
        }
        for width in LANE_WIDTHS {
            assert_eq!(dispatch_lane_width(width, &mut Lanes), width);
        }
    }

    #[test]
    #[should_panic(expected = "unsupported lane width")]
    fn dispatch_rejects_unknown_widths() {
        struct Lanes;
        impl LaneWidthVisitor for Lanes {
            type Out = usize;
            fn visit<W: LaneWord>(&mut self) -> usize {
                W::LANES
            }
        }
        let _ = dispatch_lane_width(96, &mut Lanes);
    }
}
