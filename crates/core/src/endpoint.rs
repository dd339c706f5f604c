//! Primary inputs and outputs of a latency-insensitive design.
//!
//! A [`Source`] models an upstream environment producing a stream of
//! tokens (sequence-numbered, with a configurable void pattern); a
//! [`Sink`] models a downstream consumer with a configurable stop pattern.
//! Both honour the protocol: a source holds its token under stop, a sink
//! never consumes a token it stopped. The paper's formal properties are
//! stated relative to such an *appropriate environment* — "all its inputs
//! keep their values on asserted stops".

use std::fmt;

use crate::token::Token;

/// Deterministic boolean pattern used for void injection and stop
/// injection. Patterns make experiments reproducible without a global
/// RNG; the pseudo-random flavour uses a splitmix64 stream seeded
/// explicitly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Never asserted.
    Never,
    /// Always asserted.
    Always,
    /// Asserted on cycles `c` with `c % period == phase`.
    ///
    /// `period` must be ≥ 1 and `phase < period`.
    EveryNth {
        /// Pattern period in cycles.
        period: u32,
        /// Offset of the asserted cycle within each period.
        phase: u32,
    },
    /// Asserted with probability `num/denom`, from a seeded deterministic
    /// stream.
    Random {
        /// Numerator of the assertion probability.
        num: u32,
        /// Denominator of the assertion probability (≥ 1).
        denom: u32,
        /// Stream seed.
        seed: u64,
    },
    /// Explicit cyclic pattern (repeats after `len()` cycles; must be
    /// non-empty).
    Cyclic(Vec<bool>),
}

impl Pattern {
    /// The period after which the pattern provably repeats, or `None` for
    /// aperiodic (pseudo-random) patterns. Used by transient/periodicity
    /// detection: the paper's claim that "each part of [the system]
    /// behaves in a periodic fashion" holds once environment patterns are
    /// themselves periodic.
    #[must_use]
    pub fn period(&self) -> Option<u64> {
        match self {
            Pattern::Never | Pattern::Always => Some(1),
            Pattern::EveryNth { period, .. } => Some(u64::from(*period)),
            Pattern::Random { .. } => None,
            Pattern::Cyclic(bits) => Some(bits.len() as u64),
        }
    }

    /// What makes the pattern malformed (`period == 0`, `denom == 0` or
    /// an empty cyclic vector), or `None` when [`at`](Self::at) is
    /// defined on every cycle.
    #[must_use]
    pub fn malformation(&self) -> Option<&'static str> {
        match self {
            Pattern::EveryNth { period: 0, .. } => Some("period 0"),
            Pattern::Random { denom: 0, .. } => Some("denominator 0"),
            Pattern::Cyclic(bits) if bits.is_empty() => Some("empty cycle"),
            _ => None,
        }
    }

    /// Whether the pattern asserts at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is malformed (`period == 0`, `denom == 0` or
    /// an empty cyclic vector).
    #[must_use]
    pub fn at(&self, cycle: u64) -> bool {
        match self {
            Pattern::Never => false,
            Pattern::Always => true,
            Pattern::EveryNth { period, phase } => {
                assert!(*period >= 1, "pattern period must be at least 1");
                cycle % u64::from(*period) == u64::from(*phase)
            }
            Pattern::Random { num, denom, seed } => {
                assert!(*denom >= 1, "pattern denominator must be at least 1");
                let x = splitmix64(seed.wrapping_add(cycle));
                (x % u64::from(*denom)) < u64::from(*num)
            }
            Pattern::Cyclic(bits) => {
                assert!(!bits.is_empty(), "cyclic pattern must be non-empty");
                bits[usize::try_from(cycle % bits.len() as u64).expect("index fits")]
            }
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A primary input: emits sequence-numbered tokens `0, 1, 2, …`,
/// interleaved with voids according to a [`Pattern`], and holds its token
/// under back-pressure.
///
/// # Example
///
/// ```
/// use lip_core::{Source, Token};
///
/// let mut src = Source::new();
/// assert_eq!(src.output(), Token::valid(0));
/// src.clock(true);  // stopped: token 0 held
/// assert_eq!(src.output(), Token::valid(0));
/// src.clock(false); // consumed
/// assert_eq!(src.output(), Token::valid(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Source {
    out: Token,
    next_seq: u64,
    void_pattern: Pattern,
    cycle: u64,
    emitted: u64,
}

impl Source {
    /// A source that always emits valid tokens.
    #[must_use]
    pub fn new() -> Self {
        Self::with_void_pattern(Pattern::Never)
    }

    /// A source injecting voids where `void_pattern` asserts.
    ///
    /// The cycle-0 output honours the pattern (like shell outputs, a
    /// source output initialises valid unless the pattern voids it).
    #[must_use]
    pub fn with_void_pattern(void_pattern: Pattern) -> Self {
        let mut src = Source {
            out: Token::VOID,
            next_seq: 0,
            void_pattern,
            cycle: 0,
            emitted: 0,
        };
        src.out = src.generate();
        src
    }

    fn generate(&mut self) -> Token {
        if self.void_pattern.at(self.cycle) {
            Token::VOID
        } else {
            let t = Token::valid(self.next_seq);
            self.next_seq += 1;
            self.emitted += 1;
            t
        }
    }

    /// Token currently offered downstream.
    #[must_use]
    pub fn output(&self) -> Token {
        self.out
    }

    /// Number of informative tokens emitted so far (including the one
    /// currently offered).
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Advance one cycle under the consumer's `stop`.
    pub fn clock(&mut self, stop: bool) {
        self.cycle += 1;
        if self.out.is_valid() && stop {
            // Appropriate environment: hold the value under stop.
            return;
        }
        self.out = self.generate();
    }
}

impl Default for Source {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Source[{}]", self.out)
    }
}

/// A primary output: consumes tokens, optionally exerting back-pressure
/// according to a [`Pattern`], and records what it received.
///
/// # Example
///
/// ```
/// use lip_core::{Sink, Token};
///
/// let mut sink = Sink::new();
/// sink.clock(Token::valid(0));
/// sink.clock(Token::VOID);
/// sink.clock(Token::valid(1));
/// assert_eq!(sink.received(), &[0, 1]);
/// assert_eq!(sink.voids_seen(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Sink {
    stop_pattern: Pattern,
    cycle: u64,
    received: Vec<u64>,
    voids_seen: u64,
}

impl Sink {
    /// A sink that never stops (free-flowing primary output).
    #[must_use]
    pub fn new() -> Self {
        Self::with_stop_pattern(Pattern::Never)
    }

    /// A sink asserting stop where `stop_pattern` asserts.
    #[must_use]
    pub fn with_stop_pattern(stop_pattern: Pattern) -> Self {
        Sink {
            stop_pattern,
            cycle: 0,
            received: Vec::new(),
            voids_seen: 0,
        }
    }

    /// The back-pressure this sink asserts in the current cycle.
    #[must_use]
    pub fn stop(&self) -> bool {
        self.stop_pattern.at(self.cycle)
    }

    /// Advance one cycle, consuming `input` unless stopped.
    pub fn clock(&mut self, input: Token) {
        let stop = self.stop();
        if !stop {
            match input.value() {
                Some(v) => self.received.push(v),
                None => self.voids_seen += 1,
            }
        }
        self.cycle += 1;
    }

    /// Informative data consumed so far, in arrival order.
    #[must_use]
    pub fn received(&self) -> &[u64] {
        &self.received
    }

    /// Void tokens observed (cycles where the channel carried nothing).
    #[must_use]
    pub fn voids_seen(&self) -> u64 {
        self.voids_seen
    }

    /// Cycles elapsed.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Fraction of un-stopped cycles that delivered informative data —
    /// the node throughput of the paper ("number of valid data per clock
    /// cycle").
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let observed = self.received.len() as u64 + self.voids_seen;
        if observed == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.received.len() as f64 / observed as f64
            }
        }
    }
}

impl Default for Sink {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for Sink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Sink[{} valid, {} void]",
            self.received.len(),
            self.voids_seen
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_shapes() {
        assert!(!Pattern::Never.at(0));
        assert!(Pattern::Always.at(123));
        let p = Pattern::EveryNth {
            period: 4,
            phase: 1,
        };
        assert!(!p.at(0));
        assert!(p.at(1));
        assert!(p.at(5));
        let c = Pattern::Cyclic(vec![true, false]);
        assert!(c.at(0));
        assert!(!c.at(1));
        assert!(c.at(2));
    }

    #[test]
    fn pattern_periods() {
        assert_eq!(Pattern::Never.period(), Some(1));
        assert_eq!(Pattern::Always.period(), Some(1));
        assert_eq!(
            Pattern::EveryNth {
                period: 5,
                phase: 2
            }
            .period(),
            Some(5)
        );
        assert_eq!(Pattern::Cyclic(vec![true, false, true]).period(), Some(3));
        assert_eq!(
            Pattern::Random {
                num: 1,
                denom: 2,
                seed: 0
            }
            .period(),
            None
        );
    }

    #[test]
    fn random_pattern_is_deterministic_and_plausible() {
        let p = Pattern::Random {
            num: 1,
            denom: 2,
            seed: 42,
        };
        let a: Vec<bool> = (0..1000).map(|c| p.at(c)).collect();
        let b: Vec<bool> = (0..1000).map(|c| p.at(c)).collect();
        assert_eq!(a, b);
        let ones = a.iter().filter(|&&x| x).count();
        assert!((300..700).contains(&ones), "{ones} not near 500");
    }

    #[test]
    fn source_emits_sequence_and_holds_on_stop() {
        let mut s = Source::new();
        assert_eq!(s.output(), Token::valid(0));
        s.clock(true);
        s.clock(true);
        assert_eq!(s.output(), Token::valid(0)); // held
        s.clock(false);
        assert_eq!(s.output(), Token::valid(1));
        assert_eq!(s.emitted(), 2);
    }

    #[test]
    fn source_injects_voids() {
        let mut s = Source::with_void_pattern(Pattern::EveryNth {
            period: 2,
            phase: 0,
        });
        assert_eq!(s.output(), Token::VOID); // cycle 0 voided
        s.clock(false);
        assert_eq!(s.output(), Token::valid(0));
        s.clock(false);
        assert_eq!(s.output(), Token::VOID);
    }

    #[test]
    fn stop_over_void_does_not_hold_a_source_void() {
        let mut s = Source::with_void_pattern(Pattern::Cyclic(vec![true, false, false]));
        assert_eq!(s.output(), Token::VOID);
        s.clock(true); // stop over a void: the source still advances
        assert_eq!(s.output(), Token::valid(0));
    }

    #[test]
    fn sink_records_and_measures() {
        let mut k = Sink::new();
        for t in [
            Token::valid(0),
            Token::VOID,
            Token::valid(1),
            Token::valid(2),
        ] {
            k.clock(t);
        }
        assert_eq!(k.received(), &[0, 1, 2]);
        assert_eq!(k.voids_seen(), 1);
        assert_eq!(k.cycles(), 4);
        assert!((k.throughput() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn stopped_sink_consumes_nothing() {
        let mut k = Sink::with_stop_pattern(Pattern::Always);
        assert!(k.stop());
        k.clock(Token::valid(7));
        assert!(k.received().is_empty());
        assert_eq!(k.voids_seen(), 0);
        assert_eq!(k.throughput(), 0.0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Source::new().to_string(), "Source[0]");
        assert_eq!(Sink::new().to_string(), "Sink[0 valid, 0 void]");
    }
}
