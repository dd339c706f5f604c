//! Host calibration: a fixed reference computation timed between ops,
//! so op times can be scaled to what they take on a quiet host.
//!
//! On a VM of a shared host, neighbours slow every op of a run by up to
//! 1.9× for seconds to minutes at a time, and a whole run can fall into
//! such a stretch, so no statistic over one run's own op times removes
//! it. The stretch slows code like the lip crates' — hashing, sorting and
//! formatting over data that fits the core's caches — the most, and a
//! dependent arithmetic chain or a pointer chase through 4 MB the least.
//! The reference below is code of the first kind. Timing it every few
//! milliseconds and dividing each op by its slowdown around the op
//! cancels the stretch. It is the benchmark's own code over the standard
//! library, so no change to the lip crates moves it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Median time of one [`reference`] call on a quiet host (Intel Xeon,
/// 2 vCPUs of a shared VM, release build): the unit calibrated times
/// are scaled to.
pub const REFERENCE_MS: f64 = 1.05;

/// A timed phase times the reference once for each such stretch since
/// it last did, after the op then running (about a tenth of a run).
const EVERY_NS: u128 = 10_000_000;

/// Reference samples on each side of an op that its scale is the
/// median of.
const SIDE: usize = 3;

/// Fixed work in the style of the lip crates: hash-map updates, a sort
/// and string formatting, allocating as it goes. Every call does the
/// same work; the deterministic hasher keeps it so across processes.
#[must_use]
pub fn reference() -> u64 {
    let mut x: u64 = black_box(0x2545_F491_4F6C_DD1D);
    let mut next = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 17
    };
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for _ in 0..8_000 {
        *map.entry(next() % 100_000).or_default() += 1;
    }
    let mut v: Vec<u64> = (0..20_000).map(|_| next()).collect();
    v.sort_unstable();
    let names: Vec<String> = (0..3_000)
        .map(|i| format!("n{i}_{}", v[i * 5] % 1000))
        .collect();
    map.len() as u64 ^ v[777] ^ names.iter().map(|s| s.len() as u64).sum::<u64>()
}

/// The reference's timings over a run, in the order taken.
#[derive(Debug)]
pub struct Calibration {
    /// How strongly the calibrated ops slow down with the host: the
    /// exponent of the reference's slowdown that their times are
    /// divided by.
    sensitivity: f64,
    /// Duration of each reference call, in ms.
    samples: Vec<f64>,
    /// Wall time spent timing the reference, in ns.
    spent_ns: u64,
    last: Instant,
}

impl Calibration {
    /// No samples yet; the ops slow down as the reference's slowdown to
    /// the power `sensitivity`.
    #[must_use]
    pub fn new(sensitivity: f64) -> Self {
        Calibration {
            sensitivity,
            samples: Vec::new(),
            spent_ns: 0,
            last: Instant::now(),
        }
    }

    /// Samples taken so far; an op that ends now is placed before the
    /// next sample, whose index this is.
    #[must_use]
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// Wall time spent timing the reference so far, in ns.
    #[must_use]
    pub fn spent_ns(&self) -> u64 {
        self.spent_ns
    }

    /// Time the reference `n` times.
    fn sample(&mut self, n: usize) {
        let start = Instant::now();
        for _ in 0..n {
            let t = Instant::now();
            black_box(reference());
            self.samples.push(t.elapsed().as_secs_f64() * 1e3);
        }
        self.last = Instant::now();
        self.spent_ns += u64::try_from((self.last - start).as_nanos()).unwrap_or(u64::MAX);
    }

    /// Time the reference once per [`EVERY_NS`] since it was last timed,
    /// up to [`SIDE`] times: after a long op, its scale then rests on
    /// samples taken right before and right after it.
    pub fn sample_if_due(&mut self) {
        let due = self.last.elapsed().as_nanos() / EVERY_NS;
        if due > 0 {
            #[allow(clippy::cast_possible_truncation)]
            self.sample(due.min(SIDE as u128) as usize);
        }
    }

    /// Time the reference on each side of the timed work that follows:
    /// a phase starts and ends with this, so every op has samples on
    /// both sides.
    pub fn bracket(&mut self) {
        self.sample(SIDE);
    }

    /// How much slower than on a quiet host the ops ran around `mark`:
    /// the median of the [`SIDE`] samples before and after it, over
    /// [`REFERENCE_MS`], to the power of the sensitivity.
    ///
    /// # Panics
    ///
    /// Panics if no sample was taken.
    #[must_use]
    fn slowdown(&self, mark: usize) -> f64 {
        assert!(!self.samples.is_empty(), "calibration without samples");
        let hi = (mark + SIDE).min(self.samples.len());
        let lo = mark.saturating_sub(SIDE).min(hi - 1);
        (crate::stats::median(&self.samples[lo..hi]) / REFERENCE_MS).powf(self.sensitivity)
    }

    /// `ms` measured at `mark`, scaled to a quiet host.
    #[must_use]
    pub fn calibrate(&self, ms: f64, mark: usize) -> f64 {
        ms / self.slowdown(mark)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_does_the_same_work_every_call() {
        assert_eq!(reference(), reference());
    }

    #[test]
    fn slowdown_is_the_median_of_the_samples_around_a_mark() {
        let mut c = Calibration {
            sensitivity: 1.0,
            samples: [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 9.0]
                .map(|ms| ms * REFERENCE_MS)
                .to_vec(),
            spent_ns: 0,
            last: Instant::now(),
        };
        let near = |got: f64, want: f64| assert!((got - want).abs() < 1e-12, "{got} != {want}");
        // Samples 0..3 before the op at mark 3, samples 3..6 after it.
        near(c.slowdown(3), 1.5);
        near(c.slowdown(5), 2.0);
        // Near the ends the window is clipped to the samples there are.
        near(c.slowdown(0), 1.0);
        near(c.slowdown(8), 2.0);
        near(c.slowdown(99), 9.0);
        near(c.calibrate(3.0, 5), 1.5);
        // Ops half as sensitive as the reference slow down by its root.
        c.sensitivity = 0.5;
        near(c.slowdown(99), 3.0);
    }
}
