//! The one lasso detector behind every recurrence search: the paper
//! simulates until the transient dies out and the control state
//! repeats. Both scalar `find_periodicity`s and `lip-mc`'s proofs
//! intern their keys into one [`StateArena`], whose ids in visit order
//! make the first revisited id the stem length. The arena finds a key
//! through an open-addressed table of ids with each id's hash stored
//! beside it, so interning a state costs one hash, a short probe and
//! the state's words, with no allocation per state. A [`Lasso`] also
//! stores one row of counters per visit, so a recurrence yields exact
//! per-period deltas. Both scalar engines build their control-state key
//! with one `KeyWriter` encoding: the environment phase as a whole
//! word, then every component's registered state bit-packed in node
//! order, so a key is a few words per hundred components rather than
//! one word per component. The skeleton keeps its key current field by
//! field as registers change and only writes it whole at reset.
//!
//! The batch engine's lanes go through `PlaneLasso`, which finds the
//! same (stem, period) pair a [`Lasso`] would for every lane at once,
//! on the engine's bit-planes.

use lip_obs::for_each_lane_word;

use crate::lane::LaneWord;

/// A detected periodic regime: after `transient` cycles, the control
/// state repeats every `period` cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Periodicity {
    /// Cycles before the first state that recurs (the paper's "transient
    /// duration").
    pub transient: u64,
    /// Length of the steady-state period.
    pub period: u64,
}

/// Elements per [`Pool`] chunk.
const CHUNK_WORDS: usize = 1 << 12;

/// Fixed-width records in chunks of at most `CHUNK_WORDS` elements, so
/// growth never moves stored records: re-copying one flat `Vec` per
/// lane on every doubling slowed large periodic sweeps measurably.
#[derive(Debug, Clone)]
struct Pool<T> {
    width: usize,
    len: usize,
    chunks: Vec<Vec<T>>,
}

impl<T: Copy> Pool<T> {
    fn new(width: usize) -> Self {
        Pool {
            width,
            len: 0,
            chunks: Vec::new(),
        }
    }

    fn per_chunk(&self) -> usize {
        (CHUNK_WORDS / self.width.max(1)).max(1)
    }

    /// Append one record, the concatenation of `parts`.
    fn push(&mut self, parts: &[&[T]]) {
        let per = self.per_chunk();
        if self.len.is_multiple_of(per) {
            // The first chunk grows on demand, so a small pool stays one
            // small allocation; later chunks are allocated whole.
            let cap = if self.chunks.is_empty() {
                0
            } else {
                per * self.width
            };
            self.chunks.push(Vec::with_capacity(cap));
        }
        let chunk = self.chunks.last_mut().expect("a chunk with room");
        for part in parts {
            chunk.extend_from_slice(part);
        }
        self.len += 1;
    }

    fn get(&self, i: usize) -> &[T] {
        let per = self.per_chunk();
        &self.chunks[i / per][(i % per) * self.width..][..self.width]
    }
}

/// Interning arena over fixed-length `u64` state vectors.
///
/// Every distinct state is stored exactly once in a chunked word pool
/// and from then on referred to by its dense `u32` id, handed out in
/// insertion order. Lookup is an open-addressed table of ids, probed
/// linearly from the state's 64-bit word hash; each id's hash is stored
/// beside it, so a probe compares words only on equal hashes and growth
/// re-places ids without rehashing states. Full-word comparison keeps
/// hash collisions from conflating states. Interning allocates nothing
/// but pool chunks and the table's doublings.
#[derive(Debug, Clone)]
pub struct StateArena {
    /// All interned states, `state_len` words each, by id.
    states: Pool<u64>,
    /// Hash of each state, by id.
    hashes: Vec<u64>,
    /// Open-addressed slots holding `id + 1` (0 = empty); a power of
    /// two long and at most half full.
    slots: Vec<u32>,
}

/// Slots of a fresh arena's table.
const MIN_SLOTS: usize = 16;

impl StateArena {
    /// An empty arena for states of `state_len` words.
    #[must_use]
    pub fn new(state_len: usize) -> Self {
        StateArena {
            states: Pool::new(state_len),
            hashes: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Intern `state`, returning `(id, fresh)`: the dense id and
    /// whether this call inserted it (`false` = it was already known).
    ///
    /// # Panics
    ///
    /// Panics if `state` has the wrong width or the arena is full
    /// (`u32::MAX - 1` states).
    pub fn intern(&mut self, state: &[u64]) -> (u32, bool) {
        assert_eq!(state.len(), self.states.width, "state width");
        let next_id = u32::try_from(self.len() + 1).expect("state arena overflow") - 1;
        if 2 * (self.len() + 1) > self.slots.len() {
            self.grow();
        }
        let hash = key_hash(state);
        let mask = self.slots.len() - 1;
        let mut at = slot_of(hash, mask);
        while let Some(id) = self.slots[at].checked_sub(1) {
            if self.hashes[id as usize] == hash && self.states.get(id as usize) == state {
                return (id, false);
            }
            at = (at + 1) & mask;
        }
        self.slots[at] = next_id + 1;
        self.hashes.push(hash);
        self.states.push(&[state]);
        (next_id, true)
    }

    /// Double the table (or make the first one) and re-place every id
    /// by its stored hash.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(MIN_SLOTS);
        self.slots.clear();
        self.slots.resize(len, 0);
        let mask = len - 1;
        for (id, &hash) in (1..).zip(&self.hashes) {
            let mut at = slot_of(hash, mask);
            while self.slots[at] != 0 {
                at = (at + 1) & mask;
            }
            self.slots[at] = id;
        }
    }

    /// The interned state for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never handed out.
    #[must_use]
    pub fn get(&self, id: u32) -> &[u64] {
        self.states.get(id as usize)
    }

    /// Number of distinct states interned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len
    }

    /// `true` when nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Footprint of the arena in bytes, the number the bench reports as
    /// *peak arena size*: 8 per state word and 20 per state (a 16-byte
    /// map entry and a 4-byte id). That is the cost model of the
    /// hash-to-bucket map this table replaced, kept as the reported unit
    /// so pinned figures stay comparable.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.len() * (self.states.width * 8 + 20)
    }
}

/// The table slot a probe for `hash` starts at: Fibonacci hashing, so
/// every bit of the hash reaches the index bits.
#[inline]
fn slot_of(hash: u64, mask: usize) -> usize {
    (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - mask.count_ones())) as usize
}

/// Hash of a state key: per word one xor, one multiply and one
/// xor-shift, where the byte-wise
/// [`stable_hash`](crate::program::stable_hash) takes eight dependent
/// multiplies per word (a tenth of a long chain's proof). Each step is a
/// bijection of the running hash, so keys of one length that differ in
/// a single word never collide, and the shift carries high bits down so
/// that sparse multi-word differences do not cancel. Tests can force
/// every key to one hash to exercise the full-word comparison.
fn key_hash(state: &[u64]) -> u64 {
    #[cfg(test)]
    if tests::FORCE_COLLISIONS.get() {
        return 42;
    }
    state.iter().fold(state.len() as u64, |h, &w| {
        let h = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ h >> 32
    })
}

/// Recurrence detector for a deterministic trajectory observed once per
/// cycle from cycle `start` on.
///
/// The caller fills a key buffer with the control state and a row
/// buffer with `row_len` cumulative counters, then calls
/// [`observe`](Self::observe). Fresh keys are interned and their row is
/// appended to the row pool; the first revisit closes the lasso.
#[derive(Debug, Clone)]
pub struct Lasso {
    start: u64,
    arena: StateArena,
    /// Counter row of each visit, by visit id.
    rows: Pool<u64>,
}

impl Lasso {
    /// A detector whose first observation happens at cycle `start`,
    /// storing `row_len` counters per visit.
    #[must_use]
    pub fn new(start: u64, row_len: usize) -> Self {
        Lasso {
            start,
            arena: StateArena::new(0),
            rows: Pool::new(row_len),
        }
    }

    /// Observe this cycle's `key` and counter `row`. On the first
    /// revisit of visit id `i` returns
    /// `Periodicity { transient: start + i, period: visits − i }` and
    /// the row stored at visit `i`; otherwise records the visit.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `row_len` long or `key` changes width.
    pub fn observe(&mut self, key: &[u64], row: &[u64]) -> Option<(Periodicity, &[u64])> {
        assert_eq!(row.len(), self.rows.width, "row width");
        if self.arena.is_empty() {
            self.arena.states.width = key.len();
        }
        let visits = self.arena.len() as u64;
        let (id, fresh) = self.arena.intern(key);
        if fresh {
            self.rows.push(&[row]);
            return None;
        }
        let p = Periodicity {
            transient: self.start + u64::from(id),
            period: visits - u64::from(id),
        };
        Some((p, self.rows.get(id as usize)))
    }

    /// The state store: its `len()` is the distinct states visited.
    #[must_use]
    pub fn arena(&self) -> &StateArena {
        &self.arena
    }
}

/// How a lane's word-wide verdict was reached: the provenance counted
/// by the `measure.close.*` recorder counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Close {
    /// The environment-lag check, at the lasso's own close point μ + λ.
    EnvLag = 0,
    /// A Brent checkpoint.
    Checkpoint = 1,
    /// The backward sweep after the budget ran out.
    Replay = 2,
    /// The binding-cycle lag check, at μ + lcm(e, D).
    Hint = 3,
}

/// State words XOR-reduced between two early-exit checks of
/// `PlaneLasso::mismatch`.
const MISMATCH_CHUNK: usize = 16;

/// Word-wide recurrence detector for every lane of a batch engine: it
/// reads the engine's state planes (one bit per lane per state cell)
/// instead of un-slicing each lane into a key.
///
/// A lane's verdict is the one a [`Lasso`] keyed on
/// `(t % env period, lane state)` gives: stem μ and period λ, where λ
/// is a multiple of the lane's environment period `e`. Every check
/// XORs the planes of two cycles and OR-reduces them to one mismatch
/// word for a group of lanes at once. A lane closes along one of four
/// paths ([`Close`]):
///
/// 1. **Environment lag.** In the common case (the paper's §3: a tree
///    runs at T = 1, and most lanes settle into their environment's
///    own period) λ = e. So each cycle `t`, for every distinct `e`
///    among the pending lanes, cycles `t` and `t − e` are compared: a
///    lane of that group matches iff `t − e ≥ μ` and λ divides `e`, so
///    its first match is exactly the lasso's close point `t = μ + λ`,
///    with stem `t − e` and no search.
/// 2. **Binding-cycle lag** ([`with_lag`](Self::with_lag)). A loop's
///    lanes run at its own period: by the paper's loop formula a loop
///    of `S` shells and `R` relays repeats every `S + R` cycles, the
///    delay `D` of the design's binding cycle. Each group is also
///    compared at the lag `c = lcm(e, D)`. A lane matches iff
///    `t − c ≥ μ` and λ divides `c`, so its first match at `t` gives
///    the stem `t − c`, and λ is the least divisor of `c` that is a
///    multiple of `e` and whose planes at the stem and that many cycles
///    later agree, searched word-wide over the lanes that matched
///    together. A lag that is no multiple of a lane's period never
///    matches it and changes no verdict.
/// 3. **Brent checkpoint.** The other lanes are compared with the
///    checkpoints at cycles 0, 1, 2, 4, 8, …. A matching lane whose
///    environment phase also agrees has period `λ = t − c` exactly: its
///    first match comes in the window `(c, 2c]` of the first checkpoint
///    `c ≥ max(μ, λ)`, at `c + λ`, up to about 2·max(μ, λ) + λ cycles
///    instead of μ + λ. The stem `μ ≤ c` is then the least cycle whose
///    lane bits equal those `λ` cycles later (a predicate monotone in
///    `μ`). Every lane that closes on the same pair of cycles is
///    binary-searched together: each probe costs one word-wide
///    comparison of two kept cycles, and its mismatch word splits the
///    group into the lanes whose stem lies at or below the probe and
///    those above it.
/// 4. **Replay.** [`replay`](Self::replay) settles the lanes a cycle
///    budget cut off before their checkpoint.
///
/// A lane closes at μ + λ when λ = e or λ = lcm(e, D), and no later
/// than its checkpoint otherwise. When every lane closes at μ + λ, a
/// sweep that stops at the last close runs max μ + λ cycles: so it is
/// on rings, fork-joins and compositions under their declared
/// environment, whose lanes run at the binding cycle's period D.
/// Lanes with aperiodic environments are never candidates.
///
/// Each cycle may also carry a row of counter increments (one plane per
/// counter), so a verdict yields exact per-period counts, like a
/// [`Lasso`] row.
#[derive(Debug, Clone)]
pub(crate) struct PlaneLasso<W> {
    /// Candidate lanes by environment period: each distinct period with
    /// the lanes whose environment repeats with it, shortest first.
    /// Lanes with aperiodic environments are never candidates.
    groups: Vec<(u64, W)>,
    /// Candidate lanes without a verdict.
    pending: W,
    /// Cycle `t`'s state planes, record `t`.
    states: Pool<W>,
    /// Step `t`'s counter increments, `row_len` words from `t * row_len`.
    rows: Vec<W>,
    row_len: usize,
    /// The lags each group's pending lanes are compared at: a group
    /// (index into `groups`) and a lag `c`, shortest first. Every group
    /// has its own period `e`; [`with_lag`](Self::with_lag) adds
    /// `lcm(e, D)`.
    lags: Vec<(usize, usize)>,
    /// The current Brent checkpoint.
    checkpoint: usize,
    /// Lanes settled so far, by [`Close`] path.
    closed: [u64; 4],
}

impl<W: LaneWord> PlaneLasso<W> {
    /// A detector over lanes with these environment periods (`None`:
    /// aperiodic, never a candidate), storing `row_len`
    /// counter-increment planes per step.
    pub(crate) fn new(env_period: Vec<Option<u64>>, row_len: usize) -> Self {
        assert_eq!(env_period.len(), W::LANES, "one period per lane");
        let mut groups: Vec<(u64, W)> = Vec::new();
        for (lane, e) in env_period.into_iter().enumerate() {
            let Some(e) = e else { continue };
            match groups.iter_mut().find(|(p, _)| *p == e) {
                Some((_, lanes)) => *lanes = lanes.with_lane(lane),
                None => groups.push((e, W::ZERO.with_lane(lane))),
            }
        }
        groups.sort_unstable_by_key(|&(e, _)| e);
        let lags = (groups.iter().enumerate())
            .filter_map(|(g, &(e, _))| Some((g, usize::try_from(e).ok()?)))
            .collect();
        PlaneLasso {
            pending: groups.iter().fold(W::ZERO, |m, &(_, lanes)| m.or(lanes)),
            groups,
            states: Pool::new(0),
            rows: Vec::new(),
            row_len,
            lags,
            checkpoint: 0,
            closed: [0; 4],
        }
    }

    /// Also compare each group of environment period `e` at the lag
    /// `c = lcm(e, delay)`, where `delay` is the total delay `D` of the
    /// design's binding cycle. A group gets no second lag when `c == e`
    /// (as when `delay` is 0 or divides `e`): its own period already
    /// covers it. Exact for any `delay`: a lane matches at lag `c` only
    /// if its period divides `c`.
    pub(crate) fn with_lag(mut self, delay: u64) -> Self {
        for (g, &(e, _)) in self.groups.iter().enumerate() {
            let c = crate::program::lcm(e, delay);
            if let Some(c) = usize::try_from(c).ok().filter(|_| c > e) {
                self.lags.push((g, c));
            }
        }
        self.lags.sort_unstable_by_key(|&(_, c)| c);
        self
    }

    /// `true` while some candidate lane has no verdict. Once it is
    /// `false`, [`observe`](Self::observe) and [`count`](Self::count)
    /// do nothing.
    pub(crate) fn pending(&self) -> bool {
        self.pending.any()
    }

    /// Lanes settled so far along the `by` path.
    pub(crate) fn closed(&self, by: Close) -> u64 {
        self.closed[by as usize]
    }

    /// Observe the next cycle's state planes (the concatenation of
    /// `planes`, the same width every cycle) and push every lane whose
    /// recurrence closes at this cycle, with its periodicity, to
    /// `found`.
    pub(crate) fn observe(&mut self, planes: [&[W]; 2], found: &mut Vec<(usize, Periodicity)>) {
        if !self.pending() {
            return;
        }
        let t = self.states.len;
        if t == 0 {
            self.states.width = planes.iter().map(|p| p.len()).sum();
        }
        self.states.push(&planes);
        for i in 0..self.lags.len() {
            let (g, c) = self.lags[i];
            let Some(back) = t.checked_sub(c) else {
                break;
            };
            let (e, lanes) = self.groups[g];
            let live = lanes.and(self.pending);
            if live.any() {
                let same = live.andnot(self.mismatch(back, t, live));
                self.split_lag(same, back, e as usize, c, found);
            }
        }
        if t > self.checkpoint {
            self.close(self.checkpoint, t, Close::Checkpoint, found);
        }
        if t.is_power_of_two() {
            self.checkpoint = t;
        }
    }

    /// Record the counter increments of the step after the last
    /// observed cycle (`row_len` planes).
    pub(crate) fn count(&mut self, row: impl IntoIterator<Item = W>) {
        if self.pending() {
            self.rows.extend(row);
            debug_assert_eq!(self.rows.len(), self.states.len * self.row_len, "row width");
        }
    }

    /// Counter `j`'s increments in `lane` over one period of `p`, the
    /// steps `p.transient .. p.transient + p.period`.
    pub(crate) fn period_count(&self, lane: usize, j: usize, p: Periodicity) -> u64 {
        let steps = p.transient as usize..(p.transient + p.period) as usize;
        let n = self.row_len;
        steps
            .map(|t| u64::from(self.rows[t * n + j].lane(lane)))
            .sum()
    }

    /// Settle the lanes still pending after the last observation `L`,
    /// which Brent's checkpoints may not have reached yet. A lane's
    /// lasso closes within the observations iff its state at `L` occurs
    /// at some earlier cycle, and the nearest such cycle is exactly one
    /// period back (cycle states are distinct within a period, and stem
    /// states never recur), so one backward sweep from `L` settles
    /// every such lane.
    pub(crate) fn replay(&mut self, found: &mut Vec<(usize, Periodicity)>) {
        let Some(last) = self.states.len.checked_sub(1) else {
            return;
        };
        for back in (0..last).rev() {
            if !self.pending() {
                break;
            }
            self.close(back, last, Close::Replay, found);
        }
    }

    /// Settle every pending lane whose state at `a` recurs at `b > a`
    /// with its environment phase. Callers pass only pairs where no
    /// shorter recurrence can end at `b` (Brent's first match in a
    /// checkpoint window, or the nearest match back from the last
    /// cycle), so `b − a` is the lane's period and its stem is at most
    /// `a`.
    fn close(&mut self, a: usize, b: usize, by: Close, found: &mut Vec<(usize, Periodicity)>) {
        let period = b - a;
        let in_phase = self
            .groups
            .iter()
            .filter(|&&(e, _)| (period as u64).is_multiple_of(e))
            .fold(W::ZERO, |m, &(_, lanes)| m.or(lanes));
        let live = self.pending.and(in_phase);
        if !live.any() {
            return;
        }
        let same = live.andnot(self.mismatch(a, b, live));
        if !same.any() {
            return;
        }
        // Binary-search the stems of the whole group at once; each entry
        // is a subgroup whose stems all lie in `lo..=hi`.
        let mut work = vec![(same, 0, a)];
        while let Some((lanes, lo, hi)) = work.pop() {
            if lo == hi {
                let p = Periodicity {
                    transient: lo as u64,
                    period: period as u64,
                };
                self.settle(lanes, p, by, found);
                continue;
            }
            let mid = lo + (hi - lo) / 2;
            let later = lanes.and(self.mismatch(mid, mid + period, lanes));
            if later.any() {
                work.push((later, mid + 1, hi));
            }
            let earlier = lanes.andnot(later);
            if earlier.any() {
                work.push((earlier, lo, mid));
            }
        }
    }

    /// Settle `lanes`, whose states at `stem` first recur at `stem + c`
    /// on the lag `c` of environment period `e`. Their stem is `stem`
    /// exactly, and each lane's period λ divides `c` and is a multiple
    /// of `e`: it is the least such `d` whose planes at `stem` and
    /// `stem + d` agree, searched word-wide over the group. At `c == e`
    /// that is `e` itself, with no search: the environment lag.
    fn split_lag(
        &mut self,
        mut lanes: W,
        stem: usize,
        e: usize,
        c: usize,
        found: &mut Vec<(usize, Periodicity)>,
    ) {
        for d in (e..=c).step_by(e).filter(|&d| c.is_multiple_of(d)) {
            if !lanes.any() {
                return;
            }
            let agree = if d == c {
                lanes
            } else {
                lanes.andnot(self.mismatch(stem, stem + d, lanes))
            };
            let p = Periodicity {
                transient: stem as u64,
                period: d as u64,
            };
            let by = if c == e { Close::EnvLag } else { Close::Hint };
            self.settle(agree, p, by, found);
            lanes = lanes.andnot(agree);
        }
    }

    /// Give every lane of `lanes` the verdict `p`, reached along `by`.
    fn settle(
        &mut self,
        lanes: W,
        p: Periodicity,
        by: Close,
        found: &mut Vec<(usize, Periodicity)>,
    ) {
        if !lanes.any() {
            return;
        }
        self.pending = self.pending.andnot(lanes);
        self.closed[by as usize] += u64::from(lanes.count_ones());
        let mut words = [0u64; 16];
        let words = &mut words[..W::WORDS];
        lanes.write_words(words);
        for_each_lane_word(words, |lane| found.push((usize::from(lane), p)));
    }

    /// A word whose bit is set for each lane of `live` whose state at
    /// `a` differs from its state at `b` (other lanes' bits are
    /// unspecified). It stops reading planes once every lane of `live`
    /// differs, which during a transient is usually within the first
    /// chunk.
    fn mismatch(&self, a: usize, b: usize, live: W) -> W {
        let (x, y) = (self.states.get(a), self.states.get(b));
        let mut m = W::ZERO;
        for (xs, ys) in x.chunks(MISMATCH_CHUNK).zip(y.chunks(MISMATCH_CHUNK)) {
            m = xs.iter().zip(ys).fold(m, |m, (x, y)| m.or(x.xor(*y)));
            if !live.andnot(m).any() {
                break;
            }
        }
        m
    }

    /// The per-lane stem search the grouped one replaced, kept as its
    /// test oracle: the least `μ ≤ hi` at which `lane`'s state equals
    /// its state `period` cycles later; the caller knows `hi`
    /// qualifies.
    #[cfg(test)]
    pub(crate) fn stem(&self, lane: usize, period: usize, hi: usize) -> u64 {
        let same = |t: usize| {
            self.states
                .get(t)
                .iter()
                .zip(self.states.get(t + period))
                .all(|(a, b)| a.lane(lane) == b.lane(lane))
        };
        let (mut lo, mut hi) = (0, hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if same(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo as u64
    }

    /// Cycles observed so far.
    #[cfg(test)]
    pub(crate) fn observed(&self) -> usize {
        self.states.len
    }
}

/// The one control-state key encoding of both scalar engines
/// ([`System`](crate::System) and
/// [`SkeletonSystem`](crate::SkeletonSystem)). After the environment
/// phase word, each component's registered state is appended in node
/// order at a fixed width, packed little-endian across `u64` words:
///
/// * source offer, shell output register, shell input buffer: 1 bit
///   each ([`bit`](Self::bit));
/// * relay station: the bits its capacity needs, ⌈log₂(cap + 1)⌉
///   ([`relay`](Self::relay)) — full 2 (occupancy 0–2), half 1, FIFO at
///   most 8 (capacities are `u8`);
/// * sink: nothing.
///
/// Widths depend on the netlist only, so every key of one system has
/// the same length and equal keys mean equal states.
#[derive(Debug)]
pub(crate) struct KeyWriter<'a> {
    out: &'a mut Vec<u64>,
    /// The word being filled; its low `used` bits are written.
    word: u64,
    used: u32,
}

impl<'a> KeyWriter<'a> {
    /// Start a key: push the environment `phase` word to `out`, then
    /// pack fields after it.
    pub(crate) fn new(out: &'a mut Vec<u64>, phase: u64) -> Self {
        out.push(phase);
        KeyWriter {
            out,
            word: 0,
            used: 0,
        }
    }

    /// Append one register bit.
    #[inline]
    pub(crate) fn bit(&mut self, b: bool) {
        self.push(u64::from(b), 1);
    }

    /// Append a relay station's occupancy at the width its capacity
    /// needs.
    #[inline]
    pub(crate) fn relay(&mut self, occupancy: u32, capacity: u32) {
        debug_assert!(occupancy <= capacity, "occupancy {occupancy} > {capacity}");
        self.push(
            u64::from(occupancy),
            crate::program::relay_key_width(capacity),
        );
    }

    /// Append the low `width` (< 64) bits of `value`.
    #[inline]
    fn push(&mut self, value: u64, width: u32) {
        debug_assert!(width < 64 && value >> width == 0, "field overflow");
        self.word |= value << self.used;
        self.used += width;
        if self.used >= 64 {
            self.out.push(self.word);
            self.used -= 64;
            // The high bits of `value` that the flushed word cut off.
            self.word = if self.used == 0 {
                0
            } else {
                value >> (width - self.used)
            };
        }
    }

    /// Flush the last, partly filled word.
    pub(crate) fn finish(self) {
        if self.used > 0 {
            self.out.push(self.word);
        }
    }
}

/// Append bits `bit(0..n)` to `out` packed little-endian into ⌈n/64⌉
/// words (at least one): a shell's output then buffer registers in the
/// word-per-component layout of `component_state`.
#[inline]
pub(crate) fn pack_bits(n: usize, bit: impl Fn(usize) -> bool, out: &mut Vec<u64>) {
    if n > 64 {
        return pack_wide(n, &bit, out);
    }
    // The one-word path every shipped and generated shell takes; a
    // general word loop here measurably slowed per-lane key building.
    let mut word = 0u64;
    for j in 0..n {
        word |= u64::from(bit(j)) << j;
    }
    out.push(word);
}

/// [`pack_bits`] for registers wider than one word.
#[cold]
fn pack_wide(n: usize, bit: &dyn Fn(usize) -> bool, out: &mut Vec<u64>) {
    for lo in (0..n).step_by(64) {
        let mut word = 0u64;
        for j in lo..n.min(lo + 64) {
            word |= u64::from(bit(j)) << (j - lo);
        }
        out.push(word);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    thread_local! {
        pub(super) static FORCE_COLLISIONS: Cell<bool> = const { Cell::new(false) };
    }

    #[test]
    fn intern_is_idempotent_and_ordered() {
        let mut a = StateArena::new(3);
        assert!(a.is_empty());
        let (id0, fresh0) = a.intern(&[1, 2, 3]);
        let (id1, fresh1) = a.intern(&[4, 5, 6]);
        let (id2, fresh2) = a.intern(&[1, 2, 3]);
        assert_eq!((id0, fresh0), (0, true));
        assert_eq!((id1, fresh1), (1, true));
        assert_eq!((id2, fresh2), (0, false));
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(1), &[4, 5, 6]);
        assert!(a.bytes() >= 2 * 3 * 8);
    }

    #[test]
    fn near_miss_states_stay_distinct() {
        let mut a = StateArena::new(2);
        for x in 0..64u64 {
            let (id, fresh) = a.intern(&[x, x ^ 1]);
            assert_eq!(id as u64, x);
            assert!(fresh);
        }
        for x in 0..64u64 {
            let (id, fresh) = a.intern(&[x, x ^ 1]);
            assert_eq!(id as u64, x);
            assert!(!fresh);
        }
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn wide_states_span_pool_chunks() {
        // 1500-word states fit two to a chunk; ids must still map back
        // to their own words across chunk boundaries.
        let mut a = StateArena::new(1500);
        let state = |x: u64| vec![x; 1500];
        for x in 0..7 {
            assert_eq!(a.intern(&state(x)), (x as u32, true));
        }
        for x in 0..7 {
            assert_eq!(a.intern(&state(x)), (x as u32, false));
            assert_eq!(a.get(x as u32), &state(x)[..]);
        }
        assert_eq!(a.bytes(), 7 * 1500 * 8 + 7 * 16 + 7 * 4);
    }

    #[test]
    #[should_panic(expected = "state width")]
    fn wrong_width_is_rejected() {
        let mut a = StateArena::new(2);
        a.intern(&[1, 2, 3]);
    }

    #[test]
    fn lasso_survives_forced_hash_collision() {
        // Regression: a detector that kept one state per hash let a
        // colliding state *replace* the earlier one, so the earlier
        // state's genuine recurrence was never recognised. Force every
        // key into one bucket and feed distinct states.
        FORCE_COLLISIONS.set(true);
        let mut d = Lasso::new(0, 0);
        let a = [1u64, 2, 3];
        let b = [9u64, 9, 9]; // different state, same (forced) hash
        assert_eq!(d.observe(&a, &[]), None);
        assert_eq!(
            d.observe(&b, &[]),
            None,
            "collision must record, not shadow"
        );
        assert_eq!(
            d.arena().len(),
            2,
            "both states must survive under one hash"
        );
        assert!(
            d.arena().hashes.iter().all(|&h| h == 42),
            "the hook forces one hash"
        );
        let (p, _) = d
            .observe(&a, &[])
            .expect("recurrence of the shadowed state");
        assert_eq!(
            p,
            Periodicity {
                transient: 0,
                period: 2
            }
        );
        // And the collided state's own recurrence is found too.
        let mut d = Lasso::new(1, 0);
        assert_eq!(d.observe(&b, &[]), None);
        for k in 0..3u64 {
            assert_eq!(d.observe(&[k, k, k], &[]), None);
        }
        let (p, _) = d
            .observe(&b, &[])
            .expect("recurrence of the colliding state");
        FORCE_COLLISIONS.set(false);
        assert_eq!(
            p,
            Periodicity {
                transient: 1,
                period: 4
            }
        );
    }

    #[test]
    fn lasso_returns_first_occurrence_row() {
        let mut d = Lasso::new(3, 2);
        assert_eq!(d.observe(&[1], &[100, 7]), None);
        for k in 2..6 {
            assert_eq!(d.observe(&[k], &[0, 0]), None);
        }
        let (p, row) = d.observe(&[1], &[999, 999]).expect("recurrence");
        assert_eq!(
            p,
            Periodicity {
                transient: 3,
                period: 5
            }
        );
        assert_eq!(row, [100, 7], "row must be the first-occurrence snapshot");
    }

    #[test]
    fn pack_bits_widens_past_64_without_folding() {
        let mut out = Vec::new();
        pack_bits(0, |_| true, &mut out);
        assert_eq!(out, [0], "empty register still takes one word");
        out.clear();
        pack_bits(64, |j| j == 0 || j == 63, &mut out);
        assert_eq!(out, [1 | 1 << 63], "64 bits stay one word");
        out.clear();
        pack_bits(65, |j| j == 64, &mut out);
        assert_eq!(out, [0, 1], "bit 64 must not fold onto bit 0");
    }

    /// The words a [`KeyWriter`] produces after phase `7` from `fill`.
    fn key(fill: impl FnOnce(&mut KeyWriter)) -> Vec<u64> {
        let mut out = Vec::new();
        let mut w = KeyWriter::new(&mut out, 7);
        fill(&mut w);
        w.finish();
        out
    }

    #[test]
    fn key_fields_straddle_word_boundaries() {
        // After 63 bits a full relay's 2-bit field straddles words:
        // occupancy 1 (0b01) sets the last bit of word 0, occupancy 2
        // (0b10) the first bit of word 1.
        let lo = key(|w| {
            (0..63).for_each(|_| w.bit(false));
            w.relay(1, 2);
        });
        assert_eq!(lo, [7, 1 << 63, 0], "low bit ends word 0");
        let hi = key(|w| {
            (0..63).for_each(|_| w.bit(false));
            w.relay(2, 2);
        });
        assert_eq!(hi, [7, 0, 1], "high bit starts word 1");
        // An exactly full word flushes with nothing left over.
        assert_eq!(key(|w| (0..64).for_each(|_| w.bit(true))), [7, u64::MAX]);
        assert_eq!(key(|_| {}), [7], "no fields: phase only");
    }

    #[test]
    fn key_packs_a_65_bit_shell_without_folding() {
        let reg = |set: usize| key(|w| (0..65).for_each(|j| w.bit(j == set)));
        assert_eq!(reg(0), [7, 1, 0]);
        assert_eq!(reg(64), [7, 0, 1], "bit 64 must not fold onto bit 0");
        assert_eq!(reg(63), [7, 1 << 63, 0]);
    }

    #[test]
    fn key_relay_widths_follow_capacity() {
        // Half 1 bit, full 2, FIFO ⌈log₂(cap + 1)⌉ — 8 at capacity 255:
        // 64 bits of each kind fill whole words exactly.
        let words =
            |cap: u32, per_word: usize| key(|w| (0..per_word).for_each(|_| w.relay(cap, cap)));
        assert_eq!(words(1, 64), [7, u64::MAX], "half");
        assert_eq!(
            words(2, 32),
            [7, 0xAAAA_AAAA_AAAA_AAAA],
            "full at occupancy 2"
        );
        assert_eq!(words(4, 22).len(), 3, "FIFO(4) takes 3 bits: 66 > 64");
        assert_eq!(words(255, 8), [7, u64::MAX], "FIFO(255) takes 8 bits");
        // A FIFO at occupancy 255 straddling a word boundary.
        let fifo = key(|w| {
            (0..60).for_each(|_| w.bit(false));
            w.relay(255, 255);
            w.relay(0, 255);
        });
        assert_eq!(fifo, [7, 0xF << 60, 0xF]);
    }

    #[test]
    fn plane_lasso_matches_lasso_at_every_budget() {
        // Lane `l` walks a lasso of stem `l / 8` and period `l % 8 + 1`
        // over 4-bit values, under an environment of period 1 or 2 — so
        // the phase can stretch the period — and counts a token on even
        // values. Every budget's verdict (Brent plus replay) and tokens
        // per period must be the per-lane `Lasso`'s on the same cycles.
        let value = |lane: usize, t: usize| {
            let (stem, period) = (lane / 8, lane % 8 + 1);
            if t < stem {
                t
            } else {
                stem + (t - stem) % period
            }
        };
        let env = |lane: usize| 1 + u64::from(lane.is_multiple_of(3));
        let planes = |t: usize| -> Vec<u64> {
            (0..4)
                .map(|b| u64::from_fn(|lane| (value(lane, t) >> b) & 1 == 1))
                .collect()
        };
        let tokens = |t: usize| u64::from_fn(|lane| value(lane, t) % 2 == 0);
        for budget in 0..48 {
            let mut plane = PlaneLasso::<u64>::new((0..64).map(|l| Some(env(l))).collect(), 1);
            let mut found = Vec::new();
            for t in 0..budget {
                plane.observe([&planes(t), &[]], &mut found);
                plane.count([tokens(t)]);
            }
            plane.replay(&mut found);
            found.sort_unstable_by_key(|&(lane, _)| lane);
            let mut want = Vec::new();
            for lane in 0..64 {
                let mut lasso = Lasso::new(0, 1);
                let mut count = 0;
                for t in 0..budget {
                    let key = [t as u64 % env(lane), value(lane, t) as u64];
                    if let Some((p, first)) = lasso.observe(&key, &[count]) {
                        want.push((lane, p, count - first[0]));
                        break;
                    }
                    count += u64::from(tokens(t).lane(lane));
                }
            }
            let got: Vec<_> = found
                .iter()
                .map(|&(lane, p)| (lane, p, plane.period_count(lane, 0, p)))
                .collect();
            assert_eq!(got, want, "budget {budget}");
        }
    }

    /// Drives of the batch engine's measurement loop, recording each
    /// verdict with the cycle it closed at.
    mod corpus {
        use std::sync::Arc;

        use lip_core::{Pattern, RelayKind};
        use lip_graph::{generate, Netlist};
        use lip_obs::NullProbe;

        use crate::batch::{BatchEngine, CompiledPatterns, LanePatterns};
        use crate::lane::{LaneWord, Lanes1024};
        use crate::lasso::{Close, Periodicity, PlaneLasso};
        use crate::program::SettleProgram;

        /// One closed lane: the cycle its verdict came at, its lane and
        /// its verdict.
        type Verdict = (usize, usize, Periodicity);

        /// Run `pats` on `netlist` for at most `budget` cycles exactly as
        /// `measure_batch_periodic` does, binding-cycle lag and replay
        /// included.
        fn drive<W: LaneWord>(
            netlist: &Netlist,
            pats: &LanePatterns,
            budget: usize,
        ) -> (PlaneLasso<W>, Vec<Verdict>) {
            drive_lag(netlist, pats, budget, crate::model::binding_delay(netlist))
        }

        /// [`drive`] with the binding-cycle delay `lag` in place of the
        /// design's own; `None` runs without the binding-cycle lag.
        fn drive_lag<W: LaneWord>(
            netlist: &Netlist,
            pats: &LanePatterns,
            budget: usize,
            lag: Option<u64>,
        ) -> (PlaneLasso<W>, Vec<Verdict>) {
            let prog = Arc::new(SettleProgram::compile(netlist).unwrap());
            let mut batch = BatchEngine::<W>::from_patterns(Arc::clone(&prog), pats);
            let compiled = CompiledPatterns::<W>::compile(pats);
            let mut lasso = PlaneLasso::<W>::new(pats.lane_env_periods(), prog.sink_count());
            if let Some(lag) = lag {
                lasso = lasso.with_lag(lag);
            }
            let (mut found, mut verdicts) = (Vec::new(), Vec::new());
            for t in 0..budget {
                lasso.observe(batch.state_planes(), &mut found);
                verdicts.extend(found.drain(..).map(|(lane, p)| (t, lane, p)));
                if !lasso.pending() {
                    break;
                }
                batch.step_compiled_probed(&compiled, &mut NullProbe);
                lasso.count(batch.sink_tokens());
            }
            lasso.replay(&mut found);
            let last = lasso.observed().saturating_sub(1);
            verdicts.extend(found.drain(..).map(|(lane, p)| (last, lane, p)));
            (lasso, verdicts)
        }

        /// The cycle at which Brent's checkpoints alone first see a
        /// recurrence of stem `mu` and period `lambda`: `c + λ` for the
        /// first checkpoint `c ∈ {0, 1, 2, 4, …}` with `c ≥ μ` whose
        /// window `(c, max(2c, 1)]` holds `c + λ`.
        fn brent(mu: u64, lambda: u64) -> u64 {
            let mut c = 0;
            while c < mu || lambda > c.max(1) {
                c = (2 * c).max(1);
            }
            c + lambda
        }

        fn corpus() -> Vec<Netlist> {
            vec![
                generate::fig1().netlist,
                generate::tree(2, 2, 1).netlist,
                generate::reconvergent(2, 3).netlist,
                generate::ring(2, 1, RelayKind::Full).netlist,
                generate::ring(2, 2, RelayKind::Half).netlist,
                generate::ring(2, 2, RelayKind::Fifo(3)).netlist,
                generate::fork_join(3, 1, 2).netlist,
                generate::composed_coupled(1, 1, 1, 2, 1).netlist,
            ]
        }

        /// Mixed stop periods 1–6 with every phase, a few periodic
        /// sources and one aperiodic lane in 97; lanes 64 apart differ.
        fn mixed(prog: &SettleProgram, lanes: usize) -> LanePatterns {
            let mut pats = LanePatterns::broadcast_wide(prog, lanes);
            for lane in 0..lanes {
                let s = (lane as u32).wrapping_mul(2_654_435_761) >> 7;
                for j in 0..prog.sink_count() {
                    let period = 1 + (s + j as u32) % 6;
                    pats.set_sink(
                        j,
                        lane,
                        Pattern::EveryNth {
                            period,
                            phase: (s >> 4) % period,
                        },
                    );
                }
                if s.is_multiple_of(5) && prog.source_count() > 0 {
                    pats.set_source(
                        0,
                        lane,
                        Pattern::EveryNth {
                            period: 3,
                            phase: s % 3,
                        },
                    );
                }
                if lane % 97 == 50 {
                    pats.set_sink(
                        0,
                        lane,
                        Pattern::Random {
                            num: 1,
                            denom: 3,
                            seed: 5,
                        },
                    );
                }
            }
            pats
        }

        /// Every verdict is the per-lane oracle's, closes no earlier than
        /// the lasso and no later than Brent; environment-locked lanes
        /// close exactly at μ + λ. Returns how many (close cycle,
        /// period) groups held more than one stem.
        fn check<W: LaneWord>(netlist: &Netlist, budget: usize) -> usize {
            let prog = SettleProgram::compile(netlist).unwrap();
            let pats = mixed(&prog, W::LANES);
            let env = pats.lane_env_periods();
            let (lasso, verdicts) = drive::<W>(netlist, &pats, budget);
            let hi = lasso.observed() - 1;
            let mut groups = std::collections::BTreeMap::new();
            for &(t, lane, p) in &verdicts {
                let (mu, lambda) = (p.transient, p.period);
                let oracle = lasso.stem(lane, lambda as usize, hi - lambda as usize);
                assert_eq!(mu, oracle, "lane {lane} of {} stem", W::LANES);
                let close = (mu + lambda) as usize;
                assert!(
                    t >= close,
                    "lane {lane} closed at {t} before μ + λ = {close}"
                );
                assert!(t as u64 <= brent(mu, lambda), "lane {lane} after Brent");
                let e = env[lane].expect("only periodic lanes close");
                assert!(lambda.is_multiple_of(e), "lane {lane}: λ {lambda}, e {e}");
                if lambda == e {
                    assert_eq!(t, close, "lane {lane} is environment-locked");
                }
                groups.entry((t, lambda)).or_insert_with(Vec::new).push(mu);
            }
            let settled = [Close::EnvLag, Close::Hint, Close::Checkpoint, Close::Replay]
                .map(|by| lasso.closed(by))
                .iter()
                .sum::<u64>();
            assert_eq!(
                settled,
                verdicts.len() as u64,
                "provenance covers every verdict"
            );
            let aperiodic = env.iter().filter(|e| e.is_none()).count();
            assert!(verdicts.len() <= W::LANES - aperiodic);
            groups
                .into_values()
                .filter(|stems| stems.iter().any(|&mu| mu != stems[0]))
                .count()
        }

        #[test]
        fn grouped_stems_equal_the_per_lane_oracle() {
            // Long budgets let every periodic lane close; short ones cut
            // the sweep off so the replay settles lanes too.
            for budget in [4096, 24, 9] {
                let split: usize = corpus().iter().map(|n| check::<u64>(n, budget)).sum();
                let wide: usize = corpus().iter().map(|n| check::<Lanes1024>(n, budget)).sum();
                if budget == 4096 {
                    assert!(split > 0, "no 64-lane group held two stems");
                    assert!(wide > 0, "no 1024-lane group held two stems");
                }
            }
        }

        #[test]
        fn chains_close_at_stem_plus_one() {
            // A chain under its declared environment (period 1) runs at
            // T = 1: every lane closes on the lag check at μ + 1.
            for k in [1, 4, 16, 64] {
                let netlist = generate::chain(k, 4, RelayKind::Full).netlist;
                let prog = SettleProgram::compile(&netlist).unwrap();
                let pats = LanePatterns::broadcast(&prog);
                let m = crate::measure_batch_periodic(&netlist, &pats, 10_000).unwrap();
                let p = m.periodicity[0].expect("chains are periodic");
                assert_eq!(p.period, 1, "chain({k},4)");
                assert_eq!(m.cycles, p.transient + 1, "chain({k},4)");
                let (lasso, _) = drive::<u64>(&netlist, &pats, 10_000);
                assert_eq!(lasso.closed(Close::EnvLag), 64, "chain({k},4)");
            }
        }

        #[test]
        fn fig1_lanes_locked_to_their_stop_period_close_at_mu_plus_lambda() {
            // Lane l stops fig1's sink every p = l % 8 + 2 cycles. The
            // lanes whose lasso period is p close on the lag check at
            // μ + λ; the rest keep Brent's checkpoints.
            let f = generate::fig1();
            let prog = SettleProgram::compile(&f.netlist).unwrap();
            let mut pats = LanePatterns::broadcast(&prog);
            for lane in 0..64 {
                let period = (lane % 8 + 2) as u32;
                pats.set_sink(
                    0,
                    lane,
                    Pattern::EveryNth {
                        period,
                        phase: lane as u32 % period,
                    },
                );
            }
            let (lasso, verdicts) = drive::<u64>(&f.netlist, &pats, 10_000);
            assert_eq!(verdicts.len(), 64, "every lane converges");
            for &(t, lane, p) in &verdicts {
                let e = (lane % 8 + 2) as u64;
                if p.period == e {
                    assert_eq!(t as u64, p.transient + p.period, "lane {lane}");
                } else {
                    assert!(t as u64 > p.transient + p.period, "lane {lane} on Brent");
                }
            }
            assert!(lasso.closed(Close::EnvLag) > 0, "some lane is locked");
            assert!(lasso.closed(Close::Checkpoint) > 0, "some lane is not");
            let m = crate::measure_batch_periodic(&f.netlist, &pats, 10_000).unwrap();
            let last = verdicts.iter().map(|&(t, _, _)| t as u64).max();
            assert_eq!(Some(m.cycles), last, "the sweep stops at the last close");
        }

        #[test]
        fn cycles_never_exceed_brents_bound() {
            for netlist in corpus() {
                let prog = SettleProgram::compile(&netlist).unwrap();
                let mut pats = mixed(&prog, 64);
                // Drop the aperiodic lane so the early exit can fire.
                pats.set_sink(0, 50, Pattern::Never);
                let m = crate::measure_batch_periodic(&netlist, &pats, 4096).unwrap();
                assert!(m.all_converged());
                let verdicts = m.periodicity.iter().flatten();
                let lasso = verdicts
                    .clone()
                    .map(|p| p.transient + p.period)
                    .max()
                    .unwrap();
                let bound = verdicts
                    .map(|p| brent(p.transient, p.period))
                    .max()
                    .unwrap();
                assert!(
                    (lasso..=bound).contains(&m.cycles),
                    "{} not in {lasso}..={bound}",
                    m.cycles
                );
            }
        }

        /// The verdicts of `verdicts` by lane, without their close cycles.
        fn by_lane(verdicts: &[Verdict]) -> Vec<(usize, Periodicity)> {
            let mut v: Vec<_> = verdicts.iter().map(|&(_, lane, p)| (lane, p)).collect();
            v.sort_unstable_by_key(|&(lane, _)| lane);
            v
        }

        /// The 12 cyclic rungs of the `ladder` benchmark workload: rings,
        /// fork-joins and fork-joins feeding a ring.
        fn cyclic_ladder() -> Vec<(String, Netlist)> {
            let mut designs = Vec::new();
            for k in [4, 16, 64, 128] {
                let ring = generate::ring(k, k, RelayKind::Full).netlist;
                designs.push((format!("ring({k},{k})"), ring));
                let fj = generate::fork_join(k, k, k / 2).netlist;
                designs.push((format!("fork_join({k},{k},{})", k / 2), fj));
            }
            for k in [2, 8, 32, 64] {
                let c = generate::composed_coupled(k, k, k / 2, k, k).netlist;
                designs.push((format!("composed_coupled({k},{k},{},{k},{k})", k / 2), c));
            }
            designs
        }

        /// On a cyclic `ladder` design under its declared environment,
        /// as the workload measures it, every lane closes on the
        /// binding-cycle lag with the verdict the detector gives without
        /// the lag and the stem the per-lane oracle finds, and the
        /// measurement stops at μ + λ.
        fn check_ladder<W: LaneWord>(name: &str, netlist: &Netlist) {
            let prog = SettleProgram::compile(netlist).unwrap();
            let pats = LanePatterns::broadcast_wide(&prog, W::LANES);
            let bound = crate::model::binding_delay(netlist).is_some();
            assert!(bound, "{name} has a binding cycle");
            let budget = 1 << 16;
            let (lasso, verdicts) = drive::<W>(netlist, &pats, budget);
            let (_, plain) = drive_lag::<W>(netlist, &pats, budget, None);
            assert_eq!(by_lane(&verdicts), by_lane(&plain), "{name} verdicts");
            assert_eq!(verdicts.len(), W::LANES, "{name}: every lane closes");
            let hi = lasso.observed() - 1;
            for &(_, lane, p) in &verdicts {
                let oracle = lasso.stem(lane, p.period as usize, hi - p.period as usize);
                assert_eq!(p.transient, oracle, "{name} lane {lane} stem");
            }
            let lagged = lasso.closed(Close::EnvLag) + lasso.closed(Close::Hint);
            assert_eq!(
                lagged,
                W::LANES as u64,
                "{name}: every lane closes by a lag"
            );
            let m = crate::measure_batch_periodic_wide::<W>(netlist, &pats, budget as u64).unwrap();
            let widest = verdicts
                .iter()
                .map(|&(_, _, p)| p.transient + p.period)
                .max();
            assert_eq!(Some(m.cycles), widest, "{name} at {} lanes", W::LANES);
            let measured: Vec<_> = m
                .periodicity
                .iter()
                .map(|p| p.unwrap())
                .enumerate()
                .collect();
            assert_eq!(measured, by_lane(&verdicts), "{name} measured");
        }

        #[test]
        fn cyclic_ladder_lanes_close_at_mu_plus_lambda() {
            for (name, netlist) in cyclic_ladder() {
                check_ladder::<u64>(&name, &netlist);
                check_ladder::<Lanes1024>(&name, &netlist);
            }
        }

        /// Sink stops `every:2..8` and source voids `every:1|3|5`, each
        /// lane a different mix and phase.
        fn stress(prog: &SettleProgram, lanes: usize) -> LanePatterns {
            let mut pats = LanePatterns::broadcast_wide(prog, lanes);
            for lane in 0..lanes {
                for j in 0..prog.sink_count() {
                    let period = 2 + ((lane + 3 * j) % 7) as u32;
                    let phase = (lane / 7) as u32 % period;
                    pats.set_sink(j, lane, Pattern::EveryNth { period, phase });
                }
                for i in 0..prog.source_count() {
                    let period = [1, 3, 5][(lane + i) % 3];
                    let phase = (lane / 3) as u32 % period;
                    pats.set_source(i, lane, Pattern::EveryNth { period, phase });
                }
            }
            pats
        }

        #[test]
        fn stressed_lanes_keep_their_verdicts_under_the_lag() {
            let mut designs = cyclic_ladder();
            designs.retain(|(name, _)| !name.contains("128") && !name.contains("64"));
            designs.push((
                "chain(4,4)".into(),
                generate::chain(4, 4, RelayKind::Full).netlist,
            ));
            designs.push((
                "chain(16,4)".into(),
                generate::chain(16, 4, RelayKind::Full).netlist,
            ));
            for (name, netlist) in designs {
                let prog = SettleProgram::compile(&netlist).unwrap();
                let pats = stress(&prog, 64);
                let bound = crate::model::binding_delay(&netlist).is_some();
                assert_eq!(bound, !name.starts_with("chain"), "{name}");
                for budget in [4096, 200, 37] {
                    let (lasso, lagged) = drive::<u64>(&netlist, &pats, budget);
                    let (plain_lasso, plain) = drive_lag::<u64>(&netlist, &pats, budget, None);
                    assert_eq!(by_lane(&lagged), by_lane(&plain), "{name} at {budget}");
                    for (lane, p) in by_lane(&lagged) {
                        for j in 0..prog.sink_count() {
                            assert_eq!(
                                lasso.period_count(lane, j, p),
                                plain_lasso.period_count(lane, j, p),
                                "{name} lane {lane} sink {j}"
                            );
                        }
                    }
                }
            }
        }

        proptest::proptest! {
            #![proptest_config(proptest::ProptestConfig::with_cases(48))]

            /// Any lag, a multiple of the lanes' periods or not, leaves
            /// every verdict and every per-period count as it is without
            /// one, also when a short budget leaves lanes to the replay.
            /// Half the lags are below 64, so the lag often closes lanes
            /// before their checkpoint does.
            #[test]
            fn any_lag_keeps_every_verdict(
                design in 0usize..8,
                lag in proptest::prop_oneof![1u64..64, 1u64..4096],
                budget in proptest::prop_oneof![proptest::Just(4096usize), 1usize..300],
            ) {
                let netlist = &corpus()[design];
                let prog = SettleProgram::compile(netlist).unwrap();
                let pats = mixed(&prog, 64);
                let (lasso, lagged) = drive_lag::<u64>(netlist, &pats, budget, Some(lag));
                let (plain_lasso, plain) = drive_lag::<u64>(netlist, &pats, budget, None);
                proptest::prop_assert_eq!(by_lane(&lagged), by_lane(&plain));
                for (lane, p) in by_lane(&lagged) {
                    for j in 0..prog.sink_count() {
                        proptest::prop_assert_eq!(
                            lasso.period_count(lane, j, p),
                            plain_lasso.period_count(lane, j, p)
                        );
                    }
                }
            }
        }
    }
}
