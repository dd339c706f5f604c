//! Bit-parallel batched skeleton simulation: 64 independent scenarios
//! per step.
//!
//! The skeleton carries one bit of state per signal (validities,
//! occupancies) plus small counters — which makes it a perfect fit for
//! SWAR evaluation: a [`BatchEngine`] packs the valid/stop state of 64
//! *independent* scenarios (lanes) into `u64` [`LaneWord`]s, one bit
//! per lane, and settles all of them per pass using pure bitwise
//! transfer functions. [`BatchSkeleton`] names that `u64`
//! instantiation. Every lane is bit-identical to a scalar
//! [`SkeletonSystem`](crate::SkeletonSystem) run of the same scenario
//! (property tests assert this over the topology corpus).
//!
//! Lanes may differ only in their *environment* — source void patterns,
//! sink stop patterns, or externally driven stall schedules — the
//! netlist and protocol variant are shared, as is the compiled
//! [`SettleProgram`] the engine executes. That is exactly the shape of
//! the paper's experiments: sweep many stall probabilities / schedules
//! over one topology and measure sustained throughput.
//!
//! The settle phase runs on the program's streaming kernel (see
//! `crate::stream`): the engine's entire bit-state lives in one flat
//! cell arena and each settle is a branch-free pass over a precompiled
//! op tape — no per-component dispatch, one word op per settle
//! assignment for all 64 lanes.
//!
//! Non-boolean state is bit-sliced: FIFO occupancies live as little-
//! endian bit-planes with masked ripple-carry increment/decrement, and
//! per-lane token/firing counters use the same plane representation
//! (`LaneCounters`-style, internal) so counting costs O(1) amortised
//! word ops per cycle.

use std::sync::Arc;

use lip_core::Pattern;
use lip_graph::{Netlist, NetlistError, NodeId};
use lip_obs::{KernelCounters, NullProbe, Probe};

use crate::lane::LaneWord;
use crate::lasso::pack_bits;
use crate::program::{env_period, lcm, CompSlot, SettleProgram};
use crate::stream::CELL_ONES;

/// Number of scenarios a [`BatchEngine`] advances per step: the lanes
/// of one `u64` [`LaneWord`].
pub const LANES: usize = 64;

/// Environment tables longer than this fall back to per-lane pattern
/// evaluation instead of a precomputed word table.
const MAX_TABLE_PERIOD: u64 = 16_384;

/// Counted settles between destination-occupancy popcount samples.
/// Retirement/stratum counters are exact on every counted settle; only
/// the occupancy statistic is sampled (its `occ_ops` denominator keeps
/// it exact over the sampled ops). 8 keeps the enabled-recorder
/// overhead low while still sampling every topology in a sweep many
/// times over.
pub const OCC_SAMPLE_EVERY: u64 = 8;

/// Per-lane unsigned counters stored as little-endian bit-planes.
///
/// `planes[b]` holds bit `b` of every lane's count. Incrementing a
/// subset of lanes is a masked ripple-carry: O(live planes) word ops,
/// and the carry chain dies out after the first zero plane, so the
/// amortised cost per increment is ~2 word ops.
#[derive(Debug, Clone)]
struct LaneCounters<W> {
    planes: Vec<W>,
}

impl<W> Default for LaneCounters<W> {
    fn default() -> Self {
        LaneCounters { planes: Vec::new() }
    }
}

impl<W: LaneWord> LaneCounters<W> {
    /// Add 1 to every lane set in `mask`.
    fn add(&mut self, mask: W) {
        let mut carry = mask;
        let mut b = 0;
        while carry.any() {
            if b == self.planes.len() {
                self.planes.push(W::ZERO);
            }
            let p = self.planes[b];
            self.planes[b] = p.xor(carry);
            carry = carry.and(p);
            b += 1;
        }
    }

    /// Current count of `lane`.
    fn get(&self, lane: usize) -> u64 {
        let mut v = 0u64;
        for (b, &p) in self.planes.iter().enumerate() {
            v |= u64::from(p.lane(lane)) << b;
        }
        v
    }
}

/// One row of per-lane environment patterns (for a single source or
/// sink): one pattern while every lane shares it, one per lane once a
/// lane is set on its own.
#[derive(Debug, Clone)]
enum PatternRow {
    /// Every lane runs this pattern.
    Uniform(Pattern),
    /// Lane `l` runs pattern `l`.
    Split(Vec<Pattern>),
}

impl PatternRow {
    /// Give `lane` the pattern `p`, splitting a uniform row.
    fn set(&mut self, lane: usize, p: Pattern) {
        if let PatternRow::Uniform(shared) = self {
            assert!(lane < LANES, "lane {lane} out of range for {LANES} lanes");
            *self = PatternRow::Split(vec![shared.clone(); LANES]);
        }
        if let PatternRow::Split(lanes) = self {
            lanes[lane] = p;
        }
    }

    fn get(&self, lane: usize) -> &Pattern {
        match self {
            PatternRow::Uniform(p) => p,
            PatternRow::Split(lanes) => &lanes[lane],
        }
    }
}

/// Per-lane environment for a [`BatchEngine`]: one void pattern per
/// source per lane, one stop pattern per sink per lane.
///
/// Start from [`LanePatterns::broadcast`] (every one of the
/// [`LANES`] lanes running the netlist's own patterns), then specialise
/// individual lanes with
/// [`set_source`](LanePatterns::set_source) /
/// [`set_sink`](LanePatterns::set_sink) — the natural shape for a
/// many-point parameter sweep.
#[derive(Debug, Clone)]
pub struct LanePatterns {
    src: Vec<PatternRow>,
    snk: Vec<PatternRow>,
}

impl LanePatterns {
    /// Every one of the [`LANES`] lanes runs the environment compiled
    /// into `prog` (the netlist's own patterns).
    #[must_use]
    pub fn broadcast(prog: &SettleProgram) -> Self {
        let rows = |ps: &[Pattern]| ps.iter().cloned().map(PatternRow::Uniform).collect();
        LanePatterns {
            src: rows(&prog.src_pattern),
            snk: rows(&prog.snk_pattern),
        }
    }

    /// [`broadcast`](Self::broadcast)'s patterns, set lane by lane:
    /// every lane runs `prog`'s own environment, but no row is shared,
    /// so the measurement steps all [`LANES`] lanes rather than one
    /// scalar lasso (see [`measure_batch_periodic`](crate::measure_batch_periodic)).
    #[must_use]
    pub fn per_lane(prog: &SettleProgram) -> Self {
        let rows = |ps: &[Pattern]| {
            let split = |p: &Pattern| PatternRow::Split(vec![p.clone(); LANES]);
            ps.iter().map(split).collect()
        };
        LanePatterns {
            src: rows(&prog.src_pattern),
            snk: rows(&prog.snk_pattern),
        }
    }

    /// `true` iff every row is shared by all lanes and is `prog`'s own
    /// pattern: every lane then runs the environment `prog` declares.
    pub(crate) fn is_declared(&self, prog: &SettleProgram) -> bool {
        let own = |rows: &[PatternRow], declared: &[Pattern]| {
            rows.len() == declared.len()
                && rows.iter().zip(declared).all(|(row, d)| match row {
                    PatternRow::Uniform(p) => p == d,
                    PatternRow::Split(_) => false,
                })
        };
        own(&self.src, &prog.src_pattern) && own(&self.snk, &prog.snk_pattern)
    }

    /// Number of sources per lane.
    #[must_use]
    pub fn source_count(&self) -> usize {
        self.src.len()
    }

    /// Number of sinks per lane.
    #[must_use]
    pub fn sink_count(&self) -> usize {
        self.snk.len()
    }

    /// Give `lane`'s `source`-th source (in
    /// [`Netlist::sources`](lip_graph::Netlist::sources) order) the void
    /// pattern `p`.
    ///
    /// # Panics
    ///
    /// Panics if `source` or `lane` is out of range.
    pub fn set_source(&mut self, source: usize, lane: usize, p: Pattern) {
        self.src[source].set(lane, p);
    }

    /// Give `lane`'s `sink`-th sink (in
    /// [`Netlist::sinks`](lip_graph::Netlist::sinks) order) the stop
    /// pattern `p`.
    ///
    /// # Panics
    ///
    /// Panics if `sink` or `lane` is out of range.
    pub fn set_sink(&mut self, sink: usize, lane: usize, p: Pattern) {
        self.snk[sink].set(lane, p);
    }

    /// The void pattern of `lane`'s `source`-th source.
    #[must_use]
    pub fn source_pattern(&self, source: usize, lane: usize) -> &Pattern {
        assert!(lane < LANES, "lane {lane} out of range");
        self.src[source].get(lane)
    }

    /// The stop pattern of `lane`'s `sink`-th sink.
    #[must_use]
    pub fn sink_pattern(&self, sink: usize, lane: usize) -> &Pattern {
        assert!(lane < LANES, "lane {lane} out of range");
        self.snk[sink].get(lane)
    }

    /// Per lane, its environment period: the lcm of its source and sink
    /// pattern periods, `None` when any of them is aperiodic. A uniform
    /// row is folded in once for every lane, so the cost follows the
    /// rows set lane by lane, not rows × lanes.
    pub(crate) fn lane_env_periods(&self) -> Vec<Option<u64>> {
        let rows = || self.src.iter().chain(&self.snk);
        let shared = env_period(rows().filter_map(|row| match row {
            PatternRow::Uniform(p) => Some(p),
            PatternRow::Split(_) => None,
        }));
        let mut periods = vec![shared; LANES];
        for row in rows() {
            if let PatternRow::Split(lanes) = row {
                for (period, p) in periods.iter_mut().zip(lanes) {
                    *period = period.and_then(|e| Some(lcm(e, p.period()?)));
                }
            }
        }
        periods
    }
}

/// One compiled environment row: the cheapest faithful evaluation
/// strategy for a [`PatternRow`] in the per-cycle hot loop.
#[derive(Debug, Clone)]
enum CompiledRow<W> {
    /// All lanes share one pattern: one scalar `at()` per cycle, splat.
    Uniform(Pattern),
    /// All lanes periodic with a small joint period: precomputed word
    /// table indexed by `cycle % len`.
    Table(Vec<W>),
    /// Mixed/aperiodic lanes: gather lane by lane.
    PerLane(Vec<Pattern>),
}

impl<W: LaneWord> CompiledRow<W> {
    fn compile(row: &PatternRow) -> Self {
        let lanes = match row {
            PatternRow::Uniform(p) => return CompiledRow::Uniform(p.clone()),
            PatternRow::Split(lanes) => lanes,
        };
        let mut period = 1u64;
        for p in lanes {
            match p.period() {
                Some(pp) => period = lcm(period, pp),
                None => return CompiledRow::PerLane(lanes.clone()),
            }
            if period > MAX_TABLE_PERIOD {
                return CompiledRow::PerLane(lanes.clone());
            }
        }
        let words = (0..period)
            .map(|c| W::from_fn(|l| lanes[l].at(c)))
            .collect();
        CompiledRow::Table(words)
    }

    fn word(&self, cycle: u64) -> W {
        match self {
            CompiledRow::Uniform(p) => W::splat(p.at(cycle)),
            CompiledRow::Table(words) => {
                let idx = cycle % words.len() as u64;
                words[usize::try_from(idx).expect("table index fits usize")]
            }
            CompiledRow::PerLane(ps) => W::from_fn(|l| ps[l].at(cycle)),
        }
    }
}

/// [`LanePatterns`] compiled for the per-cycle hot loop: uniform rows
/// splat one scalar evaluation, fully periodic rows become precomputed
/// word tables, and only genuinely irregular rows pay the per-lane
/// gather. Compile once per run ([`BatchEngine::run_patterns`] does),
/// not per cycle.
#[derive(Debug, Clone)]
pub(crate) struct CompiledPatterns<W> {
    src: Vec<CompiledRow<W>>,
    snk: Vec<CompiledRow<W>>,
}

impl<W: LaneWord> CompiledPatterns<W> {
    pub(crate) fn compile(pats: &LanePatterns) -> Self {
        CompiledPatterns {
            src: pats.src.iter().map(CompiledRow::compile).collect(),
            snk: pats.snk.iter().map(CompiledRow::compile).collect(),
        }
    }
}

/// [`LANES`] independent skeleton simulations advancing in lock-step,
/// one bit per lane per signal. See the [module docs](self); the `u64`
/// instantiation is [`BatchSkeleton`].
///
/// # Example
///
/// Sweep is the typical use: run the same netlist under many different
/// environments at once.
///
/// ```
/// use lip_graph::generate;
/// use lip_sim::{BatchSkeleton, LanePatterns};
///
/// # fn main() -> Result<(), lip_graph::NetlistError> {
/// let fig1 = generate::fig1();
/// let mut batch = BatchSkeleton::new(&fig1.netlist)?;
/// let pats = LanePatterns::broadcast(batch.program());
/// batch.run_patterns(&pats, 500);
/// // Every lane ran the same environment here, so every lane sees the
/// // steady-state 4-of-5 throughput.
/// let (valid, voids) = batch.sink_counts_lane(fig1.sink, 17).expect("sink");
/// assert!(valid > 390 && valid + voids == 500);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchEngine<W: LaneWord> {
    prog: Arc<SettleProgram>,
    /// The streaming kernel's cell arena — all per-lane bit-state
    /// (settled valids/stops, source offers, shell registers and
    /// buffers, relay occupancies, FIFO bit-planes) lives here, laid out
    /// per [`crate::stream::StreamKernel`].
    arena: Vec<W>,
    /// Per shell: per-lane firing counters.
    fires: Vec<LaneCounters<W>>,
    /// Per sink: per-lane informative / void token counters.
    snk_valid: Vec<LaneCounters<W>>,
    snk_voids: Vec<LaneCounters<W>>,
    /// Lanes in which any shell fired since the last
    /// [`reset_fired_mask`](Self::reset_fired_mask).
    fired: W,
    cycle: u64,
    /// Reused environment-word buffers (sources / sinks), so pattern
    /// stepping never allocates per cycle.
    src_scratch: Vec<W>,
    snk_scratch: Vec<W>,
    /// Unsampled settles run by
    /// [`step_compiled_counted`](Self::step_compiled_counted) whose
    /// retirement is not yet in the caller's counters; see
    /// [`retire_counted`](Self::retire_counted).
    unretired: u64,
}

/// The 64-lane batch engine: [`BatchEngine`] over `u64` lane words.
pub type BatchSkeleton = BatchEngine<u64>;

impl<W: LaneWord> BatchEngine<W> {
    /// Validate `netlist`, compile its settle program and reset all
    /// lanes to the netlist's own initial state.
    ///
    /// # Errors
    ///
    /// Propagates any [`NetlistError`] from [`Netlist::validate`].
    pub fn new(netlist: &Netlist) -> Result<Self, NetlistError> {
        Ok(Self::from_program(SettleProgram::compile_shared(netlist)?))
    }

    /// All lanes reset under the program's own environment patterns
    /// (each source initially offers `!pattern.at(0)`, broadcast).
    #[must_use]
    pub fn from_program(prog: Arc<SettleProgram>) -> Self {
        let src_valid = prog
            .src_pattern
            .iter()
            .map(|p| W::splat(!p.at(0)))
            .collect();
        Self::with_initial(prog, src_valid)
    }

    /// Lanes reset under *per-lane* environments: each source initially
    /// offers `!pats.source_pattern(i, lane).at(0)` in its lane — the
    /// batched equivalent of building [`LANES`] netlists with different
    /// patterns and constructing a scalar skeleton for each.
    #[must_use]
    pub fn from_patterns(prog: Arc<SettleProgram>, pats: &LanePatterns) -> Self {
        let src_valid = (0..prog.src_pattern.len())
            .map(|i| W::from_fn(|lane| !pats.source_pattern(i, lane).at(0)))
            .collect();
        Self::with_initial(prog, src_valid)
    }

    fn with_initial(prog: Arc<SettleProgram>, src_valid: Vec<W>) -> Self {
        let k = &prog.kernel;
        let mut arena = vec![W::ZERO; k.cells];
        arena[CELL_ONES as usize] = W::ONES;
        for (i, v) in src_valid.into_iter().enumerate() {
            arena[k.src_valid as usize + i] = v;
        }
        // Shell output registers start valid (they hold the reset
        // token), exactly as the scalar skeleton resets them.
        for j in 0..prog.shell_out_ch.len() {
            arena[k.shell_out as usize + j] = W::ONES;
        }
        BatchEngine {
            arena,
            fires: vec![LaneCounters::default(); prog.shell_buffered.len()],
            snk_valid: vec![LaneCounters::default(); prog.snk_in_ch.len()],
            snk_voids: vec![LaneCounters::default(); prog.snk_in_ch.len()],
            fired: W::ZERO,
            cycle: 0,
            src_scratch: Vec::new(),
            snk_scratch: Vec::new(),
            unretired: 0,
            prog,
        }
    }

    /// The compiled settle program all lanes execute.
    #[must_use]
    pub fn program(&self) -> &Arc<SettleProgram> {
        &self.prog
    }

    /// Adopt a patched settle program (see [`crate::patch`]) without
    /// rebuilding the engine: every lane keeps the state slices the
    /// patch left alone. Channels, source offers, shell registers,
    /// buffers and all counters carry over; relay occupancies map by
    /// node identity (rows may have moved between kind tables), with
    /// FIFO occupancies clamped into a shrunk capacity; kind-changed or
    /// newly inserted relays restart from reset, as do sources whose
    /// environment pattern changed. Adopting at reset is
    /// indistinguishable from [`from_program`](Self::from_program) on
    /// the new program.
    ///
    /// # Panics
    ///
    /// Panics if `new_prog` disagrees with the current program on
    /// source, sink or shell structure — patches never change those;
    /// anything that does requires a fresh engine.
    pub fn adopt(&mut self, new_prog: Arc<SettleProgram>) {
        let old_prog = std::mem::replace(&mut self.prog, new_prog);
        let (p1, p2) = (&*old_prog, &*self.prog);
        assert_eq!(p1.src_out_ch, p2.src_out_ch, "adopt cannot change sources");
        assert_eq!(
            p1.snk_in_ch.len(),
            p2.snk_in_ch.len(),
            "adopt cannot change sinks"
        );
        assert_eq!(
            (&p1.shell_buffered, &p1.shell_in_off, &p1.shell_out_off),
            (&p2.shell_buffered, &p2.shell_in_off, &p2.shell_out_off),
            "adopt cannot change shells"
        );
        let (k1, k2) = (&p1.kernel, &p2.kernel);
        let old_arena = std::mem::take(&mut self.arena);
        let mut arena = vec![W::ZERO; k2.cells];
        arena[CELL_ONES as usize] = W::ONES;
        let mut copy = |dst: u32, src: u32, n: usize| {
            arena[dst as usize..dst as usize + n]
                .copy_from_slice(&old_arena[src as usize..src as usize + n]);
        };
        // Channel ids are stable under patches (insertions append), as
        // are source / sink / shell rows.
        copy(k2.fwd, k1.fwd, p1.n_channels);
        copy(k2.stop, k1.stop, p1.n_channels);
        copy(k2.src_valid, k1.src_valid, p1.src_out_ch.len());
        copy(k2.shell_out, k1.shell_out, p1.shell_out_ch.len());
        copy(k2.in_buf, k1.in_buf, p1.shell_in_ch.len());
        copy(k2.fire, k1.fire, p1.shell_buffered.len());
        copy(k2.snk_stop, k1.snk_stop, p1.snk_in_ch.len());
        // Relay state maps by node identity — same-kind rows carry
        // over, kind changes reset (the new rows stay zeroed).
        for (node, &s1) in p1.comp_slots.iter().enumerate() {
            match (s1, p2.comp_slots[node]) {
                (CompSlot::Full(r1), CompSlot::Full(r2)) => {
                    arena[(k2.full_main + r2) as usize] = old_arena[(k1.full_main + r1) as usize];
                    arena[(k2.full_aux + r2) as usize] = old_arena[(k1.full_aux + r1) as usize];
                }
                (CompSlot::Half(r1), CompSlot::Half(r2)) => {
                    arena[(k2.half_occ + r2) as usize] = old_arena[(k1.half_occ + r1) as usize];
                }
                (CompSlot::Fifo(r1), CompSlot::Fifo(r2)) => {
                    let (r1, r2) = (r1 as usize, r2 as usize);
                    let planes1 = (k1.fifo_off[r1 + 1] - k1.fifo_off[r1]) as usize;
                    let planes2 = (k2.fifo_off[r2 + 1] - k2.fifo_off[r2]) as usize;
                    let cap = u64::from(p2.fifo_cap[r2]);
                    let occ = |b: usize| {
                        if b < planes1 {
                            old_arena[(k1.fifo + k1.fifo_off[r1]) as usize + b]
                        } else {
                            W::ZERO
                        }
                    };
                    // Lanes whose occupancy exceeds the new capacity
                    // (bit-sliced MSB-down compare) get clamped to it:
                    // occ' = min(occ, cap).
                    let mut gt = W::ZERO;
                    let mut eq = W::ONES;
                    for b in (0..planes1.max(planes2)).rev() {
                        let o = occ(b);
                        if (cap >> b) & 1 == 1 {
                            eq = eq.and(o);
                        } else {
                            gt = gt.or(eq.and(o));
                            eq = eq.andnot(o);
                        }
                    }
                    for b in 0..planes2 {
                        let cap_b = if (cap >> b) & 1 == 1 { gt } else { W::ZERO };
                        arena[(k2.fifo + k2.fifo_off[r2]) as usize + b] =
                            occ(b).andnot(gt).or(cap_b);
                    }
                }
                _ => {}
            }
        }
        // A patched environment pattern restarts that source's offer
        // from the pattern at the current cycle (broadcast; per-lane
        // environments are driven through the step calls anyway).
        for (i, p) in p2.src_pattern.iter().enumerate() {
            if p1.src_pattern[i] != *p {
                arena[k2.src_valid as usize + i] = W::splat(!p.at(self.cycle));
            }
        }
        self.arena = arena;
    }

    /// Cycles executed so far (identical across lanes).
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Lanes this engine advances per step.
    #[must_use]
    pub fn lanes(&self) -> usize {
        W::LANES
    }

    /// Settle every lane's valid/stop bits against this cycle's sink
    /// stop words (`sink_stop[j]` lane `l` = lane `l`'s stop on sink
    /// `j`): stage the sink stops into the arena and run the streaming
    /// op tape. Probe hooks receive the word-wide `*_mask` form — one
    /// call covers all 64 lanes — and are guarded by [`Probe::ENABLED`].
    fn settle_probed<P: Probe>(&mut self, sink_stop: &[W], probe: &mut P) {
        let k = &self.prog.kernel;
        for (j, &s) in sink_stop.iter().enumerate() {
            self.arena[k.snk_stop as usize + j] = s;
        }
        k.execute(&mut self.arena);

        if P::ENABLED {
            let p = &*self.prog;
            let arena = &self.arena;
            let cycle = self.cycle;
            if p.discards {
                for &s in &p.bwd_shell_order {
                    let s = s as usize;
                    let f = arena[k.fire as usize + s];
                    for kk in p.shell_in_range(s) {
                        let ch = p.shell_in_ch[kk] as usize;
                        // Lanes where the baseline stop is suppressed
                        // against a void input (the refinement):
                        // `!fire & !fwd`.
                        let discarded = f.or(arena[k.fwd as usize + ch]).not();
                        if discarded.any() {
                            probe.void_discard_mask(cycle, ch as u32, discarded.bits());
                        }
                    }
                }
            }
            for ch in 0..p.n_channels {
                let stop = arena[k.stop as usize + ch];
                if stop.any() {
                    probe.stall_mask(cycle, ch as u32, stop.bits());
                }
                let fwd = arena[k.fwd as usize + ch];
                if fwd != W::ONES {
                    probe.channel_void_mask(cycle, ch as u32, fwd.not().bits());
                }
            }
        }
    }

    /// Settle and clock one cycle with the environment driven by masks:
    /// `sink_stop[j]` is sink `j`'s stop word for this cycle and
    /// `source_next[i]` the validity word of source `i`'s next offer (a
    /// held token stays held, per lane). Lane `l` of each word belongs
    /// to lane `l`; indices follow
    /// [`Netlist::sources`](lip_graph::Netlist::sources) /
    /// [`Netlist::sinks`](lip_graph::Netlist::sinks) order.
    ///
    /// Lane `l` of this call is bit-identical to
    /// [`SkeletonSystem::step_with`](crate::SkeletonSystem::step_with)
    /// invoked with lane `l` of every word.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the source/sink counts.
    pub fn step_with_masks(&mut self, source_next: &[W], sink_stop: &[W]) {
        self.step_with_masks_probed(source_next, sink_stop, &mut NullProbe);
    }

    /// [`step_with_masks`](Self::step_with_masks) with observation: the
    /// word-wide analogue of
    /// [`SkeletonSystem::step_probed`](crate::SkeletonSystem::step_probed),
    /// delivering `*_mask` hooks (one `u64`, bit `l` = lane `l`) for
    /// stalls, voids, discards, sink
    /// consumption, shell firings and relay traffic, then
    /// [`end_cycle`](Probe::end_cycle). With [`NullProbe`] this
    /// monomorphizes to the unobserved step.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the source/sink counts.
    pub fn step_with_masks_probed<P: Probe>(
        &mut self,
        source_next: &[W],
        sink_stop: &[W],
        probe: &mut P,
    ) {
        assert_eq!(
            source_next.len(),
            self.prog.source_count(),
            "source mask arity"
        );
        assert_eq!(sink_stop.len(), self.prog.sink_count(), "sink mask arity");
        self.settle_probed(sink_stop, probe);
        self.clock_probed(source_next, sink_stop, probe);
    }

    /// The clock phase of one step: commit this cycle's settled state
    /// into the registered regions (source offers, sink counters, shell
    /// registers and buffers, relay occupancies, FIFO bit-planes) and
    /// deliver the clock-edge probe hooks. Callers must have settled
    /// against the same `sink_stop` words first.
    fn clock_probed<P: Probe>(&mut self, source_next: &[W], sink_stop: &[W], probe: &mut P) {
        let Self {
            prog,
            arena,
            fires,
            snk_valid,
            snk_voids,
            fired,
            cycle,
            ..
        } = self;
        let p: &SettleProgram = prog;
        let k = &p.kernel;

        // Sources: a stopped valid offer is held; everyone else loads
        // the next offer.
        for (i, &next) in source_next.iter().enumerate() {
            let sv = arena[k.src_valid as usize + i];
            let held = sv.and(arena[k.stop as usize + p.src_out_ch[i] as usize]);
            arena[k.src_valid as usize + i] = held.or(next.andnot(held));
        }
        // Sinks: lanes not stopping consume; count informative vs void.
        for (j, &stopping) in sink_stop.iter().enumerate() {
            let consumed = stopping.not();
            let v = arena[k.fwd as usize + p.snk_in_ch[j] as usize];
            snk_valid[j].add(consumed.and(v));
            snk_voids[j].add(consumed.andnot(v));
            if P::ENABLED {
                let informative = consumed.and(v);
                if informative.any() {
                    probe.consume_mask(*cycle, p.snk_in_ch[j], informative.bits());
                }
                let void = consumed.andnot(v);
                if void.any() {
                    probe.void_in_mask(*cycle, p.snk_in_ch[j], void.bits());
                }
            }
        }
        // Shells: firing lanes revalidate every output register and
        // drain buffers; stalled lanes latch arrivals and deassert
        // unheld outputs.
        for s in 0..p.shell_buffered.len() {
            let f = arena[k.fire as usize + s];
            *fired = fired.or(f);
            fires[s].add(f);
            if P::ENABLED && f.any() {
                probe.fire_mask(*cycle, s as u32, f.bits());
            }
            if p.shell_buffered[s] {
                for kk in p.shell_in_range(s) {
                    let v = arena[k.fwd as usize + p.shell_in_ch[kk] as usize];
                    let ib = arena[k.in_buf as usize + kk];
                    arena[k.in_buf as usize + kk] = ib.or(v).andnot(f);
                }
            }
            for kk in p.shell_out_range(s) {
                let stp = arena[k.stop as usize + p.shell_out_ch[kk] as usize];
                let so = arena[k.shell_out as usize + kk];
                arena[k.shell_out as usize + kk] = f.or(so.and(stp));
            }
        }
        // Full relays: two registers, aux absorbs one token under stop.
        for i in 0..p.full_in_ch.len() {
            let input = arena[k.fwd as usize + p.full_in_ch[i] as usize];
            let stopped = arena[k.stop as usize + p.full_out_ch[i] as usize];
            let main = arena[k.full_main as usize + i];
            let aux = arena[k.full_aux as usize + i];
            let released = main.andnot(stopped);
            if P::ENABLED {
                // Token movement (see the scalar step for the rationale):
                // enters where offered and aux free, leaves where main
                // releases.
                let fill = input.andnot(aux);
                if fill.any() {
                    probe.relay_fill_mask(*cycle, p.full_relay_row(i), fill.bits());
                }
                if released.any() {
                    probe.relay_drain_mask(*cycle, p.full_relay_row(i), released.bits());
                }
            }
            arena[k.full_main as usize + i] = aux
                .or(main.andnot(released))
                .or(input.and(main.not().or(released)));
            arena[k.full_aux as usize + i] = aux.or(main.and(input)).andnot(released);
        }
        // Half relays: occupied while stopped.
        for h in 0..p.half_in_ch.len() {
            let input = arena[k.fwd as usize + p.half_in_ch[h] as usize];
            let stopped = arena[k.stop as usize + p.half_out_ch[h] as usize];
            let occ = arena[k.half_occ as usize + h];
            if P::ENABLED {
                let fill = stopped.and(input).andnot(occ);
                let drain = occ.andnot(stopped);
                if fill.any() {
                    probe.relay_fill_mask(*cycle, p.half_relay_row(h), fill.bits());
                }
                if drain.any() {
                    probe.relay_drain_mask(*cycle, p.half_relay_row(h), drain.bits());
                }
            }
            arena[k.half_occ as usize + h] = stopped.and(occ.or(input));
        }
        // FIFOs: masked ripple-carry decrement (drain) then increment
        // (accept); a full FIFO refuses the arrival. The settle already
        // computed emptiness (the forwarded valid) and fullness (the
        // backward stop on the input channel) — reuse both.
        for i in 0..p.fifo_in_ch.len() {
            let input = arena[k.fwd as usize + p.fifo_in_ch[i] as usize];
            let stopped = arena[k.stop as usize + p.fifo_out_ch[i] as usize];
            let nonzero = arena[k.fwd as usize + p.fifo_out_ch[i] as usize];
            let was_full = arena[k.stop as usize + p.fifo_in_ch[i] as usize];
            let drain = nonzero.andnot(stopped);
            let fill = input.andnot(was_full);
            if P::ENABLED {
                if fill.any() {
                    probe.relay_fill_mask(*cycle, p.fifo_relay_row(i), fill.bits());
                }
                if drain.any() {
                    probe.relay_drain_mask(*cycle, p.fifo_relay_row(i), drain.bits());
                }
            }
            let planes = (k.fifo + k.fifo_off[i]) as usize..(k.fifo + k.fifo_off[i + 1]) as usize;
            let mut borrow = drain;
            for c in planes.clone() {
                let pl = arena[c];
                arena[c] = pl.xor(borrow);
                borrow = borrow.andnot(pl);
            }
            let mut carry = fill;
            for c in planes {
                let pl = arena[c];
                arena[c] = pl.xor(carry);
                carry = carry.and(pl);
            }
        }
        if P::ENABLED {
            probe.end_cycle(*cycle);
        }
        *cycle += 1;
    }

    /// One cycle under a precompiled environment (see
    /// [`CompiledPatterns`]): the hot-loop form `run_patterns` and the
    /// measurement drivers use — word tables instead of per-lane
    /// pattern evaluation.
    pub(crate) fn step_compiled_probed<P: Probe>(
        &mut self,
        pats: &CompiledPatterns<W>,
        probe: &mut P,
    ) {
        let cycle = self.cycle;
        let mut src = std::mem::take(&mut self.src_scratch);
        let mut snk = std::mem::take(&mut self.snk_scratch);
        src.clear();
        snk.clear();
        snk.extend(pats.snk.iter().map(|row| row.word(cycle)));
        src.extend(pats.src.iter().map(|row| row.word(cycle + 1).not()));
        self.step_with_masks_probed(&src, &snk, probe);
        self.src_scratch = src;
        self.snk_scratch = snk;
    }

    /// One cycle under a precompiled environment with kernel execution
    /// counters: the settle runs through
    /// [`StreamKernel::execute_counted`](crate::stream::StreamKernel),
    /// so `kc` accrues per-opcode/per-stratum retirement for this
    /// settle; the clock phase is the plain unprobed one. Lane
    /// behaviour is bit-identical to
    /// [`step_compiled_probed`](Self::step_compiled_probed).
    ///
    /// Destination-occupancy popcounts run on one settle in
    /// [`OCC_SAMPLE_EVERY`] (keyed off the settles counted, so the first
    /// counted settle always samples); the sampled `occ_ops`
    /// denominator keeps the statistic exact. The other settles run the
    /// plain kernel and only count themselves: their retirement, the
    /// same on every settle, reaches `kc` in one multiply at the next
    /// sampled settle or at [`retire_counted`](Self::retire_counted),
    /// which the caller runs before it reads `kc`.
    pub(crate) fn step_compiled_counted(
        &mut self,
        pats: &CompiledPatterns<W>,
        kc: &mut KernelCounters,
    ) {
        let cycle = self.cycle;
        let mut src = std::mem::take(&mut self.src_scratch);
        let mut snk = std::mem::take(&mut self.snk_scratch);
        src.clear();
        snk.clear();
        snk.extend(pats.snk.iter().map(|row| row.word(cycle)));
        src.extend(pats.src.iter().map(|row| row.word(cycle + 1).not()));
        let k = &self.prog.kernel;
        for (j, &s) in snk.iter().enumerate() {
            self.arena[k.snk_stop as usize + j] = s;
        }
        if (kc.settles + self.unretired).is_multiple_of(OCC_SAMPLE_EVERY) {
            k.retire(kc, std::mem::take(&mut self.unretired));
            k.execute_counted(&mut self.arena, kc, true);
        } else {
            k.execute(&mut self.arena);
            self.unretired += 1;
        }
        self.clock_probed(&src, &snk, &mut NullProbe);
        self.src_scratch = src;
        self.snk_scratch = snk;
    }

    /// Add the retirement of the settles
    /// [`step_compiled_counted`](Self::step_compiled_counted) has run
    /// but not yet counted to `kc`, so `kc` reconciles.
    pub(crate) fn retire_counted(&mut self, kc: &mut KernelCounters) {
        self.prog
            .kernel
            .retire(kc, std::mem::take(&mut self.unretired));
    }

    /// Run `n` cycles under `pats`, accumulating kernel execution
    /// counters into `kc` — the counted twin of
    /// [`run_patterns`](Self::run_patterns). `kc` must be laid out by
    /// [`kernel_counters`](Self::kernel_counters) (or merge-compatible
    /// with it); after the run, `kc` gains exactly `n` settles of `n ×`
    /// [`SettleProgram::kernel_op_count`] retired ops, reconciled per
    /// stratum.
    ///
    /// # Panics
    ///
    /// Panics if `pats` arity does not match.
    pub fn run_patterns_counted(&mut self, pats: &LanePatterns, n: u64, kc: &mut KernelCounters) {
        let compiled = CompiledPatterns::compile(pats);
        for _ in 0..n {
            self.step_compiled_counted(&compiled, kc);
        }
        self.retire_counted(kc);
    }

    /// A zeroed [`KernelCounters`] laid out for this engine:
    /// [`LANES`] lanes, the streaming kernel's six opcodes and five
    /// settle strata. Counters from any two engines merge, even across
    /// different netlists.
    #[must_use]
    pub fn kernel_counters(&self) -> KernelCounters {
        KernelCounters::new(
            W::LANES as u32,
            &crate::stream::OP_NAMES,
            &crate::stream::STRATA,
        )
    }

    /// Run `n` cycles under `pats`.
    ///
    /// # Panics
    ///
    /// Panics if `pats` arity does not match.
    pub fn run_patterns(&mut self, pats: &LanePatterns, n: u64) {
        self.run_patterns_probed(pats, n, &mut NullProbe);
    }

    /// Run `n` cycles under `pats` with observation. The environment is
    /// compiled once up front (uniform rows splat, periodic rows become
    /// word tables), so the per-cycle cost is a handful of word ops.
    ///
    /// # Panics
    ///
    /// Panics if `pats` arity does not match.
    pub fn run_patterns_probed<P: Probe>(&mut self, pats: &LanePatterns, n: u64, probe: &mut P) {
        let compiled = CompiledPatterns::compile(pats);
        for _ in 0..n {
            self.step_compiled_probed(&compiled, probe);
        }
    }

    /// Lanes in which at least one shell fired since the last
    /// [`reset_fired_mask`](Self::reset_fired_mask) — the batched wedge
    /// probe: a lane still clear after a deep run has made no progress
    /// anywhere in the system.
    #[must_use]
    pub fn fired_mask(&self) -> W {
        self.fired
    }

    /// Clear the fired mask (start a new progress observation window).
    pub fn reset_fired_mask(&mut self) {
        self.fired = W::ZERO;
    }

    /// `(valid, voids)` consumed so far by the sink at `node` in `lane`.
    #[must_use]
    pub fn sink_counts_lane(&self, node: NodeId, lane: usize) -> Option<(u64, u64)> {
        match self.prog.comp_slots[node.index()] {
            CompSlot::Sink(j) => Some(self.sink_row_counts_lane(j as usize, lane)),
            _ => None,
        }
    }

    /// `(valid, voids)` consumed so far in `lane` by sink row `j` (the
    /// order of [`Netlist::sinks`](lip_graph::Netlist::sinks)).
    #[must_use]
    pub(crate) fn sink_row_counts_lane(&self, j: usize, lane: usize) -> (u64, u64) {
        (self.snk_valid[j].get(lane), self.snk_voids[j].get(lane))
    }

    /// Firings so far of the shell at `node` in `lane`.
    #[must_use]
    pub fn shell_fires_lane(&self, node: NodeId, lane: usize) -> Option<u64> {
        match self.prog.comp_slots[node.index()] {
            CompSlot::Shell(s) => Some(self.fires[s as usize].get(lane)),
            _ => None,
        }
    }

    /// Total shell firings so far in `lane`, summed over all shells.
    #[must_use]
    pub fn total_fires_lane(&self, lane: usize) -> u64 {
        self.fires.iter().map(|c| c.get(lane)).sum()
    }

    /// Lane `lane`'s component control state, in exactly the format of
    /// [`SkeletonSystem::component_state`](crate::SkeletonSystem::component_state)
    /// — the adversarial checker's state key and the counterexample
    /// `stuck_state` format.
    #[must_use]
    pub fn lane_component_state(&self, lane: usize) -> Vec<u64> {
        let p = &*self.prog;
        let k = &p.kernel;
        let mut out = Vec::with_capacity(p.comp_slots.len());
        let bit = |base: u32, i: usize| self.arena[base as usize + i].lane(lane);
        for slot in &p.comp_slots {
            match *slot {
                CompSlot::Source(i) => out.push(u64::from(bit(k.src_valid, i as usize))),
                CompSlot::Sink(_) => {}
                CompSlot::Shell(s) => {
                    let s = s as usize;
                    let outs = p.shell_out_range(s);
                    if p.shell_buffered[s] {
                        let (n, ins) = (outs.len(), p.shell_in_range(s));
                        let reg = |j: usize| {
                            if j < n {
                                bit(k.shell_out, outs.start + j)
                            } else {
                                bit(k.in_buf, ins.start + j - n)
                            }
                        };
                        pack_bits(n + ins.len(), reg, &mut out);
                    } else {
                        pack_bits(outs.len(), |j| bit(k.shell_out, outs.start + j), &mut out);
                    }
                }
                CompSlot::Full(i) => {
                    let i = i as usize;
                    out.push(u64::from(bit(k.full_main, i)) + 2 * u64::from(bit(k.full_aux, i)));
                }
                CompSlot::Half(h) => out.push(u64::from(bit(k.half_occ, h as usize))),
                CompSlot::Fifo(i) => {
                    let i = i as usize;
                    let mut v = 0u64;
                    for (b, plane) in (k.fifo_off[i]..k.fifo_off[i + 1]).enumerate() {
                        v |= u64::from(bit(k.fifo, plane as usize)) << b;
                    }
                    out.push(v);
                }
            }
        }
        out
    }

    /// The registered state planes as two arena runs, `src_valid..fire`
    /// and `full_main..snk_stop`: exactly the bits
    /// [`lane_component_state`](Self::lane_component_state) encodes.
    /// The `in_buf` cells of unbuffered shells stay zero, and `fire` is
    /// recomputed by every settle, so it is left out.
    pub(crate) fn state_planes(&self) -> [&[W]; 2] {
        let k = &self.prog.kernel;
        let a = &self.arena;
        [
            &a[k.src_valid as usize..k.fire as usize],
            &a[k.full_main as usize..k.snk_stop as usize],
        ]
    }

    /// Per sink, the lanes in which it took an informative token in the
    /// last step: the increments of its token counter.
    pub(crate) fn sink_tokens(&self) -> impl Iterator<Item = W> + '_ {
        let k = &self.prog.kernel;
        self.prog.snk_in_ch.iter().enumerate().map(move |(j, &ch)| {
            self.arena[k.fwd as usize + ch as usize].andnot(self.arena[k.snk_stop as usize + j])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SkeletonSystem;
    use lip_core::RelayKind;
    use lip_graph::generate;

    #[test]
    fn lane_counters_count() {
        let mut c = LaneCounters::<u64>::default();
        for i in 0..137u64 {
            // Lane 0 every time, lane 3 on even rounds, lane 63 never.
            let mask = 1 | (u64::from(i % 2 == 0) << 3);
            c.add(mask);
        }
        assert_eq!(c.get(0), 137);
        assert_eq!(c.get(3), 69);
        assert_eq!(c.get(63), 0);
    }

    #[test]
    fn broadcast_lanes_match_scalar_run_on_fig1() {
        let f = generate::fig1();
        let mut batch = BatchSkeleton::new(&f.netlist).unwrap();
        let pats = LanePatterns::broadcast(batch.program());
        let mut scalar = SkeletonSystem::new(&f.netlist).unwrap();
        batch.run_patterns(&pats, 200);
        scalar.run(200);
        let scalar_state = scalar.component_state();
        for lane in [0, 1, 31, 63] {
            assert_eq!(
                batch.lane_component_state(lane),
                scalar_state,
                "lane {lane}"
            );
            assert_eq!(
                batch.sink_counts_lane(f.sink, lane),
                scalar.sink_counts(f.sink),
                "lane {lane}"
            );
            assert_eq!(batch.total_fires_lane(lane), scalar.total_fires());
        }
    }

    #[test]
    fn fifo_bitslice_matches_scalar_on_fifo_ring() {
        let r = generate::ring(2, 2, RelayKind::Fifo(3));
        let mut batch = BatchSkeleton::new(&r.netlist).unwrap();
        let pats = LanePatterns::broadcast(batch.program());
        let mut scalar = SkeletonSystem::new(&r.netlist).unwrap();
        batch.run_patterns(&pats, 100);
        scalar.run(100);
        let scalar_state = scalar.component_state();
        for lane in [0, 42, 63] {
            assert_eq!(
                batch.lane_component_state(lane),
                scalar_state,
                "lane {lane}"
            );
        }
    }

    #[test]
    fn fired_mask_tracks_progress() {
        let f = generate::fig1();
        let mut batch = BatchSkeleton::new(&f.netlist).unwrap();
        let pats = LanePatterns::broadcast(batch.program());
        assert_eq!(batch.fired_mask(), 0);
        batch.run_patterns(&pats, 20);
        assert_eq!(batch.fired_mask(), !0, "all lanes progress on fig1");
        batch.reset_fired_mask();
        assert_eq!(batch.fired_mask(), 0);
    }

    #[test]
    fn per_lane_patterns_diverge() {
        use lip_core::Pattern;
        let f = generate::fig1();
        let mut batch = BatchSkeleton::new(&f.netlist).unwrap();
        let mut pats = LanePatterns::broadcast(batch.program());
        // Lane 7's sink stops every other cycle; lane 0 never stops.
        pats.set_sink(
            0,
            7,
            Pattern::EveryNth {
                period: 2,
                phase: 0,
            },
        );
        batch.run_patterns(&pats, 400);
        let (v0, n0) = batch.sink_counts_lane(f.sink, 0).unwrap();
        let (v7, n7) = batch.sink_counts_lane(f.sink, 7).unwrap();
        assert_eq!(v0 + n0, 400);
        assert!(v7 + n7 <= 200, "stopped lane consumes at most half");
        assert!(v0 > v7, "throttled sink sees fewer tokens");
    }

    #[test]
    fn counted_run_matches_plain_run_and_reconciles() {
        let f = generate::fig1();
        let mut plain = BatchSkeleton::new(&f.netlist).unwrap();
        let mut counted = plain.clone();
        let pats = LanePatterns::broadcast(plain.program());
        let mut kc = counted.kernel_counters();
        plain.run_patterns(&pats, 300);
        counted.run_patterns_counted(&pats, 300, &mut kc);
        for lane in [0usize, 17, 63] {
            assert_eq!(
                plain.lane_component_state(lane),
                counted.lane_component_state(lane),
                "lane {lane}"
            );
            assert_eq!(
                plain.sink_counts_lane(f.sink, lane),
                counted.sink_counts_lane(f.sink, lane),
                "lane {lane}"
            );
        }
        // One settle per cycle, the whole tape retired each time.
        assert_eq!(kc.lanes, 64);
        assert_eq!(kc.settles, 300);
        assert_eq!(
            kc.expected_ops,
            300 * plain.program().kernel_op_count() as u64
        );
        assert!(kc.reconciles());
        let occ = kc.occupancy();
        assert!(occ > 0.0 && occ <= 1.0, "occupancy {occ}");
    }

    #[test]
    fn compiled_patterns_match_direct_evaluation() {
        use lip_core::Pattern;
        let f = generate::fig1();
        let prog = Arc::new(SettleProgram::compile(&f.netlist).unwrap());
        let mut pats = LanePatterns::broadcast(&prog);
        // A mixed row: periodic lanes of different periods plus a
        // random (aperiodic-classified) lane.
        pats.set_sink(
            0,
            3,
            Pattern::EveryNth {
                period: 3,
                phase: 1,
            },
        );
        pats.set_sink(
            0,
            50,
            Pattern::EveryNth {
                period: 5,
                phase: 0,
            },
        );
        pats.set_source(
            0,
            40,
            Pattern::Random {
                num: 1,
                denom: 3,
                seed: 7,
            },
        );
        let mut direct = BatchSkeleton::from_patterns(prog.clone(), &pats);
        let mut compiled = BatchSkeleton::from_patterns(prog, &pats);
        let cp = CompiledPatterns::compile(&pats);
        // Per-lane pattern evaluation, the reference the word tables
        // must reproduce.
        let word = |row: &PatternRow, c: u64| u64::from_fn(|l| row.get(l).at(c));
        for cycle in 0..300 {
            let snk: Vec<_> = pats.snk.iter().map(|row| word(row, cycle)).collect();
            let src: Vec<_> = pats
                .src
                .iter()
                .map(|row| word(row, cycle + 1).not())
                .collect();
            direct.step_with_masks_probed(&src, &snk, &mut NullProbe);
            compiled.step_compiled_probed(&cp, &mut NullProbe);
        }
        for lane in [0, 3, 40, 50, 63] {
            assert_eq!(
                direct.lane_component_state(lane),
                compiled.lane_component_state(lane),
                "lane {lane}"
            );
            assert_eq!(
                direct.sink_counts_lane(f.sink, lane),
                compiled.sink_counts_lane(f.sink, lane),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn pattern_rows_split_on_first_set_and_read_back() {
        use lip_core::Pattern;
        let f = generate::fig1();
        let prog = SettleProgram::compile(&f.netlist).unwrap();
        let mut pats = LanePatterns::broadcast(&prog);
        let declared = prog.snk_pattern[0].clone();
        let nth = |period, phase| Pattern::EveryNth { period, phase };
        // Uniform rows answer every lane with the declared pattern.
        assert!(matches!(pats.snk[0], PatternRow::Uniform(_)));
        assert_eq!(pats.sink_pattern(0, 63), &declared);
        assert_eq!(pats.lane_env_periods(), vec![prog.env_period(); LANES]);
        // A set splits only its own row; the other lanes keep theirs.
        pats.set_sink(0, 50, nth(3, 1));
        pats.set_sink(0, 7, nth(4, 0));
        assert!(matches!(pats.snk[0], PatternRow::Split(_)));
        assert!(matches!(pats.src[0], PatternRow::Uniform(_)));
        assert_eq!(pats.sink_pattern(0, 50), &nth(3, 1));
        assert_eq!(pats.sink_pattern(0, 7), &nth(4, 0));
        assert_eq!(pats.sink_pattern(0, 8), &declared);
        pats.set_source(0, 7, nth(5, 2));
        pats.set_source(
            0,
            40,
            Pattern::Random {
                num: 1,
                denom: 2,
                seed: 3,
            },
        );
        assert_eq!(pats.source_pattern(0, 7), &nth(5, 2));
        assert_eq!(pats.source_pattern(0, 6), &prog.src_pattern[0]);
        // Environment periods per row equal the per-lane fold.
        let per_lane: Vec<_> = (0..LANES)
            .map(|lane| {
                crate::program::env_period(
                    (0..pats.source_count())
                        .map(|i| pats.source_pattern(i, lane))
                        .chain((0..pats.sink_count()).map(|j| pats.sink_pattern(j, lane))),
                )
            })
            .collect();
        assert_eq!(pats.lane_env_periods(), per_lane);
        assert_eq!(per_lane[7], Some(20));
        assert_eq!(per_lane[40], None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn uniform_rows_reject_lanes_past_the_width() {
        let f = generate::fig1();
        let prog = SettleProgram::compile(&f.netlist).unwrap();
        let _ = LanePatterns::broadcast(&prog).sink_pattern(0, 64);
    }
}
