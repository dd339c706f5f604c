//! Skeleton simulation: the data-free control simulation the paper uses
//! for cheap deadlock analysis.
//!
//! *"We are allowed to simulate just the skeleton of the system
//! consisting of stop and valid signals, thus the simulation cost is
//! absolutely negligible."*
//!
//! A [`SkeletonSystem`] carries only validity bits and occupancies — no
//! data words, no pearl evaluation, no token recording — yet its control
//! behaviour is cycle-for-cycle identical to the full [`System`] (a
//! property the test-suite asserts over a topology corpus). Deadlock and
//! throughput questions only depend on control state, so this is the
//! cheap tool to answer them, exactly as the paper prescribes.
//!
//! The step is event-driven, like the simulator the paper validated its
//! blocks on (§6): its cost follows the registers that change, not the
//! size of the netlist. The settled valid, stop and fire bits persist
//! from one cycle to the next, and a change to one wakes only the op
//! that reads it, found through the program's per-channel reader index:
//!
//! * **settle** applies the registered outputs of the registers the last
//!   clock changed (sources and sinks every cycle: their environment
//!   patterns may flip), then re-evaluates, stratum by stratum, only
//!   the half relays and shells one of whose inputs changed. Each
//!   stratum keeps one dirty bitmap over its positions in the compiled
//!   [`SettleProgram`] order, scanned in order, so a change that wakes
//!   a later op of the same stratum is seen in the same pass;
//! * **clock** visits only the registers whose inputs changed or that
//!   changed on the last clock (any other register provably keeps its
//!   value), and rewrites each changed register's field of the packed
//!   control-state key in place.
//!
//! When a clock changed enough registers (a tree filling up, a small
//! FIFO ring under a periodic stop), waking readers one change at a time
//! costs more than running every op, so the next step runs the whole
//! tape: straight per-kind loops that wake no readers. The choice is a
//! cost rule fitted to measured per-step costs (`tape_pays`: a change
//! costs about two tape registers, so the tape pays from roughly half
//! the registers changing). The tape's clock writes every register's
//! key field and relay peak without branching on whether it changed, so
//! in both clocks the key stays bit-identical to the `KeyWriter`
//! encoding of the registers (checked on every read in debug builds)
//! and is never rebuilt between steps. It still records which registers
//! changed, so the step after can go either way; the choice changes no
//! result. With a [`Probe`] attached every step runs the tape, since
//! observers expect every per-component event. Shell fire counts bank
//! on fire-bit transitions and relay peaks rise on fills, so neither
//! costs a pass over every component per cycle.
//!
//! [`System`]: crate::System

use std::sync::Arc;

use lip_core::Pattern;
use lip_graph::{Netlist, NetlistError, NodeId};
use lip_obs::{NullProbe, Probe};

use crate::lasso::{pack_bits, KeyWriter, Lasso, Periodicity};
use crate::program::{relay_key_width, CompSlot, SettleProgram};

/// The valid/stop-only view of a latency-insensitive system.
///
/// # Example
///
/// ```
/// use lip_graph::generate;
/// use lip_sim::SkeletonSystem;
///
/// # fn main() -> Result<(), lip_graph::NetlistError> {
/// let fig1 = generate::fig1();
/// let mut sk = SkeletonSystem::new(&fig1.netlist)?;
/// sk.run(500);
/// // Steady state delivers 4 informative tokens per 5 cycles.
/// let (valid, voids) = sk.sink_counts(fig1.sink).expect("sink");
/// assert!(valid > 390 && valid + voids == 500);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SkeletonSystem {
    prog: Arc<SettleProgram>,
    /// Settled valid bit per channel (kept across cycles).
    fwd: Vec<bool>,
    /// Settled stop bit per channel (kept across cycles).
    stop: Vec<bool>,
    /// Current validity offered by each source.
    src_valid: Vec<bool>,
    /// Output-register validity, flat by `shell_out_off`.
    shell_out: Vec<bool>,
    /// Input-buffer occupancy, flat by `shell_in_off` (unbuffered shells
    /// never set theirs).
    in_buf: Vec<bool>,
    /// Per shell: fire condition of the last settle and firing history.
    fires: FireLog,
    /// Full relay main/aux register validity.
    full_main: Vec<bool>,
    full_aux: Vec<bool>,
    /// Half relay occupancy.
    half_occ: Vec<bool>,
    /// FIFO relay occupancy.
    fifo_occ: Vec<u32>,
    /// Per relay row: the highest occupancy held.
    relay_peak: Vec<u32>,
    /// Per sink: informative / void tokens consumed.
    snk_valid: Vec<u64>,
    snk_voids: Vec<u64>,
    cycle: u64,
    /// The packed control-state key (its phase word left stale): both
    /// clocks rewrite each changed register's field in place, so it
    /// always matches the registers.
    key: Vec<u64>,
    /// Which ops the next settle and clock must visit.
    dirty: Dirty,
}

/// Per shell: the fire bit of the last settle, and firing runs banked
/// when they end, so counting costs nothing on cycles a shell keeps
/// firing (or keeps idling).
#[derive(Debug, Clone)]
struct FireLog {
    /// Fire condition of the last settle.
    now: Vec<bool>,
    /// Firings of runs that have ended.
    banked: Vec<u64>,
    /// First cycle of the current run (meaningful while `now` holds).
    since: Vec<u64>,
    /// The cycle after the last firing of an ended run; 0 if none.
    until: Vec<u64>,
}

impl FireLog {
    fn new(shells: usize) -> Self {
        FireLog {
            now: vec![false; shells],
            banked: vec![0; shells],
            since: vec![0; shells],
            until: vec![0; shells],
        }
    }

    /// Record shell `s`'s fire condition settled at `cycle`.
    #[inline]
    fn set(&mut self, s: usize, fire: bool, cycle: u64) {
        if self.now[s] == fire {
            return;
        }
        self.now[s] = fire;
        if fire {
            self.since[s] = cycle;
        } else if self.since[s] < cycle {
            self.banked[s] += cycle - self.since[s];
            self.until[s] = cycle;
        }
    }

    /// Firings of shell `s` over the clocked cycles `0..cycle`.
    fn count(&self, s: usize, cycle: u64) -> u64 {
        self.banked[s]
            + if self.now[s] {
                cycle - self.since[s]
            } else {
                0
            }
    }

    /// The last clocked cycle (before `cycle`) at which shell `s` fired.
    fn last(&self, s: usize, cycle: u64) -> Option<u64> {
        if self.now[s] && self.since[s] < cycle {
            Some(cycle - 1)
        } else {
            self.until[s].checked_sub(1)
        }
    }
}

/// The ops the next settle and clock must visit, as bitmaps.
///
/// The clock sets (`shell`, `full`, `half`, `fifo`, by table row) hold
/// the registers the last clock changed plus those whose inputs have
/// changed since; the settle applies the registered outputs of the
/// former. The strata (`half_fwd`, `bwd`, `buffered`) are indexed by
/// position in the program's settle orders, so an in-order scan
/// re-evaluates woken ops after every op that feeds them.
///
/// When most registers change every cycle (a tree filling up), waking
/// readers one change at a time costs more than running every op, so
/// a step after a clock whose changes make [`tape_pays`] runs the whole
/// tape instead: straight per-kind loops that wake no readers. Its
/// clock still leaves exactly the changed registers in the clock sets,
/// so the next step can go either way.
#[derive(Debug, Clone)]
struct Dirty {
    shell: Vec<u64>,
    full: Vec<u64>,
    half: Vec<u64>,
    fifo: Vec<u64>,
    half_fwd: Vec<u64>,
    bwd: Vec<u64>,
    buffered: Vec<u64>,
    /// The next step runs the whole tape (see above).
    dense: bool,
}

/// A sparse step's cost per register the last clock changed, in units
/// of a tape step's cost per register (see [`tape_pays`]).
const SPARSE_PER_CHANGE: usize = 2;

/// A sparse step's fixed cost above a tape step's, in the same units.
const SPARSE_FIXED: usize = 8;

/// Whether the step after a clock that changed `changed` of `regs`
/// registers costs less on the whole tape than woken one change at a
/// time. Both costs are linear. Timed per step over whole declared
/// lassos (release, x86-64, cycles per loop iteration): a tape step
/// costs ~290 + 22 per register on `edit_loop`'s edited designs, 20 per
/// register on `chain(512,4)` and 30 on the binary trees; a sparse step
/// ~530 + 38 per change on the edited designs and 43–47 per change on
/// the chains and trees. So a change costs about two tape registers and
/// the sparse step's fixed part about eight (fitted 11): the tape pays
/// from ~40–50% of the registers changing, not a quarter. The rule
/// keeps the cost of those lassos within 1.5% of choosing each step's
/// cheaper path after the fact; on `chain(512,4)` (20% change per step)
/// it no longer sends a third of the steps to the tape.
#[inline]
fn tape_pays(changed: usize, regs: usize) -> bool {
    SPARSE_PER_CHANGE * changed + SPARSE_FIXED > regs
}

/// A bitmap of `n` set bits.
fn ones(n: usize) -> Vec<u64> {
    let mut bits = vec![u64::MAX; n.div_ceil(64)];
    if !n.is_multiple_of(64) {
        bits[n / 64] = (1 << (n % 64)) - 1;
    }
    bits
}

#[inline]
fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// Visit the set bits of clock set `bits`, each word taken first so
/// that re-marking a changed row does not revisit it; `f` clocks one
/// row and reports whether its register changed, and exactly those
/// rows are left set. Adds the changed count to `changed`.
#[inline]
fn clock_set(bits: &mut [u64], changed: &mut usize, mut f: impl FnMut(usize) -> bool) {
    for (w, slot) in bits.iter_mut().enumerate() {
        let mut word = std::mem::take(slot);
        while word != 0 {
            let b = word.trailing_zeros();
            word &= word - 1;
            let c = f(w * 64 + b as usize);
            *slot |= u64::from(c) << b;
            *changed += usize::from(c);
        }
    }
}

/// Rewrites a clock set with exactly the rows that changed, fed every
/// row in order: each word is built in a register and stored once.
struct Marks<'a> {
    bits: &'a mut [u64],
    word: u64,
    rows: usize,
    changed: usize,
}

impl<'a> Marks<'a> {
    fn new(bits: &'a mut [u64]) -> Self {
        Marks {
            bits,
            word: 0,
            rows: 0,
            changed: 0,
        }
    }

    /// The next row changed iff `c`.
    #[inline]
    fn push(&mut self, c: bool) {
        self.word |= u64::from(c) << (self.rows % 64);
        self.changed += usize::from(c);
        self.rows += 1;
        if self.rows.is_multiple_of(64) {
            self.bits[self.rows / 64 - 1] = std::mem::take(&mut self.word);
        }
    }

    /// Store the last partial word; returns how many rows changed.
    fn finish(self) -> usize {
        if !self.rows.is_multiple_of(64) {
            self.bits[self.rows / 64] = self.word;
        }
        self.changed
    }
}

/// Clear and return the lowest set bit of word `w` of `bits`. Draining
/// a stratum word by word with this visits bits set during the drain
/// too, as long as they lie above the current one.
#[inline]
fn pop_bit(bits: &mut [u64], w: usize) -> Option<usize> {
    let word = bits[w];
    if word == 0 {
        return None;
    }
    bits[w] = word & (word - 1);
    Some(w * 64 + word.trailing_zeros() as usize)
}

impl Dirty {
    /// Every op dirty: the next step re-evaluates every op.
    fn all(p: &SettleProgram) -> Self {
        Dirty {
            shell: ones(p.shell_buffered.len()),
            full: ones(p.full_in_ch.len()),
            half: ones(p.half_in_ch.len()),
            fifo: ones(p.fifo_in_ch.len()),
            half_fwd: ones(p.fwd_half_order.len()),
            bwd: ones(p.bwd_shell_order.len()),
            buffered: ones(p.buffered_shells.len()),
            dense: false,
        }
    }

    /// Shell `s` must re-settle its fire condition and be clocked.
    #[inline]
    fn wake_shell(&mut self, p: &SettleProgram, s: usize) {
        set_bit(&mut self.shell, s);
        let pos = p.readers.shell_pos[s] as usize;
        if p.shell_buffered[s] {
            set_bit(&mut self.buffered, pos);
        } else {
            set_bit(&mut self.bwd, pos);
        }
    }

    /// Wake the reader of a channel whose valid bit changed.
    #[inline]
    fn fwd_changed(&mut self, p: &SettleProgram, ch: usize) {
        match p.readers.fwd_reader[ch] {
            CompSlot::Shell(s) => self.wake_shell(p, s as usize),
            CompSlot::Full(i) => set_bit(&mut self.full, i as usize),
            CompSlot::Half(h) => {
                set_bit(&mut self.half, h as usize);
                set_bit(&mut self.half_fwd, p.readers.half_pos[h as usize] as usize);
            }
            CompSlot::Fifo(i) => set_bit(&mut self.fifo, i as usize),
            // Sinks are clocked every cycle.
            CompSlot::Sink(_) | CompSlot::Source(_) => {}
        }
    }

    /// Wake the reader of a channel whose stop bit changed.
    #[inline]
    fn stop_changed(&mut self, p: &SettleProgram, ch: usize) {
        match p.readers.stop_reader[ch] {
            CompSlot::Shell(s) => self.wake_shell(p, s as usize),
            CompSlot::Full(i) => set_bit(&mut self.full, i as usize),
            CompSlot::Half(h) => set_bit(&mut self.half, h as usize),
            CompSlot::Fifo(i) => set_bit(&mut self.fifo, i as usize),
            // Sources are clocked every cycle.
            CompSlot::Source(_) | CompSlot::Sink(_) => {}
        }
    }
}

/// Drive channel `ch`'s valid bit to `v`, waking its reader on a change.
#[inline]
fn set_fwd(p: &SettleProgram, fwd: &mut [bool], dirty: &mut Dirty, ch: u32, v: bool) {
    let ch = ch as usize;
    if fwd[ch] != v {
        fwd[ch] = v;
        dirty.fwd_changed(p, ch);
    }
}

/// Drive channel `ch`'s stop bit to `v`, waking its reader on a change.
#[inline]
fn set_stop(p: &SettleProgram, stop: &mut [bool], dirty: &mut Dirty, ch: u32, v: bool) {
    let ch = ch as usize;
    if stop[ch] != v {
        stop[ch] = v;
        dirty.stop_changed(p, ch);
    }
}

/// Write the low `width` bits of `value` at bit `off` of the packed
/// fields of a key (after its phase word).
#[inline]
fn put_bits(key: &mut [u64], off: u32, width: u32, value: u64) {
    let (w, b) = (1 + (off / 64) as usize, off % 64);
    let mask = (1u64 << width) - 1;
    key[w] = key[w] & !(mask << b) | value << b;
    if b + width > 64 {
        let spill = 64 - b;
        key[w + 1] = key[w + 1] & !(mask >> spill) | value >> spill;
    }
}

/// `pattern.at(cycle)` with the constant patterns answered in place:
/// `Pattern::at` is not inlined across crates, and a generated tree's
/// sixteen thousand sinks all stop `Never`, every cycle.
#[inline]
fn pattern_at(pattern: &Pattern, cycle: u64) -> bool {
    match pattern {
        Pattern::Never => false,
        Pattern::Always => true,
        _ => pattern.at(cycle),
    }
}

/// Write bit `v` at bit `off` of the packed fields of a key.
#[inline]
fn put_bit(key: &mut [u64], off: u32, v: bool) {
    let (w, b) = (1 + (off / 64) as usize, off % 64);
    key[w] = key[w] & !(1 << b) | u64::from(v) << b;
}

impl SkeletonSystem {
    /// Validate `netlist` and elaborate its skeleton.
    ///
    /// # Errors
    ///
    /// Propagates any [`NetlistError`] from [`Netlist::validate`].
    pub fn new(netlist: &Netlist) -> Result<Self, NetlistError> {
        Ok(Self::from_program(SettleProgram::compile_shared(netlist)?))
    }

    /// Build a skeleton over an already compiled (possibly shared)
    /// settle program. State starts at reset, cycle 0.
    #[must_use]
    pub fn from_program(prog: Arc<SettleProgram>) -> Self {
        let src_valid: Vec<bool> = prog.src_pattern.iter().map(|p| !p.at(0)).collect();
        let mut sk = SkeletonSystem {
            fwd: vec![false; prog.n_channels],
            stop: vec![false; prog.n_channels],
            src_valid,
            shell_out: vec![true; prog.shell_out_ch.len()],
            in_buf: vec![false; prog.shell_in_ch.len()],
            fires: FireLog::new(prog.shell_buffered.len()),
            full_main: vec![false; prog.full_in_ch.len()],
            full_aux: vec![false; prog.full_in_ch.len()],
            half_occ: vec![false; prog.half_in_ch.len()],
            fifo_occ: vec![0; prog.fifo_in_ch.len()],
            relay_peak: vec![0; prog.relay_count()],
            snk_valid: vec![0; prog.snk_in_ch.len()],
            snk_voids: vec![0; prog.snk_in_ch.len()],
            cycle: 0,
            key: Vec::new(),
            dirty: Dirty::all(&prog),
            prog,
        };
        sk.rewrite_key();
        sk
    }

    /// The compiled settle program this skeleton executes.
    #[must_use]
    pub fn program(&self) -> &Arc<SettleProgram> {
        &self.prog
    }

    /// Adopt a patched settle program (see [`crate::patch`]) without
    /// rebuilding the skeleton: state slices the patch left alone are
    /// kept. Channels, source offers, shell registers, buffers and all
    /// counters carry over; relay occupancies and peaks map by node
    /// identity (rows may have moved between kind tables), FIFO
    /// occupancies and peaks are clamped into a shrunk capacity;
    /// kind-changed or newly inserted relays restart empty, as do
    /// sources whose environment pattern changed. The next step
    /// re-evaluates every op. Adopting at reset is indistinguishable
    /// from [`from_program`](Self::from_program) on the new program.
    ///
    /// # Panics
    ///
    /// Panics if `new_prog` disagrees with the current program on
    /// source, sink or shell structure — patches never change those;
    /// anything that does requires a fresh skeleton.
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
        // Channel ids are stable under patches (insertions append).
        self.fwd.resize(p2.n_channels, false);
        self.stop.resize(p2.n_channels, false);
        // Relay state maps by node identity — same-kind rows carry
        // over, kind changes reset.
        let mut full_main = vec![false; p2.full_in_ch.len()];
        let mut full_aux = vec![false; p2.full_in_ch.len()];
        let mut half_occ = vec![false; p2.half_in_ch.len()];
        let mut fifo_occ = vec![0u32; p2.fifo_in_ch.len()];
        let mut relay_peak = vec![0u32; p2.relay_count()];
        for (node, &s1) in p1.comp_slots.iter().enumerate() {
            let rows = match (s1, p2.comp_slots[node]) {
                (CompSlot::Full(r1), CompSlot::Full(r2)) => {
                    let (r1, r2) = (r1 as usize, r2 as usize);
                    full_main[r2] = self.full_main[r1];
                    full_aux[r2] = self.full_aux[r1];
                    (p1.full_relay_row(r1), p2.full_relay_row(r2), 2)
                }
                (CompSlot::Half(r1), CompSlot::Half(r2)) => {
                    let (r1, r2) = (r1 as usize, r2 as usize);
                    half_occ[r2] = self.half_occ[r1];
                    (p1.half_relay_row(r1), p2.half_relay_row(r2), 1)
                }
                (CompSlot::Fifo(r1), CompSlot::Fifo(r2)) => {
                    let (r1, r2) = (r1 as usize, r2 as usize);
                    fifo_occ[r2] = self.fifo_occ[r1].min(p2.fifo_cap[r2]);
                    (
                        p1.fifo_relay_row(r1),
                        p2.fifo_relay_row(r2),
                        p2.fifo_cap[r2],
                    )
                }
                _ => continue,
            };
            let (row1, row2, cap) = rows;
            relay_peak[row2 as usize] = self.relay_peak[row1 as usize].min(cap);
        }
        self.full_main = full_main;
        self.full_aux = full_aux;
        self.half_occ = half_occ;
        self.fifo_occ = fifo_occ;
        self.relay_peak = relay_peak;
        // A patched environment pattern restarts that source's offer
        // from the pattern at the current cycle.
        for (i, p) in p2.src_pattern.iter().enumerate() {
            if p1.src_pattern[i] != *p {
                self.src_valid[i] = !p.at(self.cycle);
            }
        }
        self.dirty = Dirty::all(&self.prog);
        self.rewrite_key();
    }

    /// Settle this cycle's valid and stop bits.
    pub fn settle(&mut self) {
        self.settle_probed(&mut NullProbe);
    }

    /// [`settle`](Self::settle) with observation: emits
    /// [`void_discard`](Probe::void_discard) as the refined variant
    /// suppresses stops, then per-channel [`stall`](Probe::stall) /
    /// [`channel_void`](Probe::channel_void) for the settled state.
    /// Every hook (and its argument computation) is guarded by
    /// [`Probe::ENABLED`], so `settle_probed::<NullProbe>` compiles to
    /// the unobserved loop.
    pub fn settle_probed<P: Probe>(&mut self, probe: &mut P) {
        self.settle_env(None, probe);
    }

    /// Settle under the declared environment, or with this cycle's sink
    /// stops given (`step_with`).
    fn settle_env<P: Probe>(&mut self, sink_stop: Option<&[bool]>, probe: &mut P) {
        if P::ENABLED {
            // Observers expect every op's events every cycle.
            self.dirty.dense = true;
        }
        #[cfg(test)]
        if let Some(tape) = tests::FORCE_TAPE.get() {
            self.dirty.dense = tape;
        }
        if self.dirty.dense {
            self.settle_tape(sink_stop, probe);
        } else {
            self.settle_dirty(sink_stop);
        }
    }

    /// The whole settle tape: every op, stratum by stratum.
    fn settle_tape<P: Probe>(&mut self, sink_stop: Option<&[bool]>, probe: &mut P) {
        let Self {
            prog,
            fwd,
            stop,
            src_valid,
            shell_out,
            in_buf,
            fires,
            full_main,
            full_aux,
            half_occ,
            fifo_occ,
            cycle,
            ..
        } = self;
        let p: &SettleProgram = prog;
        let cycle = *cycle;

        // Forward pass 1: registered producers, any order.
        for (i, &ch) in p.src_out_ch.iter().enumerate() {
            fwd[ch as usize] = src_valid[i];
        }
        for (k, &ch) in p.shell_out_ch.iter().enumerate() {
            fwd[ch as usize] = shell_out[k];
        }
        for (i, &ch) in p.full_out_ch.iter().enumerate() {
            fwd[ch as usize] = full_main[i];
        }
        for (i, &ch) in p.fifo_out_ch.iter().enumerate() {
            fwd[ch as usize] = fifo_occ[i] > 0;
        }
        // Forward pass 2: half-relay chains, upstream first.
        for &h in &p.fwd_half_order {
            let h = h as usize;
            fwd[p.half_out_ch[h] as usize] = half_occ[h] || fwd[p.half_in_ch[h] as usize];
        }

        // Backward pass 1: registered stops, any order.
        for (i, &ch) in p.snk_in_ch.iter().enumerate() {
            stop[ch as usize] = match sink_stop {
                Some(stops) => stops[i],
                None => pattern_at(&p.snk_pattern[i], cycle),
            };
        }
        for (i, &ch) in p.full_in_ch.iter().enumerate() {
            stop[ch as usize] = full_aux[i];
        }
        for (h, &ch) in p.half_in_ch.iter().enumerate() {
            stop[ch as usize] = half_occ[h];
        }
        for (i, &ch) in p.fifo_in_ch.iter().enumerate() {
            stop[ch as usize] = fifo_occ[i] == p.fifo_cap[i];
        }
        for &s in &p.buffered_shells {
            for k in p.shell_in_range(s as usize) {
                stop[p.shell_in_ch[k] as usize] = in_buf[k];
            }
        }
        // Backward pass 2: unbuffered shells, downstream first. Each
        // shell's fire is final here (its output stops are settled).
        for &s in &p.bwd_shell_order {
            let s = s as usize;
            let f = shell_fire(p, fwd, stop, shell_out, in_buf, s);
            fires.set(s, f, cycle);
            for k in p.shell_in_range(s) {
                let ch = p.shell_in_ch[k] as usize;
                stop[ch] = if f {
                    false
                } else if p.discards {
                    if P::ENABLED && !fwd[ch] {
                        // The baseline variant would assert this stop;
                        // the refinement discards it against the void.
                        probe.void_discard(cycle, ch as u32, 0);
                    }
                    fwd[ch]
                } else {
                    true
                };
            }
        }
        // Pass 3: buffered shells fire once every stop has settled
        // (their own input stops are registered).
        for &s in &p.buffered_shells {
            let s = s as usize;
            fires.set(s, shell_fire(p, fwd, stop, shell_out, in_buf, s), cycle);
        }
        if P::ENABLED {
            for ch in 0..p.n_channels {
                if stop[ch] {
                    probe.stall(cycle, ch as u32, 0);
                }
                if !fwd[ch] {
                    probe.channel_void(cycle, ch as u32, 0);
                }
            }
        }
    }

    /// Settle only what changed: the registered outputs of the
    /// registers the last clock changed (and of every endpoint), then
    /// each stratum's woken ops in order.
    fn settle_dirty(&mut self, sink_stop: Option<&[bool]>) {
        let Self {
            prog,
            fwd,
            stop,
            src_valid,
            shell_out,
            in_buf,
            fires,
            full_main,
            full_aux,
            half_occ,
            fifo_occ,
            cycle,
            dirty,
            ..
        } = self;
        let p: &SettleProgram = prog;
        let cycle = *cycle;

        // Registered outputs: sources and sinks every cycle (their
        // patterns move), other registers only if the last clock
        // changed them.
        for (i, &ch) in p.src_out_ch.iter().enumerate() {
            set_fwd(p, fwd, dirty, ch, src_valid[i]);
        }
        for (i, &ch) in p.snk_in_ch.iter().enumerate() {
            let v = match sink_stop {
                Some(stops) => stops[i],
                None => pattern_at(&p.snk_pattern[i], cycle),
            };
            set_stop(p, stop, dirty, ch, v);
        }
        for w in 0..dirty.shell.len() {
            let mut word = dirty.shell[w];
            while word != 0 {
                let s = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                for k in p.shell_out_range(s) {
                    set_fwd(p, fwd, dirty, p.shell_out_ch[k], shell_out[k]);
                }
                if p.shell_buffered[s] {
                    for k in p.shell_in_range(s) {
                        set_stop(p, stop, dirty, p.shell_in_ch[k], in_buf[k]);
                    }
                }
                // Its own registers feed its fire condition.
                dirty.wake_shell(p, s);
            }
        }
        for w in 0..dirty.full.len() {
            let mut word = dirty.full[w];
            while word != 0 {
                let i = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                set_fwd(p, fwd, dirty, p.full_out_ch[i], full_main[i]);
                set_stop(p, stop, dirty, p.full_in_ch[i], full_aux[i]);
            }
        }
        for w in 0..dirty.half.len() {
            let mut word = dirty.half[w];
            while word != 0 {
                let h = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                set_stop(p, stop, dirty, p.half_in_ch[h], half_occ[h]);
                // Its occupancy feeds its forward bypass.
                set_bit(&mut dirty.half_fwd, p.readers.half_pos[h] as usize);
            }
        }
        for w in 0..dirty.fifo.len() {
            let mut word = dirty.fifo[w];
            while word != 0 {
                let i = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let (occ, cap) = (fifo_occ[i], p.fifo_cap[i]);
                set_fwd(p, fwd, dirty, p.fifo_out_ch[i], occ > 0);
                set_stop(p, stop, dirty, p.fifo_in_ch[i], occ == cap);
            }
        }

        // Forward stratum: half-relay chains, upstream first. A change
        // that wakes a chained half relay sets a later bit of this same
        // bitmap, which the scan then reaches.
        for w in 0..dirty.half_fwd.len() {
            while let Some(pos) = pop_bit(&mut dirty.half_fwd, w) {
                let h = p.fwd_half_order[pos] as usize;
                let v = half_occ[h] || fwd[p.half_in_ch[h] as usize];
                set_fwd(p, fwd, dirty, p.half_out_ch[h], v);
            }
        }

        // Backward stratum: unbuffered shells, downstream first. A
        // changed input stop wakes its producer, which is a later shell
        // of this stratum, a buffered shell or a register.
        for w in 0..dirty.bwd.len() {
            while let Some(pos) = pop_bit(&mut dirty.bwd, w) {
                let s = p.bwd_shell_order[pos] as usize;
                let f = shell_fire(p, fwd, stop, shell_out, in_buf, s);
                fires.set(s, f, cycle);
                for k in p.shell_in_range(s) {
                    let ch = p.shell_in_ch[k];
                    // Stopped unless firing; the refined variant
                    // discards the stop against a void.
                    let v = !f && (!p.discards || fwd[ch as usize]);
                    set_stop(p, stop, dirty, ch, v);
                }
            }
        }

        // Buffered shells fire once every stop has settled.
        for w in 0..dirty.buffered.len() {
            while let Some(pos) = pop_bit(&mut dirty.buffered, w) {
                let s = p.buffered_shells[pos] as usize;
                fires.set(s, shell_fire(p, fwd, stop, shell_out, in_buf, s), cycle);
            }
        }
    }

    /// Advance one clock cycle.
    pub fn step(&mut self) {
        self.step_probed(&mut NullProbe);
    }

    /// [`step`](Self::step) with observation: settles via
    /// [`settle_probed`](Self::settle_probed), then emits
    /// [`consume`](Probe::consume) / [`void_in`](Probe::void_in) at the
    /// sinks, [`fire`](Probe::fire) per firing shell,
    /// [`relay_fill`](Probe::relay_fill) /
    /// [`relay_drain`](Probe::relay_drain) per relay token movement
    /// (rows numbered full, then half, then FIFO), and finally
    /// [`end_cycle`](Probe::end_cycle).
    pub fn step_probed<P: Probe>(&mut self, probe: &mut P) {
        self.step_env(None, probe);
    }

    /// Settle and clock one cycle, the environment declared or given as
    /// `(next source offers, this cycle's sink stops)`.
    fn step_env<P: Probe>(&mut self, env: Option<(&[bool], &[bool])>, probe: &mut P) {
        self.settle_env(env.map(|(_, stops)| stops), probe);
        let p: &SettleProgram = &self.prog;
        let t = self.cycle;
        for i in 0..self.src_valid.len() {
            let stopped = self.stop[p.src_out_ch[i] as usize];
            if !(self.src_valid[i] && stopped) {
                let v = match env {
                    Some((valids, _)) => valids[i],
                    None => !pattern_at(&p.src_pattern[i], t + 1),
                };
                self.src_valid[i] = v;
                put_bit(&mut self.key, p.readers.src_key[i], v);
            }
        }
        // Count without branching: a sink takes a token or a void on
        // cycles it does not stop, unpredictably on a periodic stop.
        for (i, &ch) in p.snk_in_ch.iter().enumerate() {
            let (taken, valid) = (!self.stop[ch as usize], self.fwd[ch as usize]);
            if P::ENABLED && taken {
                if valid {
                    probe.consume(t, ch, 0);
                } else {
                    probe.void_in(t, ch, 0);
                }
            }
            self.snk_valid[i] += u64::from(taken & valid);
            self.snk_voids[i] += u64::from(taken & !valid);
        }
        let changed = if self.dirty.dense {
            self.clock_tape(probe)
        } else {
            self.clock_dirty()
        };
        let p: &SettleProgram = &self.prog;
        self.dirty.dense = tape_pays(changed, p.shell_count() + p.relay_count());
        if P::ENABLED {
            probe.end_cycle(t);
        }
        self.cycle += 1;
    }

    /// Clock every shell and relay, rewriting each register's key field
    /// and raising each relay's peak without a branch on whether it
    /// changed (on the tape most rows change, unpredictably); returns
    /// how many changed and leaves exactly those in the clock sets.
    fn clock_tape<P: Probe>(&mut self, probe: &mut P) -> usize {
        let Self {
            prog,
            fwd,
            stop,
            shell_out,
            in_buf,
            fires,
            full_main,
            full_aux,
            half_occ,
            fifo_occ,
            relay_peak,
            cycle,
            key,
            dirty,
            ..
        } = self;
        let p: &SettleProgram = prog;
        let t = *cycle;
        let (n_full, n_half) = (full_main.len(), half_occ.len());
        let (full_key, rest) = p.readers.relay_key.split_at(n_full);
        let (half_key, fifo_key) = rest.split_at(n_half);
        let (full_peak, rest) = relay_peak.split_at_mut(n_full);
        let (half_peak, fifo_peak) = rest.split_at_mut(n_half);
        let mut changed = 0;
        let mut marks = Marks::new(&mut dirty.shell);
        for s in 0..p.shell_buffered.len() {
            let f = fires.now[s];
            if P::ENABLED && f {
                probe.fire(t, s as u32, 0);
            }
            marks.push(clock_shell(p, fwd, stop, shell_out, in_buf, key, f, s));
        }
        changed += marks.finish();
        let mut marks = Marks::new(&mut dirty.full);
        for i in 0..n_full {
            let input = fwd[p.full_in_ch[i] as usize];
            let stopped = stop[p.full_out_ch[i] as usize];
            if P::ENABLED {
                // A token enters whenever the input is offered and aux
                // is free (aux occupied ⇒ the registered stop held it
                // upstream); a token leaves whenever main releases.
                if input && !full_aux[i] {
                    probe.relay_fill(t, p.full_relay_row(i), 0);
                }
                if full_main[i] && !stopped {
                    probe.relay_drain(t, p.full_relay_row(i), 0);
                }
            }
            let c = clock_full(&mut full_main[i], &mut full_aux[i], input, stopped);
            let occ = u32::from(full_main[i]) + u32::from(full_aux[i]);
            full_peak[i] = full_peak[i].max(occ);
            put_bits(key, full_key[i], 2, u64::from(occ));
            marks.push(c);
        }
        changed += marks.finish();
        let mut marks = Marks::new(&mut dirty.half);
        for h in 0..n_half {
            let input = fwd[p.half_in_ch[h] as usize];
            let stopped = stop[p.half_out_ch[h] as usize];
            let occ = half_occ[h];
            if P::ENABLED {
                let row = p.half_relay_row(h);
                if occ && !stopped {
                    probe.relay_drain(t, row, 0);
                }
                if !occ && stopped && input {
                    probe.relay_fill(t, row, 0);
                }
            }
            let next = clock_half(occ, input, stopped);
            half_occ[h] = next;
            half_peak[h] |= u32::from(next);
            put_bit(key, half_key[h], next);
            marks.push(next != occ);
        }
        changed += marks.finish();
        let mut marks = Marks::new(&mut dirty.fifo);
        for i in 0..fifo_occ.len() {
            let input = fwd[p.fifo_in_ch[i] as usize];
            let stopped = stop[p.fifo_out_ch[i] as usize];
            let (cap, occ) = (p.fifo_cap[i], fifo_occ[i]);
            let (drain, fill) = fifo_moves(occ, cap, input, stopped);
            if P::ENABLED {
                let row = p.fifo_relay_row(i);
                if drain {
                    probe.relay_drain(t, row, 0);
                }
                if fill {
                    probe.relay_fill(t, row, 0);
                }
            }
            let next = occ - u32::from(drain) + u32::from(fill);
            fifo_occ[i] = next;
            fifo_peak[i] = fifo_peak[i].max(next);
            put_bits(key, fifo_key[i], relay_key_width(cap), u64::from(next));
            marks.push(next != occ);
        }
        changed + marks.finish()
    }

    /// Clock the registers in the clock sets, rewriting the key field
    /// of each that changes and leaving exactly those in the sets (the
    /// next settle applies their outputs, the next clock revisits
    /// them). Returns how many changed.
    fn clock_dirty(&mut self) -> usize {
        let Self {
            prog,
            fwd,
            stop,
            shell_out,
            in_buf,
            fires,
            full_main,
            full_aux,
            half_occ,
            fifo_occ,
            relay_peak,
            key,
            dirty,
            ..
        } = self;
        let p: &SettleProgram = prog;
        let r = &p.readers;
        let mut changed = 0;
        clock_set(&mut dirty.shell, &mut changed, |s| {
            clock_shell(p, fwd, stop, shell_out, in_buf, key, fires.now[s], s)
        });
        clock_set(&mut dirty.full, &mut changed, |i| {
            let input = fwd[p.full_in_ch[i] as usize];
            let stopped = stop[p.full_out_ch[i] as usize];
            let c = clock_full(&mut full_main[i], &mut full_aux[i], input, stopped);
            if c {
                let row = p.full_relay_row(i) as usize;
                let occ = u32::from(full_main[i]) + u32::from(full_aux[i]);
                relay_peak[row] = relay_peak[row].max(occ);
                put_bits(key, r.relay_key[row], 2, u64::from(occ));
            }
            c
        });
        clock_set(&mut dirty.half, &mut changed, |h| {
            let input = fwd[p.half_in_ch[h] as usize];
            let stopped = stop[p.half_out_ch[h] as usize];
            let occ = half_occ[h];
            half_occ[h] = clock_half(occ, input, stopped);
            let c = half_occ[h] != occ;
            if c {
                let row = p.half_relay_row(h) as usize;
                relay_peak[row] |= u32::from(half_occ[h]);
                put_bit(key, r.relay_key[row], half_occ[h]);
            }
            c
        });
        clock_set(&mut dirty.fifo, &mut changed, |i| {
            let input = fwd[p.fifo_in_ch[i] as usize];
            let stopped = stop[p.fifo_out_ch[i] as usize];
            let (cap, occ) = (p.fifo_cap[i], fifo_occ[i]);
            let (drain, fill) = fifo_moves(occ, cap, input, stopped);
            fifo_occ[i] = occ - u32::from(drain) + u32::from(fill);
            let c = fifo_occ[i] != occ;
            if c {
                let row = p.fifo_relay_row(i) as usize;
                relay_peak[row] = relay_peak[row].max(fifo_occ[i]);
                let width = relay_key_width(cap);
                put_bits(key, r.relay_key[row], width, u64::from(fifo_occ[i]));
            }
            c
        });
        changed
    }

    /// Run `n` cycles.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Run `n` cycles under observation (see
    /// [`step_probed`](Self::step_probed)).
    pub fn run_probed<P: Probe>(&mut self, n: u64, probe: &mut P) {
        for _ in 0..n {
            self.step_probed(probe);
        }
    }

    /// Settle and clock one cycle with the environment driven
    /// *externally*: `sink_stop[j]` is the `j`-th sink's stop for this
    /// cycle, and `source_valid[i]` the validity of the `i`-th source's
    /// next offer (a held token stays held — the appropriate-environment
    /// obligation). Indices follow
    /// [`Netlist::sources`](lip_graph::Netlist::sources) /
    /// [`Netlist::sinks`](lip_graph::Netlist::sinks) order.
    ///
    /// This is the hook the adversarial checker (`lip-mc`) uses to
    /// universally quantify over environments instead of fixing a
    /// pattern.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the source/sink counts.
    pub fn step_with(&mut self, source_valid: &[bool], sink_stop: &[bool]) {
        assert_eq!(
            source_valid.len(),
            self.prog.source_count(),
            "source override arity"
        );
        assert_eq!(
            sink_stop.len(),
            self.prog.sink_count(),
            "sink override arity"
        );
        self.step_env(Some((source_valid, sink_stop)), &mut NullProbe);
    }

    /// Component control state only — no environment phase — the state
    /// the adversarial checker keys on when the environment is
    /// external.
    ///
    /// One word per component, unlike the bit-packed
    /// [`control_state`](Self::control_state): this layout is the
    /// adversarial checker's state store and the
    /// counterexample `stuck_state` format.
    #[must_use]
    pub fn component_state(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.prog.comp_slots.len());
        self.push_components(&mut out);
        out
    }

    /// Append every component's state to `out` in node order, one word
    /// each: shell registers via [`pack_bits`], a full relay as
    /// `main + 2 × aux`.
    fn push_components(&self, out: &mut Vec<u64>) {
        let p = &*self.prog;
        for slot in &p.comp_slots {
            match *slot {
                CompSlot::Source(i) => out.push(u64::from(self.src_valid[i as usize])),
                CompSlot::Sink(_) => {}
                CompSlot::Shell(s) => {
                    let s = s as usize;
                    let outs = &self.shell_out[p.shell_out_range(s)];
                    let bufs = &self.in_buf[p.shell_in_range(s)];
                    let n_bufs = if p.shell_buffered[s] { bufs.len() } else { 0 };
                    let n = outs.len();
                    let reg = |j: usize| if j < n { outs[j] } else { bufs[j - n] };
                    pack_bits(n + n_bufs, reg, out);
                }
                CompSlot::Full(i) => {
                    let i = i as usize;
                    out.push(u64::from(self.full_main[i]) + 2 * u64::from(self.full_aux[i]));
                }
                CompSlot::Half(h) => out.push(u64::from(self.half_occ[h as usize])),
                CompSlot::Fifo(i) => out.push(u64::from(self.fifo_occ[i as usize])),
            }
        }
    }

    /// Fire condition of every shell from the last settle, in shell-row
    /// order (the order [`SettleProgram`] compiled shells, i.e. node-id
    /// order among shells). After a [`step`](Self::step) this reports
    /// which shells fired on the cycle that just retired — the signal
    /// the model checker's liveness analysis keys on.
    #[must_use]
    pub fn shell_fired(&self) -> &[bool] {
        &self.fires.now
    }

    /// Validity currently offered by each source, in source-row order.
    ///
    /// Unlike the void pattern itself this is *state*: a stopped source
    /// holds its offer, so the offer at cycle `t` is not a pure
    /// function of `t`. Counterexample schedules record this so a
    /// replay via [`step_with`](Self::step_with) reproduces the exact
    /// trajectory.
    #[must_use]
    pub fn source_offers(&self) -> &[bool] {
        &self.src_valid
    }

    /// `(occupancy, capacity)` of the relay station at `node`; `None`
    /// if `node` is not a relay. Full relays report occupancy
    /// `main + aux` out of 2, half relays 0/1 out of 1, FIFOs their
    /// element count out of the configured capacity.
    #[must_use]
    pub fn relay_level(&self, node: NodeId) -> Option<(u32, u32)> {
        match self.prog.comp_slots[node.index()] {
            CompSlot::Full(i) => {
                let i = i as usize;
                Some((
                    u32::from(self.full_main[i]) + u32::from(self.full_aux[i]),
                    2,
                ))
            }
            CompSlot::Half(h) => Some((u32::from(self.half_occ[h as usize]), 1)),
            CompSlot::Fifo(i) => {
                let i = i as usize;
                Some((self.fifo_occ[i], self.prog.fifo_cap[i]))
            }
            _ => None,
        }
    }

    /// Every relay's `(occupancy, capacity)` (as in
    /// [`relay_level`](Self::relay_level)) in relay-row order: full
    /// relays, then half, then FIFO, each kind in node order — the rows
    /// the probe hooks number. [`relay_rows`](Self::relay_rows) maps
    /// relays in node order to these rows.
    pub fn relay_levels(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let full = (self.full_main.iter().zip(&self.full_aux))
            .map(|(&m, &a)| (u32::from(m) + u32::from(a), 2));
        let half = self.half_occ.iter().map(|&h| (u32::from(h), 1));
        let fifo = self
            .fifo_occ
            .iter()
            .copied()
            .zip(self.prog.fifo_cap.iter().copied());
        full.chain(half).chain(fifo)
    }

    /// The highest occupancy each relay has held since reset, in
    /// relay-row order (as [`relay_levels`](Self::relay_levels)):
    /// raised on fills, so it costs nothing on cycles a relay holds.
    #[must_use]
    pub fn relay_peaks(&self) -> &[u32] {
        &self.relay_peak
    }

    /// Each relay's row in [`relay_levels`](Self::relay_levels), in node
    /// order (the order of [`Netlist::relays`]).
    ///
    /// [`Netlist::relays`]: lip_graph::Netlist::relays
    pub fn relay_rows(&self) -> impl Iterator<Item = usize> + '_ {
        let p = &*self.prog;
        p.comp_slots
            .iter()
            .filter_map(|slot| match *slot {
                CompSlot::Full(i) => Some(p.full_relay_row(i as usize)),
                CompSlot::Half(h) => Some(p.half_relay_row(h as usize)),
                CompSlot::Fifo(i) => Some(p.fifo_relay_row(i as usize)),
                _ => None,
            })
            .map(|row| row as usize)
    }

    /// Informative tokens consumed by each sink, in sink-row order (the
    /// order of [`Netlist::sinks`]).
    ///
    /// [`Netlist::sinks`]: lip_graph::Netlist::sinks
    #[must_use]
    pub fn sink_valid_counts(&self) -> &[u64] {
        &self.snk_valid
    }

    /// The stop each sink applied on its input channel at the last
    /// settle, in sink-row order: after a [`step`](Self::step) of cycle
    /// `t`, the declared stops of cycle `t`. A recorded schedule reads
    /// them here rather than evaluating every sink's pattern again.
    pub fn sink_stops(&self) -> impl Iterator<Item = bool> + '_ {
        self.prog.snk_in_ch.iter().map(|&ch| self.stop[ch as usize])
    }

    /// Firings of each shell so far, in shell-row order (the order of
    /// [`Netlist::shells`]).
    ///
    /// [`Netlist::shells`]: lip_graph::Netlist::shells
    pub fn shell_fire_counts(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.fires.now.len()).map(|s| self.fires.count(s, self.cycle))
    }

    /// The last cycle at which each shell fired, `None` if it never
    /// has, in shell-row order: a shell that has not fired since cycle
    /// `t` has a last fire before `t`.
    pub fn shell_last_fires(&self) -> impl Iterator<Item = Option<u64>> + '_ {
        (0..self.fires.now.len()).map(|s| self.fires.last(s, self.cycle))
    }

    /// Total shell firings so far, summed over all shells.
    #[must_use]
    pub fn total_fires(&self) -> u64 {
        self.shell_fire_counts().sum()
    }

    /// Cycles executed so far.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// `(valid, voids)` consumed by the sink at `node`.
    #[must_use]
    pub fn sink_counts(&self, node: NodeId) -> Option<(u64, u64)> {
        match self.prog.comp_slots[node.index()] {
            CompSlot::Sink(i) => Some((self.snk_valid[i as usize], self.snk_voids[i as usize])),
            _ => None,
        }
    }

    /// Number of firings of the shell at `node`.
    #[must_use]
    pub fn shell_fires(&self, node: NodeId) -> Option<u64> {
        match self.prog.comp_slots[node.index()] {
            CompSlot::Shell(s) => Some(self.fires.count(s as usize, self.cycle)),
            _ => None,
        }
    }

    /// Control state (mirrors [`System::control_state`]); `None` for
    /// aperiodic environments.
    ///
    /// [`System::control_state`]: crate::System::control_state
    #[must_use]
    pub fn control_state(&self) -> Option<Vec<u64>> {
        let mut out = Vec::new();
        self.push_control_state(&mut out)?;
        Some(out)
    }

    /// Append [`control_state`](Self::control_state) to `out` — the
    /// allocation-free form the lasso detector keys on: the environment
    /// phase word, then every component's registered state bit-packed
    /// in node order (1 bit per source offer and shell register,
    /// ⌈log₂(capacity + 1)⌉ bits per relay, none per sink), the
    /// `KeyWriter` encoding shared with [`System`](crate::System). The
    /// packed words are kept up to date by the clock, so this copies
    /// them. Returns `None` (leaving `out` untouched) for aperiodic
    /// environments.
    pub fn push_control_state(&self, out: &mut Vec<u64>) -> Option<()> {
        let phase = self.cycle % self.prog.env_period?;
        out.push(phase);
        out.extend_from_slice(&self.key[1..]);
        debug_assert_eq!(
            &out[out.len() + 1 - self.key.len()..],
            &self.written_key()[1..],
            "in-place key drifted from its KeyWriter encoding"
        );
        Some(())
    }

    /// Rewrite the whole packed key from the registers, in place: at
    /// reset and when a patched program moves the key's fields.
    fn rewrite_key(&mut self) {
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        self.write_key(&mut key);
        self.key = key;
    }

    /// The packed key written from scratch over the registers, with a
    /// zero phase word.
    fn written_key(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.key.len());
        self.write_key(&mut out);
        out
    }

    /// Append the packed key, with a zero phase word, to `out`: one
    /// [`KeyWriter`] pass over the registers in node order.
    fn write_key(&self, out: &mut Vec<u64>) {
        let p = &*self.prog;
        let mut key = KeyWriter::new(out, 0);
        for slot in &p.comp_slots {
            match *slot {
                CompSlot::Source(i) => key.bit(self.src_valid[i as usize]),
                CompSlot::Sink(_) => {}
                CompSlot::Shell(s) => {
                    let s = s as usize;
                    for &v in &self.shell_out[p.shell_out_range(s)] {
                        key.bit(v);
                    }
                    if p.shell_buffered[s] {
                        for &b in &self.in_buf[p.shell_in_range(s)] {
                            key.bit(b);
                        }
                    }
                }
                CompSlot::Full(i) => {
                    let i = i as usize;
                    key.relay(
                        u32::from(self.full_main[i]) + u32::from(self.full_aux[i]),
                        2,
                    );
                }
                CompSlot::Half(h) => key.relay(u32::from(self.half_occ[h as usize]), 1),
                CompSlot::Fifo(i) => {
                    let i = i as usize;
                    key.relay(self.fifo_occ[i], p.fifo_cap[i]);
                }
            }
        }
        key.finish();
    }

    /// Detect the periodic regime (see
    /// [`find_periodicity`](crate::measure::find_periodicity)) with the
    /// shared [`Lasso`] detector.
    pub fn find_periodicity(&mut self, max_cycles: u64) -> Option<Periodicity> {
        self.close_lasso(max_cycles, 0, |_, _| {}).map(|(p, _)| p)
    }

    /// The one scalar lasso loop: from this cycle on, observe the
    /// control state in a [`Lasso`] *before* each step, at most
    /// `max_cycles` times, each visit's row of `row_len` counters
    /// written by `row`. On the first recurrence returns the
    /// periodicity and each counter's delta across one period, leaving
    /// the system at the recurrence; `None` for an aperiodic
    /// environment (at once) or when no state recurs in time.
    pub(crate) fn close_lasso(
        &mut self,
        max_cycles: u64,
        row_len: usize,
        mut row: impl FnMut(&Self, &mut Vec<u64>),
    ) -> Option<(Periodicity, Vec<u64>)> {
        let mut lasso = Lasso::new(self.cycle, row_len);
        let (mut key, mut counts) = (Vec::new(), Vec::with_capacity(row_len));
        for _ in 0..max_cycles {
            key.clear();
            self.push_control_state(&mut key)?;
            counts.clear();
            row(self, &mut counts);
            if let Some((p, first)) = lasso.observe(&key, &counts) {
                let deltas = counts.iter().zip(first).map(|(n, f)| n - f).collect();
                return Some((p, deltas));
            }
            self.step();
        }
        None
    }
}

/// Clock shell `s`'s registers given its settled fire condition `f`:
/// firing loads every output register and empties the buffers;
/// otherwise a stopped output holds and a buffer catches its valid
/// input. Writes every register's key bit (its outputs, then any
/// buffers) and returns whether any register changed.
#[inline]
#[allow(clippy::too_many_arguments)]
fn clock_shell(
    p: &SettleProgram,
    fwd: &[bool],
    stop: &[bool],
    shell_out: &mut [bool],
    in_buf: &mut [bool],
    key: &mut [u64],
    f: bool,
    s: usize,
) -> bool {
    let mut off = p.readers.shell_key[s];
    let mut changed = false;
    for k in p.shell_out_range(s) {
        let v = f | (shell_out[k] & stop[p.shell_out_ch[k] as usize]);
        changed |= v != shell_out[k];
        shell_out[k] = v;
        put_bit(key, off, v);
        off += 1;
    }
    if p.shell_buffered[s] {
        for k in p.shell_in_range(s) {
            let v = !f & (in_buf[k] | fwd[p.shell_in_ch[k] as usize]);
            changed |= v != in_buf[k];
            in_buf[k] = v;
            put_bit(key, off, v);
            off += 1;
        }
    }
    changed
}

/// Clock a full relay's main/aux registers: a released main takes the
/// input (or, with aux occupied, aux shifts in; value-wise main stays
/// informative); a held main parks the input in aux. Returns whether
/// either changed.
#[inline]
fn clock_full(main: &mut bool, aux: &mut bool, input: bool, stopped: bool) -> bool {
    let (m, a) = (*main, *aux);
    let released = m & !stopped;
    *main = a | (m & !released) | input;
    *aux = !released & (a | (m & input));
    (*main, *aux) != (m, a)
}

/// A half relay's next occupancy: a stopped output keeps its token or
/// catches the input; an unstopped one passes everything through.
#[inline]
fn clock_half(occ: bool, input: bool, stopped: bool) -> bool {
    stopped & (occ | input)
}

/// A FIFO's `(drain, fill)` this cycle: a token leaves unless the
/// output is stopped, one enters when offered unless the FIFO was full.
#[inline]
fn fifo_moves(occ: u32, cap: u32, input: bool, stopped: bool) -> (bool, bool) {
    (!stopped & (occ > 0), (occ != cap) & input)
}

/// Fire condition of shell `s` against settled `fwd`/`stop` bits: every
/// input available (buffered shells may satisfy an input from its
/// buffer) and no output port blocked — where under the refined variant
/// a stop against a void output register does not block.
#[inline]
fn shell_fire(
    p: &SettleProgram,
    fwd: &[bool],
    stop: &[bool],
    shell_out: &[bool],
    in_buf: &[bool],
    s: usize,
) -> bool {
    let buffered = p.shell_buffered[s];
    let mut all_valid = true;
    for k in p.shell_in_range(s) {
        let v = fwd[p.shell_in_ch[k] as usize];
        all_valid &= if buffered { in_buf[k] || v } else { v };
    }
    let mut blocked = false;
    for k in p.shell_out_range(s) {
        blocked |= stop[p.shell_out_ch[k] as usize] && (shell_out[k] || !p.discards);
    }
    all_valid && !blocked
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::System;
    use lip_core::{Pattern, RelayKind};
    use lip_graph::generate;

    thread_local! {
        /// Forces every step of this thread onto the whole tape
        /// (`Some(true)`) or the sparse path (`Some(false)`).
        pub(super) static FORCE_TAPE: Cell<Option<bool>> = const { Cell::new(None) };
    }

    /// The skeleton must follow the full simulation's control behaviour
    /// cycle for cycle.
    fn assert_skeleton_matches(netlist: &Netlist, cycles: u64) {
        let mut full = System::new(netlist).unwrap();
        let mut skel = SkeletonSystem::new(netlist).unwrap();
        for t in 0..cycles {
            full.settle();
            skel.settle();
            assert_eq!(
                full.control_state(),
                skel.control_state(),
                "control states diverge at cycle {t}"
            );
            full.step();
            skel.step();
        }
    }

    #[test]
    fn skeleton_equals_full_on_fig1() {
        assert_skeleton_matches(&generate::fig1().netlist, 50);
    }

    #[test]
    fn skeleton_equals_full_on_rings() {
        for (s, r) in [(1usize, 1usize), (2, 1), (3, 2)] {
            assert_skeleton_matches(&generate::ring(s, r, RelayKind::Full).netlist, 40);
        }
        assert_skeleton_matches(&generate::ring(2, 1, RelayKind::Half).netlist, 40);
    }

    #[test]
    fn skeleton_equals_full_on_random_corpus() {
        let mut checked = 0;
        for seed in 0..40u64 {
            let (_, netlist) = generate::random_family(seed);
            if netlist.validate().is_ok() {
                assert_skeleton_matches(&netlist, 30);
                checked += 1;
            }
        }
        assert!(checked >= 25, "only {checked} random instances checked");
    }

    #[test]
    fn skeleton_measures_fig1_throughput() {
        let f = generate::fig1();
        let mut sk = SkeletonSystem::new(&f.netlist).unwrap();
        let p = sk.find_periodicity(1000).unwrap();
        assert_eq!(p.period, 5);
        let (v0, n0) = sk.sink_counts(f.sink).unwrap();
        sk.run(10 * p.period);
        let (v1, n1) = sk.sink_counts(f.sink).unwrap();
        assert_eq!(v1 - v0, 40); // 4 valid per 5-cycle period x 10
        assert_eq!(n1 - n0, 10);
    }

    #[test]
    fn skeleton_counts_fires() {
        let f = generate::fig1();
        let mut sk = SkeletonSystem::new(&f.netlist).unwrap();
        sk.run(100);
        assert!(sk.shell_fires(f.fork).unwrap() > 50);
        assert!(sk.shell_fires(f.join).unwrap() > 50);
        assert_eq!(sk.shell_fires(f.sink), None);
        assert_eq!(sk.cycle(), 100);
    }

    #[test]
    fn put_bits_straddles_words() {
        // Field bits start after the phase word.
        let mut key = [7, u64::MAX, u64::MAX];
        put_bits(&mut key, 62, 4, 0b0110);
        assert_eq!(key, [7, u64::MAX >> 2 | 0b10 << 62, u64::MAX << 2 | 0b01]);
        put_bits(&mut key, 0, 1, 0);
        assert_eq!(key[1] & 1, 0);
    }

    #[test]
    fn fire_log_banks_runs_and_last_fires() {
        let mut log = FireLog::new(1);
        assert_eq!((log.count(0, 0), log.last(0, 0)), (0, None));
        log.set(0, true, 2); // fires at 2, 3, 4
        assert_eq!((log.count(0, 4), log.last(0, 4)), (2, Some(3)));
        log.set(0, false, 5);
        assert_eq!((log.count(0, 9), log.last(0, 9)), (3, Some(4)));
        // A run settled but not yet clocked has not fired.
        log.set(0, true, 9);
        assert_eq!((log.count(0, 9), log.last(0, 9)), (3, Some(4)));
        log.set(0, false, 9);
        assert_eq!((log.count(0, 9), log.last(0, 9)), (3, Some(4)));
    }

    #[test]
    fn repeated_settles_are_idempotent() {
        let f = generate::fig1();
        let mut once = SkeletonSystem::new(&f.netlist).unwrap();
        let mut twice = once.clone();
        for _ in 0..40 {
            twice.settle();
            twice.settle();
            once.step();
            twice.step();
            assert_eq!(once.control_state(), twice.control_state());
            assert_eq!(once.shell_fired(), twice.shell_fired());
            assert!(once.shell_fire_counts().eq(twice.shell_fire_counts()));
        }
    }

    /// Differential check of the step against the data-carrying
    /// [`System`], cycle for cycle: the in-place key equals its
    /// `KeyWriter` rebuild and the System's key, and sink counts, shell
    /// fires and relay levels agree.
    fn assert_same(what: &str, t: u64, netlist: &Netlist, full: &System, sk: &SkeletonSystem) {
        assert_eq!(
            &sk.key[1..],
            &sk.written_key()[1..],
            "{what}: key drifted at cycle {t}"
        );
        assert_eq!(
            full.control_state(),
            sk.control_state(),
            "{what}: key, cycle {t}"
        );
        for id in netlist.sinks() {
            let k = full.sink(id).unwrap();
            let counts = (k.received().len() as u64, k.voids_seen());
            assert_eq!(
                Some(counts),
                sk.sink_counts(id),
                "{what}: sink {id}, cycle {t}"
            );
        }
        for id in netlist.shells() {
            let fires = full.shell_stats(id).unwrap().fires;
            assert_eq!(
                Some(fires),
                sk.shell_fires(id),
                "{what}: shell {id}, cycle {t}"
            );
        }
        for id in netlist.relays() {
            let occ = full.relay(id).unwrap().occupancy() as u32;
            let level = sk.relay_level(id).unwrap().0;
            assert_eq!(occ, level, "{what}: relay {id}, cycle {t}");
        }
    }

    fn assert_lockstep(what: &str, netlist: &Netlist, cycles: u64) {
        let mut full = System::new(netlist).unwrap();
        let mut sk = SkeletonSystem::new(netlist).unwrap();
        for t in 0..cycles {
            assert_same(what, t, netlist, &full, &sk);
            full.step();
            sk.step();
        }
        assert_same(what, cycles, netlist, &full, &sk);
        // Peaks are the running maxima of the levels checked above.
        let mut peaks = vec![0; sk.relay_peaks().len()];
        let mut replay = SkeletonSystem::new(netlist).unwrap();
        for _ in 0..=cycles {
            for (peak, (occ, _)) in peaks.iter_mut().zip(replay.relay_levels()) {
                *peak = (*peak).max(occ);
            }
            replay.step();
        }
        assert_eq!(sk.relay_peaks(), &peaks[..], "{what}: relay peaks");
    }

    /// Periodic stop and void patterns on every endpoint, so the
    /// environment moves the state from both ends.
    fn periodic_endpoints(netlist: &mut Netlist, seed: u64) {
        for (j, id) in netlist.sinks().into_iter().enumerate() {
            let period = 2 + (seed as u32 + j as u32) % 5;
            let p = if seed.is_multiple_of(3) {
                Pattern::Cyclic(
                    (0..period + 3)
                        .map(|t| (t * 7 + j as u32).is_multiple_of(3))
                        .collect(),
                )
            } else {
                Pattern::EveryNth {
                    period,
                    phase: j as u32 % period,
                }
            };
            assert!(netlist.set_sink_pattern(id, p));
        }
        for (i, id) in netlist.sources().into_iter().enumerate() {
            let period = 2 + (seed as u32 + i as u32) % 3;
            let p = Pattern::EveryNth {
                period,
                phase: 1 % period,
            };
            assert!(netlist.set_source_pattern(id, p));
        }
    }

    #[test]
    fn differential_random_family_with_periodic_endpoints() {
        let mut checked = 0;
        for seed in 0..48u64 {
            let (_, mut netlist) = generate::random_family(seed);
            if netlist.validate().is_err() {
                continue;
            }
            assert_lockstep(&format!("random {seed}"), &netlist, 40);
            periodic_endpoints(&mut netlist, seed);
            assert_lockstep(&format!("random {seed}, periodic"), &netlist, 60);
            checked += 1;
        }
        assert!(checked >= 30, "only {checked} random instances checked");
    }

    #[test]
    fn differential_half_chains_buffered_shells_and_wide_fifos() {
        for (shells, relays) in [(1, 3), (3, 2), (4, 1)] {
            let mut chain = generate::chain(shells, relays, RelayKind::Half).netlist;
            assert_lockstep("half chain", &chain, 40);
            periodic_endpoints(&mut chain, 1);
            assert_lockstep("half chain, periodic", &chain, 60);
        }
        for (shells, relays) in [(2, 1), (3, 2)] {
            let mut ring = generate::buffered_ring(shells, relays).netlist;
            assert_lockstep("buffered ring", &ring, 40);
            periodic_endpoints(&mut ring, 2);
            assert_lockstep("buffered ring, periodic", &ring, 60);
        }
        // A FIFO of capacity 255 filled to the brim, then drained.
        let mut chain = generate::chain(1, 1, RelayKind::Fifo(255)).netlist;
        let sink = chain.sinks()[0];
        let stops = Pattern::Cyclic((0..600).map(|t| t < 300).collect());
        assert!(chain.set_sink_pattern(sink, stops));
        assert_lockstep("fifo(255)", &chain, 620);
    }

    #[test]
    fn differential_step_with() {
        // Driving `step_with` with the choices the declared patterns
        // make must reproduce the System running those patterns.
        for seed in 0..24u64 {
            let (_, mut netlist) = generate::random_family(seed);
            if netlist.validate().is_err() {
                continue;
            }
            periodic_endpoints(&mut netlist, seed);
            let pattern = |id: NodeId| match netlist.node(id).kind() {
                lip_graph::NodeKind::Source { void_pattern } => void_pattern.clone(),
                lip_graph::NodeKind::Sink { stop_pattern } => stop_pattern.clone(),
                _ => unreachable!("endpoint"),
            };
            let voids: Vec<Pattern> = netlist.sources().into_iter().map(pattern).collect();
            let stops: Vec<Pattern> = netlist.sinks().into_iter().map(pattern).collect();
            let mut full = System::new(&netlist).unwrap();
            let mut sk = SkeletonSystem::new(&netlist).unwrap();
            for t in 0..50 {
                assert_same(&format!("step_with {seed}"), t, &netlist, &full, &sk);
                let offers: Vec<bool> = voids.iter().map(|p| !p.at(t + 1)).collect();
                let stop: Vec<bool> = stops.iter().map(|p| p.at(t)).collect();
                full.step();
                sk.step_with(&offers, &stop);
            }
        }
    }

    #[test]
    fn differential_adopt_mid_run() {
        use crate::{BatchEngine, LanePatterns, NetlistDelta};
        // Adopting a patched program mid-run must continue exactly as
        // the batch engine adopting it at the same cycle.
        for seed in 0..24u64 {
            let (_, mut netlist) = generate::random_family(seed);
            if netlist.validate().is_err() {
                continue;
            }
            periodic_endpoints(&mut netlist, seed);
            let prog = Arc::new(SettleProgram::compile(&netlist).unwrap());
            let mut sk = SkeletonSystem::from_program(Arc::clone(&prog));
            let mut batch = BatchEngine::<u64>::from_program(Arc::clone(&prog));
            let mut patched = (*prog).clone();
            let channels: Vec<_> = netlist.channels().map(|(id, _)| id).collect();
            let channel = channels[seed as usize % channels.len()];
            let kind = [RelayKind::Full, RelayKind::Fifo(3), RelayKind::Half][seed as usize % 3];
            let delta = NetlistDelta::InsertRelay { channel, kind };
            let mut edited = netlist.clone();
            delta.apply_to(&mut edited);
            if edited.validate().is_err() {
                continue;
            }
            patched.recompile_delta(&delta).unwrap();
            let patched = Arc::new(patched);
            let what = format!("adopt {seed}");
            for t in 0..60u64 {
                if t == 17 {
                    sk.adopt(Arc::clone(&patched));
                    batch.adopt(Arc::clone(&patched));
                }
                let key = &sk.key[1..];
                assert_eq!(key, &sk.written_key()[1..], "{what}: key drifted at {t}");
                assert_eq!(
                    sk.component_state(),
                    batch.lane_component_state(0),
                    "{what}: {t}"
                );
                for id in edited.sinks() {
                    assert_eq!(
                        sk.sink_counts(id),
                        batch.sink_counts_lane(id, 0),
                        "{what}: {t}"
                    );
                }
                for id in edited.shells() {
                    assert_eq!(
                        sk.shell_fires(id),
                        batch.shell_fires_lane(id, 0),
                        "{what}: {t}"
                    );
                }
                sk.step();
                let pats = LanePatterns::broadcast(batch.program());
                batch.run_patterns(&pats, 1);
            }
        }
    }

    /// Everything a step's mode could disturb, as one comparable value.
    fn observed(sk: &SkeletonSystem) -> impl PartialEq + std::fmt::Debug {
        (
            sk.control_state(),
            sk.sink_valid_counts().to_vec(),
            sk.snk_voids.clone(),
            sk.shell_fire_counts().collect::<Vec<_>>(),
            sk.shell_last_fires().collect::<Vec<_>>(),
            sk.shell_fired().to_vec(),
            sk.relay_peaks().to_vec(),
        )
    }

    /// Run `netlist` under the cost rule, tape-only and sparse-only in
    /// lockstep: every cycle must observe the same.
    fn assert_modes_agree(what: &str, netlist: &Netlist, cycles: u64) {
        let rule = SkeletonSystem::new(netlist).unwrap();
        let mut runs = [
            (None, rule.clone()),
            (Some(true), rule.clone()),
            (Some(false), rule),
        ];
        for t in 0..cycles {
            for (mode, sk) in &mut runs {
                FORCE_TAPE.set(*mode);
                sk.step();
            }
            FORCE_TAPE.set(None);
            let want = observed(&runs[0].1);
            for (mode, sk) in &runs[1..] {
                assert_eq!(observed(sk), want, "{what}: tape {mode:?}, cycle {t}");
            }
        }
    }

    #[test]
    fn tape_and_sparse_steps_agree() {
        let mut checked = 0;
        for seed in 0..40u64 {
            let (_, mut netlist) = generate::random_family(seed);
            if netlist.validate().is_err() {
                continue;
            }
            periodic_endpoints(&mut netlist, seed);
            assert_modes_agree(&format!("random {seed}, periodic"), &netlist, 80);
            checked += 1;
        }
        assert!(checked >= 25, "only {checked} random instances checked");
        for cap in [1u8, 3, 5] {
            let mut chain = generate::chain(4, 3, RelayKind::Fifo(cap)).netlist;
            periodic_endpoints(&mut chain, u64::from(cap));
            assert_modes_agree(&format!("fifo({cap}) chain"), &chain, 80);
            let mut ring = generate::ring(3, 4, RelayKind::Fifo(cap)).netlist;
            periodic_endpoints(&mut ring, 2);
            assert_modes_agree(&format!("fifo({cap}) ring"), &ring, 80);
        }
        for kind in [RelayKind::Full, RelayKind::Half] {
            assert_modes_agree("ring", &generate::ring(3, 2, kind).netlist, 60);
        }
        for depth in 2..6 {
            let mut tree = generate::tree(depth, 2, 1).netlist;
            periodic_endpoints(&mut tree, depth as u64);
            assert_modes_agree(&format!("tree({depth}, 2, 1)"), &tree, 60);
        }
    }
}
