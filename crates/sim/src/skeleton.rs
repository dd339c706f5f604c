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
//! The per-cycle loop executes a compiled
//! [`SettleProgram`](crate::program::SettleProgram): state lives in flat
//! per-kind vectors and each settle phase is a homogeneous loop over
//! integer index arrays, with no per-component enum dispatch. The same
//! program drives the 64-lane [`BatchSkeleton`](crate::BatchSkeleton).
//!
//! [`System`]: crate::System

use std::sync::Arc;

use lip_graph::{Netlist, NetlistError, NodeId};
use lip_obs::{NullProbe, Probe};

use crate::lasso::{pack_bits, KeyWriter, Lasso, Periodicity};
use crate::program::{CompSlot, SettleProgram};

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
    /// Settled valid bit per channel.
    fwd: Vec<bool>,
    /// Settled stop bit per channel.
    stop: Vec<bool>,
    /// Current validity offered by each source.
    src_valid: Vec<bool>,
    /// Output-register validity, flat by `shell_out_off`.
    shell_out: Vec<bool>,
    /// Input-buffer occupancy, flat by `shell_in_off` (unbuffered shells
    /// never set theirs).
    in_buf: Vec<bool>,
    /// Per shell: fire condition of the last settle.
    fire: Vec<bool>,
    /// Per shell: firings so far.
    fires: Vec<u64>,
    /// Full relay main/aux register validity.
    full_main: Vec<bool>,
    full_aux: Vec<bool>,
    /// Half relay occupancy.
    half_occ: Vec<bool>,
    /// FIFO relay occupancy.
    fifo_occ: Vec<u32>,
    /// Per sink: informative / void tokens consumed.
    snk_valid: Vec<u64>,
    snk_voids: Vec<u64>,
    cycle: u64,
    /// When set, overrides environment behaviour for the next cycle:
    /// `(next source validities, current sink stops)`, each in node-id
    /// order. Used by `step_with` for externally driven exploration.
    env_override: Option<(Vec<bool>, Vec<bool>)>,
}

impl SkeletonSystem {
    /// Validate `netlist` and elaborate its skeleton.
    ///
    /// # Errors
    ///
    /// Propagates any [`NetlistError`] from [`Netlist::validate`].
    pub fn new(netlist: &Netlist) -> Result<Self, NetlistError> {
        Ok(Self::from_program(Arc::new(SettleProgram::compile(
            netlist,
        )?)))
    }

    /// Build a skeleton over an already compiled (possibly shared)
    /// settle program. State starts at reset, cycle 0.
    #[must_use]
    pub fn from_program(prog: Arc<SettleProgram>) -> Self {
        let src_valid: Vec<bool> = prog.src_pattern.iter().map(|p| !p.at(0)).collect();
        SkeletonSystem {
            fwd: vec![false; prog.n_channels],
            stop: vec![false; prog.n_channels],
            src_valid,
            shell_out: vec![true; prog.shell_out_ch.len()],
            in_buf: vec![false; prog.shell_in_ch.len()],
            fire: vec![false; prog.shell_buffered.len()],
            fires: vec![0; prog.shell_buffered.len()],
            full_main: vec![false; prog.full_in_ch.len()],
            full_aux: vec![false; prog.full_in_ch.len()],
            half_occ: vec![false; prog.half_in_ch.len()],
            fifo_occ: vec![0; prog.fifo_in_ch.len()],
            snk_valid: vec![0; prog.snk_in_ch.len()],
            snk_voids: vec![0; prog.snk_in_ch.len()],
            cycle: 0,
            env_override: None,
            prog,
        }
    }

    /// The compiled settle program this skeleton executes.
    #[must_use]
    pub fn program(&self) -> &Arc<SettleProgram> {
        &self.prog
    }

    /// Adopt a patched settle program (see [`crate::patch`]) without
    /// rebuilding the skeleton: state slices the patch left alone are
    /// kept. Channels, source offers, shell registers, buffers and all
    /// counters carry over; relay occupancies map by node identity
    /// (rows may have moved between kind tables), FIFO occupancies are
    /// clamped into a shrunk capacity; kind-changed or newly inserted
    /// relays restart empty, as do sources whose environment pattern
    /// changed. Adopting at reset is indistinguishable from
    /// [`from_program`](Self::from_program) on the new program.
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
        for (node, &s1) in p1.comp_slots.iter().enumerate() {
            match (s1, p2.comp_slots[node]) {
                (CompSlot::Full(r1), CompSlot::Full(r2)) => {
                    full_main[r2 as usize] = self.full_main[r1 as usize];
                    full_aux[r2 as usize] = self.full_aux[r1 as usize];
                }
                (CompSlot::Half(r1), CompSlot::Half(r2)) => {
                    half_occ[r2 as usize] = self.half_occ[r1 as usize];
                }
                (CompSlot::Fifo(r1), CompSlot::Fifo(r2)) => {
                    fifo_occ[r2 as usize] =
                        self.fifo_occ[r1 as usize].min(p2.fifo_cap[r2 as usize]);
                }
                _ => {}
            }
        }
        self.full_main = full_main;
        self.full_aux = full_aux;
        self.half_occ = half_occ;
        self.fifo_occ = fifo_occ;
        // A patched environment pattern restarts that source's offer
        // from the pattern at the current cycle.
        for (i, p) in p2.src_pattern.iter().enumerate() {
            if p1.src_pattern[i] != *p {
                self.src_valid[i] = !p.at(self.cycle);
            }
        }
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
        let Self {
            prog,
            fwd,
            stop,
            src_valid,
            shell_out,
            in_buf,
            fire,
            full_main,
            full_aux,
            half_occ,
            fifo_occ,
            cycle,
            env_override,
            ..
        } = self;
        let p: &SettleProgram = prog;

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
            stop[ch as usize] = match env_override {
                Some((_, stops)) => stops[i],
                None => p.snk_pattern[i].at(*cycle),
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
        // shell's fire is final here (its output stops are settled), so
        // it is recorded for the clock phase.
        for &s in &p.bwd_shell_order {
            let s = s as usize;
            let f = shell_fire(p, fwd, stop, shell_out, in_buf, s);
            fire[s] = f;
            for k in p.shell_in_range(s) {
                let ch = p.shell_in_ch[k] as usize;
                stop[ch] = if f {
                    false
                } else if p.discards {
                    if P::ENABLED && !fwd[ch] {
                        // The baseline variant would assert this stop;
                        // the refinement discards it against the void.
                        probe.void_discard(*cycle, ch as u32, 0);
                    }
                    fwd[ch]
                } else {
                    true
                };
            }
        }
        // Pass 3: buffered shells fire once every stop has settled (their
        // own input stops are registered, so nothing downstream waits).
        for &s in &p.buffered_shells {
            let s = s as usize;
            fire[s] = shell_fire(p, fwd, stop, shell_out, in_buf, s);
        }
        if P::ENABLED {
            for ch in 0..p.n_channels {
                if stop[ch] {
                    probe.stall(*cycle, ch as u32, 0);
                }
                if !fwd[ch] {
                    probe.channel_void(*cycle, ch as u32, 0);
                }
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
        self.settle_probed(probe);
        let Self {
            prog,
            fwd,
            stop,
            src_valid,
            shell_out,
            in_buf,
            fire,
            fires,
            full_main,
            full_aux,
            half_occ,
            fifo_occ,
            snk_valid,
            snk_voids,
            cycle,
            env_override,
        } = self;
        let p: &SettleProgram = prog;

        for i in 0..src_valid.len() {
            let stopped = stop[p.src_out_ch[i] as usize];
            if !(src_valid[i] && stopped) {
                src_valid[i] = match env_override {
                    Some((valids, _)) => valids[i],
                    None => !p.src_pattern[i].at(*cycle + 1),
                };
            }
        }
        for i in 0..snk_valid.len() {
            let stopped = match env_override {
                Some((_, stops)) => stops[i],
                None => p.snk_pattern[i].at(*cycle),
            };
            if !stopped {
                if fwd[p.snk_in_ch[i] as usize] {
                    snk_valid[i] += 1;
                    if P::ENABLED {
                        probe.consume(*cycle, p.snk_in_ch[i], 0);
                    }
                } else {
                    snk_voids[i] += 1;
                    if P::ENABLED {
                        probe.void_in(*cycle, p.snk_in_ch[i], 0);
                    }
                }
            }
        }
        for s in 0..p.shell_buffered.len() {
            if fire[s] {
                if P::ENABLED {
                    probe.fire(*cycle, s as u32, 0);
                }
                for k in p.shell_out_range(s) {
                    shell_out[k] = true;
                }
                if p.shell_buffered[s] {
                    for k in p.shell_in_range(s) {
                        in_buf[k] = false;
                    }
                }
                fires[s] += 1;
            } else {
                if p.shell_buffered[s] {
                    for k in p.shell_in_range(s) {
                        in_buf[k] = in_buf[k] || fwd[p.shell_in_ch[k] as usize];
                    }
                }
                for k in p.shell_out_range(s) {
                    if shell_out[k] && !stop[p.shell_out_ch[k] as usize] {
                        shell_out[k] = false;
                    }
                }
            }
        }
        for i in 0..full_main.len() {
            let input = fwd[p.full_in_ch[i] as usize];
            let stopped = stop[p.full_out_ch[i] as usize];
            let released = full_main[i] && !stopped;
            if P::ENABLED {
                // A token enters whenever the input is offered and aux is
                // free (aux occupied ⇒ the registered stop held it
                // upstream); a token leaves whenever main releases.
                if input && !full_aux[i] {
                    probe.relay_fill(*cycle, p.full_relay_row(i), 0);
                }
                if released {
                    probe.relay_drain(*cycle, p.full_relay_row(i), 0);
                }
            }
            if full_aux[i] {
                if released {
                    // aux shifts into main; value-wise main stays
                    // informative.
                    full_aux[i] = false;
                }
            } else if full_main[i] {
                if released {
                    full_main[i] = input;
                } else if input {
                    full_aux[i] = true;
                }
            } else {
                full_main[i] = input;
            }
        }
        for h in 0..half_occ.len() {
            let input = fwd[p.half_in_ch[h] as usize];
            let stopped = stop[p.half_out_ch[h] as usize];
            if half_occ[h] {
                if !stopped {
                    half_occ[h] = false;
                    if P::ENABLED {
                        probe.relay_drain(*cycle, p.half_relay_row(h), 0);
                    }
                }
            } else if stopped && input {
                half_occ[h] = true;
                if P::ENABLED {
                    probe.relay_fill(*cycle, p.half_relay_row(h), 0);
                }
            }
        }
        for i in 0..fifo_occ.len() {
            let input = fwd[p.fifo_in_ch[i] as usize];
            let stopped = stop[p.fifo_out_ch[i] as usize];
            let was_full = fifo_occ[i] == p.fifo_cap[i];
            if !stopped && fifo_occ[i] > 0 {
                fifo_occ[i] -= 1;
                if P::ENABLED {
                    probe.relay_drain(*cycle, p.fifo_relay_row(i), 0);
                }
            }
            if !was_full && input {
                fifo_occ[i] += 1;
                if P::ENABLED {
                    probe.relay_fill(*cycle, p.fifo_relay_row(i), 0);
                }
            }
        }
        if P::ENABLED {
            probe.end_cycle(*cycle);
        }
        *cycle += 1;
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
    /// This is the hook the whole-system explorer uses to universally
    /// quantify over environments instead of fixing a pattern.
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
        self.env_override = Some((source_valid.to_vec(), sink_stop.to_vec()));
        self.step();
        self.env_override = None;
    }

    /// Component control state only — no environment phase — the state
    /// the whole-system explorer keys on when the environment is
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
        &self.fire
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

    /// Firings of each shell so far, in shell-row order (the order of
    /// [`Netlist::shells`]).
    ///
    /// [`Netlist::shells`]: lip_graph::Netlist::shells
    #[must_use]
    pub fn shell_fire_counts(&self) -> &[u64] {
        &self.fires
    }

    /// Total shell firings so far, summed over all shells.
    #[must_use]
    pub fn total_fires(&self) -> u64 {
        self.fires.iter().sum()
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
            CompSlot::Shell(s) => Some(self.fires[s as usize]),
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
    /// ⌈log₂(capacity + 1)⌉ bits per relay, none per sink) by the
    /// `KeyWriter` shared with [`System`](crate::System). It reads
    /// registers only, so it needs no [`settle`](Self::settle) first.
    /// Returns `None` (leaving `out` untouched) for aperiodic
    /// environments.
    pub fn push_control_state(&self, out: &mut Vec<u64>) -> Option<()> {
        let p = &*self.prog;
        let mut key = KeyWriter::new(out, self.cycle % p.env_period?);
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
        Some(())
    }

    /// Detect the periodic regime (see
    /// [`find_periodicity`](crate::measure::find_periodicity)) with the
    /// shared [`Lasso`] detector.
    pub fn find_periodicity(&mut self, max_cycles: u64) -> Option<Periodicity> {
        let mut lasso = Lasso::new(self.cycle, 0);
        let mut key = Vec::new();
        for _ in 0..max_cycles {
            key.clear();
            self.push_control_state(&mut key)?;
            if let Some((p, _)) = lasso.observe(&key, &[]) {
                return Some(p);
            }
            self.step();
        }
        None
    }
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
    use super::*;
    use crate::System;
    use lip_core::RelayKind;
    use lip_graph::generate;

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
}
