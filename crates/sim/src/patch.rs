//! Incremental compilation: in-place patching of compiled
//! [`SettleProgram`]s for the edit loop.
//!
//! Every one-relay edit used to pay a full [`SettleProgram::compile`] —
//! re-validation, re-elaboration, Kahn re-stratification and a fresh op
//! tape — which makes the queue-sizing bisection
//! (`lip_analysis::minimal_equalizing_capacity`) and the
//! `lip-lint --fix` rewrite loop compile-bound. This module patches the
//! compiled artefact in place instead:
//!
//! * [`SettleProgram::patch_fifo_capacity`] — mutate one `fifo_cap`
//!   entry, splice the FIFO's at-capacity compare run on the op tape
//!   (or rebuild the tape allocation-free when the bit-plane count
//!   changes) and rehash only the capacity section of the structural
//!   fingerprint.
//! * [`NetlistDelta`] + [`SettleProgram::recompile_delta`] — the
//!   structural edits the netlist mutation API can express (relay
//!   insertion, kind changes, environment pattern swaps), re-running
//!   only the Kahn stratification a delta can actually affect: a relay
//!   inserted between two unbuffered shells re-sorts the backward stop
//!   stratum, one spliced into a half chain re-sorts the forward valid
//!   stratum, and anything else keeps both orders untouched. A kind
//!   change moves one relay between the per-kind tables (rows stay in
//!   node-id order, so the result is byte-identical to a fresh
//!   compile), re-stratifying the half-relay Kahn order only when a
//!   half relay is involved. A delta the edited netlist would fail
//!   [`Netlist::validate`] on is refused before anything changes.
//!
//! The contract, enforced by the property suite and the `EXP-I1` gates:
//! after any patch sequence the program compares **equal** (tables, op
//! tape, section hashes — `SettleProgram: PartialEq`) to
//! `SettleProgram::compile` of the identically edited netlist, so
//! [`stable_structural_hash`](SettleProgram::stable_structural_hash)
//! keys stay exact and [`ThroughputCache`](crate::ThroughputCache)
//! hits are sound.
//!
//! Flight-recorder accounting: full compiles count `compile.full`,
//! every patch counts `compile.patch`, each under a `compile` span —
//! `BENCH_runtime.json` shows which path an edit loop ran on.

use std::fmt;

use lip_core::{Pattern, RelayKind};
use lip_graph::{ChannelId, Netlist, NetlistError, NodeId};

use crate::program::{env_period, kahn, relay_key_width, CompSlot, ReaderIndex, SettleProgram};

/// One structural edit, expressed against *both* representations: apply
/// it to the [`Netlist`] with [`apply_to`](Self::apply_to) and to the
/// already-compiled [`SettleProgram`] with
/// [`recompile_delta`](SettleProgram::recompile_delta), and the two
/// stay in lockstep — the program equals a fresh compile of the edited
/// netlist without paying for one.
#[derive(Debug, Clone, PartialEq)]
pub enum NetlistDelta {
    /// Replace the kind of an existing relay station
    /// ([`Netlist::set_relay_kind`]). `Fifo → Fifo` is a pure capacity
    /// change and takes the cheapest path.
    SetRelayKind {
        /// The relay station to mutate.
        node: NodeId,
        /// Its new kind.
        kind: RelayKind,
    },
    /// Insert a relay station on a channel
    /// ([`Netlist::insert_relay_on_channel`]) — the LIP001 fix-it. The
    /// producer keeps the original channel; the new relay drives a new
    /// channel into the original consumer.
    InsertRelay {
        /// The channel to break.
        channel: ChannelId,
        /// The relay station kind to insert.
        kind: RelayKind,
    },
    /// Replace a source's void pattern
    /// ([`Netlist::set_source_pattern`]).
    SetSourcePattern {
        /// The source to mutate.
        node: NodeId,
        /// Its new void pattern.
        pattern: Pattern,
    },
    /// Replace a sink's stop pattern ([`Netlist::set_sink_pattern`]).
    SetSinkPattern {
        /// The sink to mutate.
        node: NodeId,
        /// Its new stop pattern.
        pattern: Pattern,
    },
}

impl NetlistDelta {
    /// Apply this delta to `netlist`; returns the inserted relay's id
    /// for [`InsertRelay`](Self::InsertRelay), `None` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not have the kind the delta expects
    /// (relay / source / sink respectively).
    pub fn apply_to(&self, netlist: &mut Netlist) -> Option<NodeId> {
        match self {
            NetlistDelta::SetRelayKind { node, kind } => {
                netlist.set_relay_kind(*node, *kind);
                None
            }
            NetlistDelta::InsertRelay { channel, kind } => {
                Some(netlist.insert_relay_on_channel(*channel, *kind))
            }
            NetlistDelta::SetSourcePattern { node, pattern } => {
                assert!(
                    netlist.set_source_pattern(*node, pattern.clone()),
                    "node {node} is not a source"
                );
                None
            }
            NetlistDelta::SetSinkPattern { node, pattern } => {
                assert!(
                    netlist.set_sink_pattern(*node, pattern.clone()),
                    "node {node} is not a sink"
                );
                None
            }
        }
    }
}

/// What a patch touched — enough for engines
/// ([`BatchEngine::adopt`](crate::BatchEngine::adopt) /
/// [`SkeletonSystem::adopt`](crate::SkeletonSystem::adopt)) and
/// telemetry to know how much state survived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramPatch {
    /// The edit was structurally a no-op (same kind, same capacity,
    /// same pattern); nothing changed.
    Noop,
    /// Only one FIFO's capacity changed.
    FifoCapacity {
        /// The patched relay station.
        node: NodeId,
        /// Previous capacity.
        old_cap: u32,
        /// New capacity.
        new_cap: u32,
    },
    /// A relay station changed kind.
    RelayKind {
        /// The patched relay station.
        node: NodeId,
        /// Whether the forward half-relay stratum was re-sorted.
        restratified: bool,
    },
    /// A relay station was inserted on a channel.
    Insert {
        /// Node index of the inserted relay (`comp_slots` row).
        node_index: u32,
        /// The channel that was split (now ends at the new relay).
        split_channel: ChannelId,
        /// Channel index of the new relay → old-consumer channel.
        new_channel_index: u32,
        /// Whether either Kahn stratum was re-sorted.
        restratified: bool,
    },
    /// A source or sink environment pattern was replaced.
    Pattern {
        /// The patched endpoint.
        node: NodeId,
    },
}

/// Why [`SettleProgram::recompile_delta`] refused a delta; the
/// program is left as it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchError {
    /// The edited netlist would fail [`Netlist::validate`]: a source or
    /// sink pattern that is undefined on some cycle
    /// ([`NetlistError::MalformedPattern`]), or a kind change to half
    /// that closes a loop of half relays
    /// ([`NetlistError::DataLoop`]).
    Invalid(NetlistError),
    /// The delta names a node that is not of the kind it edits.
    WrongKind {
        /// The node the delta names.
        node: NodeId,
        /// The kind the delta edits: `"relay station"`, `"source"` or
        /// `"sink"`.
        expected: &'static str,
    },
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchError::Invalid(e) => write!(f, "delta rejected: {e}"),
            PatchError::WrongKind { node, expected } => {
                write!(
                    f,
                    "delta rejected: node {node} is not a {expected} in this program"
                )
            }
        }
    }
}

impl std::error::Error for PatchError {}

impl SettleProgram {
    /// Change the capacity of the FIFO relay station at `node` in
    /// place: one `fifo_cap` table write, an op-tape splice (or an
    /// allocation-free tape rebuild when the occupancy bit-plane count
    /// changes), and a rehash of the single fingerprint section that
    /// holds capacities. Orders of magnitude cheaper than
    /// [`compile`](Self::compile), byte-identical result.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a FIFO relay station in this program
    /// (change the kind first with
    /// [`recompile_delta`](Self::recompile_delta)).
    pub fn patch_fifo_capacity(&mut self, node: NodeId, cap: u8) -> ProgramPatch {
        let CompSlot::Fifo(row) = self.comp_slots[node.index()] else {
            panic!("node {node} is not a FIFO relay station in this program");
        };
        let row = row as usize;
        let old_cap = self.fifo_cap[row];
        let new_cap = u32::from(cap);
        if old_cap == new_cap {
            return ProgramPatch::Noop;
        }
        let _span = lip_obs::flight::global_span("compile", "patch_fifo_capacity");
        lip_obs::flight::global_add("compile.patch", 1);
        self.fifo_cap[row] = new_cap;
        let mut kernel = std::mem::take(&mut self.kernel);
        kernel.patch_fifo_capacity(self, row, old_cap);
        self.kernel = kernel;
        // A wider or narrower key field shifts every later offset.
        if relay_key_width(old_cap) != relay_key_width(new_cap) {
            self.readers = ReaderIndex::build(self);
        }
        // One entry of section 9 (fifo_cap) changed; xor its old mix
        // out and the new one in rather than rehashing the section.
        self.section_hashes[8] ^=
            crate::program::section_entry_hash(9, row as u64, u64::from(old_cap))
                ^ crate::program::section_entry_hash(9, row as u64, u64::from(new_cap));
        self.debug_verify("patch_fifo_capacity");
        ProgramPatch::FifoCapacity {
            node,
            old_cap,
            new_cap,
        }
    }

    /// Change the kind of the relay station at `node` in place: the
    /// relay's row moves between the per-kind tables (kept in node-id
    /// order, so every row matches a fresh compile), the forward
    /// half-relay stratum is re-sorted only when a half relay is
    /// involved, the tape is rebuilt allocation-free, and only the
    /// sections of the two kinds involved are rehashed.
    ///
    /// `Fifo → Fifo` delegates to
    /// [`patch_fifo_capacity`](Self::patch_fifo_capacity); a same-kind
    /// edit is a no-op. [`recompile_delta`](Self::recompile_delta), the
    /// one entry point, has checked that `node` is a relay station and
    /// that the edit closes no data loop.
    fn patch_relay_kind(&mut self, node: NodeId, kind: RelayKind) -> ProgramPatch {
        let old = self.comp_slots[node.index()];
        match (old, kind) {
            (CompSlot::Fifo(_), RelayKind::Fifo(k)) => return self.patch_fifo_capacity(node, k),
            (CompSlot::Full(_), RelayKind::Full) | (CompSlot::Half(_), RelayKind::Half) => {
                return ProgramPatch::Noop;
            }
            (CompSlot::Source(_) | CompSlot::Sink(_) | CompSlot::Shell(_), _) => {
                panic!("node {node} is not a relay station");
            }
            _ => {}
        }
        let _span = lip_obs::flight::global_span("compile", "patch_relay_kind");
        lip_obs::flight::global_add("compile.patch", 1);

        // Detach from the old kind table; later rows of that kind slide
        // down by one (node-id order is preserved by construction).
        let mut tags: Vec<u64> = Vec::with_capacity(5);
        let (in_ch, out_ch) = match old {
            CompSlot::Full(r) => {
                let r = r as usize;
                let v = (self.full_in_ch.remove(r), self.full_out_ch.remove(r));
                for s in &mut self.comp_slots {
                    if let CompSlot::Full(q) = s {
                        *q -= u32::from(*q as usize > r);
                    }
                }
                tags.extend([3, 4]);
                v
            }
            CompSlot::Half(r) => {
                let r = r as usize;
                let v = (self.half_in_ch.remove(r), self.half_out_ch.remove(r));
                for s in &mut self.comp_slots {
                    if let CompSlot::Half(q) = s {
                        *q -= u32::from(*q as usize > r);
                    }
                }
                tags.extend([5, 6]);
                v
            }
            CompSlot::Fifo(r) => {
                let r = r as usize;
                self.fifo_cap.remove(r);
                let v = (self.fifo_in_ch.remove(r), self.fifo_out_ch.remove(r));
                for s in &mut self.comp_slots {
                    if let CompSlot::Fifo(q) = s {
                        *q -= u32::from(*q as usize > r);
                    }
                }
                tags.extend([7, 8, 9]);
                v
            }
            _ => unreachable!("non-relay slots rejected above"),
        };

        // Attach to the new kind table at the node-id-sorted position.
        let slot_of = |s: &CompSlot, k: RelayKind| -> bool {
            matches!(
                (s, k),
                (CompSlot::Full(_), RelayKind::Full)
                    | (CompSlot::Half(_), RelayKind::Half)
                    | (CompSlot::Fifo(_), RelayKind::Fifo(_))
            )
        };
        let pos = self.comp_slots[..node.index()]
            .iter()
            .filter(|s| slot_of(s, kind))
            .count();
        for s in &mut self.comp_slots {
            match (s, kind) {
                (CompSlot::Full(q), RelayKind::Full)
                | (CompSlot::Half(q), RelayKind::Half)
                | (CompSlot::Fifo(q), RelayKind::Fifo(_)) => *q += u32::from(*q as usize >= pos),
                _ => {}
            }
        }
        self.comp_slots[node.index()] = match kind {
            RelayKind::Full => {
                self.full_in_ch.insert(pos, in_ch);
                self.full_out_ch.insert(pos, out_ch);
                tags.extend([3, 4]);
                CompSlot::Full(pos as u32)
            }
            RelayKind::Half => {
                self.half_in_ch.insert(pos, in_ch);
                self.half_out_ch.insert(pos, out_ch);
                tags.extend([5, 6]);
                CompSlot::Half(pos as u32)
            }
            RelayKind::Fifo(k) => {
                self.fifo_in_ch.insert(pos, in_ch);
                self.fifo_out_ch.insert(pos, out_ch);
                self.fifo_cap.insert(pos, u32::from(k));
                tags.extend([7, 8, 9]);
                CompSlot::Fifo(pos as u32)
            }
        };

        // Stratum diff: relay kinds only feed the forward half-relay
        // order; the backward shell order never reads relay tables.
        let restratified = matches!(old, CompSlot::Half(_)) || matches!(kind, RelayKind::Half);
        if restratified {
            self.recompute_half_order();
        }
        self.rebuild_kernel();
        tags.sort_unstable();
        tags.dedup();
        self.rehash_sections(tags);
        self.debug_verify("patch_relay_kind");
        ProgramPatch::RelayKind { node, restratified }
    }

    /// Apply one [`NetlistDelta`] to this compiled program (see the
    /// [module docs](self)). The caller keeps the source [`Netlist`] in
    /// sync via [`NetlistDelta::apply_to`]; afterwards the program
    /// equals `SettleProgram::compile` of that edited netlist.
    ///
    /// # Errors
    ///
    /// [`PatchError::WrongKind`] when the delta's node is not a relay
    /// station, source or sink as the delta requires, and
    /// [`PatchError::Invalid`] when the edited netlist would fail
    /// [`Netlist::validate`]: a pattern delta carrying a malformed
    /// pattern, or a kind change to half that closes a loop of half
    /// relays (a combinational data loop). Kind changes cannot close a
    /// stop loop, since every relay kind registers the stop, and an
    /// insertion closes no loop at all. The program is unchanged on
    /// error.
    pub fn recompile_delta(&mut self, delta: &NetlistDelta) -> Result<ProgramPatch, PatchError> {
        match delta {
            NetlistDelta::SetRelayKind { node, kind } => {
                if matches!(
                    self.comp_slots.get(node.index()),
                    None | Some(CompSlot::Source(_) | CompSlot::Sink(_) | CompSlot::Shell(_))
                ) {
                    return Err(PatchError::WrongKind {
                        node: *node,
                        expected: "relay station",
                    });
                }
                if let Some(cycle) = self.half_loop(*node, *kind) {
                    return Err(PatchError::Invalid(NetlistError::DataLoop { cycle }));
                }
                Ok(self.patch_relay_kind(*node, *kind))
            }
            NetlistDelta::InsertRelay { channel, kind } => {
                Ok(self.patch_insert_relay(*channel, *kind))
            }
            NetlistDelta::SetSourcePattern { node, pattern } => {
                self.patch_endpoint_pattern(*node, pattern, true)
            }
            NetlistDelta::SetSinkPattern { node, pattern } => {
                self.patch_endpoint_pattern(*node, pattern, false)
            }
        }
    }

    /// The loop of half relays that making relay `node` a `kind` relay
    /// would close, starting at `node`: `None` unless `kind` is half,
    /// `node` is not, and the chain of half relays its output feeds
    /// leads back to its input. Each channel has one reader, so this
    /// walks one chain, no longer than the half relays.
    fn half_loop(&self, node: NodeId, kind: RelayKind) -> Option<Vec<NodeId>> {
        let slot = self.comp_slots[node.index()];
        let mut ch = match (slot, kind) {
            (CompSlot::Full(r), RelayKind::Half) => self.full_out_ch[r as usize],
            (CompSlot::Fifo(r), RelayKind::Half) => self.fifo_out_ch[r as usize],
            _ => return None,
        };
        let mut rows = Vec::new();
        loop {
            match self.readers.fwd_reader[ch as usize] {
                reader if reader == slot => break,
                CompSlot::Half(h) if rows.len() < self.half_in_ch.len() => {
                    rows.push(CompSlot::Half(h));
                    ch = self.half_out_ch[h as usize];
                }
                _ => return None,
            }
        }
        let node_of = |row| {
            let index = self.comp_slots.iter().position(|&s| s == row);
            NodeId::from_index(index.expect("every half row has a node"))
        };
        let mut cycle = vec![node];
        cycle.extend(rows.into_iter().map(node_of));
        Some(cycle)
    }

    /// Insert a relay of `kind` on `channel`, mirroring
    /// [`Netlist::insert_relay_on_channel`]: the producer keeps
    /// `channel`, the new relay (highest node id, so the last row of
    /// its kind table) drives a fresh channel into the old consumer.
    /// Only the Kahn stratum the split channel can affect is re-sorted.
    fn patch_insert_relay(&mut self, channel: ChannelId, kind: RelayKind) -> ProgramPatch {
        let _span = lip_obs::flight::global_span("compile", "patch_insert_relay");
        lip_obs::flight::global_add("compile.patch", 1);
        let ch = channel.index() as u32;
        let new_ch = self.n_channels as u32;
        let mut tags: Vec<u64> = Vec::with_capacity(5);

        // Rewire the (unique) consumer of `ch` onto the new channel,
        // remembering what kind of consumer it was: the stratum diff
        // below depends on it.
        let mut consumer_half = false;
        let mut consumer_shell_port = None;
        let rewired = 'rewire: {
            for v in &mut self.snk_in_ch {
                if *v == ch {
                    *v = new_ch;
                    tags.push(2);
                    break 'rewire true;
                }
            }
            for v in &mut self.full_in_ch {
                if *v == ch {
                    *v = new_ch;
                    tags.push(3);
                    break 'rewire true;
                }
            }
            for v in &mut self.half_in_ch {
                if *v == ch {
                    *v = new_ch;
                    consumer_half = true;
                    tags.push(5);
                    break 'rewire true;
                }
            }
            for v in &mut self.fifo_in_ch {
                if *v == ch {
                    *v = new_ch;
                    tags.push(7);
                    break 'rewire true;
                }
            }
            for (j, v) in self.shell_in_ch.iter_mut().enumerate() {
                if *v == ch {
                    *v = new_ch;
                    consumer_shell_port = Some(j);
                    tags.push(12);
                    break 'rewire true;
                }
            }
            false
        };
        assert!(rewired, "channel {channel} has no consumer in this program");

        // Stratum diff. Forward half order: the chain through `ch`
        // changes when the inserted relay is half or the consumer was a
        // half relay mid-chain. Backward shell order: the only stop
        // edge insertion can break is an unbuffered-shell →
        // unbuffered-shell adjacency across `ch`.
        let half_restrat = matches!(kind, RelayKind::Half) || consumer_half;
        let shell_restrat = consumer_shell_port.is_some_and(|j| {
            let consumer = self.shell_of_in_port(j);
            !self.shell_buffered[consumer]
                && self
                    .shell_out_ch
                    .iter()
                    .enumerate()
                    .any(|(k, &c)| c == ch && !self.shell_buffered[self.shell_of_out_port(k)])
        });

        let node_index = self.comp_slots.len() as u32;
        self.comp_slots.push(match kind {
            RelayKind::Full => {
                self.full_in_ch.push(ch);
                self.full_out_ch.push(new_ch);
                tags.extend([3, 4]);
                CompSlot::Full(self.full_in_ch.len() as u32 - 1)
            }
            RelayKind::Half => {
                self.half_in_ch.push(ch);
                self.half_out_ch.push(new_ch);
                tags.extend([5, 6]);
                CompSlot::Half(self.half_in_ch.len() as u32 - 1)
            }
            RelayKind::Fifo(k) => {
                self.fifo_in_ch.push(ch);
                self.fifo_out_ch.push(new_ch);
                self.fifo_cap.push(u32::from(k));
                tags.extend([7, 8, 9]);
                CompSlot::Fifo(self.fifo_in_ch.len() as u32 - 1)
            }
        });
        self.n_channels += 1;

        if half_restrat {
            self.recompute_half_order();
        }
        if shell_restrat {
            self.recompute_shell_order();
        }
        self.rebuild_kernel();
        tags.sort_unstable();
        tags.dedup();
        self.rehash_sections(tags);
        self.debug_verify("patch_insert_relay");
        ProgramPatch::Insert {
            node_index,
            split_channel: channel,
            new_channel_index: new_ch,
            restratified: half_restrat || shell_restrat,
        }
    }

    /// Replace a source/sink environment pattern in place: one pattern
    /// slot, the environment-period fold, and the single pattern
    /// section of the fingerprint. The op tape never reads patterns, so
    /// it is untouched.
    fn patch_endpoint_pattern(
        &mut self,
        node: NodeId,
        pattern: &Pattern,
        source: bool,
    ) -> Result<ProgramPatch, PatchError> {
        let target = match (self.comp_slots.get(node.index()), source) {
            (Some(&CompSlot::Source(r)), true) => &mut self.src_pattern[r as usize],
            (Some(&CompSlot::Sink(r)), false) => &mut self.snk_pattern[r as usize],
            _ => {
                return Err(PatchError::WrongKind {
                    node,
                    expected: if source { "source" } else { "sink" },
                })
            }
        };
        if let Some(defect) = pattern.malformation() {
            return Err(PatchError::Invalid(NetlistError::MalformedPattern {
                node,
                defect,
            }));
        }
        if *target == *pattern {
            return Ok(ProgramPatch::Noop);
        }
        let _span = lip_obs::flight::global_span("compile", "patch_pattern");
        lip_obs::flight::global_add("compile.patch", 1);
        *target = pattern.clone();
        self.env_period = env_period(self.src_pattern.iter().chain(&self.snk_pattern));
        self.rehash_sections([15]);
        self.debug_verify("patch_endpoint_pattern");
        Ok(ProgramPatch::Pattern { node })
    }

    /// Shell row owning flat input-port slot `j` (CSR scan).
    fn shell_of_in_port(&self, j: usize) -> usize {
        debug_assert!(j < self.shell_in_ch.len());
        (0..self.shell_buffered.len())
            .find(|&s| self.shell_in_off[s + 1] as usize > j)
            .expect("port inside CSR range")
    }

    /// Shell row owning flat output-port slot `k` (CSR scan).
    fn shell_of_out_port(&self, k: usize) -> usize {
        debug_assert!(k < self.shell_out_ch.len());
        (0..self.shell_buffered.len())
            .find(|&s| self.shell_out_off[s + 1] as usize > k)
            .expect("port inside CSR range")
    }

    /// Re-sort the forward half-relay stratum from the current tables —
    /// the same Kahn run `compile` performs, so the order (and the
    /// tape emitted from it) is byte-identical to a fresh compile.
    fn recompute_half_order(&mut self) {
        let mut ch_half_producer = vec![u32::MAX; self.n_channels];
        for (h, &ch) in self.half_out_ch.iter().enumerate() {
            ch_half_producer[ch as usize] = h as u32;
        }
        let half_in_ch = &self.half_in_ch;
        let order = kahn(half_in_ch.len(), |h| {
            let p = ch_half_producer[half_in_ch[h] as usize];
            if p == u32::MAX {
                Vec::new()
            } else {
                vec![p as usize]
            }
        })
        .expect("patched netlist must stay free of combinational data loops");
        self.fwd_half_order = order.into_iter().map(|h| h as u32).collect();
    }

    /// Re-sort the backward unbuffered-shell stratum from the current
    /// tables — identical to `compile`'s Kahn run.
    fn recompute_shell_order(&mut self) {
        let mut ch_shell_consumer = vec![u32::MAX; self.n_channels];
        for s in 0..self.shell_buffered.len() {
            if self.shell_buffered[s] {
                continue;
            }
            for k in self.shell_in_range(s) {
                ch_shell_consumer[self.shell_in_ch[k] as usize] = s as u32;
            }
        }
        let order = kahn(self.shell_buffered.len(), |s| {
            if self.shell_buffered[s] {
                return Vec::new();
            }
            let mut deps = Vec::new();
            for k in self.shell_out_range(s) {
                let t = ch_shell_consumer[self.shell_out_ch[k] as usize];
                if t != u32::MAX {
                    deps.push(t as usize);
                }
            }
            deps
        })
        .expect("patched netlist must stay free of combinational stop loops");
        self.bwd_shell_order = order
            .into_iter()
            .filter(|&s| !self.shell_buffered[s])
            .map(|s| s as u32)
            .collect();
    }

    /// Rebuild the op tape in place, reusing its allocations, and
    /// re-derive the reader index (rows and channels have moved).
    fn rebuild_kernel(&mut self) {
        let mut kernel = std::mem::take(&mut self.kernel);
        kernel.rebuild(self);
        self.kernel = kernel;
        self.readers = ReaderIndex::build(self);
    }

    /// Run the IR verifier ([`SettleProgram::verify`]) after a patch in
    /// debug builds, so a corrupting patch fails at the patch site
    /// rather than at the first divergent measurement. Release builds
    /// skip it; CI and the equivalence proptests call `verify`
    /// explicitly.
    #[inline]
    fn debug_verify(&self, patched: &str) {
        #[cfg(debug_assertions)]
        if let Err(e) = self.verify() {
            panic!("IR verifier failed after {patched}: {e}");
        }
        #[cfg(not(debug_assertions))]
        let _ = patched;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_graph::generate;

    /// Fresh compile of `netlist` must equal `prog` byte-for-byte —
    /// tables, tape, cached section hashes and combined fingerprint.
    fn assert_matches_fresh(prog: &SettleProgram, netlist: &Netlist) {
        let fresh = SettleProgram::compile(netlist).expect("edited netlist compiles");
        assert_eq!(prog, &fresh, "patched program differs from fresh compile");
        assert_eq!(
            prog.stable_structural_hash(),
            fresh.stable_structural_hash()
        );
    }

    #[test]
    fn capacity_patch_matches_fresh_compile_across_plane_widths() {
        let ring = generate::ring(3, 2, RelayKind::Fifo(3));
        let mut netlist = ring.netlist;
        let mut prog = SettleProgram::compile(&netlist).unwrap();
        let relay = ring.relays[0];
        // 3 → 2 keeps the plane count (splice); 3 → 4 and 4 → 9 cross
        // plane boundaries (in-place rebuild); then back down.
        for cap in [2u8, 4, 9, 2, 6] {
            let delta = NetlistDelta::SetRelayKind {
                node: relay,
                kind: RelayKind::Fifo(cap),
            };
            delta.apply_to(&mut netlist);
            let patch = prog.recompile_delta(&delta).unwrap();
            assert!(matches!(patch, ProgramPatch::FifoCapacity { .. }));
            assert_matches_fresh(&prog, &netlist);
        }
    }

    #[test]
    fn capacity_patch_same_capacity_is_noop() {
        let ring = generate::ring(2, 1, RelayKind::Fifo(3));
        let mut prog = SettleProgram::compile(&ring.netlist).unwrap();
        assert_eq!(
            prog.patch_fifo_capacity(ring.relays[0], 3),
            ProgramPatch::Noop
        );
        assert_matches_fresh(&prog, &ring.netlist);
    }

    #[test]
    fn relay_kind_patch_matches_fresh_compile() {
        let ring = generate::ring(3, 2, RelayKind::Full);
        let mut netlist = ring.netlist;
        let mut prog = SettleProgram::compile(&netlist).unwrap();
        // Walk one relay through every kind; half here is safe (the
        // ring keeps full relays elsewhere, so no combinational loop).
        for kind in [
            RelayKind::Fifo(4),
            RelayKind::Half,
            RelayKind::Full,
            RelayKind::Fifo(2),
        ] {
            let delta = NetlistDelta::SetRelayKind {
                node: ring.relays[1],
                kind,
            };
            delta.apply_to(&mut netlist);
            prog.recompile_delta(&delta).unwrap();
            assert_matches_fresh(&prog, &netlist);
        }
    }

    #[test]
    fn insert_relay_patch_matches_fresh_compile() {
        let fig1 = generate::fig1();
        let mut netlist = fig1.netlist;
        let mut prog = SettleProgram::compile(&netlist).unwrap();
        // Insert on every original channel, all three kinds round-robin
        // — covers sink, shell and relay consumers.
        let channels: Vec<ChannelId> = netlist.channels().map(|(id, _)| id).collect();
        for (i, &channel) in channels.iter().enumerate() {
            let kind = match i % 3 {
                0 => RelayKind::Half,
                1 => RelayKind::Full,
                _ => RelayKind::Fifo(3),
            };
            let delta = NetlistDelta::InsertRelay { channel, kind };
            let inserted = delta.apply_to(&mut netlist).expect("insertion returns id");
            let patch = prog.recompile_delta(&delta).unwrap();
            match patch {
                ProgramPatch::Insert { node_index, .. } => {
                    assert_eq!(node_index as usize, inserted.index());
                }
                other => panic!("expected insert patch, got {other:?}"),
            }
            assert_matches_fresh(&prog, &netlist);
        }
    }

    #[test]
    fn pattern_patch_matches_fresh_compile() {
        let fig1 = generate::fig1();
        let mut netlist = fig1.netlist;
        let mut prog = SettleProgram::compile(&netlist).unwrap();
        let delta = NetlistDelta::SetSinkPattern {
            node: fig1.sink,
            pattern: Pattern::EveryNth {
                period: 3,
                phase: 1,
            },
        };
        delta.apply_to(&mut netlist);
        prog.recompile_delta(&delta).unwrap();
        assert_matches_fresh(&prog, &netlist);
        assert_eq!(prog.env_period(), Some(3));
    }

    #[test]
    fn insert_between_shells_restratifies_the_stop_order() {
        // A relay-free chain's shell→shell channels carry the backward
        // stop chain: splitting one must re-sort the unbuffered-shell
        // stratum.
        let chain = generate::chain(3, 0, RelayKind::Full);
        let mut netlist = chain.netlist;
        let mut prog = SettleProgram::compile(&netlist).unwrap();
        let shell_to_shell = netlist
            .channels()
            .find(|(_, ch)| {
                use lip_graph::NodeKind;
                matches!(
                    netlist.node(ch.producer.node).kind(),
                    NodeKind::Shell { .. }
                ) && matches!(
                    netlist.node(ch.consumer.node).kind(),
                    NodeKind::Shell { .. }
                )
            })
            .map(|(id, _)| id)
            .expect("chain has a shell-to-shell channel");
        let delta = NetlistDelta::InsertRelay {
            channel: shell_to_shell,
            kind: RelayKind::Full,
        };
        delta.apply_to(&mut netlist);
        let patch = prog.recompile_delta(&delta).unwrap();
        assert!(
            matches!(
                patch,
                ProgramPatch::Insert {
                    restratified: true,
                    ..
                }
            ),
            "shell-to-shell split must re-sort a stratum, got {patch:?}"
        );
        assert_matches_fresh(&prog, &netlist);
    }

    #[test]
    fn malformed_and_misdirected_deltas_are_typed_errors() {
        let fig1 = generate::fig1();
        let mut prog = SettleProgram::compile(&fig1.netlist).unwrap();
        let before = prog.clone();
        let zero = Pattern::EveryNth {
            period: 0,
            phase: 0,
        };
        let shell = fig1.netlist.shells()[0];
        let relay = fig1.netlist.relays()[0];
        let cases = [
            (
                NetlistDelta::SetSinkPattern {
                    node: fig1.sink,
                    pattern: zero.clone(),
                },
                PatchError::Invalid(NetlistError::MalformedPattern {
                    node: fig1.sink,
                    defect: "period 0",
                }),
            ),
            (
                NetlistDelta::SetSourcePattern {
                    node: fig1.source,
                    pattern: Pattern::Cyclic(Vec::new()),
                },
                PatchError::Invalid(NetlistError::MalformedPattern {
                    node: fig1.source,
                    defect: "empty cycle",
                }),
            ),
            (
                NetlistDelta::SetSourcePattern {
                    node: fig1.sink,
                    pattern: Pattern::Never,
                },
                PatchError::WrongKind {
                    node: fig1.sink,
                    expected: "source",
                },
            ),
            (
                NetlistDelta::SetSinkPattern {
                    node: relay,
                    pattern: zero,
                },
                PatchError::WrongKind {
                    node: relay,
                    expected: "sink",
                },
            ),
            (
                NetlistDelta::SetRelayKind {
                    node: shell,
                    kind: RelayKind::Half,
                },
                PatchError::WrongKind {
                    node: shell,
                    expected: "relay station",
                },
            ),
        ];
        for (delta, expected) in cases {
            assert_eq!(prog.recompile_delta(&delta), Err(expected), "{delta:?}");
            assert_eq!(prog, before, "a refused delta must leave the program alone");
        }
        // The unpatched program still runs.
        let mut sys = crate::SkeletonSystem::from_program(std::sync::Arc::new(prog));
        sys.run(10);
    }
}
