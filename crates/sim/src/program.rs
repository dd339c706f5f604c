//! Compiled settle programs: a netlist elaborated once into flat,
//! structure-of-arrays op lists.
//!
//! The skeleton engines spend essentially all their time in the per-cycle
//! settle/clock loop. Walking a `Vec<enum>` component list there costs an
//! unpredictable branch per component per pass. A [`SettleProgram`]
//! removes that: compilation groups every component by kind into parallel
//! index arrays (source → output channel, relay → in/out channel pair,
//! shell → CSR ranges over flat channel lists) and precomputes the two
//! topological orders the settle phases need — half-relay chains for the
//! forward (valid) pass and simple-shell stop propagation for the
//! backward (stop) pass. The per-cycle loop then becomes a handful of
//! tight homogeneous loops over integer arrays, with no enum dispatch.
//!
//! Both the scalar [`SkeletonSystem`](crate::SkeletonSystem) and the
//! 64-lane [`BatchSkeleton`](crate::BatchSkeleton) execute the same
//! program; the program is immutable after compilation and shared via
//! `Arc`, so cloning a simulator (the explorer does this per transition)
//! copies only the mutable state vectors.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;

use lip_core::{Pattern, ProtocolVariant, RelayKind};
use lip_graph::{Netlist, NetlistError, NodeId, NodeKind};

/// Which compiled table a netlist node landed in, and its row there.
///
/// Kept in node-id order so engines can rebuild observation vectors
/// (`control_state`, `component_state`) in exactly the order the full
/// [`System`](crate::System) produces them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompSlot {
    /// Row in the source tables.
    Source(u32),
    /// Row in the sink tables.
    Sink(u32),
    /// Row in the shell tables (buffered or not).
    Shell(u32),
    /// Row in the full-relay tables.
    Full(u32),
    /// Row in the half-relay tables.
    Half(u32),
    /// Row in the FIFO-relay tables.
    Fifo(u32),
}

/// Number of tagged sections in the structural fingerprint (tags
/// `1..=N_SECTIONS`; see [`SettleProgram::stable_structural_hash`]).
pub(crate) const N_SECTIONS: usize = 15;

/// A netlist compiled to flat per-kind op lists (see the module docs).
///
/// All indices are `u32`: channel ids in `*_ch` arrays, table rows in
/// order vectors. Shell geometry is CSR: shell `s` owns input channels
/// `shell_in_ch[shell_in_off[s]..shell_in_off[s+1]]` and output channels
/// `shell_out_ch[shell_out_off[s]..shell_out_off[s+1]]`; flat per-port
/// state (output validity, input buffers) uses the same offsets.
///
/// `PartialEq` compares every compiled table, the cached section
/// hashes *and* the op tape — the byte-equality relation the
/// incremental patch path (see [`crate::patch`]) is gated on: a patched
/// program must compare equal to a from-scratch compile of the edited
/// netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct SettleProgram {
    /// Number of channels in the netlist.
    pub(crate) n_channels: usize,
    /// Protocol variant the netlist was built for.
    pub(crate) variant: ProtocolVariant,
    /// Cached `variant.discards_stop_on_void()`.
    pub(crate) discards: bool,
    /// LCM of all environment pattern periods (`None` if any aperiodic).
    pub(crate) env_period: Option<u64>,
    /// Per netlist node: kind table + row, in node-id order.
    pub(crate) comp_slots: Vec<CompSlot>,

    // Sources.
    /// Source row → its single output channel.
    pub(crate) src_out_ch: Vec<u32>,
    /// Source row → its void pattern.
    pub(crate) src_pattern: Vec<Pattern>,

    // Sinks.
    /// Sink row → its netlist node.
    pub(crate) snk_node: Vec<NodeId>,
    /// Sink row → its single input channel.
    pub(crate) snk_in_ch: Vec<u32>,
    /// Sink row → its stop pattern.
    pub(crate) snk_pattern: Vec<Pattern>,

    // Relay stations.
    /// Full-relay row → input channel.
    pub(crate) full_in_ch: Vec<u32>,
    /// Full-relay row → output channel.
    pub(crate) full_out_ch: Vec<u32>,
    /// Half-relay row → input channel.
    pub(crate) half_in_ch: Vec<u32>,
    /// Half-relay row → output channel.
    pub(crate) half_out_ch: Vec<u32>,
    /// Half-relay rows in forward-pass order: a half relay combinationally
    /// forwards its input validity, so chains of them must settle
    /// upstream-first.
    pub(crate) fwd_half_order: Vec<u32>,
    /// FIFO-relay row → input channel.
    pub(crate) fifo_in_ch: Vec<u32>,
    /// FIFO-relay row → output channel.
    pub(crate) fifo_out_ch: Vec<u32>,
    /// FIFO-relay row → capacity.
    pub(crate) fifo_cap: Vec<u32>,

    // Shells (CSR geometry; buffered shells flagged).
    /// Shell row → `true` if it has input buffers.
    pub(crate) shell_buffered: Vec<bool>,
    /// Shell row → start of its input-channel run (`len = shells + 1`).
    pub(crate) shell_in_off: Vec<u32>,
    /// Flat input channels of all shells.
    pub(crate) shell_in_ch: Vec<u32>,
    /// Shell row → start of its output-channel run (`len = shells + 1`).
    pub(crate) shell_out_off: Vec<u32>,
    /// Flat output channels of all shells.
    pub(crate) shell_out_ch: Vec<u32>,
    /// Unbuffered shell rows in backward-pass order: a simple shell's
    /// input stop depends on its fire condition, which reads the stops on
    /// its output channels — written by downstream consumers, so
    /// downstream shells settle first.
    pub(crate) bwd_shell_order: Vec<u32>,
    /// Buffered shell rows (their stops are registered; only the fire
    /// condition is evaluated, after every stop has settled).
    pub(crate) buffered_shells: Vec<u32>,

    /// The settle phase compiled to a branch-free streaming op tape
    /// (see [`crate::stream`]). Derived from the tables above and
    /// deliberately **not** part of
    /// [`stable_structural_hash`](Self::stable_structural_hash): it is
    /// an execution schedule, not netlist structure.
    pub(crate) kernel: crate::stream::StreamKernel,

    /// Who reads each channel and where each register sits in the
    /// control-state key: the index the scalar
    /// [`SkeletonSystem`](crate::SkeletonSystem) steps by. Derived
    /// like the op tape and likewise outside the structural hash.
    pub(crate) readers: ReaderIndex,

    /// Cached per-section hashes of the structural fingerprint
    /// (`section_hashes[t - 1]` holds section tag `t`). A full compile
    /// computes all of them; the patch path rehashes only the sections
    /// an edit touched, so
    /// [`stable_structural_hash`](Self::stable_structural_hash) stays a
    /// pure function of the tables at patch cost.
    pub(crate) section_hashes: [u64; N_SECTIONS],
}

thread_local! {
    /// The program this thread last compiled in full, by the stamp of
    /// the netlist it was compiled from. Patched programs never enter.
    static LAST_COMPILE: RefCell<Option<(u64, Arc<SettleProgram>)>> = const { RefCell::new(None) };
}

impl SettleProgram {
    /// Validate `netlist` and compile it.
    ///
    /// Compiles once per netlist: the last full compile on this thread
    /// is kept by the netlist's [`stamp`](Netlist::stamp), and when the
    /// stamp matches this returns a clone of that program instead of
    /// compiling again (see [`compile_shared`](Self::compile_shared)).
    ///
    /// # Errors
    ///
    /// Propagates any [`NetlistError`] from [`Netlist::validate`].
    pub fn compile(netlist: &Netlist) -> Result<Self, NetlistError> {
        Self::compile_shared(netlist).map(|prog| SettleProgram::clone(&prog))
    }

    /// [`compile`](Self::compile), shared: the program this thread last
    /// compiled from `netlist`'s stamp when there is one (counter
    /// `compile.reused`), else a full compile (span `compile`, counter
    /// `compile.full`) that becomes the thread's kept program. Only
    /// full compiles from netlist contents are kept; a
    /// [`recompile_delta`](Self::recompile_delta) result never is, so a
    /// patched program still compares against a fresh compile.
    ///
    /// # Errors
    ///
    /// Propagates any [`NetlistError`] from [`Netlist::validate`].
    pub fn compile_shared(netlist: &Netlist) -> Result<Arc<Self>, NetlistError> {
        match Self::reuse(netlist) {
            Some(prog) => Ok(prog),
            None => Self::compile_fresh(netlist),
        }
    }

    /// The program this thread last compiled in full from `netlist`'s
    /// stamp, if any; bumps `compile.reused` when there is one.
    pub(crate) fn reuse(netlist: &Netlist) -> Option<Arc<Self>> {
        let stamp = netlist.stamp();
        let prog = LAST_COMPILE.with_borrow(|last| {
            last.as_ref()
                .filter(|(s, _)| *s == stamp)
                .map(|(_, prog)| Arc::clone(prog))
        })?;
        lip_obs::flight::global_add("compile.reused", 1);
        Some(prog)
    }

    /// Compile `netlist` in full and keep the result as this thread's
    /// last compile.
    pub(crate) fn compile_fresh(netlist: &Netlist) -> Result<Arc<Self>, NetlistError> {
        // The kept program is stale now; free it before building the
        // next one, so two programs never coexist for it.
        drop(LAST_COMPILE.take());
        let prog = Arc::new(Self::elaborate(netlist)?);
        LAST_COMPILE.set(Some((netlist.stamp(), Arc::clone(&prog))));
        Ok(prog)
    }

    /// The full compile behind [`compile_fresh`](Self::compile_fresh).
    fn elaborate(netlist: &Netlist) -> Result<Self, NetlistError> {
        // Ambient flight-recorder span + counter: full compiles show up
        // in `BENCH_runtime.json` (against `compile.patch`, the
        // incremental path's counter, and `compile.reused`) when a
        // recorder is installed, and cost one relaxed atomic load when
        // none is.
        let _compile_span = lip_obs::flight::global_span("compile", "settle_program");
        lip_obs::flight::global_add("compile.full", 1);
        netlist.validate()?;

        let mut comp_slots = Vec::with_capacity(netlist.node_count());
        let mut src_out_ch = Vec::new();
        let mut src_pattern = Vec::new();
        let mut snk_node = Vec::new();
        let mut snk_in_ch = Vec::new();
        let mut snk_pattern = Vec::new();
        let mut full_in_ch = Vec::new();
        let mut full_out_ch = Vec::new();
        let mut half_in_ch = Vec::new();
        let mut half_out_ch = Vec::new();
        let mut fifo_in_ch = Vec::new();
        let mut fifo_out_ch = Vec::new();
        let mut fifo_cap = Vec::new();
        let mut shell_buffered = Vec::new();
        let mut shell_in_off = vec![0u32];
        let mut shell_in_ch = Vec::new();
        let mut shell_out_off = vec![0u32];
        let mut shell_out_ch = Vec::new();

        let in_ch = |id, p| netlist.in_channel(id, p).expect("validated").index() as u32;
        let out_ch = |id, p| netlist.out_channel(id, p).expect("validated").index() as u32;

        for (id, node) in netlist.nodes() {
            comp_slots.push(match node.kind() {
                NodeKind::Source { void_pattern } => {
                    src_out_ch.push(out_ch(id, 0));
                    src_pattern.push(void_pattern.clone());
                    CompSlot::Source(src_out_ch.len() as u32 - 1)
                }
                NodeKind::Sink { stop_pattern } => {
                    snk_node.push(id);
                    snk_in_ch.push(in_ch(id, 0));
                    snk_pattern.push(stop_pattern.clone());
                    CompSlot::Sink(snk_in_ch.len() as u32 - 1)
                }
                NodeKind::Shell { pearl, buffered } => {
                    shell_buffered.push(*buffered);
                    for p in 0..pearl.num_inputs() {
                        shell_in_ch.push(in_ch(id, p));
                    }
                    shell_in_off.push(shell_in_ch.len() as u32);
                    for p in 0..pearl.num_outputs() {
                        shell_out_ch.push(out_ch(id, p));
                    }
                    shell_out_off.push(shell_out_ch.len() as u32);
                    CompSlot::Shell(shell_buffered.len() as u32 - 1)
                }
                NodeKind::Relay {
                    kind: RelayKind::Full,
                } => {
                    full_in_ch.push(in_ch(id, 0));
                    full_out_ch.push(out_ch(id, 0));
                    CompSlot::Full(full_in_ch.len() as u32 - 1)
                }
                NodeKind::Relay {
                    kind: RelayKind::Half,
                } => {
                    half_in_ch.push(in_ch(id, 0));
                    half_out_ch.push(out_ch(id, 0));
                    CompSlot::Half(half_in_ch.len() as u32 - 1)
                }
                NodeKind::Relay {
                    kind: RelayKind::Fifo(k),
                } => {
                    fifo_in_ch.push(in_ch(id, 0));
                    fifo_out_ch.push(out_ch(id, 0));
                    fifo_cap.push(u32::from(*k));
                    CompSlot::Fifo(fifo_in_ch.len() as u32 - 1)
                }
            });
        }

        // Forward order over half relays: relay `h` depends on the
        // producer of its input channel; only another half relay makes
        // that dependency combinational.
        let n_ch = netlist.channel_count();
        let mut ch_half_producer = vec![u32::MAX; n_ch];
        for (h, &ch) in half_out_ch.iter().enumerate() {
            ch_half_producer[ch as usize] = h as u32;
        }
        let fwd_half_order = kahn(half_in_ch.len(), |h| {
            let p = ch_half_producer[half_in_ch[h] as usize];
            if p == u32::MAX {
                Vec::new()
            } else {
                vec![p as usize]
            }
        })
        .expect("validated: no combinational data loop")
        .into_iter()
        .map(|h| h as u32)
        .collect();

        // Backward order over unbuffered shells: shell `s`'s fire reads
        // the stop on each of its output channels; if that stop is
        // written by another simple shell `t` (as consumer), `t` settles
        // first.
        let mut ch_shell_consumer = vec![u32::MAX; n_ch];
        for s in 0..shell_buffered.len() {
            if shell_buffered[s] {
                continue;
            }
            for k in shell_in_off[s] as usize..shell_in_off[s + 1] as usize {
                ch_shell_consumer[shell_in_ch[k] as usize] = s as u32;
            }
        }
        let bwd_shell_order = kahn(shell_buffered.len(), |s| {
            if shell_buffered[s] {
                return Vec::new();
            }
            let mut deps = Vec::new();
            for k in shell_out_off[s] as usize..shell_out_off[s + 1] as usize {
                let t = ch_shell_consumer[shell_out_ch[k] as usize];
                if t != u32::MAX {
                    deps.push(t as usize);
                }
            }
            deps
        })
        .expect("validated: no combinational stop loop");
        let bwd_shell_order: Vec<u32> = bwd_shell_order
            .into_iter()
            .filter(|&s| !shell_buffered[s])
            .map(|s| s as u32)
            .collect();
        let buffered_shells: Vec<u32> = (0..shell_buffered.len() as u32)
            .filter(|&s| shell_buffered[s as usize])
            .collect();

        let mut prog = SettleProgram {
            n_channels: n_ch,
            variant: netlist.variant(),
            discards: netlist.variant().discards_stop_on_void(),
            env_period: env_period(src_pattern.iter().chain(&snk_pattern)),
            comp_slots,
            src_out_ch,
            src_pattern,
            snk_node,
            snk_in_ch,
            snk_pattern,
            full_in_ch,
            full_out_ch,
            half_in_ch,
            half_out_ch,
            fwd_half_order,
            fifo_in_ch,
            fifo_out_ch,
            fifo_cap,
            shell_buffered,
            shell_in_off,
            shell_in_ch,
            shell_out_off,
            shell_out_ch,
            bwd_shell_order,
            buffered_shells,
            kernel: crate::stream::StreamKernel::default(),
            readers: ReaderIndex::default(),
            section_hashes: [0; N_SECTIONS],
        };
        prog.kernel = crate::stream::StreamKernel::compile(&prog);
        prog.readers = ReaderIndex::build(&prog);
        prog.rehash_sections(1..=N_SECTIONS as u64);
        Ok(prog)
    }

    /// Number of channels in the compiled netlist.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.n_channels
    }

    /// Ops on the compiled settle tape (one three-address op per settle
    /// assignment). Each counted settle retires exactly this many ops,
    /// so kernel execution counters reconcile as
    /// `total_ops == kernel_op_count × settles`.
    #[must_use]
    pub fn kernel_op_count(&self) -> usize {
        self.kernel.op_count()
    }

    /// Number of sources.
    #[must_use]
    pub fn source_count(&self) -> usize {
        self.src_out_ch.len()
    }

    /// Number of sinks.
    #[must_use]
    pub fn sink_count(&self) -> usize {
        self.snk_in_ch.len()
    }

    /// Input channel of sink `i` — the entity id of its
    /// [`consume`](lip_obs::Probe::consume) /
    /// [`void_in`](lip_obs::Probe::void_in) events, and the channel to
    /// query in
    /// [`sink_throughput`](lip_obs::MetricsRegistry::sink_throughput).
    #[must_use]
    pub fn sink_input_channel(&self, i: usize) -> u32 {
        self.snk_in_ch[i]
    }

    /// Number of shells (buffered or not).
    #[must_use]
    pub fn shell_count(&self) -> usize {
        self.shell_buffered.len()
    }

    /// Protocol variant the program was compiled for.
    #[must_use]
    pub fn variant(&self) -> ProtocolVariant {
        self.variant
    }

    /// LCM of all environment pattern periods, `None` if any pattern is
    /// aperiodic.
    #[must_use]
    pub fn env_period(&self) -> Option<u64> {
        self.env_period
    }

    /// Number of relay rows of every kind (full + half + FIFO).
    #[must_use]
    pub fn relay_count(&self) -> usize {
        self.full_in_ch.len() + self.half_in_ch.len() + self.fifo_in_ch.len()
    }

    /// The observable shape of the compiled netlist, for sizing a
    /// [`lip_obs::MetricsRegistry`] or [`lip_obs::TraceSink`].
    ///
    /// Relay rows are numbered full relays first, then half, then FIFO,
    /// each in compiled-table order — the same numbering the engines use
    /// for [`RelayFill`](lip_obs::EventKind::RelayFill) /
    /// [`RelayDrain`](lip_obs::EventKind::RelayDrain) event entities
    /// (see [`full_relay_row`](Self::full_relay_row) and friends).
    #[must_use]
    pub fn topology(&self) -> lip_obs::Topology {
        let mut relay_capacities =
            Vec::with_capacity(self.full_in_ch.len() + self.half_in_ch.len() + self.fifo_cap.len());
        relay_capacities.extend(std::iter::repeat_n(2, self.full_in_ch.len()));
        relay_capacities.extend(std::iter::repeat_n(1, self.half_in_ch.len()));
        relay_capacities.extend(self.fifo_cap.iter().copied());
        lip_obs::Topology {
            channels: self.n_channels as u32,
            shells: self.shell_buffered.len() as u32,
            relay_capacities,
        }
    }

    /// The channel-level wiring of the compiled netlist, for causal
    /// profiling: per-channel producer/consumer entities, shell port
    /// geometry, relay rows (same full/half/FIFO numbering as
    /// [`topology`](Self::topology)), and the mapping from dense entity
    /// ids back to `netlist` node ids and display names.
    ///
    /// `netlist` must be the netlist this program was compiled from
    /// (checked by node/channel counts).
    ///
    /// # Panics
    ///
    /// Panics if `netlist`'s node or channel count disagrees with the
    /// compiled program.
    #[must_use]
    pub fn channel_graph(&self, netlist: &Netlist) -> lip_obs::ChannelGraph {
        use lip_obs::Entity;
        assert_eq!(
            netlist.node_count(),
            self.comp_slots.len(),
            "netlist does not match this program"
        );
        assert_eq!(netlist.channel_count(), self.n_channels);

        let entity_of = |slot: CompSlot| match slot {
            CompSlot::Shell(s) => Entity::Shell(s),
            CompSlot::Full(i) => Entity::Relay(self.full_relay_row(i as usize)),
            CompSlot::Half(h) => Entity::Relay(self.half_relay_row(h as usize)),
            CompSlot::Fifo(i) => Entity::Relay(self.fifo_relay_row(i as usize)),
            CompSlot::Source(i) => Entity::Source(i),
            CompSlot::Sink(i) => Entity::Sink(i),
        };

        let mut producer = vec![Entity::Source(0); self.n_channels];
        let mut consumer = vec![Entity::Sink(0); self.n_channels];
        for (cid, ch) in netlist.channels() {
            producer[cid.index()] = entity_of(self.comp_slots[ch.producer.node.index()]);
            consumer[cid.index()] = entity_of(self.comp_slots[ch.consumer.node.index()]);
        }

        let relays = self.relay_count();
        let mut relay_in = vec![0u32; relays];
        let mut relay_out = vec![0u32; relays];
        let mut relay_capacity = vec![0u32; relays];
        for (i, (&in_ch, &out_ch)) in self.full_in_ch.iter().zip(&self.full_out_ch).enumerate() {
            let r = self.full_relay_row(i) as usize;
            (relay_in[r], relay_out[r], relay_capacity[r]) = (in_ch, out_ch, 2);
        }
        for (h, (&in_ch, &out_ch)) in self.half_in_ch.iter().zip(&self.half_out_ch).enumerate() {
            let r = self.half_relay_row(h) as usize;
            (relay_in[r], relay_out[r], relay_capacity[r]) = (in_ch, out_ch, 1);
        }
        for (i, (&in_ch, &out_ch)) in self.fifo_in_ch.iter().zip(&self.fifo_out_ch).enumerate() {
            let r = self.fifo_relay_row(i) as usize;
            (relay_in[r], relay_out[r], relay_capacity[r]) = (in_ch, out_ch, self.fifo_cap[i]);
        }

        // Dense entity order: shells, relays, sources, sinks.
        let n_ent = self.shell_count() + relays + self.source_count() + self.sink_count();
        let mut nodes = vec![0u32; n_ent];
        let mut names = vec![String::new(); n_ent];
        for (id, node) in netlist.nodes() {
            let e = entity_of(self.comp_slots[id.index()]);
            let dense = match e {
                Entity::Shell(s) => s as usize,
                Entity::Relay(r) => self.shell_count() + r as usize,
                Entity::Source(i) => self.shell_count() + relays + i as usize,
                Entity::Sink(i) => self.shell_count() + relays + self.source_count() + i as usize,
            };
            nodes[dense] = id.index() as u32;
            names[dense] = node.name().to_owned();
        }

        lip_obs::ChannelGraph {
            producer,
            consumer,
            source_out: self.src_out_ch.clone(),
            sink_in: self.snk_in_ch.clone(),
            relay_in,
            relay_out,
            relay_capacity,
            shell_in_off: self.shell_in_off.clone(),
            shell_in_ch: self.shell_in_ch.clone(),
            shell_out_off: self.shell_out_off.clone(),
            shell_out_ch: self.shell_out_ch.clone(),
            nodes,
            names,
        }
    }

    /// Relay row of the `i`-th full relay (event entity numbering).
    #[inline]
    #[must_use]
    pub fn full_relay_row(&self, i: usize) -> u32 {
        i as u32
    }

    /// Relay row of the `h`-th half relay (event entity numbering).
    #[inline]
    #[must_use]
    pub fn half_relay_row(&self, h: usize) -> u32 {
        (self.full_in_ch.len() + h) as u32
    }

    /// Relay row of the `i`-th FIFO relay (event entity numbering).
    #[inline]
    #[must_use]
    pub fn fifo_relay_row(&self, i: usize) -> u32 {
        (self.full_in_ch.len() + self.half_in_ch.len() + i) as u32
    }

    /// Stable structural fingerprint of the compiled netlist: a
    /// [`stable_hash`] over every compiled table — channel wiring, shell
    /// CSR geometry, relay kinds and capacities, protocol variant —
    /// **and** the source/sink environment patterns. Two netlists with
    /// equal fingerprints elaborate to simulations with identical
    /// observable behaviour, so the fingerprint is a sound memoization
    /// key for [`Measurement`](crate::Measurement)s (see
    /// [`ThroughputCache`](crate::ThroughputCache)), and it is stable
    /// across processes so persisted experiment caches stay valid.
    ///
    /// The fingerprint is two-level: each table is a tagged,
    /// length-prefixed *section* hashed on its own (the hashes are
    /// cached in `section_hashes`), and the fingerprint combines
    /// `[n_channels, variant, section hashes…]`. A full compile hashes
    /// every section; an in-place patch (see [`crate::patch`]) rehashes
    /// only the sections it touched — and reaches the identical
    /// fingerprint, because both paths combine the same section values.
    #[must_use]
    pub fn stable_structural_hash(&self) -> u64 {
        let mut words = [0u64; 2 + N_SECTIONS];
        words[0] = self.n_channels as u64;
        words[1] = match self.variant {
            ProtocolVariant::Refined => 0,
            ProtocolVariant::Carloni => 1,
        };
        words[2..].copy_from_slice(&self.section_hashes);
        stable_hash(&words)
    }

    /// Recompute the cached hashes of the given section tags
    /// (`1..=N_SECTIONS`) from the current tables. The patch path calls
    /// this with exactly the sections an edit touched; `compile` calls
    /// it with every tag.
    ///
    /// A section hash is `stable_hash([tag, len])` XORed with one
    /// [`section_entry_hash`] per entry. XOR combining (with the
    /// position salted into each entry mix, so permutations still
    /// differ) makes single-entry edits O(1): xor the old entry's mix
    /// out and the new one in — the fast path
    /// [`patch_fifo_capacity`](Self::patch_fifo_capacity) takes instead
    /// of calling this.
    pub(crate) fn rehash_sections(&mut self, tags: impl IntoIterator<Item = u64>) {
        let mut words: Vec<u64> = Vec::new();
        for tag in tags {
            words.clear();
            match tag {
                1 => words.extend(self.src_out_ch.iter().map(|&c| u64::from(c))),
                2 => words.extend(self.snk_in_ch.iter().map(|&c| u64::from(c))),
                3 => words.extend(self.full_in_ch.iter().map(|&c| u64::from(c))),
                4 => words.extend(self.full_out_ch.iter().map(|&c| u64::from(c))),
                5 => words.extend(self.half_in_ch.iter().map(|&c| u64::from(c))),
                6 => words.extend(self.half_out_ch.iter().map(|&c| u64::from(c))),
                7 => words.extend(self.fifo_in_ch.iter().map(|&c| u64::from(c))),
                8 => words.extend(self.fifo_out_ch.iter().map(|&c| u64::from(c))),
                9 => words.extend(self.fifo_cap.iter().map(|&c| u64::from(c))),
                10 => words.extend(self.shell_buffered.iter().map(|&b| u64::from(b))),
                11 => words.extend(self.shell_in_off.iter().map(|&c| u64::from(c))),
                12 => words.extend(self.shell_in_ch.iter().map(|&c| u64::from(c))),
                13 => words.extend(self.shell_out_off.iter().map(|&c| u64::from(c))),
                14 => words.extend(self.shell_out_ch.iter().map(|&c| u64::from(c))),
                15 => {
                    for p in self.src_pattern.iter().chain(self.snk_pattern.iter()) {
                        pattern_words(p, &mut words);
                    }
                }
                _ => unreachable!("section tag out of range"),
            }
            let mut h = stable_hash(&[tag, words.len() as u64]);
            for (i, &w) in words.iter().enumerate() {
                h ^= section_entry_hash(tag, i as u64, w);
            }
            self.section_hashes[tag as usize - 1] = h;
        }
    }

    /// Input-channel run of shell `s` (indices into the flat arrays).
    #[inline]
    pub(crate) fn shell_in_range(&self, s: usize) -> std::ops::Range<usize> {
        self.shell_in_off[s] as usize..self.shell_in_off[s + 1] as usize
    }

    /// Output-channel run of shell `s` (indices into the flat arrays).
    #[inline]
    pub(crate) fn shell_out_range(&self, s: usize) -> std::ops::Range<usize> {
        self.shell_out_off[s] as usize..self.shell_out_off[s + 1] as usize
    }
}

/// The scalar skeleton's view of a [`SettleProgram`]: for each channel
/// the one op that reads its valid bit (its consumer) and the one that
/// reads its stop bit (its producer), each settle-stratum row's
/// position in its stratum, and each register's bit offset in the
/// packed control-state key. A change to a channel wakes exactly its
/// reader; a change to a register rewrites exactly its key field.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ReaderIndex {
    /// Channel → the op reading its valid bit.
    pub(crate) fwd_reader: Vec<CompSlot>,
    /// Channel → the op reading its stop bit.
    pub(crate) stop_reader: Vec<CompSlot>,
    /// Half-relay row → position in `fwd_half_order`.
    pub(crate) half_pos: Vec<u32>,
    /// Shell row → position in `bwd_shell_order` (unbuffered) or
    /// `buffered_shells` (buffered).
    pub(crate) shell_pos: Vec<u32>,
    /// Source row → key bit offset (after the phase word).
    pub(crate) src_key: Vec<u32>,
    /// Shell row → key bit offset of its first output register; its
    /// other outputs, then (buffered) its input buffers, follow.
    pub(crate) shell_key: Vec<u32>,
    /// Relay row (full, half, FIFO numbering) → key bit offset.
    pub(crate) relay_key: Vec<u32>,
}

impl ReaderIndex {
    /// Derive the index from `p`'s tables: O(channels + nodes).
    pub(crate) fn build(p: &SettleProgram) -> Self {
        let mut fwd_reader = vec![CompSlot::Sink(0); p.n_channels];
        let mut stop_reader = vec![CompSlot::Source(0); p.n_channels];
        let mut wire = |ins: &[u32], outs: &[u32], slot: fn(u32) -> CompSlot| {
            for (row, &ch) in ins.iter().enumerate() {
                fwd_reader[ch as usize] = slot(row as u32);
            }
            for (row, &ch) in outs.iter().enumerate() {
                stop_reader[ch as usize] = slot(row as u32);
            }
        };
        wire(&[], &p.src_out_ch, CompSlot::Source);
        wire(&p.snk_in_ch, &[], CompSlot::Sink);
        wire(&p.full_in_ch, &p.full_out_ch, CompSlot::Full);
        wire(&p.half_in_ch, &p.half_out_ch, CompSlot::Half);
        wire(&p.fifo_in_ch, &p.fifo_out_ch, CompSlot::Fifo);
        for s in 0..p.shell_buffered.len() {
            for k in p.shell_in_range(s) {
                fwd_reader[p.shell_in_ch[k] as usize] = CompSlot::Shell(s as u32);
            }
            for k in p.shell_out_range(s) {
                stop_reader[p.shell_out_ch[k] as usize] = CompSlot::Shell(s as u32);
            }
        }

        let mut half_pos = vec![0u32; p.half_in_ch.len()];
        for (pos, &h) in p.fwd_half_order.iter().enumerate() {
            half_pos[h as usize] = pos as u32;
        }
        let mut shell_pos = vec![0u32; p.shell_buffered.len()];
        for order in [&p.bwd_shell_order, &p.buffered_shells] {
            for (pos, &s) in order.iter().enumerate() {
                shell_pos[s as usize] = pos as u32;
            }
        }

        // Key fields in node order, at the widths `KeyWriter` packs.
        let mut src_key = vec![0u32; p.src_out_ch.len()];
        let mut shell_key = vec![0u32; p.shell_buffered.len()];
        let mut relay_key = vec![0u32; p.relay_count()];
        let mut bit = 0u32;
        for slot in &p.comp_slots {
            let (field, width) = match *slot {
                CompSlot::Source(i) => (&mut src_key[i as usize], 1),
                CompSlot::Sink(_) => continue,
                CompSlot::Shell(s) => {
                    let s = s as usize;
                    let bufs = if p.shell_buffered[s] {
                        p.shell_in_range(s).len()
                    } else {
                        0
                    };
                    (
                        &mut shell_key[s],
                        (p.shell_out_range(s).len() + bufs) as u32,
                    )
                }
                CompSlot::Full(i) => (&mut relay_key[p.full_relay_row(i as usize) as usize], 2),
                CompSlot::Half(h) => (&mut relay_key[p.half_relay_row(h as usize) as usize], 1),
                CompSlot::Fifo(i) => (
                    &mut relay_key[p.fifo_relay_row(i as usize) as usize],
                    relay_key_width(p.fifo_cap[i as usize]),
                ),
            };
            *field = bit;
            bit += width;
        }
        ReaderIndex {
            fwd_reader,
            stop_reader,
            half_pos,
            shell_pos,
            src_key,
            shell_key,
            relay_key,
        }
    }
}

/// Key bits of a relay of capacity `cap`: ⌈log₂(cap + 1)⌉, the width
/// `KeyWriter::relay` packs.
#[inline]
pub(crate) fn relay_key_width(cap: u32) -> u32 {
    u32::BITS - cap.leading_zeros()
}

/// Why a compiled [`SettleProgram`] failed [`SettleProgram::verify`].
///
/// Each variant names the invariant class that broke; the payload
/// carries enough context to locate the corruption without a debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A compiled table is internally inconsistent: mismatched lengths,
    /// a `comp_slots` row out of node-id order, a channel index out of
    /// bounds, broken CSR geometry, a zero FIFO capacity, or a channel
    /// without exactly one producer and one consumer.
    Table(String),
    /// A settle stratum is not a valid schedule of its rows: the
    /// forward half-relay order or backward shell order is not a
    /// permutation, or violates its dependency direction.
    Stratum(String),
    /// The op tape violates a kernel invariant: wrong arena layout,
    /// strata that do not tile the tape, non-maximal segments, an op
    /// addressing cells out of bounds or writing a constant cell, or a
    /// tape that differs from a fresh emission of the current tables.
    Kernel(String),
    /// A cached section hash disagrees with recomputation from the
    /// tables — an in-place patch forgot to rehash what it touched.
    SectionHash {
        /// Section tag (`1..=N_SECTIONS`).
        tag: u64,
        /// The cached (stale) hash.
        cached: u64,
        /// The hash recomputed from the current tables.
        recomputed: u64,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Table(d) => write!(f, "table invariant violated: {d}"),
            VerifyError::Stratum(d) => write!(f, "stratum invariant violated: {d}"),
            VerifyError::Kernel(d) => write!(f, "op-tape invariant violated: {d}"),
            VerifyError::SectionHash {
                tag,
                cached,
                recomputed,
            } => write!(
                f,
                "section {tag} hash stale: cached {cached:#018x}, tables say {recomputed:#018x}"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

impl SettleProgram {
    /// Statically verify the compiled IR: every table, stratum order,
    /// cached section hash and the op tape are checked against the
    /// invariants [`compile`](Self::compile) establishes.
    ///
    /// This is the safety net under the incremental patch path (see
    /// [`crate::patch`]): a patch that corrupts the program — a stale
    /// hash, a mis-spliced tape, a broken Kahn order — fails here at
    /// the patch site instead of surfacing as a silently wrong
    /// measurement later. Debug builds run it after every patch; the
    /// model checker and CI run it explicitly.
    ///
    /// The check is self-contained (no netlist needed): it validates
    /// internal consistency and re-derives everything derivable —
    /// section hashes, the environment period, the Kahn orders'
    /// dependency properties and a fresh tape emission — from the
    /// tables themselves.
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] found, in table → stratum →
    /// hash → kernel order.
    pub fn verify(&self) -> Result<(), VerifyError> {
        self.verify_tables()?;
        self.verify_strata()?;
        self.verify_section_hashes()?;
        self.kernel.verify(self).map_err(VerifyError::Kernel)?;
        if self.readers != ReaderIndex::build(self) {
            return Err(VerifyError::Stratum(
                "reader index differs from a fresh derivation".into(),
            ));
        }
        Ok(())
    }

    /// Table lengths, `comp_slots` row order, channel bounds, CSR
    /// geometry, capacities, variant cache and the channel
    /// producer/consumer bijection.
    fn verify_tables(&self) -> Result<(), VerifyError> {
        let err = |d: String| Err(VerifyError::Table(d));

        // comp_slots must enumerate each kind's rows in node-id order.
        let mut rows = [0u32; 6];
        for (node, slot) in self.comp_slots.iter().enumerate() {
            let (kind, row) = match *slot {
                CompSlot::Source(r) => (0, r),
                CompSlot::Sink(r) => (1, r),
                CompSlot::Shell(r) => (2, r),
                CompSlot::Full(r) => (3, r),
                CompSlot::Half(r) => (4, r),
                CompSlot::Fifo(r) => (5, r),
            };
            if row != rows[kind] {
                return err(format!(
                    "node {node}: {slot:?} breaks node-id row order (expected row {})",
                    rows[kind]
                ));
            }
            rows[kind] += 1;
        }
        let lens = [
            ("src_out_ch", rows[0] as usize, self.src_out_ch.len()),
            ("src_pattern", rows[0] as usize, self.src_pattern.len()),
            ("snk_node", rows[1] as usize, self.snk_node.len()),
            ("snk_in_ch", rows[1] as usize, self.snk_in_ch.len()),
            ("snk_pattern", rows[1] as usize, self.snk_pattern.len()),
            (
                "shell_buffered",
                rows[2] as usize,
                self.shell_buffered.len(),
            ),
            ("full_in_ch", rows[3] as usize, self.full_in_ch.len()),
            ("full_out_ch", rows[3] as usize, self.full_out_ch.len()),
            ("half_in_ch", rows[4] as usize, self.half_in_ch.len()),
            ("half_out_ch", rows[4] as usize, self.half_out_ch.len()),
            ("fifo_in_ch", rows[5] as usize, self.fifo_in_ch.len()),
            ("fifo_out_ch", rows[5] as usize, self.fifo_out_ch.len()),
            ("fifo_cap", rows[5] as usize, self.fifo_cap.len()),
        ];
        for (name, want, got) in lens {
            if want != got {
                return err(format!("{name}: {got} rows, comp_slots say {want}"));
            }
        }

        // Shell CSR geometry.
        for (name, off, flat) in [
            ("shell_in", &self.shell_in_off, self.shell_in_ch.len()),
            ("shell_out", &self.shell_out_off, self.shell_out_ch.len()),
        ] {
            if off.len() != self.shell_buffered.len() + 1 {
                return err(format!("{name}_off: {} entries", off.len()));
            }
            if off[0] != 0 || off.windows(2).any(|w| w[0] > w[1]) {
                return err(format!("{name}_off not monotone from 0: {off:?}"));
            }
            if *off.last().expect("non-empty") as usize != flat {
                return err(format!(
                    "{name}_off ends at {:?}, flat len {flat}",
                    off.last()
                ));
            }
        }

        if self.fifo_cap.contains(&0) {
            return err("zero-capacity FIFO relay".into());
        }
        if self.discards != self.variant.discards_stop_on_void() {
            return err(format!(
                "discards cache {} contradicts variant {:?}",
                self.discards, self.variant
            ));
        }

        // Every channel: exactly one producer and one consumer.
        let mut produced = vec![0u8; self.n_channels];
        let mut consumed = vec![0u8; self.n_channels];
        let tally = |chs: &[u32], side: &mut Vec<u8>, what: &str| -> Result<(), VerifyError> {
            for &ch in chs {
                let Some(slot) = side.get_mut(ch as usize) else {
                    return Err(VerifyError::Table(format!(
                        "{what}: channel {ch} out of bounds ({} channels)",
                        self.n_channels
                    )));
                };
                *slot += 1;
            }
            Ok(())
        };
        tally(&self.src_out_ch, &mut produced, "src_out_ch")?;
        tally(&self.shell_out_ch, &mut produced, "shell_out_ch")?;
        tally(&self.full_out_ch, &mut produced, "full_out_ch")?;
        tally(&self.half_out_ch, &mut produced, "half_out_ch")?;
        tally(&self.fifo_out_ch, &mut produced, "fifo_out_ch")?;
        tally(&self.snk_in_ch, &mut consumed, "snk_in_ch")?;
        tally(&self.shell_in_ch, &mut consumed, "shell_in_ch")?;
        tally(&self.full_in_ch, &mut consumed, "full_in_ch")?;
        tally(&self.half_in_ch, &mut consumed, "half_in_ch")?;
        tally(&self.fifo_in_ch, &mut consumed, "fifo_in_ch")?;
        for ch in 0..self.n_channels {
            if produced[ch] != 1 || consumed[ch] != 1 {
                return err(format!(
                    "channel {ch}: {} producers, {} consumers",
                    produced[ch], consumed[ch]
                ));
            }
        }

        // Environment period is a pure fold over the patterns.
        let env_period = env_period(self.src_pattern.iter().chain(&self.snk_pattern));
        if env_period != self.env_period {
            return err(format!(
                "env_period {:?} but patterns fold to {env_period:?}",
                self.env_period
            ));
        }
        Ok(())
    }

    /// The two Kahn orders and the buffered-shell list.
    fn verify_strata(&self) -> Result<(), VerifyError> {
        let err = |d: String| Err(VerifyError::Stratum(d));

        // Forward half order: a permutation that settles feeders first.
        let halves = self.half_in_ch.len();
        let mut pos = vec![usize::MAX; halves];
        for (i, &h) in self.fwd_half_order.iter().enumerate() {
            match pos.get_mut(h as usize) {
                Some(p) if *p == usize::MAX => *p = i,
                _ => return err(format!("fwd_half_order: row {h} repeated or out of range")),
            }
        }
        if self.fwd_half_order.len() != halves {
            return err(format!(
                "fwd_half_order covers {} of {halves} half relays",
                self.fwd_half_order.len()
            ));
        }
        let mut half_producer = vec![u32::MAX; self.n_channels];
        for (h, &ch) in self.half_out_ch.iter().enumerate() {
            half_producer[ch as usize] = h as u32;
        }
        for h in 0..halves {
            let up = half_producer[self.half_in_ch[h] as usize];
            if up != u32::MAX && pos[up as usize] >= pos[h] {
                return err(format!(
                    "fwd_half_order: half {h} settles before feeder {up}"
                ));
            }
        }

        // Backward shell order: a permutation of the unbuffered rows
        // that settles downstream consumers first; buffered_shells is
        // exactly the complementary sorted list.
        let shells = self.shell_buffered.len();
        let mut spos = vec![usize::MAX; shells];
        for (i, &s) in self.bwd_shell_order.iter().enumerate() {
            let s = s as usize;
            if s >= shells || self.shell_buffered[s] || spos[s] != usize::MAX {
                return err(format!("bwd_shell_order: row {s} invalid or repeated"));
            }
            spos[s] = i;
        }
        let unbuffered = self.shell_buffered.iter().filter(|&&b| !b).count();
        if self.bwd_shell_order.len() != unbuffered {
            return err(format!(
                "bwd_shell_order covers {} of {unbuffered} unbuffered shells",
                self.bwd_shell_order.len()
            ));
        }
        let expect_buffered: Vec<u32> = (0..shells as u32)
            .filter(|&s| self.shell_buffered[s as usize])
            .collect();
        if self.buffered_shells != expect_buffered {
            return err(format!(
                "buffered_shells {:?} != flags {expect_buffered:?}",
                self.buffered_shells
            ));
        }
        let mut shell_consumer = vec![u32::MAX; self.n_channels];
        for s in 0..shells {
            if self.shell_buffered[s] {
                continue;
            }
            for k in self.shell_in_range(s) {
                shell_consumer[self.shell_in_ch[k] as usize] = s as u32;
            }
        }
        for s in 0..shells {
            if self.shell_buffered[s] {
                continue;
            }
            for k in self.shell_out_range(s) {
                let t = shell_consumer[self.shell_out_ch[k] as usize];
                if t != u32::MAX && spos[t as usize] >= spos[s] {
                    return err(format!(
                        "bwd_shell_order: shell {s} settles before consumer {t}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Every cached section hash against a recomputation.
    fn verify_section_hashes(&self) -> Result<(), VerifyError> {
        let mut fresh = self.clone();
        fresh.rehash_sections(1..=N_SECTIONS as u64);
        for (i, (&cached, &recomputed)) in self
            .section_hashes
            .iter()
            .zip(&fresh.section_hashes)
            .enumerate()
        {
            if cached != recomputed {
                return Err(VerifyError::SectionHash {
                    tag: i as u64 + 1,
                    cached,
                    recomputed,
                });
            }
        }
        Ok(())
    }
}

/// Least common multiple with the conventions the environment-period
/// fold needs (`lcm(0, x)` behaves like `max`, never returns 0).
pub(crate) fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a.max(b).max(1);
    }
    (a / gcd(a, b)).saturating_mul(b)
}

/// Greatest common divisor (`gcd(0, x) = x`).
pub(crate) fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// The environment period a control-state key folds the cycle into:
/// the lcm of every pattern period, `None` when any is aperiodic.
pub(crate) fn env_period<'a>(patterns: impl IntoIterator<Item = &'a Pattern>) -> Option<u64> {
    patterns
        .into_iter()
        .try_fold(1, |acc, p| Some(lcm(acc, p.period()?)))
}

/// Injective word encoding of a [`Pattern`] for
/// [`SettleProgram::stable_structural_hash`]: discriminant, then the
/// variant's fields (cyclic bits length-prefixed so `[true]` and
/// `[true, false]` stay distinct from field-count coincidences).
fn pattern_words(p: &Pattern, out: &mut Vec<u64>) {
    match p {
        Pattern::Never => out.push(0),
        Pattern::Always => out.push(1),
        Pattern::EveryNth { period, phase } => {
            out.push(2);
            out.push(u64::from(*period));
            out.push(u64::from(*phase));
        }
        Pattern::Random { num, denom, seed } => {
            out.push(3);
            out.push(u64::from(*num));
            out.push(u64::from(*denom));
            out.push(*seed);
        }
        Pattern::Cyclic(bits) => {
            out.push(4);
            out.push(bits.len() as u64);
            out.extend(bits.iter().map(|&b| u64::from(b)));
        }
    }
}

/// Kahn topological sort of `0..n` under `deps` (`deps(i)` must settle
/// before `i`). `None` if cyclic.
pub(crate) fn kahn(n: usize, deps: impl Fn(usize) -> Vec<usize>) -> Option<Vec<usize>> {
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indegree = vec![0usize; n];
    for (i, slot) in indegree.iter_mut().enumerate() {
        for d in deps(i) {
            dependents[d].push(i);
            *slot += 1;
        }
    }
    let mut queue: VecDeque<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut out = Vec::with_capacity(n);
    while let Some(i) = queue.pop_front() {
        out.push(i);
        for &d in &dependents[i] {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                queue.push_back(d);
            }
        }
    }
    (out.len() == n).then_some(out)
}

/// Per-entry mix for section hashes: a splitmix64 finalizer over the
/// entry word salted with its section tag and position. Section hashes
/// XOR these together (see
/// [`rehash_sections`](SettleProgram::rehash_sections)), so replacing
/// one entry updates the hash with two mixes instead of a full
/// section pass — the O(1) step a capacity patch relies on.
#[inline]
#[must_use]
pub(crate) fn section_entry_hash(tag: u64, pos: u64, word: u64) -> u64 {
    let mut z = word ^ (tag << 56) ^ pos.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a word slice: a stable hash for control states.
///
/// Periodicity detection compares hashes across runs and (via persisted
/// experiment output) across processes; `DefaultHasher` is explicitly
/// unstable between releases, so the engines use this fixed function
/// instead. Length is folded in first so prefixes don't collide.
#[must_use]
pub fn stable_hash(words: &[u64]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(words.len() as u64);
    for &w in words {
        mix(w);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_graph::generate;

    #[test]
    fn compiles_fig1() {
        let f = generate::fig1();
        let p = SettleProgram::compile(&f.netlist).unwrap();
        assert_eq!(p.source_count(), 1);
        assert_eq!(p.sink_count(), 1);
        assert_eq!(p.shell_count(), 3);
        assert_eq!(p.comp_slots.len(), f.netlist.node_count());
        assert_eq!(p.env_period(), Some(1));
    }

    #[test]
    fn half_chains_settle_upstream_first() {
        use lip_core::RelayKind;
        let r = generate::ring(2, 3, RelayKind::Half);
        let p = SettleProgram::compile(&r.netlist).unwrap();
        // Every half relay fed by another half relay must come later.
        let mut pos = vec![0usize; p.half_in_ch.len()];
        for (i, &h) in p.fwd_half_order.iter().enumerate() {
            pos[h as usize] = i;
        }
        let mut producer_of = vec![u32::MAX; p.n_channels];
        for (h, &ch) in p.half_out_ch.iter().enumerate() {
            producer_of[ch as usize] = h as u32;
        }
        for h in 0..p.half_in_ch.len() {
            let up = producer_of[p.half_in_ch[h] as usize];
            if up != u32::MAX {
                assert!(
                    pos[up as usize] < pos[h],
                    "half {h} settled before feeder {up}"
                );
            }
        }
    }

    #[test]
    fn verify_accepts_fresh_compiles() {
        use lip_core::RelayKind;
        for netlist in [
            generate::fig1().netlist,
            generate::ring(2, 3, RelayKind::Full).netlist,
            generate::ring(2, 2, RelayKind::Half).netlist,
            generate::ring(2, 1, RelayKind::Fifo(3)).netlist,
            generate::chain(3, 2, RelayKind::Fifo(5)).netlist,
        ] {
            let p = SettleProgram::compile(&netlist).unwrap();
            p.verify().expect("fresh compile verifies");
        }
    }

    #[test]
    fn verify_catches_table_corruption() {
        let p = SettleProgram::compile(&generate::fig1().netlist).unwrap();

        // Dangling channel index.
        let mut bad = p.clone();
        bad.snk_in_ch[0] = bad.n_channels as u32 + 7;
        assert!(matches!(bad.verify(), Err(VerifyError::Table(_))));

        // Duplicate consumer (channel bijection broken).
        let mut bad = p.clone();
        bad.snk_in_ch[0] = bad.shell_in_ch[0];
        assert!(matches!(bad.verify(), Err(VerifyError::Table(_))));

        // Stale environment period.
        let mut bad = p.clone();
        bad.env_period = Some(42);
        assert!(matches!(bad.verify(), Err(VerifyError::Table(_))));
    }

    #[test]
    fn verify_catches_stratum_corruption() {
        use lip_core::RelayKind;
        let p = SettleProgram::compile(&generate::ring(2, 3, RelayKind::Half).netlist).unwrap();
        let mut bad = p.clone();
        bad.fwd_half_order.reverse();
        assert!(matches!(bad.verify(), Err(VerifyError::Stratum(_))));

        let p = SettleProgram::compile(&generate::chain(3, 0, RelayKind::Full).netlist).unwrap();
        let mut bad = p.clone();
        bad.bwd_shell_order.reverse();
        assert!(matches!(bad.verify(), Err(VerifyError::Stratum(_))));
    }

    #[test]
    fn verify_catches_stale_section_hashes() {
        use lip_core::RelayKind;
        let p = SettleProgram::compile(&generate::ring(2, 1, RelayKind::Fifo(3)).netlist).unwrap();
        // A capacity edit without the O(1) hash fixup: tag 9 is stale.
        let mut bad = p.clone();
        bad.fifo_cap[0] = 2;
        let mut kernel = std::mem::take(&mut bad.kernel);
        kernel.patch_fifo_capacity(&bad, 0, 3);
        bad.kernel = kernel;
        assert!(matches!(
            bad.verify(),
            Err(VerifyError::SectionHash { tag: 9, .. })
        ));
    }

    #[test]
    fn verify_catches_tape_corruption() {
        use lip_core::RelayKind;
        let p = SettleProgram::compile(&generate::ring(2, 1, RelayKind::Fifo(3)).netlist).unwrap();
        // Tables edited (with hashes maintained) but the tape not
        // re-emitted: the FIFO compare run still spells the old
        // capacity, so the fresh-emission equality check fires.
        let mut bad = p.clone();
        bad.section_hashes[8] ^=
            section_entry_hash(9, 0, u64::from(bad.fifo_cap[0])) ^ section_entry_hash(9, 0, 2);
        bad.fifo_cap[0] = 2;
        assert!(matches!(bad.verify(), Err(VerifyError::Kernel(_))));
    }

    #[test]
    fn stable_hash_is_stable_and_length_aware() {
        // Golden values: these must never change across releases.
        assert_eq!(stable_hash(&[]), stable_hash(&[]));
        assert_ne!(stable_hash(&[0]), stable_hash(&[0, 0]));
        assert_ne!(stable_hash(&[1, 2]), stable_hash(&[2, 1]));
        let h = stable_hash(&[0xdead_beef, 42]);
        assert_eq!(h, stable_hash(&[0xdead_beef, 42]));
    }
}
