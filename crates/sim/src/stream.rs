//! The branch-free streaming settle kernel.
//!
//! [`SettleProgram`]'s settle phase is a fixed sequence of lane-word
//! boolean assignments whose *structure* never changes between cycles —
//! only the lane words do. This module compiles that structure once
//! into a flat, stratum-ordered **op tape**: every settle assignment
//! becomes one three-address op (`dst ← f(a, b)`) over a cell arena
//! that holds the engine's entire bit-state, and consecutive ops of the
//! same opcode are grouped into **segments**. Execution then matches on
//! the opcode once per segment and runs a tight homogeneous loop over
//! the ops inside — no per-op dispatch in the hot path: each op is one
//! `u64` [`LaneWord`] operation settling 64 lanes. This is the
//! stream-processor shape (simple ops over a scheduled op stream).
//!
//! The tape is *data*: it is compiled from (and owned by) the
//! [`SettleProgram`], shared via `Arc` with every engine clone, and is
//! deliberately **excluded** from `stable_structural_hash` — the cache
//! key fingerprints the netlist structure, not this execution schedule.
//!
//! # Arena layout
//!
//! Cells are `u32` indices into one `Vec<W>` per engine:
//!
//! | region       | cells                 | contents                    |
//! |--------------|-----------------------|-----------------------------|
//! | constants    | `0`, `1`              | all-zero, all-ones          |
//! | `fwd`        | per channel           | settled valid bits          |
//! | `stop`       | per channel           | settled stop bits           |
//! | `src_valid`  | per source            | offered validity (state)    |
//! | `shell_out`  | per shell out port    | output-register validity    |
//! | `in_buf`     | per shell in port     | input-buffer occupancy      |
//! | `fire`       | per shell             | settled fire condition      |
//! | `full_main`  | per full relay        | main register validity      |
//! | `full_aux`   | per full relay        | aux register validity       |
//! | `half_occ`   | per half relay        | half-relay occupancy        |
//! | `fifo`       | per FIFO bit-plane    | bit-sliced occupancy        |
//! | `snk_stop`   | per sink              | this cycle's stop (staged)  |
//!
//! State regions (`src_valid` through `fifo`) persist across cycles —
//! the engine's clock phase mutates them in place; `fwd`/`stop`/`fire`
//! are recomputed by every tape run.

use lip_obs::KernelCounters;

use crate::lane::LaneWord;
use crate::program::SettleProgram;

/// All-lanes-zero constant cell.
pub(crate) const CELL_ZERO: u32 = 0;

/// Bit-planes a capacity-`cap` FIFO occupancy needs (at least one).
pub(crate) fn fifo_planes(cap: u32) -> u32 {
    (64 - u64::from(cap).leading_zeros()).max(1)
}
/// All-lanes-one constant cell. Engines must initialise this cell to
/// [`LaneWord::ONES`] (and [`CELL_ZERO`] to zero) when allocating the
/// arena; the tape reads but never writes the constant cells.
pub(crate) const CELL_ONES: u32 = 1;

/// One op kind of the tape. Three-address over arena cells `d`, `a`,
/// `b`; `AndOr`/`NandAcc` additionally read `d` (accumulator forms, so
/// a shell's fire condition folds without scratch cells).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Opcode {
    /// `d = a`
    Copy,
    /// `d = a | b`
    Or,
    /// `d = a & b`
    And,
    /// `d = a & !b`
    AndNot,
    /// `d &= a | b`
    AndOr,
    /// `d &= !(a & b)`
    NandAcc,
}

/// Opcode names in [`Opcode::index`] order — the row layout of the
/// kernel execution counters ([`lip_obs::KernelCounters`]).
pub(crate) const OP_NAMES: [&str; 6] = ["copy", "or", "and", "andnot", "andor", "nandacc"];

/// Settle-stratum labels in tape emission order: the two forward
/// (valid) passes, the registered backward (stop) pass, and the two
/// fire strata (unbuffered shells with their stop writes, then
/// buffered shells).
pub(crate) const STRATA: [&str; 5] = [
    "fwd_registered",
    "fwd_half",
    "bwd_registered",
    "fire",
    "fire_buffered",
];

impl Opcode {
    /// Row of this opcode in [`OP_NAMES`].
    fn index(self) -> usize {
        match self {
            Opcode::Copy => 0,
            Opcode::Or => 1,
            Opcode::And => 2,
            Opcode::AndNot => 3,
            Opcode::AndOr => 4,
            Opcode::NandAcc => 5,
        }
    }
}

/// One three-address op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Op {
    d: u32,
    a: u32,
    b: u32,
}

/// A maximal run of consecutive same-opcode ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    op: Opcode,
    start: u32,
    end: u32,
}

/// The compiled settle tape plus the arena layout it addresses (see the
/// [module docs](self)).
///
/// `PartialEq` compares the full tape (layout, ops, segments) — the
/// byte-equality check the incremental patch path is gated on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct StreamKernel {
    /// Total arena cells an engine must allocate.
    pub(crate) cells: usize,
    /// Region bases (cell index of row 0 of each region).
    pub(crate) fwd: u32,
    pub(crate) stop: u32,
    pub(crate) src_valid: u32,
    pub(crate) shell_out: u32,
    pub(crate) in_buf: u32,
    pub(crate) fire: u32,
    pub(crate) full_main: u32,
    pub(crate) full_aux: u32,
    pub(crate) half_occ: u32,
    pub(crate) fifo: u32,
    pub(crate) snk_stop: u32,
    /// FIFO `i` owns planes `fifo + fifo_off[i] .. fifo + fifo_off[i+1]`
    /// (little-endian bit-planes; `len = fifos + 1`).
    pub(crate) fifo_off: Vec<u32>,
    /// Ops per settle stratum, in [`STRATA`] order (fixed at compile:
    /// every settle retires exactly these counts).
    stratum_ops: [u32; STRATA.len()],
    ops: Vec<Op>,
    segments: Vec<Segment>,
}

impl StreamKernel {
    /// Compile the settle tape of `p`. Called once at the end of
    /// [`SettleProgram::compile`]; the emission order mirrors the settle
    /// passes (forward valids, backward stops, fire strata) exactly, so
    /// running the tape is bit-identical to the former inline settle.
    pub(crate) fn compile(p: &SettleProgram) -> Self {
        let mut k = StreamKernel::default();
        k.rebuild(p);
        k
    }

    /// Re-emit the whole tape from `p`'s current tables, reusing this
    /// kernel's allocations (`ops`, `segments`, `fifo_off`). This is the
    /// fallback of the patch path: no netlist walk, no validation, no
    /// Kahn re-stratification and no heap growth on steady-state sizes —
    /// only the emission loops — yet the result is byte-identical to a
    /// from-scratch [`compile`](Self::compile).
    pub(crate) fn rebuild(&mut self, p: &SettleProgram) {
        let n_ch = p.n_channels as u32;
        self.ops.clear();
        self.segments.clear();
        self.fifo_off.clear();
        let mut plane_words = 0u32;
        self.fifo_off.push(plane_words);
        for &cap in &p.fifo_cap {
            plane_words += fifo_planes(cap);
            self.fifo_off.push(plane_words);
        }
        let mut next = 2u32;
        let mut region = |len: usize| {
            let base = next;
            next += len as u32;
            base
        };
        self.fwd = region(p.n_channels);
        self.stop = region(p.n_channels);
        self.src_valid = region(p.src_out_ch.len());
        self.shell_out = region(p.shell_out_ch.len());
        self.in_buf = region(p.shell_in_ch.len());
        self.fire = region(p.shell_buffered.len());
        self.full_main = region(p.full_in_ch.len());
        self.full_aux = region(p.full_in_ch.len());
        self.half_occ = region(p.half_in_ch.len());
        self.fifo = region(plane_words as usize);
        self.snk_stop = region(p.snk_in_ch.len());
        self.stratum_ops = [0; STRATA.len()];
        self.cells = next as usize;
        let k = self;
        debug_assert!(k.fwd + n_ch == k.stop);
        let mut stratum_end = [0u32; STRATA.len()];

        // Forward pass 1: registered producers, any order — one long
        // Copy segment (sources, shell outputs, full relays, FIFO
        // plane 0), then the FIFO nonzero-fold Ors.
        for (i, &ch) in p.src_out_ch.iter().enumerate() {
            k.push(Opcode::Copy, k.fwd + ch, k.src_valid + i as u32, CELL_ZERO);
        }
        for (j, &ch) in p.shell_out_ch.iter().enumerate() {
            k.push(Opcode::Copy, k.fwd + ch, k.shell_out + j as u32, CELL_ZERO);
        }
        for (i, &ch) in p.full_out_ch.iter().enumerate() {
            k.push(Opcode::Copy, k.fwd + ch, k.full_main + i as u32, CELL_ZERO);
        }
        for (i, &ch) in p.fifo_out_ch.iter().enumerate() {
            k.push(Opcode::Copy, k.fwd + ch, k.fifo + k.fifo_off[i], CELL_ZERO);
        }
        for (i, &ch) in p.fifo_out_ch.iter().enumerate() {
            for plane in k.fifo_off[i] + 1..k.fifo_off[i + 1] {
                k.push(Opcode::Or, k.fwd + ch, k.fwd + ch, k.fifo + plane);
            }
        }
        stratum_end[0] = k.ops.len() as u32;
        // Forward pass 2: half-relay chains, upstream first (the order
        // matters; all Or, so the segment continues).
        for &h in &p.fwd_half_order {
            let h = h as usize;
            k.push(
                Opcode::Or,
                k.fwd + p.half_out_ch[h],
                k.half_occ + h as u32,
                k.fwd + p.half_in_ch[h],
            );
        }

        stratum_end[1] = k.ops.len() as u32;
        // Backward pass 1: registered stops, any order — sinks, full
        // aux, half occupancy, buffered-shell input buffers (Copy), then
        // the FIFO at-capacity comparisons (plane-wise And/AndNot).
        for (j, &ch) in p.snk_in_ch.iter().enumerate() {
            k.push(Opcode::Copy, k.stop + ch, k.snk_stop + j as u32, CELL_ZERO);
        }
        for (i, &ch) in p.full_in_ch.iter().enumerate() {
            k.push(Opcode::Copy, k.stop + ch, k.full_aux + i as u32, CELL_ZERO);
        }
        for (h, &ch) in p.half_in_ch.iter().enumerate() {
            k.push(Opcode::Copy, k.stop + ch, k.half_occ + h as u32, CELL_ZERO);
        }
        for &s in &p.buffered_shells {
            for j in p.shell_in_range(s as usize) {
                k.push(
                    Opcode::Copy,
                    k.stop + p.shell_in_ch[j],
                    k.in_buf + j as u32,
                    CELL_ZERO,
                );
            }
        }
        for (i, &ch) in p.fifo_in_ch.iter().enumerate() {
            // stop = AND over planes of (plane == capacity bit):
            // capacity bit 1 contributes `plane`, bit 0 contributes
            // `!plane`.
            let cap = u64::from(p.fifo_cap[i]);
            let d = k.stop + ch;
            for (b, plane) in (k.fifo_off[i]..k.fifo_off[i + 1]).enumerate() {
                let pl = k.fifo + plane;
                let first = b == 0;
                match ((cap >> b) & 1 == 1, first) {
                    (true, true) => k.push(Opcode::Copy, d, pl, CELL_ZERO),
                    (true, false) => k.push(Opcode::And, d, d, pl),
                    (false, true) => k.push(Opcode::AndNot, d, CELL_ONES, pl),
                    (false, false) => k.push(Opcode::AndNot, d, d, pl),
                }
            }
        }

        stratum_end[2] = k.ops.len() as u32;
        // Backward pass 2: unbuffered shells, downstream first. Each
        // shell folds its fire condition into its fire cell, then
        // writes its input stops — the ordering the stop stratification
        // requires, so segments necessarily break per shell here.
        for &s in &p.bwd_shell_order {
            let s = s as usize;
            k.emit_fire(p, s, false);
            for j in p.shell_in_range(s) {
                let ch = p.shell_in_ch[j];
                // stop = !fire, masked to informative lanes under the
                // refined variant (stop-on-void discard).
                let a = if p.discards { k.fwd + ch } else { CELL_ONES };
                k.push(Opcode::AndNot, k.stop + ch, a, k.fire + s as u32);
            }
        }
        stratum_end[3] = k.ops.len() as u32;
        // Pass 3: buffered shells fire once every stop has settled
        // (their input stops are registered — nothing more to write).
        for &s in &p.buffered_shells {
            k.emit_fire(p, s as usize, true);
        }
        stratum_end[4] = k.ops.len() as u32;
        let mut prev = 0u32;
        for (slot, &end) in k.stratum_ops.iter_mut().zip(&stratum_end) {
            *slot = end - prev;
            prev = end;
        }
    }

    /// Splice the tape after FIFO `row`'s capacity changed from
    /// `old_cap` to `p.fifo_cap[row]` (the tables are already updated).
    ///
    /// When the bit-plane count is unchanged the settle order — and
    /// every cell and op position — is unchanged too: only the
    /// at-capacity compare run of this one FIFO re-encodes (its opcodes
    /// spell the capacity bits), so the run is rewritten in place and
    /// the segment list re-derived. A plane-count change shifts arena
    /// regions and op counts, so it falls back to the in-place
    /// [`rebuild`](Self::rebuild).
    pub(crate) fn patch_fifo_capacity(&mut self, p: &SettleProgram, row: usize, old_cap: u32) {
        let new_cap = p.fifo_cap[row];
        if fifo_planes(old_cap) != fifo_planes(new_cap) {
            self.rebuild(p);
            return;
        }
        // The compare run sits in the registered backward stratum, after
        // the sink / full-aux / half-occ / buffered-input copies and the
        // compare runs of every earlier FIFO.
        let buffered_inputs: usize = p
            .buffered_shells
            .iter()
            .map(|&s| p.shell_in_range(s as usize).len())
            .sum();
        let lo = (self.stratum_ops[0] + self.stratum_ops[1] + self.fifo_off[row]) as usize
            + p.snk_in_ch.len()
            + p.full_in_ch.len()
            + p.half_in_ch.len()
            + buffered_inputs;
        let cap = u64::from(new_cap);
        let d = self.stop + p.fifo_in_ch[row];
        let mut repl = Vec::with_capacity((self.fifo_off[row + 1] - self.fifo_off[row]) as usize);
        for (b, plane) in (self.fifo_off[row]..self.fifo_off[row + 1]).enumerate() {
            let pl = self.fifo + plane;
            let first = b == 0;
            repl.push(match ((cap >> b) & 1 == 1, first) {
                (true, true) => (
                    Opcode::Copy,
                    Op {
                        d,
                        a: pl,
                        b: CELL_ZERO,
                    },
                ),
                (true, false) => (Opcode::And, Op { d, a: d, b: pl }),
                (false, true) => (
                    Opcode::AndNot,
                    Op {
                        d,
                        a: CELL_ONES,
                        b: pl,
                    },
                ),
                (false, false) => (Opcode::AndNot, Op { d, a: d, b: pl }),
            });
        }
        self.splice_ops(lo, &repl);
    }

    /// Overwrite ops `lo..lo + repl.len()` (opcode and operands) and
    /// re-derive the segment list *locally*. Segments are the maximal
    /// same-opcode run decomposition of the opcode sequence — exactly
    /// what [`push`](Self::push) builds incrementally — and a
    /// same-length overwrite can only change runs that overlap the
    /// patched window: the untouched remainder of the boundary
    /// segments keeps its opcode, so changes cannot cascade further.
    /// The window's runs are restitched from the unchanged prefix, the
    /// replacement opcodes and the unchanged suffix, then absorbed
    /// into the neighbouring segments where opcodes now agree —
    /// reproducing a fresh compile's segments byte-for-byte at
    /// O(replacement) cost instead of O(tape), the difference between
    /// a capacity patch and a recompile on large programs.
    fn splice_ops(&mut self, lo: usize, repl: &[(Opcode, Op)]) {
        let hi = lo + repl.len();
        debug_assert!(!repl.is_empty() && hi <= self.ops.len());
        // First and last segments overlapping [lo, hi).
        let i0 = self.segments.partition_point(|s| s.end as usize <= lo);
        let i1 = self.segments.partition_point(|s| (s.end as usize) < hi);
        for (i, &(_, o)) in repl.iter().enumerate() {
            self.ops[lo + i] = o;
        }
        let mut runs: Vec<Segment> = Vec::new();
        let s0 = self.segments[i0];
        if (s0.start as usize) < lo {
            runs.push(Segment {
                op: s0.op,
                start: s0.start,
                end: lo as u32,
            });
        }
        for (i, &(op, _)) in repl.iter().enumerate() {
            let at = (lo + i) as u32;
            match runs.last_mut() {
                Some(seg) if seg.op == op => seg.end += 1,
                _ => runs.push(Segment {
                    op,
                    start: at,
                    end: at + 1,
                }),
            }
        }
        let s1 = self.segments[i1];
        if hi < s1.end as usize {
            match runs.last_mut() {
                Some(seg) if seg.op == s1.op => seg.end = s1.end,
                _ => runs.push(Segment {
                    op: s1.op,
                    start: hi as u32,
                    end: s1.end,
                }),
            }
        }
        // Absorb untouched neighbours whose opcode now matches a
        // boundary run. (If part of a boundary segment survived inside
        // `runs`, its opcode is unchanged and still maximal against the
        // neighbour, so these checks fail exactly when they must.)
        let mut w0 = i0;
        if w0 > 0 && self.segments[w0 - 1].op == runs[0].op {
            w0 -= 1;
            runs[0].start = self.segments[w0].start;
        }
        let mut w1 = i1;
        let last = runs.last_mut().expect("window is non-empty");
        if w1 + 1 < self.segments.len() && self.segments[w1 + 1].op == last.op {
            w1 += 1;
            last.end = self.segments[w1].end;
        }
        self.segments.splice(w0..=w1, runs);
    }

    /// Fold shell `s`'s fire condition into its fire cell: AND over
    /// available inputs (`in_buf | fwd` when buffered), then clear
    /// lanes where an output port blocks (`stop`, masked by the output
    /// register under the refined variant).
    fn emit_fire(&mut self, p: &SettleProgram, s: usize, buffered: bool) {
        let d = self.fire + s as u32;
        let mut first = true;
        for j in p.shell_in_range(s) {
            let v = self.fwd + p.shell_in_ch[j];
            match (buffered, first) {
                (false, true) => self.push(Opcode::Copy, d, v, CELL_ZERO),
                (false, false) => self.push(Opcode::And, d, d, v),
                (true, true) => self.push(Opcode::Or, d, self.in_buf + j as u32, v),
                (true, false) => self.push(Opcode::AndOr, d, self.in_buf + j as u32, v),
            }
            first = false;
        }
        if first {
            self.push(Opcode::Copy, d, CELL_ONES, CELL_ZERO);
        }
        for j in p.shell_out_range(s) {
            let stp = self.stop + p.shell_out_ch[j];
            let gate = if p.discards {
                self.shell_out + j as u32
            } else {
                CELL_ONES
            };
            self.push(Opcode::NandAcc, d, stp, gate);
        }
    }

    fn push(&mut self, op: Opcode, d: u32, a: u32, b: u32) {
        match self.segments.last_mut() {
            Some(seg) if seg.op == op => seg.end += 1,
            _ => self.segments.push(Segment {
                op,
                start: self.ops.len() as u32,
                end: self.ops.len() as u32 + 1,
            }),
        }
        self.ops.push(Op { d, a, b });
    }

    /// Ops on the tape.
    pub(crate) fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Check every kernel invariant against `p`'s current tables: the
    /// arena region layout, the FIFO plane CSR, stratum tiling, segment
    /// maximality, cell bounds, constant-cell immutability — and, the
    /// strongest check, byte-equality with a fresh emission. Called by
    /// [`SettleProgram::verify`]; errors are strings so the caller can
    /// wrap them in its own error type.
    pub(crate) fn verify(&self, p: &SettleProgram) -> Result<(), String> {
        // Recompute the arena layout from the tables.
        let mut plane_words = 0u32;
        let mut fifo_off = vec![0u32];
        for &cap in &p.fifo_cap {
            plane_words += fifo_planes(cap);
            fifo_off.push(plane_words);
        }
        if self.fifo_off != fifo_off {
            return Err(format!(
                "fifo_off {:?} != plane CSR {fifo_off:?} from capacities",
                self.fifo_off
            ));
        }
        let mut next = 2u32;
        let mut region = |len: usize| {
            let base = next;
            next += len as u32;
            base
        };
        let bases = [
            ("fwd", self.fwd, region(p.n_channels)),
            ("stop", self.stop, region(p.n_channels)),
            ("src_valid", self.src_valid, region(p.src_out_ch.len())),
            ("shell_out", self.shell_out, region(p.shell_out_ch.len())),
            ("in_buf", self.in_buf, region(p.shell_in_ch.len())),
            ("fire", self.fire, region(p.shell_buffered.len())),
            ("full_main", self.full_main, region(p.full_in_ch.len())),
            ("full_aux", self.full_aux, region(p.full_in_ch.len())),
            ("half_occ", self.half_occ, region(p.half_in_ch.len())),
            ("fifo", self.fifo, region(plane_words as usize)),
            ("snk_stop", self.snk_stop, region(p.snk_in_ch.len())),
        ];
        for (name, got, want) in bases {
            if got != want {
                return Err(format!("{name} region base {got}, layout says {want}"));
            }
        }
        if self.cells != next as usize {
            return Err(format!("{} arena cells, layout says {next}", self.cells));
        }

        // Strata tile the tape.
        let total: u32 = self.stratum_ops.iter().sum();
        if total as usize != self.ops.len() {
            return Err(format!(
                "stratum_ops {:?} sum to {total}, tape has {} ops",
                self.stratum_ops,
                self.ops.len()
            ));
        }

        // Segments are a maximal same-opcode tiling of the tape.
        let mut prev_end = 0u32;
        let mut prev_op: Option<Opcode> = None;
        for seg in &self.segments {
            if seg.start != prev_end || seg.end <= seg.start {
                return Err(format!("segment {seg:?} breaks the tiling at {prev_end}"));
            }
            if prev_op == Some(seg.op) {
                return Err(format!(
                    "segment {seg:?} not maximal (same opcode as prior)"
                ));
            }
            prev_end = seg.end;
            prev_op = Some(seg.op);
        }
        if prev_end as usize != self.ops.len() {
            return Err(format!(
                "segments end at {prev_end}, tape has {} ops",
                self.ops.len()
            ));
        }

        // Cell bounds; the constant cells are read-only.
        for (i, o) in self.ops.iter().enumerate() {
            let cells = self.cells as u32;
            if o.d >= cells || o.a >= cells || o.b >= cells {
                return Err(format!("op {i} {o:?} addresses beyond {cells} cells"));
            }
            if o.d == CELL_ZERO || o.d == CELL_ONES {
                return Err(format!("op {i} {o:?} writes a constant cell"));
            }
        }

        // Byte-equality with a fresh emission from the same tables.
        if *self != StreamKernel::compile(p) {
            return Err("tape differs from a fresh emission of the current tables".into());
        }
        Ok(())
    }

    /// Homogeneous segments on the tape.
    #[cfg(test)]
    fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Run the tape over `arena` (length [`StreamKernel::cells`]). One
    /// opcode match per segment; the inner loops are homogeneous
    /// three-address lane-word ops.
    #[inline]
    pub(crate) fn execute<W: LaneWord>(&self, arena: &mut [W]) {
        for seg in &self.segments {
            let ops = &self.ops[seg.start as usize..seg.end as usize];
            match seg.op {
                Opcode::Copy => {
                    for o in ops {
                        arena[o.d as usize] = arena[o.a as usize];
                    }
                }
                Opcode::Or => {
                    for o in ops {
                        let v = arena[o.a as usize].or(arena[o.b as usize]);
                        arena[o.d as usize] = v;
                    }
                }
                Opcode::And => {
                    for o in ops {
                        let v = arena[o.a as usize].and(arena[o.b as usize]);
                        arena[o.d as usize] = v;
                    }
                }
                Opcode::AndNot => {
                    for o in ops {
                        let v = arena[o.a as usize].andnot(arena[o.b as usize]);
                        arena[o.d as usize] = v;
                    }
                }
                Opcode::AndOr => {
                    for o in ops {
                        let v = arena[o.a as usize].or(arena[o.b as usize]);
                        arena[o.d as usize] = arena[o.d as usize].and(v);
                    }
                }
                Opcode::NandAcc => {
                    for o in ops {
                        let v = arena[o.a as usize].and(arena[o.b as usize]);
                        arena[o.d as usize] = arena[o.d as usize].andnot(v);
                    }
                }
            }
        }
    }

    /// [`execute`](Self::execute) with kernel execution counters:
    /// bit-identical arena effect, plus per-opcode and per-stratum ops
    /// retired, and the
    /// `expected_ops` accumulator the reconciliation invariant checks
    /// against. Kept separate from the hot path so the uncounted
    /// settle pays nothing.
    ///
    /// Destination-occupancy popcounting is the dominant cost of the
    /// counted path (it defeats the homogeneous three-address inner
    /// loops), so it only runs when `sample_occupancy` is set; the
    /// caller samples a subset of settles and the per-row `occ_ops`
    /// denominator keeps the occupancy statistic exact over the
    /// sampled ops. Retirement counters are exact on every settle
    /// either way.
    /// Add `settles` unsampled settles' retirement to `kc`: per opcode
    /// ops retired, per stratum ops, `expected_ops` and
    /// the settle count, without occupancy.
    pub(crate) fn retire(&self, kc: &mut KernelCounters, settles: u64) {
        for seg in &self.segments {
            let ops = (seg.end as u64 - seg.start as u64) * settles;
            let row = &mut kc.by_op[seg.op.index()];
            row.ops_retired += ops;
        }
        for (slot, &n) in kc.by_stratum.iter_mut().zip(&self.stratum_ops) {
            slot.1 += u64::from(n) * settles;
        }
        kc.expected_ops += self.ops.len() as u64 * settles;
        kc.settles += settles;
    }

    pub(crate) fn execute_counted<W: LaneWord>(
        &self,
        arena: &mut [W],
        kc: &mut KernelCounters,
        sample_occupancy: bool,
    ) {
        if !sample_occupancy {
            self.execute(arena);
            self.retire(kc, 1);
            return;
        }
        for seg in &self.segments {
            let ops = &self.ops[seg.start as usize..seg.end as usize];
            let mut active = 0u64;
            match seg.op {
                Opcode::Copy => {
                    for o in ops {
                        let v = arena[o.a as usize];
                        active += u64::from(v.count_ones());
                        arena[o.d as usize] = v;
                    }
                }
                Opcode::Or => {
                    for o in ops {
                        let v = arena[o.a as usize].or(arena[o.b as usize]);
                        active += u64::from(v.count_ones());
                        arena[o.d as usize] = v;
                    }
                }
                Opcode::And => {
                    for o in ops {
                        let v = arena[o.a as usize].and(arena[o.b as usize]);
                        active += u64::from(v.count_ones());
                        arena[o.d as usize] = v;
                    }
                }
                Opcode::AndNot => {
                    for o in ops {
                        let v = arena[o.a as usize].andnot(arena[o.b as usize]);
                        active += u64::from(v.count_ones());
                        arena[o.d as usize] = v;
                    }
                }
                Opcode::AndOr => {
                    for o in ops {
                        let v = arena[o.a as usize].or(arena[o.b as usize]);
                        let v = arena[o.d as usize].and(v);
                        active += u64::from(v.count_ones());
                        arena[o.d as usize] = v;
                    }
                }
                Opcode::NandAcc => {
                    for o in ops {
                        let v = arena[o.a as usize].and(arena[o.b as usize]);
                        let v = arena[o.d as usize].andnot(v);
                        active += u64::from(v.count_ones());
                        arena[o.d as usize] = v;
                    }
                }
            }
            let row = &mut kc.by_op[seg.op.index()];
            row.ops_retired += ops.len() as u64;
            row.active_lanes += active;
            row.occ_ops += ops.len() as u64;
        }
        for (slot, &n) in kc.by_stratum.iter_mut().zip(&self.stratum_ops) {
            slot.1 += u64::from(n);
        }
        kc.expected_ops += self.ops.len() as u64;
        kc.settles += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_graph::generate;

    #[test]
    fn fig1_tape_is_segmented() {
        let f = generate::fig1();
        let p = SettleProgram::compile(&f.netlist).unwrap();
        let k = &p.kernel;
        assert!(k.op_count() > 0);
        // The tape batches far better than one segment per op — the
        // forward/backward register passes each fuse into long
        // homogeneous runs.
        assert!(
            k.segment_count() < k.op_count(),
            "{} segments over {} ops",
            k.segment_count(),
            k.op_count()
        );
        // The arena covers both constants and every region.
        assert!(k.cells >= 2 + 2 * p.channel_count());
    }

    #[test]
    fn constants_hold_after_execution() {
        let f = generate::fig1();
        let p = SettleProgram::compile(&f.netlist).unwrap();
        let k = &p.kernel;
        let mut arena = vec![0u64; k.cells];
        arena[CELL_ONES as usize] = !0;
        k.execute(&mut arena);
        assert_eq!(arena[CELL_ZERO as usize], 0);
        assert_eq!(arena[CELL_ONES as usize], !0);
    }

    #[test]
    fn stratum_ops_partition_the_tape() {
        use lip_core::RelayKind;
        // Cover every stratum: fig1 (registered + fire), a half-relay
        // ring (fwd_half) and a FIFO ring (bit-plane compares).
        for netlist in [
            generate::fig1().netlist,
            generate::ring(2, 2, RelayKind::Half).netlist,
            generate::ring(2, 1, RelayKind::Fifo(3)).netlist,
        ] {
            let p = SettleProgram::compile(&netlist).unwrap();
            let k = &p.kernel;
            let total: u32 = k.stratum_ops.iter().sum();
            assert_eq!(total as usize, k.op_count(), "strata must tile the tape");
            assert!(k.stratum_ops[0] > 0, "registered forward pass never empty");
        }
    }

    #[test]
    fn counted_execution_matches_plain_and_reconciles() {
        let f = generate::fig1();
        let p = SettleProgram::compile(&f.netlist).unwrap();
        let k = &p.kernel;
        let mut plain = vec![0u64; k.cells];
        plain[CELL_ONES as usize] = !0;
        // Offer tokens on every source so the tape moves live lanes
        // (an all-zero arena legitimately writes only zero words).
        for i in 0..p.source_count() {
            plain[k.src_valid as usize + i] = !0;
        }
        let mut counted = plain.clone();
        let mut kc = lip_obs::KernelCounters::new(64, &OP_NAMES, &STRATA);
        // Alternate sampled and unsampled settles: retirement stays
        // exact on every settle, occupancy accrues only when sampled.
        for i in 0..4 {
            k.execute(&mut plain);
            k.execute_counted(&mut counted, &mut kc, i % 2 == 0);
        }
        assert_eq!(plain, counted, "counting must not perturb the arena");
        assert_eq!(kc.settles, 4);
        assert_eq!(kc.expected_ops, 4 * k.op_count() as u64);
        assert!(kc.reconciles(), "opcode and stratum totals must tile");
        // The all-ones constant feeds real work: some lanes are active.
        assert!(kc.occupancy() > 0.0);
        // Exactly half the settles sampled occupancy.
        let sampled: u64 = kc.by_op.iter().map(|r| r.occ_ops).sum();
        assert_eq!(sampled, 2 * k.op_count() as u64);
    }
}
