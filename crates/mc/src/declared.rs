//! Declared-environment model checking: the exact lasso proof.
//!
//! Under the environment the netlist *declares* (periodic source void
//! patterns and sink stop patterns), the skeleton is a deterministic
//! finite-state machine: control state × environment phase. Stepping it
//! through the shared [`Lasso`] detector must eventually revisit a
//! state — and because ids are handed out in visit order, the first
//! revisited id *is* the stem length and the visit count minus that id
//! *is* the period. Each visit's lasso row holds the cumulative sink
//! counts only, so one period's token deltas fall out of the revisit
//! with no further simulation; the skeleton's step, whose cost follows
//! the registers that change, banks shell firings and relay peaks as
//! it goes. The reachable state space is exactly the visited set, so
//! everything the checker reports is a proof, not a sample:
//!
//! * **liveness / deadlock** — a shell that never fires inside the
//!   lasso window never fires again, ever: the simulation ends with the
//!   period, so a shell is dead iff its last fire precedes the stem. If
//!   *no* shell fires there the system is deadlocked (the paper's
//!   pathological case);
//! * **throughput** — the sink consumption delta across one period over
//!   the period length is the exact sustained rate, as a [`Ratio`];
//! * **occupancy bounds** — the maximum relay fill seen across the
//!   visited set (the skeleton's relay peaks) is the maximum
//!   *reachable* fill, a certificate that any larger capacity is
//!   unreachable headroom.
//!
//! The whole trajectory is recorded as a replayable [`Schedule`], so a
//! deadlock verdict ships with a cycle-by-cycle counterexample.
//!
//! A pass proves once. [`check_declared`] compiles through the thread's
//! kept program ([`SettleProgram::compile_shared`]), and
//! [`check_declared_and_hand_off`] lets its caller read a proof and
//! then *moves* it into a one-entry, per-thread slot keyed by the
//! netlist's [`stamp`](Netlist::stamp) and `max_states`. The next
//! [`check_declared`] of that netlist and budget takes the proof out
//! (counter `mc.proof.reused`); any other call proves again. Lint hands
//! its proof off this way, so the pipeline's own `check_declared` after
//! lint costs nothing.

use std::cell::RefCell;
use std::sync::Arc;

use lip_graph::{Netlist, NodeId};
use lip_sim::lasso::Lasso;
use lip_sim::{measure::Ratio, SettleProgram, SkeletonSystem};

use crate::schedule::{Counterexample, EnvChoice, Schedule};
use crate::{McConfig, McError};

/// Exhaustive proof over the declared environment: lasso shape,
/// per-shell liveness, exact throughput and relay occupancy bounds.
#[derive(Debug, Clone)]
pub struct DeclaredProof {
    /// Distinct reachable states (= stem + period, every state visited
    /// exactly once).
    pub states: usize,
    /// Cycles before the lasso is entered.
    pub stem: u64,
    /// Lasso length in cycles.
    pub period: u64,
    /// Shells proved to never fire once the lasso is entered.
    pub dead_shells: Vec<NodeId>,
    /// Total shells in the design.
    pub shell_count: usize,
    /// Exact sustained throughput per sink: informative tokens per
    /// cycle across one lasso period.
    pub throughput: Vec<(NodeId, Ratio)>,
    /// Per relay: `(node, max reachable occupancy, capacity)`.
    pub relay_bounds: Vec<(NodeId, u32, u32)>,
    /// The recorded environment schedule covering stem + one period.
    pub schedule: Schedule,
    /// Peak [`StateArena`](lip_sim::lasso::StateArena) footprint in
    /// bytes.
    pub peak_arena_bytes: usize,
}

impl DeclaredProof {
    /// `true` when every shell is dead: a proved whole-system deadlock.
    #[must_use]
    pub fn deadlock(&self) -> bool {
        self.shell_count > 0 && self.dead_shells.len() == self.shell_count
    }

    /// `true` when no shell is dead (the liveness verdict).
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.dead_shells.is_empty()
    }

    /// System throughput: the minimum sink rate; `None` without sinks.
    #[must_use]
    pub fn system_throughput(&self) -> Option<Ratio> {
        self.throughput
            .iter()
            .map(|&(_, r)| r)
            .min_by(|a, b| (a.num() * b.den()).cmp(&(b.num() * a.den())))
    }

    /// The deadlock counterexample: the stem schedule into the wedged
    /// state. `None` unless [`deadlock`](Self::deadlock) holds.
    #[must_use]
    pub fn counterexample(&self, netlist: &Netlist) -> Option<Counterexample> {
        if !self.deadlock() {
            return None;
        }
        // Nothing fires after the stem; the stem prefix of the recorded
        // schedule drives a fresh system into the wedged state, and the
        // lasso-period choices cycled forever keep it there (the wedge
        // is relative to the declared environment — a different one
        // could revive the system).
        let schedule = Schedule {
            choices: self.schedule.choices[..self.stem as usize].to_vec(),
        };
        let continuation = Schedule {
            choices: self.schedule.choices[self.stem as usize..].to_vec(),
        };
        let sys = crate::schedule::replay(netlist, &schedule).ok()?;
        Some(Counterexample {
            stuck_state: sys.component_state(),
            schedule,
            continuation: Some(continuation),
        })
    }
}

/// Model-check `netlist` under its declared environment.
///
/// When [`check_declared_and_hand_off`] has just proved this netlist
/// under the same `max_states`, this takes that proof instead of
/// proving again.
///
/// # Errors
///
/// [`McError::Aperiodic`] when any endpoint pattern is aperiodic (the
/// state space is then not finite in this mode — use the adversarial
/// checker), [`McError::StateCap`] when the reachable space exceeds
/// `cfg.max_states`, and [`McError::Netlist`] from elaboration.
pub fn check_declared(netlist: &Netlist, cfg: &McConfig) -> Result<DeclaredProof, McError> {
    let key = (netlist.stamp(), cfg.max_states);
    // Whatever the slot held is taken out here: handed over on a match,
    // dropped (stale) otherwise.
    if let Some((held, proof)) = HANDED_OFF.take() {
        if held == key {
            lip_obs::flight::global_add("mc.proof.reused", 1);
            return Ok(proof);
        }
    }
    let program = SettleProgram::compile_shared(netlist)?;
    check_declared_compiled(netlist, program, cfg)
}

thread_local! {
    /// The proof [`check_declared_and_hand_off`] last read on this
    /// thread, by (netlist stamp, `max_states`), until the next
    /// [`check_declared`] takes it.
    static HANDED_OFF: RefCell<Option<((u64, usize), DeclaredProof)>> = const { RefCell::new(None) };
}

/// [`check_declared`], with the proof lent to `read` and then handed
/// off: it moves (no clone) into this thread's one-entry slot, where the
/// next [`check_declared`] of the same netlist and `max_states` takes
/// it. Returns what `read` returned.
///
/// # Errors
///
/// As [`check_declared`]; nothing is handed off then.
pub fn check_declared_and_hand_off<T>(
    netlist: &Netlist,
    cfg: &McConfig,
    read: impl FnOnce(&DeclaredProof) -> T,
) -> Result<T, McError> {
    let proof = check_declared(netlist, cfg)?;
    let out = read(&proof);
    HANDED_OFF.set(Some(((netlist.stamp(), cfg.max_states), proof)));
    Ok(out)
}

/// [`check_declared`] on a program already compiled from `netlist` (or
/// patched to match it), for callers that compiled it anyway: the proof
/// neither validates nor compiles again. `netlist` supplies only node
/// ids; the recorded schedule reads the offers and sink stops the
/// skeleton applied.
///
/// # Errors
///
/// As [`check_declared`], less elaboration errors.
pub fn check_declared_compiled(
    netlist: &Netlist,
    program: Arc<SettleProgram>,
    cfg: &McConfig,
) -> Result<DeclaredProof, McError> {
    let mut sys = SkeletonSystem::from_program(program);
    if sys.program().env_period().is_none() {
        return Err(McError::Aperiodic);
    }
    // Sink and shell rows follow `netlist.sinks()`/`shells()` order,
    // relay rows map back to node order through `relay_rows`.
    let sinks = netlist.sinks();
    let shells = netlist.shells();
    let relays = netlist.relays();
    let n_src = netlist.sources().len();

    // One lasso row per visit: the cumulative sink counts. Shell
    // liveness comes from each shell's last fire, relay bounds from
    // the peaks the skeleton raises on fills.
    let mut lasso = Lasso::new(0, sinks.len());
    let mut key = Vec::new();
    // Source offers after each step, `n_src` per cycle, and the stops
    // each step applied at the sinks, `sinks.len()` per cycle.
    let mut offers: Vec<bool> = Vec::new();
    let mut stops: Vec<bool> = Vec::new();

    // The key and row read registers only; `step` settles.
    let (lasso_shape, deltas) = loop {
        key.clear();
        sys.push_control_state(&mut key)
            .expect("periodic environment");
        let row = sys.sink_valid_counts();
        if let Some((p, first)) = lasso.observe(&key, row) {
            // Counts now (at the revisit of state `stem`) minus when
            // `stem` was first visited = exact deltas across one period.
            let deltas: Vec<u64> = row.iter().zip(first).map(|(n, f)| n - f).collect();
            break (p, deltas);
        }
        if lasso.arena().len() > cfg.max_states {
            return Err(McError::StateCap {
                visited: lasso.arena().len(),
                cap: cfg.max_states,
            });
        }
        sys.step();
        offers.extend_from_slice(sys.source_offers());
        stops.extend(sys.sink_stops());
    };
    let (stem, period) = (lasso_shape.transient, lasso_shape.period);
    let throughput = sinks
        .iter()
        .zip(&deltas)
        .map(|(&id, &d)| (id, Ratio::new(d, period)))
        .collect();
    // Dead iff it never fired inside the period `stem..stem + period`,
    // the last cycles simulated.
    let dead_shells = shells
        .iter()
        .zip(sys.shell_last_fires())
        .filter(|&(_, last)| last.is_none_or(|c| c < stem))
        .map(|(&id, _)| id)
        .collect();
    let caps: Vec<u32> = sys.relay_levels().map(|(_, cap)| cap).collect();
    let peaks = sys.relay_peaks();
    let relay_bounds = relays
        .iter()
        .zip(sys.relay_rows())
        .map(|(&id, row)| (id, peaks[row], caps[row]))
        .collect();

    // Post-step offers are the offers for cycle t+1 — recording the
    // held value makes `step_with` replay exact (see `schedule`); sink
    // stops are the ones the step of cycle t applied, the declared
    // patterns at t.
    let n_snk = sinks.len();
    debug_assert_eq!(offers.len() as u64, (stem + period) * n_src as u64);
    debug_assert_eq!(stops.len() as u64, (stem + period) * n_snk as u64);
    let choices = (0..(stem + period) as usize)
        .map(|t| EnvChoice {
            source_valid: offers[t * n_src..][..n_src].to_vec(),
            sink_stop: stops[t * n_snk..][..n_snk].to_vec(),
        })
        .collect();

    Ok(DeclaredProof {
        states: lasso.arena().len(),
        stem,
        period,
        dead_shells,
        shell_count: shells.len(),
        throughput,
        relay_bounds,
        schedule: Schedule { choices },
        peak_arena_bytes: lasso.arena().bytes(),
    })
}
