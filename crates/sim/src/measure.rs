//! Throughput, transient and liveness measurement.
//!
//! The paper's quantitative claims are about *steady state*: "after a
//! number of clock cycles that are dependent on the system each part of
//! it behaves in a periodic fashion". These helpers detect that periodic
//! regime by keying the control state every cycle into a lasso, then
//! measure throughput exactly — as a rational number of informative
//! tokens per period — so the closed-form fractions (`4/5`, `S/(S+R)`)
//! can be asserted without floating-point tolerance.
//! [`measure_with`], [`measure_activity`] and [`check_liveness`] are
//! views of one [`SkeletonSystem`] pass over the compiled
//! [`SettleProgram`]; [`System`] serves only [`find_periodicity`], the
//! tests' oracle.

use std::sync::Arc;

use lip_graph::{Netlist, NetlistError, NodeId};
use lip_obs::{
    rec_span, KernelCounters, NullProgress, NullRecorder, ProgressSink, ProgressSnapshot, Recorder,
};

use crate::batch::{BatchEngine, BatchSkeleton, LanePatterns, LANES};
use crate::lane::LaneWord;
use crate::lasso::{Close, Lasso, PlaneLasso};
use crate::program::{gcd, SettleProgram};
use crate::skeleton::SkeletonSystem;
use crate::system::System;

/// An exact non-negative rational (e.g. a throughput of `4/5`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: u64,
    den: u64,
}

impl Ratio {
    /// `num/den`, reduced. A whole number (`den == 1`) or zero is
    /// already reduced, so it takes no gcd and no division: most of a
    /// sweep's sinks × lanes throughput table is one of the two.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    #[must_use]
    pub fn new(num: u64, den: u64) -> Self {
        assert!(den != 0, "ratio denominator must be non-zero");
        if den == 1 || num == 0 {
            return Ratio {
                num,
                den: if num == 0 { 1 } else { den },
            };
        }
        let g = gcd(num, den);
        Ratio {
            num: num / g,
            den: den / g,
        }
    }

    /// Reduced numerator.
    #[must_use]
    pub fn num(self) -> u64 {
        self.num
    }

    /// Reduced denominator.
    #[must_use]
    pub fn den(self) -> u64 {
        self.den
    }

    /// The ratio as a float.
    #[must_use]
    pub fn to_f64(self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            self.num as f64 / self.den as f64
        }
    }
}

impl std::fmt::Display for Ratio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

pub use crate::lasso::Periodicity;

/// Detect the periodic regime of `sys` by stepping it until its control
/// state recurs, within `max_cycles`. Returns `None` when the
/// environment is aperiodic or no repeat shows up in time. The system
/// is left at the recurrence, inside the steady-state regime.
pub fn find_periodicity(sys: &mut System, max_cycles: u64) -> Option<Periodicity> {
    let mut lasso = Lasso::new(sys.cycle(), 0);
    let mut key = Vec::new();
    for _ in 0..max_cycles {
        key.clear();
        sys.push_control_state(&mut key)?;
        if let Some((p, _)) = lasso.observe(&key, &[]) {
            return Some(p);
        }
        sys.step();
    }
    None
}

/// The one scalar steady-state pass: a [`SkeletonSystem`] over `prog`
/// steps through the [`Lasso`], each visit's row holding the cumulative
/// sink tokens then shell fires, so a recurrence yields per-period
/// counts; with none in `max_transient` cycles a `fallback_cycles`
/// window is counted. Returns the periodicity, every sink's then every
/// shell's rate (row order), and the cycles simulated.
fn steady_state(
    prog: &Arc<SettleProgram>,
    opts: MeasureOptions,
) -> (Option<Periodicity>, Vec<Ratio>, u64) {
    let rates = |now: &[u64], then: &[u64], window: u64| -> Vec<Ratio> {
        let counts = now.iter().zip(then);
        counts.map(|(n, t)| Ratio::new(n - t, window)).collect()
    };
    let mut sk = SkeletonSystem::from_program(Arc::clone(prog));
    let mut lasso = Lasso::new(0, prog.sink_count() + prog.shell_count());
    let (mut key, mut row) = (Vec::new(), Vec::new());
    for _ in 0..opts.max_transient {
        key.clear();
        if sk.push_control_state(&mut key).is_none() {
            break;
        }
        row.clear();
        row.extend_from_slice(sk.sink_valid_counts());
        row.extend(sk.shell_fire_counts());
        if let Some((p, first)) = lasso.observe(&key, &row) {
            return (Some(p), rates(&row, first, p.period), sk.cycle());
        }
        sk.step();
    }
    let counters = |sk: &SkeletonSystem| -> Vec<u64> {
        let sinks = sk.sink_valid_counts().iter().copied();
        sinks.chain(sk.shell_fire_counts()).collect()
    };
    let before = counters(&sk);
    sk.run(opts.fallback_cycles);
    let window = opts.fallback_cycles.max(1);
    (None, rates(&counters(&sk), &before, window), sk.cycle())
}

/// Every shell's firing rate (node order) from the steady-state pass.
fn shell_rates(
    netlist: &Netlist,
    opts: MeasureOptions,
) -> Result<(Option<Periodicity>, Vec<ShellActivity>), NetlistError> {
    let prog = Arc::new(SettleProgram::compile(netlist)?);
    let (periodicity, rates, _) = steady_state(&prog, opts);
    let rates = rates.into_iter().skip(prog.sink_count());
    let shells = netlist.shells().into_iter().zip(rates);
    let shells = shells.map(|(shell, utilisation)| ShellActivity { shell, utilisation });
    Ok((periodicity, shells.collect()))
}

/// Exact steady-state throughput of one sink, measured over whole
/// periods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinkThroughput {
    /// The sink node.
    pub sink: NodeId,
    /// Informative tokens per cycle in steady state.
    pub throughput: Ratio,
}

/// Full measurement result of [`measure`].
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Detected periodicity, if any.
    pub periodicity: Option<Periodicity>,
    /// Per-sink exact (periodic) or estimated (aperiodic) throughput.
    pub sinks: Vec<SinkThroughput>,
    /// Skeleton cycles simulated: `transient + period` when the lasso
    /// closed, else the search cycles plus the fallback window.
    pub cycles: u64,
}

impl Measurement {
    /// The minimum sink throughput — the paper's "system throughput"
    /// (the slowest sub-topology dictates the speed).
    #[must_use]
    pub fn system_throughput(&self) -> Option<Ratio> {
        self.sinks
            .iter()
            .map(|s| s.throughput)
            .min_by(|a, b| (a.num() * b.den()).cmp(&(b.num() * a.den())))
    }
}

/// Options for [`measure`].
#[derive(Debug, Clone, Copy)]
pub struct MeasureOptions {
    /// Cycle budget for periodicity detection.
    pub max_transient: u64,
    /// Cycles to average over when no periodicity is found.
    pub fallback_cycles: u64,
}

impl Default for MeasureOptions {
    fn default() -> Self {
        MeasureOptions {
            max_transient: 10_000,
            fallback_cycles: 10_000,
        }
    }
}

/// Simulate `netlist`'s skeleton to steady state and measure every
/// sink's exact throughput.
///
/// # Errors
///
/// Propagates [`NetlistError`] from compilation.
pub fn measure(netlist: &Netlist) -> Result<Measurement, NetlistError> {
    measure_with(netlist, MeasureOptions::default())
}

/// [`measure`] with explicit options.
///
/// # Errors
///
/// Propagates [`NetlistError`] from compilation.
pub fn measure_with(netlist: &Netlist, opts: MeasureOptions) -> Result<Measurement, NetlistError> {
    Ok(measure_program(
        &Arc::new(SettleProgram::compile(netlist)?),
        opts,
    ))
}

/// [`measure_with`] on an already compiled (or patched) program.
pub(crate) fn measure_program(prog: &Arc<SettleProgram>, opts: MeasureOptions) -> Measurement {
    let (periodicity, rates, cycles) = steady_state(prog, opts);
    let sinks = prog.snk_node.iter().zip(rates);
    let sinks = sinks.map(|(&sink, throughput)| SinkThroughput { sink, throughput });
    Measurement {
        periodicity,
        sinks: sinks.collect(),
        cycles,
    }
}

/// Steady-state activity of one shell: the fraction of cycles its pearl
/// actually fired (the complement is clock-gated — the paper's power
/// story: "a module waiting for new data and/or stopped keeps its
/// present state").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShellActivity {
    /// The shell node.
    pub shell: NodeId,
    /// Fires per cycle over the measured window.
    pub utilisation: Ratio,
}

/// Measure every shell's steady-state firing rate: its firing delta
/// across one lasso period of the skeleton (default
/// [`MeasureOptions`]).
///
/// In a connected LID every shell settles to the *same* rate — the
/// system throughput — because each firing consumes and produces exactly
/// one token per channel; the gated fraction `1 − T` is the activity
/// saved by the shell's clock gating.
///
/// # Errors
///
/// Propagates [`NetlistError`] from compilation.
pub fn measure_activity(netlist: &Netlist) -> Result<Vec<ShellActivity>, NetlistError> {
    Ok(shell_rates(netlist, MeasureOptions::default())?.1)
}

/// Result of a batched throughput sweep ([`measure_batch`]).
///
/// Lane `l` holds the outcome of simulating the netlist under lane `l`'s
/// environment patterns for the full cycle window.
#[derive(Debug, Clone)]
pub struct BatchMeasurement {
    /// Sinks measured, in [`Netlist::sinks`] order.
    pub sinks: Vec<NodeId>,
    /// `counts[sink][lane] = (informative, voids)` consumed.
    pub counts: Vec<Vec<(u64, u64)>>,
    /// Cycles simulated (identical across lanes).
    pub cycles: u64,
    /// Lanes swept ([`LANES`]).
    pub lanes: usize,
}

impl BatchMeasurement {
    /// Measured throughput of sink `sink` (index into
    /// [`sinks`](Self::sinks)) in `lane`: informative tokens per cycle
    /// over the whole window.
    #[must_use]
    pub fn throughput(&self, sink: usize, lane: usize) -> Ratio {
        Ratio::new(self.counts[sink][lane].0, self.cycles)
    }

    /// Minimum sink throughput of `lane` — the lane's system throughput.
    #[must_use]
    pub fn system_throughput(&self, lane: usize) -> Option<Ratio> {
        (0..self.sinks.len())
            .map(|s| self.throughput(s, lane))
            .min_by(|a, b| (a.num() * b.den()).cmp(&(b.num() * a.den())))
    }
}

/// Measure the [`LANES`] environment scenarios of `pats` on `netlist`
/// in one pass: lane `l` simulates the netlist under `pats`' lane-`l`
/// patterns for `cycles` cycles on the bit-parallel [`BatchSkeleton`],
/// and every sink's token counts are read back per lane.
///
/// This is the batched replacement for running [`measure`] (or a scalar
/// skeleton) once per lane in a throughput sweep; counts are
/// bit-identical to the scalar runs. Unlike [`measure`] there is no
/// periodicity detection — pick `cycles` comfortably past the transient
/// (e.g. via [`lip_graph::topology::longest_latency`]) so the window
/// average converges on the steady-state rate.
///
/// # Errors
///
/// Propagates [`NetlistError`] from elaboration.
pub fn measure_batch(
    netlist: &Netlist,
    pats: &LanePatterns,
    cycles: u64,
) -> Result<BatchMeasurement, NetlistError> {
    let prog = Arc::new(SettleProgram::compile(netlist)?);
    let sinks = prog.snk_node.clone();
    let mut batch = BatchSkeleton::from_patterns(prog, pats);
    batch.run_patterns(pats, cycles);
    let counts = (0..sinks.len())
        .map(|j| {
            (0..LANES)
                .map(|lane| batch.sink_row_counts_lane(j, lane))
                .collect()
        })
        .collect();
    Ok(BatchMeasurement {
        sinks,
        counts,
        cycles,
        lanes: LANES,
    })
}

/// Result of a periodicity-aware batched sweep
/// ([`measure_batch_periodic`] / [`measure_batch_periodic_obs`]):
/// exact per-lane steady-state throughputs with the cycle budget
/// actually spent.
#[derive(Debug, Clone)]
pub struct BatchPeriodicMeasurement {
    /// Sinks measured, in [`Netlist::sinks`] order.
    pub sinks: Vec<NodeId>,
    /// `throughput[sink][lane]`: exact steady-state rate for converged
    /// lanes (tokens per period over one detected period), whole-window
    /// estimate for lanes that never converged within the budget.
    pub throughput: Vec<Vec<Ratio>>,
    /// Per lane: the detected periodic regime, `None` when the lane's
    /// environment is aperiodic or no recurrence fit the budget.
    pub periodicity: Vec<Option<Periodicity>>,
    /// Cycles actually simulated (`<= budget` — the early exit). A lane
    /// whose period λ equals its environment's `e`, or lcm(e, D) for the
    /// delay D of the binding cycle, closes at its own μ + λ (the two
    /// lag checks); any other lane closes at μ + lcm(e, D) when λ
    /// divides it or at a Brent checkpoint (up to about
    /// 2·max(μ, λ) + λ cycles), whichever comes first, so this can
    /// exceed the largest μ + λ among the lanes. It never affects a
    /// reading.
    pub cycles: u64,
    /// The full cycle budget a fixed-window sweep would have spent.
    pub budget: u64,
    /// Lanes swept ([`LANES`]).
    pub lanes: usize,
    /// Converged-lane mask: bit `l` is set iff lane `l` converged (got
    /// an exact reading). Use [`lane_converged`](Self::lane_converged)
    /// for single-lane reads.
    pub converged: u64,
}

impl BatchPeriodicMeasurement {
    /// Minimum sink throughput of `lane` — the lane's system throughput.
    #[must_use]
    pub fn system_throughput(&self, lane: usize) -> Option<Ratio> {
        (0..self.sinks.len())
            .map(|s| self.throughput[s][lane])
            .min_by(|a, b| (a.num() * b.den()).cmp(&(b.num() * a.den())))
    }

    /// `true` iff `lane` converged to an exact periodic reading.
    #[must_use]
    pub fn lane_converged(&self, lane: usize) -> bool {
        lane < self.lanes && self.converged.lane(lane)
    }

    /// `true` when every lane converged to an exact periodic reading.
    #[must_use]
    pub fn all_converged(&self) -> bool {
        self.converged.count_ones() as usize == self.lanes
    }

    /// Cycles the periodicity early-exit saved against the full budget.
    #[must_use]
    pub fn cycles_saved(&self) -> u64 {
        self.budget - self.cycles
    }
}

/// Periodicity-aware replacement for [`measure_batch`]: sweep 64
/// environment scenarios at once, but track each lane's control-state
/// recurrence — its environment phase plus its component state — and
/// *retire* a lane the moment it proves periodic: its exact throughput
/// is already decided, so it needs no further bookkeeping.
/// Recurrence is detected word-wide on the engine's bit-planes, for
/// every lane at once: each cycle compares the planes one environment
/// period back, once per distinct period among the pending lanes,
/// those lcm(period, D) back where D is the delay of the design's
/// binding cycle ([`model::binding_delay`](crate::model::binding_delay)),
/// and those of a Brent-style power-of-two checkpoint, so a cycle costs
/// O(state words × periods), not O(lanes × state).
/// Once the converged-lane mask is full the sweep returns early instead
/// of burning the rest of `budget`; the paper's bounded-transient
/// result makes that the common case, cutting most of the simulated
/// cycles on settled corpora.
///
/// Converged lanes report the **same exact rational throughput the
/// scalar path does** (tokens over one whole period, e.g. Fig. 1 is
/// exactly `4/5`), with the same (stem, period) pair a per-lane
/// [`Lasso`] finds: a lane counts as converged iff that lasso closes
/// within the observations `0..budget`. A lane closes along one of four
/// paths, counted by the `measure.close.*` counters of
/// [`measure_batch_periodic_obs`]:
///
/// * **environment lag** — a lane locked to its environment (period λ
///   equal to the environment period `e`, as the paper's trees and most
///   stopped sinks are) matches the planes `e` cycles back first at
///   exactly μ + λ, and its stem is read off the match;
/// * **binding-cycle lag** (`hint`) — a lane whose period divides
///   `c = lcm(e, D)` matches the planes `c` cycles back first at
///   μ + c; its stem is read off the match and its period is the least
///   divisor of `c` whose planes recur, searched word-wide. A loop's
///   lanes run at period D under the declared environment (the paper's
///   loop formula: `S` shells and `R` relays repeat every `S + R`
///   cycles), so they close at exactly μ + λ;
/// * **Brent checkpoint** — other lanes close at a checkpoint, which
///   sees the recurrence later (after up to about 2·max(μ, λ) + λ
///   cycles); the lanes that close at one checkpoint binary-search
///   their stems together, word-wide;
/// * **replay** — lanes the budget cuts off before their checkpoint are
///   settled by one backward sweep over the kept planes.
///
/// [`cycles`](BatchPeriodicMeasurement::cycles) equals the largest
/// μ + λ when every lane closes on a lag with λ = e or λ = lcm(e, D),
/// as on rings, fork-joins and compositions under their declared
/// environment; a checkpoint close can make it exceed that.
/// Lanes with aperiodic (random) environments never converge;
/// they run to the full budget and report the whole-window estimate,
/// exactly like [`measure_batch`].
///
/// # Errors
///
/// Propagates [`NetlistError`] from elaboration.
pub fn measure_batch_periodic(
    netlist: &Netlist,
    pats: &LanePatterns,
    budget: u64,
) -> Result<BatchPeriodicMeasurement, NetlistError> {
    // The unobserved path is the observable core monomorphized over the
    // null recorder and sink — every recording branch compiles away, so
    // this stays the honest baseline the overhead gate compares against.
    measure_batch_periodic_obs::<u64, NullRecorder, NullProgress>(
        netlist,
        pats,
        budget,
        "batch_periodic",
        &NullRecorder,
        &mut NullProgress,
    )
    .map(|(m, _)| m)
}

/// Hot-loop phases sampled by the flight recorder: every
/// `OBS_SAMPLE_EVERY`-th cycle of an observed
/// [`measure_batch_periodic_obs`] run is timed per phase (recurrence
/// detection vs. engine stepping) and accumulated into
/// `measure.sampled_*` counters. Sampling keeps the enabled-recorder
/// overhead bounded while still attributing wall-clock by phase.
const OBS_SAMPLE_EVERY: u64 = 64;

/// How often an observed sweep publishes a [`ProgressSnapshot`].
const OBS_PROGRESS_EVERY: u64 = 1024;

/// [`measure_batch_periodic`] with runtime self-observability: a
/// [`Recorder`] receives a `measure`-category span covering the whole
/// call (child span `compile` for program compilation), sampled
/// per-phase timing counters (`measure.sampled_detector_ns`,
/// `measure.sampled_step_ns`, `measure.sampled_cycles`), the lanes
/// settled by each detector path (`measure.close.env_lag`,
/// `measure.close.hint`, `measure.close.checkpoint`,
/// `measure.close.replay`, which sum to the converged lanes), and the
/// settle tape runs *counted* — the returned [`KernelCounters`] hold
/// per-opcode/per-stratum retirement for every executed cycle
/// (`None` under a disabled or [`NullRecorder`]). A [`ProgressSink`]
/// receives a live [`ProgressSnapshot`] every
/// `OBS_PROGRESS_EVERY` (internal) cycles and at completion.
///
/// With [`NullRecorder`] and [`NullProgress`] this monomorphizes to
/// exactly the unobserved sweep — [`measure_batch_periodic`] is this
/// function under the null instantiation — and measured results
/// are bit-identical under every recorder configuration. A recorder
/// that is runtime-disabled records nothing, so the call hands over to
/// the [`NullRecorder`] instantiation at once: a disabled recorder
/// costs one check per call, and runs the very machine code of the
/// unobserved sweep rather than a second copy of it.
///
/// # Errors
///
/// Propagates [`NetlistError`] from elaboration.
#[allow(clippy::too_many_lines)]
pub fn measure_batch_periodic_obs<W: LaneWord, R: Recorder, S: ProgressSink>(
    netlist: &Netlist,
    pats: &LanePatterns,
    budget: u64,
    label: &str,
    rec: &R,
    progress: &mut S,
) -> Result<(BatchPeriodicMeasurement, Option<KernelCounters>), NetlistError> {
    if R::ENABLED && !rec.active() {
        return measure_batch_periodic_obs::<W, NullRecorder, S>(
            netlist,
            pats,
            budget,
            label,
            &NullRecorder,
            progress,
        );
    }
    let _whole = rec_span(rec, "measure", label);
    let lanes = W::LANES;
    let prog = {
        let _compile = rec_span(rec, "compile", label);
        Arc::new(SettleProgram::compile(netlist)?)
    };
    let mut batch = BatchEngine::<W>::from_patterns(Arc::clone(&prog), pats);
    let compiled = crate::batch::CompiledPatterns::<W>::compile(pats);
    let mut kc = if R::ENABLED && rec.active() {
        Some(batch.kernel_counters())
    } else {
        None
    };
    let started = (R::ENABLED || S::ENABLED).then(std::time::Instant::now);
    let sinks = prog.snk_node.clone();
    let n_snk = sinks.len();

    // Per-lane environment period: the lcm of that lane's pattern
    // periods. Aperiodic lanes can never be declared periodic.
    let lane_env_period = pats.lane_env_periods();

    // Aperiodic lanes can never converge; they only count against the
    // early exit, which therefore fires iff every *candidate* lane is
    // done AND no aperiodic lane exists.
    let aperiodic = lane_env_period.iter().filter(|p| p.is_none()).count();
    // One word-wide lasso over every candidate lane; each step's row
    // holds the sinks' informative-token planes, so a recurrence yields
    // tokens per period. A design with a binding cycle also lags each
    // environment group by lcm(e, D), D the cycle's delay.
    let mut lasso = PlaneLasso::<W>::new(lane_env_period, n_snk);
    if let Some(delay) = crate::model::binding_delay(netlist) {
        lasso = lasso.with_lag(delay);
    }
    let mut found = Vec::new();
    let mut executed = 0u64;

    for t in 0..budget {
        // Sampled per-phase wall-clock attribution: timing every cycle
        // would dominate the loop, so only every OBS_SAMPLE_EVERY-th
        // cycle pays the two Instant reads.
        let sampled = R::ENABLED && rec.active() && t % OBS_SAMPLE_EVERY == 0;
        let detector_start = sampled.then(std::time::Instant::now);
        // Observe the registered lane states *before* stepping, exactly
        // where the scalar detector samples; converged lanes drop out.
        lasso.observe(batch.state_planes(), &mut found);
        if let Some(t0) = detector_start {
            rec.add("measure.sampled_detector_ns", elapsed_ns(t0));
        }
        if aperiodic == 0 && !lasso.pending() {
            // Every lane has an exact reading: the remaining budget is
            // pure waste — exit early.
            executed = t;
            break;
        }
        let step_start = sampled.then(std::time::Instant::now);
        match kc.as_mut() {
            Some(kc) => batch.step_compiled_counted(&compiled, kc),
            None => batch.step_compiled_probed(&compiled, &mut lip_obs::NullProbe),
        }
        if let Some(t0) = step_start {
            rec.add("measure.sampled_step_ns", elapsed_ns(t0));
            rec.add("measure.sampled_cycles", 1);
        }
        lasso.count(batch.sink_tokens());
        executed = t + 1;
        if S::ENABLED && executed.is_multiple_of(OBS_PROGRESS_EVERY) {
            progress.publish(&obs_snapshot(label, lanes, found.len(), executed, started));
        }
    }
    if let Some(kc) = kc.as_mut() {
        batch.retire_counted(kc);
    }
    // Lanes the budget cut off before Brent's checkpoints caught their
    // recurrence still get the lasso's verdict on the cycles observed.
    lasso.replay(&mut found);
    if R::ENABLED && rec.active() {
        record_closes(rec, &lasso);
    }

    let mut periodicity: Vec<Option<Periodicity>> = vec![None; lanes];
    let mut converged = 0u64;
    for &(lane, p) in &found {
        periodicity[lane] = Some(p);
        converged = converged.with_lane(lane);
    }
    // Sink by sink: a converged lane counts its tokens over one period
    // (lanes sharing a verdict read the same token planes in turn), an
    // unconverged one falls back to the whole-window estimate.
    let window = executed.max(1);
    let throughput = (0..n_snk)
        .map(|j| {
            let lane_rate = |(lane, p): (usize, &Option<Periodicity>)| match *p {
                Some(p) => Ratio::new(lasso.period_count(lane, j, p), p.period),
                None => Ratio::new(batch.sink_row_counts_lane(j, lane).0, window),
            };
            periodicity.iter().enumerate().map(lane_rate).collect()
        })
        .collect();

    if S::ENABLED {
        progress.publish(&obs_snapshot(label, lanes, found.len(), executed, started));
    }

    Ok((
        BatchPeriodicMeasurement {
            sinks,
            throughput,
            periodicity,
            cycles: executed,
            budget,
            lanes,
            converged,
        },
        kc,
    ))
}

/// Add the lanes `lasso` settled by each path to `rec`'s
/// `measure.close.*` counters. Kept out of line: inlined
/// `Recorder::add` calls grew the observed sweep's function and cost
/// its enabled and disabled instantiations a few percent in
/// `exp_runtime_obs`'s overhead legs.
#[inline(never)]
fn record_closes<W: LaneWord, R: Recorder>(rec: &R, lasso: &PlaneLasso<W>) {
    rec.add("measure.close.env_lag", lasso.closed(Close::EnvLag));
    rec.add("measure.close.hint", lasso.closed(Close::Hint));
    rec.add("measure.close.checkpoint", lasso.closed(Close::Checkpoint));
    rec.add("measure.close.replay", lasso.closed(Close::Replay));
}

/// Nanoseconds since `t0`, saturating (an observed run outliving
/// `u64::MAX` ns is not a real configuration).
fn elapsed_ns(t0: std::time::Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Live progress snapshot of an observed batch-periodic sweep.
fn obs_snapshot(
    label: &str,
    lanes: usize,
    converged: usize,
    cycles: u64,
    started: Option<std::time::Instant>,
) -> ProgressSnapshot {
    let elapsed = started.map_or(0, elapsed_ns);
    #[allow(clippy::cast_precision_loss)]
    let cycles_per_sec = if elapsed == 0 {
        0.0
    } else {
        cycles as f64 / (elapsed as f64 / 1e9)
    };
    ProgressSnapshot {
        experiment: "measure".to_owned(),
        topology: label.to_owned(),
        lanes: lanes as u64,
        lanes_converged: converged as u64,
        cycles_executed: cycles,
        cycles_per_sec,
        cache_hits: 0,
        cache_misses: 0,
        elapsed_ns: elapsed,
    }
}

/// Liveness verdict from skeleton-style simulation to the periodic
/// regime — the paper's deadlock detection recipe: "if we simulate the
/// system up to the transient's extinction, either the deadlock will
/// show, or will be forever avoided".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LivenessReport {
    /// Shells that never fire within a steady-state period (starved or
    /// deadlocked forever, by periodicity).
    pub dead_shells: Vec<NodeId>,
    /// The detected periodic regime, when one exists.
    pub periodicity: Option<Periodicity>,
}

impl LivenessReport {
    /// `true` when every shell keeps firing.
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.dead_shells.is_empty()
    }
}

/// Check liveness of `netlist`: a view of the skeleton's lasso — a
/// shell is dead iff its firing count does not move across one period.
///
/// # Errors
///
/// Propagates [`NetlistError`] from compilation. Returns an empty
/// periodicity (and judges over `fallback` cycles) for aperiodic
/// environments.
pub fn check_liveness(
    netlist: &Netlist,
    max_transient: u64,
    fallback: u64,
) -> Result<LivenessReport, NetlistError> {
    let opts = MeasureOptions {
        max_transient,
        fallback_cycles: fallback,
    };
    let (periodicity, shells) = shell_rates(netlist, opts)?;
    let dead = shells.iter().filter(|a| a.utilisation.num() == 0);
    Ok(LivenessReport {
        dead_shells: dead.map(|a| a.shell).collect(),
        periodicity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_core::{Pattern, RelayKind};
    use lip_graph::generate;

    #[test]
    fn ratio_reduces_and_displays() {
        let r = Ratio::new(8, 10);
        assert_eq!((r.num(), r.den()), (4, 5));
        assert_eq!(r.to_string(), "4/5");
        assert!((r.to_f64() - 0.8).abs() < 1e-12);
        assert_eq!(Ratio::new(0, 7), Ratio::new(0, 3));
    }

    #[test]
    #[should_panic(expected = "denominator must be non-zero")]
    fn ratio_rejects_zero_denominator() {
        let _ = Ratio::new(1, 0);
    }

    #[test]
    fn fig1_measures_exactly_four_fifths() {
        let f = generate::fig1();
        let m = measure(&f.netlist).unwrap();
        let p = m.periodicity.expect("fig1 is periodic");
        assert_eq!(p.period, 5, "paper: n = 5");
        assert_eq!(m.system_throughput(), Some(Ratio::new(4, 5)));
    }

    #[test]
    fn fig2_ring_measures_s_over_s_plus_r() {
        for (s, r) in [(1usize, 1usize), (2, 1), (2, 2), (3, 1), (1, 3)] {
            let ring = generate::ring(s, r, RelayKind::Full);
            let m = measure(&ring.netlist).unwrap();
            assert_eq!(
                m.system_throughput(),
                Some(Ratio::new(s as u64, (s + r) as u64)),
                "ring S={s} R={r}"
            );
        }
    }

    #[test]
    fn tree_measures_unit_throughput() {
        let t = generate::tree(2, 2, 1);
        let m = measure(&t.netlist).unwrap();
        assert_eq!(m.system_throughput(), Some(Ratio::new(1, 1)));
        for s in &m.sinks {
            assert_eq!(s.throughput, Ratio::new(1, 1));
        }
    }

    #[test]
    fn transient_of_tree_is_bounded_by_longest_path() {
        let t = generate::tree(2, 2, 2);
        let mut sys = System::new(&t.netlist).unwrap();
        let p = find_periodicity(&mut sys, 1000).unwrap();
        let bound = lip_graph::topology::longest_latency(&t.netlist).unwrap();
        assert!(
            p.transient <= bound + 1,
            "transient {} exceeds longest-path bound {}",
            p.transient,
            bound
        );
    }

    #[test]
    fn periodicity_none_for_aperiodic_environment() {
        let mut n = Netlist::new();
        let src = n.add_source_with_pattern(
            "in",
            Pattern::Random {
                num: 1,
                denom: 2,
                seed: 1,
            },
        );
        let sink = n.add_sink("out");
        n.connect(src, 0, sink, 0).unwrap();
        let mut sys = System::new(&n).unwrap();
        assert_eq!(find_periodicity(&mut sys, 100), None);
        // measure still works via the fallback window.
        let m = measure_with(
            &n,
            MeasureOptions {
                max_transient: 50,
                fallback_cycles: 2000,
            },
        )
        .unwrap();
        let t = m.system_throughput().unwrap().to_f64();
        assert!((t - 0.5).abs() < 0.1, "estimated {t}");
    }

    #[test]
    fn all_shells_fire_at_system_rate() {
        // Connected LIDs: every shell's steady rate equals the system
        // throughput (token conservation through each firing).
        for netlist in [
            generate::fig1().netlist,
            generate::ring(2, 1, RelayKind::Full).netlist,
            generate::composed_coupled(1, 1, 1, 2, 1).netlist,
        ] {
            let t = measure(&netlist).unwrap().system_throughput().unwrap();
            for a in measure_activity(&netlist).unwrap() {
                assert_eq!(a.utilisation, t, "shell {} off-rate", a.shell);
            }
        }
    }

    #[test]
    fn gated_fraction_complements_throughput() {
        let f = generate::fig1();
        let acts = measure_activity(&f.netlist).unwrap();
        assert_eq!(acts.len(), 3); // A, B, C
        for a in &acts {
            let gated = 1.0 - a.utilisation.to_f64();
            assert!((gated - 0.2).abs() < 1e-12, "gated {gated}");
        }
    }

    #[test]
    fn batch_sweep_matches_scalar_measure_on_fig1() {
        let f = generate::fig1();
        let prog = SettleProgram::compile(&f.netlist).unwrap();
        let mut pats = LanePatterns::broadcast(&prog);
        // Lane l's sink stops l cycles out of every 64 (lane 0 free-runs).
        for lane in 1..LANES {
            pats.set_sink(
                0,
                lane,
                Pattern::Cyclic((0..64).map(|c| c < lane).collect()),
            );
        }
        let m = measure_batch(&f.netlist, &pats, 6400).unwrap();
        // Lane 0 is the plain fig1 environment: identical counts to a
        // scalar skeleton run, and within one transient token of 4/5.
        let mut sk = crate::SkeletonSystem::new(&f.netlist).unwrap();
        sk.run(6400);
        assert_eq!(m.counts[0][0], sk.sink_counts(f.sink).unwrap());
        assert!((m.throughput(0, 0).to_f64() - 0.8).abs() < 1e-3);
        // Heavier stalling never increases throughput.
        let t: Vec<f64> = (0..LANES).map(|l| m.throughput(0, l).to_f64()).collect();
        for l in 1..LANES {
            assert!(
                t[l] <= t[l - 1] + 1e-12,
                "lane {l}: {} > {}",
                t[l],
                t[l - 1]
            );
        }
        // A sink stopped 32/64 of the time consumes at most half.
        assert!(t[32] <= 0.5 + 1e-12);
    }

    #[test]
    fn liveness_holds_for_feedforward_and_full_rings() {
        // Paper: any feed-forward LID is deadlock-free; any LID with only
        // full relay stations is deadlock-free.
        let f = generate::fig1();
        assert!(check_liveness(&f.netlist, 1000, 1000).unwrap().is_live());
        let r = generate::ring(2, 2, RelayKind::Full);
        assert!(check_liveness(&r.netlist, 1000, 1000).unwrap().is_live());
    }

    #[test]
    fn fully_stopped_sink_starves_the_system() {
        // A sink that always stops makes every shell eventually dead —
        // the liveness detector must report it.
        let mut n = Netlist::new();
        let src = n.add_source("in");
        let a = n.add_shell("A", lip_core::pearl::IdentityPearl::new());
        let sink = n.add_sink_with_pattern("out", Pattern::Always);
        n.connect(src, 0, a, 0).unwrap();
        n.connect(a, 0, sink, 0).unwrap();
        let rep = check_liveness(&n, 100, 100).unwrap();
        assert!(!rep.is_live());
        assert_eq!(rep.dead_shells, vec![a]);
    }

    #[test]
    fn batch_periodic_early_exit_keeps_exact_throughputs() {
        // Fig. 1, a tree and two full-relay feedback rings under their
        // own environments: every lane converges well inside the budget
        // at the scalar path's exact throughput and period.
        let budget = 4096;
        let designs = [
            ("fig1", generate::fig1().netlist),
            ("tree(2,2,1)", generate::tree(2, 2, 1).netlist),
            (
                "ring(2,1,Full)",
                generate::ring(2, 1, RelayKind::Full).netlist,
            ),
            (
                "ring(3,2,Full)",
                generate::ring(3, 2, RelayKind::Full).netlist,
            ),
        ];
        let mut saved = 0;
        for (name, netlist) in &designs {
            let prog = SettleProgram::compile(netlist).unwrap();
            let pats = LanePatterns::broadcast(&prog);
            let m = measure_batch_periodic(netlist, &pats, budget).unwrap();
            assert!(m.all_converged(), "{name}: every lane converges");
            saved += m.cycles_saved();
            let scalar = measure(netlist).unwrap();
            let sp = scalar.periodicity.expect("scalar periodic");
            for lane in 0..LANES {
                assert_eq!(
                    m.system_throughput(lane),
                    scalar.system_throughput(),
                    "{name} lane {lane}"
                );
                assert_eq!(m.periodicity[lane].expect("converged").period, sp.period);
            }
            if *name == "fig1" {
                assert_eq!(m.system_throughput(0), Some(Ratio::new(4, 5)));
            }
        }
        // Early exit must save the bulk of the summed budget.
        let total = budget * designs.len() as u64;
        assert!(saved * 100 >= total * 40, "saved only {saved} of {total}");
    }

    #[test]
    fn batch_periodic_lanes_match_scalar_measure_exactly() {
        // Lane l stops fig1's sink every (l % 6 + 2)-th cycle; the same
        // pattern applied to a scalar netlist must yield the *same exact
        // rational* steady-state throughput as the early-exiting batch.
        let f = generate::fig1();
        let prog = SettleProgram::compile(&f.netlist).unwrap();
        let mut pats = LanePatterns::broadcast(&prog);
        let lane_pattern = |lane: usize| Pattern::EveryNth {
            period: (lane % 6 + 2) as u32,
            phase: 0,
        };
        for lane in 0..LANES {
            pats.set_sink(0, lane, lane_pattern(lane));
        }
        let m = measure_batch_periodic(&f.netlist, &pats, 20_000).unwrap();
        assert!(m.all_converged());
        for lane in [0, 1, 3, 5, 17, 40, 63] {
            let mut scalar_net = f.netlist.clone();
            assert!(scalar_net.set_sink_pattern(f.sink, lane_pattern(lane)));
            let scalar = measure(&scalar_net).unwrap();
            assert_eq!(
                m.system_throughput(lane),
                scalar.system_throughput(),
                "lane {lane} diverged from the scalar path"
            );
        }
    }

    #[test]
    fn observed_batch_periodic_matches_null_path_and_reconciles() {
        use lip_obs::{FlightRecorder, MemoryProgress};
        let f = generate::fig1();
        let prog = SettleProgram::compile(&f.netlist).unwrap();
        let mut pats = LanePatterns::broadcast(&prog);
        // An aperiodic lane keeps the sweep running to the full budget,
        // so progress snapshots and kernel counters cover real work.
        pats.set_sink(
            0,
            5,
            Pattern::Random {
                num: 1,
                denom: 3,
                seed: 3,
            },
        );
        let budget = 3_000;
        let baseline = measure_batch_periodic(&f.netlist, &pats, budget).unwrap();

        let rec = FlightRecorder::new();
        let mut progress = MemoryProgress::new();
        let (observed, kc) = measure_batch_periodic_obs::<u64, _, _>(
            &f.netlist,
            &pats,
            budget,
            "fig1",
            &rec,
            &mut progress,
        )
        .unwrap();

        // Observation must not perturb measurement.
        assert_eq!(observed.cycles, baseline.cycles);
        assert_eq!(observed.periodicity, baseline.periodicity);
        assert_eq!(observed.throughput, baseline.throughput);

        // Kernel counters: one settle per executed cycle, reconciled.
        let kc = kc.expect("enabled recorder yields counters");
        assert_eq!(kc.settles, observed.cycles);
        assert_eq!(
            kc.expected_ops,
            observed.cycles * prog.kernel_op_count() as u64
        );
        assert!(kc.reconciles());

        // Spans: the whole-measure span with its compile child, plus
        // sampled phase counters.
        let dump = rec.drain();
        assert!(dump.total_ns("measure", 0) > 0);
        assert!(dump
            .spans
            .iter()
            .any(|s| s.cat == "compile" && s.name == "fig1"));
        assert!(dump.counters.contains_key("measure.sampled_cycles"));
        assert!(dump.counters["measure.sampled_step_ns"] > 0);

        // Progress: periodic snapshots plus the final one.
        let last = progress.latest("fig1").expect("published");
        assert_eq!(last.cycles_executed, observed.cycles);
        assert_eq!(last.lanes, 64);
        assert!(last.lanes_converged >= 63, "only the random lane is open");
        assert!(progress.snaps.len() >= 2, "periodic + final snapshots");
    }

    #[test]
    fn disabled_recorder_yields_no_counters() {
        use lip_obs::{FlightRecorder, NullProgress};
        let f = generate::fig1();
        let prog = SettleProgram::compile(&f.netlist).unwrap();
        let pats = LanePatterns::broadcast(&prog);
        let rec = FlightRecorder::disabled();
        let (m, kc) = measure_batch_periodic_obs::<u64, _, _>(
            &f.netlist,
            &pats,
            2_000,
            "fig1",
            &rec,
            &mut NullProgress,
        )
        .unwrap();
        assert!(kc.is_none(), "runtime-disabled recorder must not count");
        assert_eq!(
            m.system_throughput(0),
            Some(Ratio::new(4, 5)),
            "measurement unchanged"
        );
        assert!(rec.drain().spans.is_empty());
    }

    #[test]
    fn batch_periodic_aperiodic_lanes_fall_back_to_estimates() {
        let f = generate::fig1();
        let prog = SettleProgram::compile(&f.netlist).unwrap();
        let mut pats = LanePatterns::broadcast(&prog);
        // Lane 1 gets an aperiodic environment: it can never converge.
        pats.set_sink(
            0,
            1,
            Pattern::Random {
                num: 1,
                denom: 4,
                seed: 7,
            },
        );
        let budget = 2_000;
        let m = measure_batch_periodic(&f.netlist, &pats, budget).unwrap();
        assert!(!m.all_converged());
        assert!(!m.lane_converged(1), "random lane must not converge");
        assert!(m.lane_converged(0), "periodic lane must converge");
        assert_eq!(m.cycles, budget, "an unconverged lane disables early exit");
        assert_eq!(m.periodicity[1], None);
        // Lane 0 still reports the exact figure.
        assert_eq!(m.system_throughput(0), Some(Ratio::new(4, 5)));
        // Lane 1's estimate is plausible (sink admits 3/4 of cycles).
        let est = m.system_throughput(1).unwrap().to_f64();
        assert!((0.55..0.95).contains(&est), "estimate {est}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// Whole numbers and zero skip the gcd; every ratio still equals
        /// the one the gcd reduction gives.
        #[test]
        fn ratio_fast_path_equals_the_gcd_path(
            num in proptest::prop_oneof![
                proptest::Just(0u64),
                0u64..64,
                proptest::prelude::any::<u64>(),
            ],
            den in proptest::prop_oneof![
                proptest::Just(1u64),
                1u64..64,
                1u64..u64::MAX,
            ],
        ) {
            let g = gcd(num, den);
            let r = Ratio::new(num, den);
            proptest::prop_assert_eq!((r.num(), r.den()), (num / g, den / g));
        }
    }

    use lip_graph::Netlist;
}
