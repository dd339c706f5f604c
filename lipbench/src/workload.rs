//! The four workloads: set-up, timed rounds and the correctness check.
//!
//! A round runs one op per design (an episode of edits per design for
//! `edit_loop`) in a seeded order, and every round of a run is the same
//! sequence of ops on the same inputs. A timed phase runs whole rounds
//! until its time is up and keeps every op's latency.

use std::time::Instant;

use lip_core::Pattern;
use lip_delta::Json;
use lip_graph::{parse_netlist_spanned, Netlist};
use lip_mc::{check_declared, DeclaredProof, McConfig};
use lip_obs::FlightRecorder;
use lip_sim::{
    BatchEngine, BatchPeriodicMeasurement, NetlistDelta, Periodicity, SettleProgram,
    ThroughputCache,
};

use crate::calib::Calibration;
use crate::expected::{self, Exact, Expected};
use crate::inputs::{self, rng, Design};
use crate::ledger::{Facts, Ledger, MeasureFacts};
use crate::ops::{self, PassOutcome, Tracer, OP};
use crate::stats::median;

/// Fewest ops in a timed phase, and fewest in its quiet half, so each
/// p90 has ten samples beyond it.
pub const MIN_OPS: u64 = 100;

/// The stream `edit_loop` episodes are drawn from. It is fixed rather
/// than taken from `--seed` because an edit costs as much as the
/// transient it creates, and that cost is heavy-tailed: a source and a
/// sink of nearly equal rates fill a chain of FIFOs over thousands of
/// cycles. Seeded episodes would make the work of a run depend on its
/// seed; the seed orders the designs instead.
const EDIT_STREAM: u64 = 1 << 32;

/// Failure messages kept for the report.
const MAX_NOTES: usize = 8;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Full pipeline passes over the shipped designs, 63 seeded sink
    /// environments beside the declared one.
    ShippedSweep,
    /// Full pipeline passes over generated designs of growing size.
    Ladder,
    /// Lint passes over larger generated designs.
    LintLadder,
    /// Edit → patch → re-prove → cached re-measure.
    EditLoop,
}

impl Kind {
    /// Every workload, in run order.
    pub const ALL: [Kind; 4] = [
        Kind::ShippedSweep,
        Kind::Ladder,
        Kind::LintLadder,
        Kind::EditLoop,
    ];

    /// The workload's name on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::ShippedSweep => "shipped_sweep",
            Kind::Ladder => "ladder",
            Kind::LintLadder => "lint_ladder",
            Kind::EditLoop => "edit_loop",
        }
    }

    /// The workload named `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// How strongly the workload's ops slow down with the host, as the
    /// exponent of the calibration reference's slowdown (see
    /// [`crate::calib`]). Measured by regressing ln(op time) on
    /// ln(reference time) across 3 s windows of a busy host: the batch
    /// measurement that is 92% of a `ladder` op slows as the reference's
    /// slowdown to the power 0.6 (correlation 0.96), lint as the power
    /// 1.0, the edit loop as 1.1. Replaying the per-op timings of busy
    /// runs with other exponents agrees, and puts `shipped_sweep`, whose
    /// 17-cycle measurements are mostly fixed costs, at 1.0.
    #[must_use]
    pub fn host_sensitivity(self) -> f64 {
        match self {
            Kind::Ladder => 0.6,
            Kind::ShippedSweep | Kind::LintLadder => 1.0,
            Kind::EditLoop => 1.1,
        }
    }

    fn designs(self) -> &'static [Design] {
        match self {
            Kind::ShippedSweep => &inputs::SHIPPED,
            Kind::Ladder => &inputs::LADDER,
            Kind::LintLadder => &inputs::LINT_LADDER,
            Kind::EditLoop => &inputs::EDIT_DESIGNS,
        }
    }
}

/// What a timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Rounds run.
    pub rounds: u64,
    /// Ops that failed or did not reproduce their design's reference.
    pub failed: u64,
    /// Every op's wall time in ns, in run order.
    ns: Vec<u64>,
    /// Per op, its [`Calibration::mark`] (0 in an uncalibrated phase).
    marks: Vec<usize>,
    /// Wall time of the rounds, in ns: the ops and the checks between
    /// them, less the calibration's reference timings.
    wall_ns: u64,
}

impl Phase {
    fn push(&mut self, round: RoundTimes, wall_ns: u64) {
        self.ns.extend(round.ns);
        self.marks.extend(round.marks);
        self.rounds += 1;
        self.failed += round.failed;
        self.wall_ns += wall_ns;
    }

    /// Ops attempted.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.ns.len() as u64
    }

    /// Every op's latency in ms, in run order.
    #[must_use]
    pub fn op_ms(&self) -> Vec<f64> {
        #[allow(clippy::cast_precision_loss)]
        self.ns.iter().map(|&n| n as f64 / 1e6).collect()
    }

    /// Wall time of the rounds, in seconds.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let s = self.wall_ns as f64 / 1e9;
        s
    }

    /// Every op's latency in ms scaled to a quiet host by `calib`, the
    /// calibration the phase ran with.
    #[must_use]
    pub fn calibrated_ms(&self, calib: &Calibration) -> Vec<f64> {
        self.op_ms()
            .into_iter()
            .zip(&self.marks)
            .map(|(ms, &mark)| calib.calibrate(ms, mark))
            .collect()
    }

    /// The quiet half of `ms` (one value per op of the phase, in run
    /// order): for each position in the round, the smallest half (rounded
    /// up) of its op's values over the rounds, as `(position, ms)`. Every
    /// round repeats the same op there on the same input, so its slower
    /// repeats are the ones something else slowed.
    #[must_use]
    pub fn quiet(&self, ms: &[f64]) -> Vec<(usize, f64)> {
        #[allow(clippy::cast_possible_truncation)]
        let rounds = self.rounds as usize;
        if rounds == 0 {
            return Vec::new();
        }
        let per_round = ms.len() / rounds;
        (0..per_round)
            .flat_map(|j| {
                let mut v: Vec<f64> = ms.iter().skip(j).step_by(per_round).copied().collect();
                v.sort_by(f64::total_cmp);
                v.truncate(rounds.div_ceil(2));
                v.into_iter().map(move |ms| (j, ms))
            })
            .collect()
    }
}

/// A pass design and its prepared input.
#[derive(Debug)]
struct PassDesign {
    name: String,
    family: String,
    text: String,
    relays: u64,
    stops: Vec<Vec<Pattern>>,
}

/// An edit-loop design, pristine, and its episode of edits.
#[derive(Debug)]
struct EditDesign {
    name: String,
    family: String,
    netlist: Netlist,
    program: SettleProgram,
    relays: u64,
    script: Vec<NetlistDelta>,
}

#[derive(Debug)]
enum Body {
    Pass {
        lint_only: bool,
        designs: Vec<PassDesign>,
        /// Per design, the warm-up pass's outcome and its digest, which
        /// every timed op must reproduce.
        reference: Vec<Option<(u64, PassOutcome)>>,
        /// Per design, whether the reference passed the oracles (checked
        /// once, after the first timed phase).
        checked: Option<Vec<bool>>,
    },
    Edit(Vec<EditDesign>),
}

/// A set-up workload, ready to run timed rounds.
#[derive(Debug)]
pub struct Workload {
    /// The seeded order of designs within a round.
    order: Vec<usize>,
    /// Per position in a round: the design, and its relays as the op
    /// there processes it.
    layout: Vec<(usize, u64)>,
    body: Body,
    notes: Vec<String>,
}

impl Workload {
    /// Load and generate the inputs for `seed`, then run one untimed
    /// warm-up round, which also checks that edits patch programs into
    /// exactly what a fresh compile gives.
    ///
    /// # Errors
    ///
    /// An input failed to load, or the warm-up round failed.
    pub fn setup(kind: Kind, seed: u64) -> Result<Self, String> {
        let order = inputs::order(&mut rng(seed, 1), kind.designs().len());
        let (body, layout) = if kind == Kind::EditLoop {
            let designs: Vec<EditDesign> = kind
                .designs()
                .iter()
                .enumerate()
                .map(|(i, &d)| {
                    let netlist = d.netlist()?;
                    let program = SettleProgram::compile(&netlist)
                        .map_err(|e| format!("{}: {e}", d.name()))?;
                    let mut stream = rng(0, EDIT_STREAM | i as u64);
                    Ok(EditDesign {
                        name: d.name(),
                        family: d.family(),
                        relays: inputs::relay_count(&netlist),
                        script: inputs::edit_script(
                            &netlist,
                            &mut stream,
                            inputs::EDITS_PER_EPISODE,
                        ),
                        netlist,
                        program,
                    })
                })
                .collect::<Result<_, String>>()?;
            let mut layout = Vec::new();
            for &i in &order {
                let mut relays = designs[i].relays;
                for delta in &designs[i].script {
                    relays += u64::from(matches!(delta, NetlistDelta::InsertRelay { .. }));
                    layout.push((i, relays));
                }
            }
            (Body::Edit(designs), layout)
        } else {
            let designs: Vec<PassDesign> = kind
                .designs()
                .iter()
                .enumerate()
                .map(|(i, &d)| {
                    let text = d.text()?;
                    let netlist = parse_netlist_spanned(&text)
                        .map_err(|e| format!("{}: {e}", d.name()))?
                        .netlist;
                    let stops = if kind == Kind::ShippedSweep {
                        inputs::lane_stops(&mut rng(seed, 100 + i as u64), netlist.sinks().len())
                    } else {
                        Vec::new()
                    };
                    Ok(PassDesign {
                        name: d.name(),
                        family: d.family(),
                        relays: inputs::relay_count(&netlist),
                        text,
                        stops,
                    })
                })
                .collect::<Result<_, String>>()?;
            let layout = order.iter().map(|&i| (i, designs[i].relays)).collect();
            let body = Body::Pass {
                lint_only: kind == Kind::LintLadder,
                reference: designs.iter().map(|_| None).collect(),
                checked: None,
                designs,
            };
            (body, layout)
        };
        let mut w = Workload {
            order,
            layout,
            body,
            notes: Vec::new(),
        };
        let failed = w.run_round(&Tracer::off(), None, None, true).failed;
        if failed == 0 {
            Ok(w)
        } else {
            Err(format!("warm-up failed: {}", w.notes.join("; ")))
        }
    }

    /// `(name, family, relays)` of every design, in index order.
    fn designs(&self) -> Vec<(&str, &str, u64)> {
        match &self.body {
            Body::Pass { designs, .. } => designs
                .iter()
                .map(|d| (&*d.name, &*d.family, d.relays))
                .collect(),
            Body::Edit(designs) => designs
                .iter()
                .map(|d| (&*d.name, &*d.family, d.relays))
                .collect(),
        }
    }

    /// `(family, relays)` of every design, in index order: what the size
    /// slopes are fitted over.
    #[must_use]
    pub fn sizes(&self) -> Vec<(String, u64)> {
        self.designs()
            .into_iter()
            .map(|(_, f, r)| (f.to_owned(), r))
            .collect()
    }

    /// Per position in a round: the design, and its relays as the op
    /// there processes it.
    #[must_use]
    pub fn layout(&self) -> &[(usize, u64)] {
        &self.layout
    }

    /// `times` (one value per op of whole rounds, in run order) grouped
    /// by design.
    #[must_use]
    pub fn per_design(&self, times: &[f64]) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); self.designs().len()];
        for (&(d, _), &t) in self.layout.iter().cycle().zip(times) {
            out[d].push(t);
        }
        out
    }

    /// Failure messages so far (the first few).
    #[must_use]
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    fn note(&mut self, msg: String) {
        if self.notes.len() < MAX_NOTES {
            self.notes.push(msg);
        }
    }

    /// Run whole rounds for at least `seconds` and twice [`MIN_OPS`] ops,
    /// timing the host's reference between ops into `calib`.
    pub fn run(&mut self, seconds: f64, calib: &mut Calibration) -> Phase {
        calib.bracket();
        let start = Instant::now();
        let mut phase = Phase::default();
        while start.elapsed().as_secs_f64() < seconds || phase.attempted() < 2 * MIN_OPS {
            self.timed_round(&Tracer::off(), None, Some(&mut *calib), &mut phase);
        }
        calib.bracket();
        phase
    }

    /// Alternate untraced and traced rounds for at least `seconds`,
    /// charging the traced ops to `ledger`. Both sides see the same op
    /// mix and the same drift, so their speeds compare fairly: the
    /// difference is the tracing overhead. Returns `(untraced, traced)`.
    pub fn run_alternating(&mut self, seconds: f64, ledger: &mut Ledger) -> (Phase, Phase) {
        let rec = FlightRecorder::new();
        let start = Instant::now();
        let (mut plain, mut traced) = (Phase::default(), Phase::default());
        while start.elapsed().as_secs_f64() < seconds || traced.rounds == 0 {
            self.timed_round(&Tracer::off(), None, None, &mut plain);
            let tracer = Tracer::install(&rec);
            self.timed_round(&tracer, Some(ledger), None, &mut traced);
        }
        (plain, traced)
    }

    /// One round, added to `phase` with its wall time less the reference
    /// timings taken during it.
    fn timed_round(
        &mut self,
        tracer: &Tracer,
        ledger: Option<&mut Ledger>,
        mut calib: Option<&mut Calibration>,
        phase: &mut Phase,
    ) {
        let spent = |c: &Option<&mut Calibration>| c.as_ref().map_or(0, |c| c.spent_ns());
        let (t0, before) = (Instant::now(), spent(&calib));
        let round = self.run_round(tracer, ledger, calib.as_deref_mut(), false);
        let sampling = spent(&calib) - before;
        phase.push(round, since(t0).saturating_sub(sampling));
    }

    /// One round: each op's wall time in ns and calibration mark, and how
    /// many ops failed.
    fn run_round(
        &mut self,
        tracer: &Tracer,
        ledger: Option<&mut Ledger>,
        calib: Option<&mut Calibration>,
        warm: bool,
    ) -> RoundTimes {
        let mut round = Round {
            order: &self.order,
            tracer,
            ledger,
            calib,
            ns: Vec::with_capacity(self.layout.len()),
            marks: Vec::with_capacity(self.layout.len()),
            failures: Vec::new(),
        };
        let failed = match &mut self.body {
            Body::Pass {
                lint_only,
                designs,
                reference,
                ..
            } => round.pass(*lint_only, designs, reference),
            Body::Edit(designs) => round.edit(designs, warm),
        };
        let Round {
            ns,
            marks,
            failures,
            ..
        } = round;
        for f in failures {
            self.note(f);
        }
        RoundTimes { ns, marks, failed }
    }

    /// Check each pass design's reference against the oracles (the model
    /// checker per distinct lane environment, the static prediction and
    /// `expected.json`) once, and count every op of `phase` on a design
    /// whose reference failed them as failed. Ops were compared with
    /// their reference, and edits checked, as they ran.
    ///
    /// # Errors
    ///
    /// `expected.json` could not be read.
    pub fn verify(&mut self, phase: &mut Phase) -> Result<(), String> {
        let Body::Pass {
            lint_only,
            designs,
            reference,
            checked,
        } = &mut self.body
        else {
            return Ok(());
        };
        if checked.is_none() {
            let expected = expected::load()?;
            let mut problems = Vec::new();
            let ok = designs
                .iter()
                .zip(reference.iter())
                .map(|(d, r)| {
                    let (_, r) = r.as_ref().expect("set-up keeps a reference per design");
                    let found = check_reference(d, r, expected.get(&d.name), *lint_only);
                    problems.extend(found.iter().map(|p| format!("{}: {p}", d.name)));
                    found.is_empty()
                })
                .collect();
            *checked = Some(ok);
            for p in problems {
                self.note(p);
            }
        }
        let Body::Pass {
            checked: Some(ok), ..
        } = &self.body
        else {
            unreachable!("checked above")
        };
        let bad = self.layout.iter().filter(|(d, _)| !ok[*d]).count() as u64;
        phase.failed = (phase.failed + bad * phase.rounds).min(phase.attempted());
        Ok(())
    }

    /// One `results.json` row per design: exact results, then the median
    /// latency of its ops in `op_ms`.
    #[must_use]
    pub fn design_rows(&self, op_ms: &[f64]) -> Vec<Json> {
        let times = self.per_design(op_ms);
        self.designs()
            .into_iter()
            .enumerate()
            .map(|(i, (name, _, relays))| {
                let mut row = vec![("name".to_owned(), Json::Str(name.to_owned()))];
                match &self.body {
                    Body::Pass { reference, .. } => {
                        let (_, r) = reference[i]
                            .as_ref()
                            .expect("set-up keeps a reference per design");
                        row.extend(expected::members(&outcome_summary(relays, r)));
                        row.push(("emit_bytes".to_owned(), Json::Int(r.emitted.len() as i64)));
                    }
                    Body::Edit(_) => row.push(("relays".to_owned(), Json::Int(relays as i64))),
                }
                row.push(("op_p50_ms".to_owned(), Json::Float(median(&times[i]))));
                Json::Obj(row)
            })
            .collect()
    }
}

/// What a pass outcome says, in `expected.json` terms.
fn outcome_summary(relays: u64, o: &PassOutcome) -> Expected {
    Expected {
        relays,
        lint: expected::tally(&o.rules),
        exact: o.proof.as_ref().map(|p| Exact {
            throughput: p.system_throughput().unwrap_or(lip_sim::Ratio::new(0, 1)),
            stem: p.stem,
            period: p.period,
            states: p.states as u64,
        }),
    }
}

/// Whether `lane` of `m` reproduces `proof`: same lasso, same exact
/// throughput at every sink.
fn lane_matches(m: &BatchPeriodicMeasurement, lane: usize, proof: &DeclaredProof) -> bool {
    let lasso = Some(Periodicity {
        transient: proof.stem,
        period: proof.period,
    });
    m.periodicity[lane] == lasso
        && m.sinks.iter().enumerate().all(|(j, sink)| {
            proof
                .throughput
                .iter()
                .any(|&(node, r)| node == *sink && r == m.throughput[j][lane])
        })
}

/// Everything wrong with a reference outcome, checked against
/// independent oracles.
fn check_reference(
    d: &PassDesign,
    o: &PassOutcome,
    want: Option<&Expected>,
    lint_only: bool,
) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(want) = want else {
        return vec!["no entry in expected.json".to_owned()];
    };
    let got = outcome_summary(d.relays, o);
    if got.relays != want.relays || got.lint != want.lint {
        problems.push(format!(
            "relays/lint {}/{:?}, expected {}/{:?}",
            got.relays, got.lint, want.relays, want.lint
        ));
    }
    if let Err(e) = lip_delta::parse(&o.emitted) {
        problems.push(format!("emitted report is not JSON: {e}"));
    }
    if lint_only {
        return problems;
    }
    if got.exact != want.exact {
        problems.push(format!("proof {:?}, expected {:?}", got.exact, want.exact));
    }
    let (Some(proof), Some(m)) = (&o.proof, &o.measured) else {
        problems.push("pipeline pass without proof or measurement".to_owned());
        return problems;
    };
    let netlist = match parse_netlist_spanned(&d.text) {
        Ok(p) => p.netlist,
        Err(e) => return vec![format!("reparse: {e}")],
    };
    // The declared environment: the closed form is exact.
    if lip_analysis::predict_throughput(&netlist) != proof.system_throughput() {
        problems.push("static prediction differs from the proof".to_owned());
    }
    if !lane_matches(m, 0, proof) {
        problems.push("lane 0 differs from the proof".to_owned());
    }
    // Every other lane: prove its environment once. A stop pattern can
    // interact with a binding loop, so there the closed form is only an
    // upper bound.
    let sinks = netlist.sinks();
    let mut proved: Vec<(&Vec<Pattern>, DeclaredProof)> = Vec::new();
    for (i, stops) in d.stops.iter().enumerate() {
        let lane = i + 1;
        let pos = if let Some(pos) = proved.iter().position(|(s, _)| *s == stops) {
            pos
        } else {
            let mut n = netlist.clone();
            for (&sink, p) in sinks.iter().zip(stops) {
                n.set_sink_pattern(sink, p.clone());
            }
            let p = match check_declared(&n, &McConfig::default()) {
                Ok(p) => p,
                Err(e) => {
                    problems.push(format!("lane {lane}: mc: {e}"));
                    continue;
                }
            };
            let bound = lip_analysis::predict_throughput(&n);
            let below = match (p.system_throughput(), bound) {
                (Some(t), Some(b)) => t.num() * b.den() <= b.num() * t.den(),
                _ => false,
            };
            if !below {
                problems.push(format!("lane {lane}: proof exceeds the static bound"));
            }
            proved.push((stops, p));
            proved.len() - 1
        };
        if !lane_matches(m, lane, &proved[pos].1) {
            problems.push(format!("lane {lane} differs from its proof"));
        }
    }
    problems
}

/// The per-op facts a pass outcome gives the ledger, timing the raw
/// kernel on the measured input when the pass kept it.
fn pass_facts(text: &str, o: &PassOutcome) -> Facts {
    let measure = o.measured.as_ref().map(|m| {
        let useful = m
            .periodicity
            .iter()
            .map(|p| p.map_or(0, |p| p.transient + p.period))
            .sum();
        let kernel_ns = o.kernel.as_ref().map_or(0, |(prog, pats)| {
            let t = Instant::now();
            let mut engine = BatchEngine::<u64>::from_patterns(std::sync::Arc::clone(prog), pats);
            engine.run_patterns(pats, m.cycles);
            std::hint::black_box(engine.fired_mask());
            since(t)
        });
        MeasureFacts {
            lane_cycles: m.cycles * m.lanes as u64,
            useful_lane_cycles: useful,
            kernel_ns,
        }
    });
    Facts {
        parsed_bytes: text.len() as u64,
        mc: o
            .proof
            .as_ref()
            .map(|p| (p.states as u64, p.peak_arena_bytes as u64)),
        measure,
        emit_bytes: Some(o.emitted.len() as u64),
        diags: Some(o.rules.len() as u64),
        edit: false,
    }
}

/// Nanoseconds since `t0`.
fn since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What a round measured: per op its wall time in ns and calibration
/// mark, and the number of failed ops.
struct RoundTimes {
    ns: Vec<u64>,
    marks: Vec<usize>,
    failed: u64,
}

/// What one round runs with, and what it records.
struct Round<'a> {
    order: &'a [usize],
    tracer: &'a Tracer,
    ledger: Option<&'a mut Ledger>,
    calib: Option<&'a mut Calibration>,
    ns: Vec<u64>,
    marks: Vec<usize>,
    failures: Vec<String>,
}

impl Round<'_> {
    /// Record an op that started at `t0`, then time the host's reference
    /// if it is due.
    fn timed(&mut self, t0: Instant) {
        self.ns.push(since(t0));
        let calib = self.calib.as_deref_mut();
        self.marks.push(calib.as_ref().map_or(0, |c| c.mark()));
        if let Some(c) = calib {
            c.sample_if_due();
        }
    }

    /// One pass per design; the first outcome per design becomes its
    /// reference, and every later one must match it. Returns the number
    /// of failed ops.
    fn pass(
        &mut self,
        lint_only: bool,
        designs: &[PassDesign],
        reference: &mut [Option<(u64, PassOutcome)>],
    ) -> u64 {
        let mut failed = 0;
        for &i in self.order {
            let d = &designs[i];
            let root = self.tracer.span(OP, &d.name);
            let t0 = Instant::now();
            let result = if lint_only {
                ops::lint_pass(&d.name, &d.text, self.tracer)
            } else {
                ops::pipeline_pass(&d.name, &d.text, &d.stops, self.tracer)
            };
            self.timed(t0);
            drop(root);
            if let (Some(ledger), Some(dump)) = (self.ledger.as_deref_mut(), self.tracer.drain()) {
                let facts = result
                    .as_ref()
                    .map(|o| pass_facts(&d.text, o))
                    .unwrap_or_default();
                ledger.record(i, d.relays, dump, facts);
            }
            match result {
                Ok(o) => {
                    let digest = o.digest();
                    match &reference[i] {
                        None => reference[i] = Some((digest, PassOutcome { kernel: None, ..o })),
                        Some((want, _)) if *want == digest => {}
                        Some(_) => {
                            self.failures
                                .push(format!("{}: output differs from the reference", d.name));
                            failed += 1;
                        }
                    }
                }
                Err(e) => {
                    self.failures.push(format!("{}: {e}", d.name));
                    failed += 1;
                }
            }
        }
        failed
    }

    /// One episode per design, from the pristine design with an empty
    /// cache. With `check_hashes`, every patched program is compared
    /// with a fresh compile of the edited netlist. Returns the number of
    /// failed ops.
    fn edit(&mut self, designs: &[EditDesign], check_hashes: bool) -> u64 {
        let mut failed = 0;
        for &i in self.order {
            let d = &designs[i];
            let mut netlist = d.netlist.clone();
            let mut program = d.program.clone();
            let mut cache = ThroughputCache::new();
            let mut relays = d.relays;
            for (step, delta) in d.script.iter().enumerate() {
                let root = self.tracer.span(OP, &d.name);
                let t0 = Instant::now();
                let result = ops::edit_op(
                    &d.name,
                    &mut netlist,
                    &mut program,
                    delta,
                    &mut cache,
                    self.tracer,
                );
                self.timed(t0);
                drop(root);
                relays += u64::from(matches!(delta, NetlistDelta::InsertRelay { .. }));
                let mut problem = match &result {
                    Ok(o) if o.agrees() => None,
                    Ok(_) => Some("proof and measurement disagree".to_owned()),
                    Err(e) => Some(e.to_string()),
                };
                if check_hashes {
                    let fresh =
                        SettleProgram::compile(&netlist).map(|p| p.stable_structural_hash());
                    if fresh != Ok(program.stable_structural_hash()) {
                        problem = Some("patched program differs from a fresh compile".to_owned());
                    }
                }
                if let Some(p) = problem {
                    self.failures.push(format!("{} edit {step}: {p}", d.name));
                    failed += 1;
                }
                if let (Some(ledger), Some(dump)) =
                    (self.ledger.as_deref_mut(), self.tracer.drain())
                {
                    let facts = Facts {
                        mc: result
                            .as_ref()
                            .ok()
                            .map(|o| (o.proof.states as u64, o.proof.peak_arena_bytes as u64)),
                        edit: true,
                        ..Facts::default()
                    };
                    ledger.record(i, relays, dump, facts);
                }
            }
        }
        failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One round of every workload on its smallest design, through the
    /// same code path a timed run takes, traced and checked.
    #[test]
    fn smoke_one_round_per_workload() {
        for kind in Kind::ALL {
            let mut w = Workload::setup(kind, 1).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            let sizes = w.sizes();
            let smallest = (0..sizes.len()).min_by_key(|&i| sizes[i].1).unwrap();
            w.order = vec![smallest];
            let tracer = Tracer::install(&FlightRecorder::new());
            let mut ledger = Ledger::new(&sizes);
            let mut phase = Phase::default();
            w.timed_round(&tracer, Some(&mut ledger), None, &mut phase);
            drop(tracer);
            w.verify(&mut phase).unwrap();
            assert!(phase.attempted() > 0, "{}", kind.name());
            assert_eq!(phase.failed, 0, "{}: {:?}", kind.name(), w.notes());
            assert!(
                ledger.coverage() > 0.5,
                "{}: coverage {}",
                kind.name(),
                ledger.coverage()
            );
        }
    }

    #[test]
    fn the_quiet_half_keeps_each_ops_fastest_repeats() {
        let mut phase = Phase::default();
        for round in [[3, 30], [1, 10], [2, 20]] {
            let round = RoundTimes {
                ns: round.map(|ms| ms * 1_000_000).to_vec(),
                marks: vec![0; 2],
                failed: 0,
            };
            phase.push(round, 1);
        }
        assert_eq!(phase.attempted(), 6);
        assert_eq!(
            phase.quiet(&phase.op_ms()),
            vec![(0, 1.0), (0, 2.0), (1, 10.0), (1, 20.0)]
        );
    }
}
