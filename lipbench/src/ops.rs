//! The timed operations: a full pipeline pass, a lint pass and one
//! edit-loop step. Each calls only public entry points of the lip
//! crates and, when a [`Tracer`] is on, opens one span per layer call.

use std::fmt;
use std::sync::Arc;

use lip_core::Pattern;
use lip_graph::{parse_netlist_spanned, Netlist, NetlistError, NodeId};
use lip_lint::{lint, render_json, Diagnostic};
use lip_mc::{check_declared, DeclaredProof, McConfig, McError};
use lip_obs::{flight, FlightDump, FlightRecorder, FlightSpan, NullProgress, Report};
use lip_sim::measure::MeasureOptions;
use lip_sim::{
    measure_batch_periodic, measure_batch_periodic_obs, BatchPeriodicMeasurement, LanePatterns,
    Measurement, NetlistDelta, Ratio, SettleProgram, ThroughputCache,
};

/// Cycle budget of one periodic measurement.
pub const BUDGET: u64 = 1 << 16;

/// Span category of one whole timed op (the root of its span tree).
pub const OP: &str = "op";

/// Flight-recorder spans around layer calls, or nothing at all.
///
/// An enabled tracer is also the ambient recorder, so the spans the
/// crates open themselves (compile, cache miss, measurement) land in the
/// same tree as the benchmark's own.
#[derive(Debug, Default)]
pub struct Tracer(Option<FlightRecorder>);

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Tracer(None)
    }

    /// A tracer recording into `rec`, installed as the ambient recorder
    /// until it is dropped.
    #[must_use]
    pub fn install(rec: &FlightRecorder) -> Self {
        flight::install(rec);
        Tracer(Some(rec.clone()))
    }

    /// Open a span of category `layer` named `name`, closed on drop.
    #[must_use]
    pub fn span(&self, layer: &'static str, name: &str) -> Option<FlightSpan> {
        self.0.as_ref().map(|rec| rec.span(layer, name))
    }

    /// The recorder, when tracing.
    #[must_use]
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.0.as_ref()
    }

    /// Everything recorded since the last drain, when tracing.
    #[must_use]
    pub fn drain(&self) -> Option<FlightDump> {
        self.0.as_ref().map(FlightRecorder::drain)
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        if self.0.is_some() {
            flight::uninstall();
        }
    }
}

/// Why an op failed.
#[derive(Debug)]
pub enum OpError {
    /// The `.lid` text did not parse.
    Parse(String),
    /// The netlist did not validate or elaborate.
    Netlist(NetlistError),
    /// The model checker gave up (including `StateCap`).
    Mc(McError),
    /// A periodic lane did not converge within [`BUDGET`] cycles.
    Budget,
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::Parse(e) => write!(f, "parse: {e}"),
            OpError::Netlist(e) => write!(f, "netlist: {e}"),
            OpError::Mc(e) => write!(f, "mc: {e}"),
            OpError::Budget => write!(f, "measurement did not converge within the budget"),
        }
    }
}

impl From<NetlistError> for OpError {
    fn from(e: NetlistError) -> Self {
        OpError::Netlist(e)
    }
}

impl From<McError> for OpError {
    fn from(e: McError) -> Self {
        OpError::Mc(e)
    }
}

/// What a pipeline or lint pass produced.
#[derive(Debug)]
pub struct PassOutcome {
    /// Lint rule codes, in report order.
    pub rules: Vec<&'static str>,
    /// The declared-environment proof (pipeline pass only).
    pub proof: Option<DeclaredProof>,
    /// The 64-lane periodic measurement (pipeline pass only).
    pub measured: Option<BatchPeriodicMeasurement>,
    /// The emitted JSON document.
    pub emitted: String,
    /// The compiled program and lane patterns, kept when tracing so the
    /// raw kernel can be timed on the same input after the op.
    pub kernel: Option<(Arc<SettleProgram>, LanePatterns)>,
}

impl PassOutcome {
    /// A digest of every output, equal across ops iff their outputs are.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut words: Vec<u64> = self
            .rules
            .iter()
            .map(|r| lip_delta::fnv1a(r.as_bytes()))
            .collect();
        if let Some(p) = &self.proof {
            words.extend([p.states as u64, p.stem, p.period]);
            for (node, r) in &p.throughput {
                words.extend([node.index() as u64, r.num(), r.den()]);
            }
        }
        if let Some(m) = &self.measured {
            words.push(m.cycles);
            for (lane, per) in m.periodicity.iter().enumerate() {
                let (t, p) = per.map_or((u64::MAX, u64::MAX), |p| (p.transient, p.period));
                words.extend([t, p]);
                for sink in &m.throughput {
                    words.extend([sink[lane].num(), sink[lane].den()]);
                }
            }
        }
        words.push(lip_delta::fnv1a(self.emitted.as_bytes()));
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        lip_delta::fnv1a(&bytes)
    }
}

/// One full pipeline pass over a `.lid` text: parse → validate → lint
/// → compile → `check_declared` → 64-lane periodic measurement → emit.
/// Lane 0 keeps the declared environment; lane `i + 1` gives the sinks
/// the stop patterns `stops[i]`.
///
/// # Errors
///
/// The first layer that failed.
pub fn pipeline_pass(
    name: &str,
    text: &str,
    stops: &[Vec<Pattern>],
    tracer: &Tracer,
) -> Result<PassOutcome, OpError> {
    let parsed = {
        let _s = tracer.span("graph.parse", name);
        parse_netlist_spanned(text).map_err(|e| OpError::Parse(e.to_string()))?
    };
    let netlist = &parsed.netlist;
    {
        let _s = tracer.span("graph.validate", name);
        netlist.validate()?;
    }
    let diags = {
        let _s = tracer.span("lint", name);
        lint(netlist, &parsed.source_map)
    };
    let prog = {
        let _s = tracer.span("sim.compile", name);
        Arc::new(SettleProgram::compile(netlist)?)
    };
    let proof = {
        let _s = tracer.span("mc", name);
        check_declared(netlist, &McConfig::default())?
    };
    let (pats, measured) = {
        let _s = tracer.span("sim.measure", name);
        let mut pats = LanePatterns::broadcast(&prog);
        for (i, lane) in stops.iter().enumerate() {
            for (sink, p) in lane.iter().enumerate() {
                pats.set_sink(sink, i + 1, p.clone());
            }
        }
        let m = match tracer.recorder() {
            Some(rec) => {
                measure_batch_periodic_obs::<u64, _, _>(
                    netlist,
                    &pats,
                    BUDGET,
                    name,
                    rec,
                    &mut NullProgress,
                )?
                .0
            }
            None => measure_batch_periodic(netlist, &pats, BUDGET)?,
        };
        (pats, m)
    };
    if !measured.all_converged() {
        return Err(OpError::Budget);
    }
    let rules = diags.iter().map(|d| d.rule.code()).collect();
    let emitted = {
        let _s = tracer.span("emit", name);
        emit(name, diags, &proof, &measured)
    };
    Ok(PassOutcome {
        rules,
        proof: Some(proof),
        measured: Some(measured),
        emitted,
        kernel: tracer.recorder().map(|_| (prog, pats)),
    })
}

/// The pipeline's report: lint findings, the proof, and every lane's
/// exact throughput and lasso.
fn emit(
    name: &str,
    diags: Vec<Diagnostic>,
    proof: &DeclaredProof,
    m: &BatchPeriodicMeasurement,
) -> String {
    let mut r = Report::new(name);
    r.push_raw("lint", render_json(&[(name.to_owned(), diags)]));
    r.push_int("mc_states", proof.states as u64)
        .push_int("stem", proof.stem)
        .push_int("period", proof.period);
    if let Some(t) = proof.system_throughput() {
        r.push_ratio("throughput", t.num(), t.den());
    }
    let lanes: Vec<String> = (0..m.lanes)
        .map(|lane| {
            let t = m.system_throughput(lane).unwrap_or(Ratio::new(0, 1));
            let (stem, period) = m.periodicity[lane].map_or((0, 0), |p| (p.transient, p.period));
            format!(
                "{{\"num\":{},\"den\":{},\"stem\":{stem},\"period\":{period}}}",
                t.num(),
                t.den()
            )
        })
        .collect();
    r.push_raw("lanes", format!("[{}]", lanes.join(",")));
    r.push_int("cycles", m.cycles);
    r.to_json()
}

/// The `lip_lint` user path: parse → validate → lint → JSON report.
///
/// # Errors
///
/// The first layer that failed.
pub fn lint_pass(name: &str, text: &str, tracer: &Tracer) -> Result<PassOutcome, OpError> {
    let parsed = {
        let _s = tracer.span("graph.parse", name);
        parse_netlist_spanned(text).map_err(|e| OpError::Parse(e.to_string()))?
    };
    {
        let _s = tracer.span("graph.validate", name);
        parsed.netlist.validate()?;
    }
    let diags = {
        let _s = tracer.span("lint", name);
        lint(&parsed.netlist, &parsed.source_map)
    };
    let rules = diags.iter().map(|d| d.rule.code()).collect();
    let emitted = {
        let _s = tracer.span("emit", name);
        render_json(&[(name.to_owned(), diags)])
    };
    Ok(PassOutcome {
        rules,
        proof: None,
        measured: None,
        emitted,
        kernel: None,
    })
}

/// What one edit-loop step produced.
#[derive(Debug)]
pub struct EditOutcome {
    /// The re-proof of the edited design.
    pub proof: DeclaredProof,
    /// The cached scalar measurement of the edited design.
    pub measured: Measurement,
}

impl EditOutcome {
    /// The proof and the measurement agree on every sink's throughput.
    #[must_use]
    pub fn agrees(&self) -> bool {
        let mut proved = self.proof.throughput.clone();
        let mut measured: Vec<(NodeId, Ratio)> = self
            .measured
            .sinks
            .iter()
            .map(|s| (s.sink, s.throughput))
            .collect();
        proved.sort_by_key(|&(n, _)| n);
        measured.sort_by_key(|&(n, _)| n);
        self.measured.periodicity.is_some() && proved == measured
    }
}

/// One edit: apply `delta` to the netlist and patch the live program
/// in place, re-prove the design, then measure it through the cache.
///
/// # Errors
///
/// The model checker or the measurement failed.
pub fn edit_op(
    name: &str,
    netlist: &mut Netlist,
    program: &mut SettleProgram,
    delta: &NetlistDelta,
    cache: &mut ThroughputCache,
    tracer: &Tracer,
) -> Result<EditOutcome, OpError> {
    {
        let _s = tracer.span("sim.patch", name);
        delta.apply_to(netlist);
        program.recompile_delta(delta);
    }
    let proof = {
        let _s = tracer.span("mc", name);
        check_declared(netlist, &McConfig::default())?
    };
    let measured = {
        let _s = tracer.span("sim.cache", name);
        let opts = MeasureOptions {
            max_transient: BUDGET,
            ..MeasureOptions::default()
        };
        cache.measure_program_with(program, opts, || netlist.clone())?
    };
    Ok(EditOutcome { proof, measured })
}
