//! The replay workloads (`l1_hits`, `tlb_thrash`): three inputs whose
//! streams are captured during set-up, each replayed through a baseline
//! and a dpPred+cbPred machine, repeated until the measuring window
//! closes.

use crate::campaign;
use crate::gate::{Gate, SimView};
use crate::layers::{self, PairView};
use crate::probe::Probe;
use crate::report::Metrics;
use crate::trace::{timed, Deadline, Laps, Tracer};
use crate::{median, Args};
use dpc::dispatch::{dispatch, PolicyApply};
use dpc::experiments::{CampaignPlan, ExperimentOptions};
use dpc::{LlcPolicySel, RunConfig, TlbPolicySel};
use dpc_memsim::policy::AccuracyReport;
use dpc_memsim::{LlcPolicy, LltPolicy, SimStats, System};
use dpc_types::stream::EventBatch;
use dpc_types::{AllocPolicy, EventStream, StreamCursor};
use dpc_workloads::{Scale, WorkloadFactory};
use std::collections::HashMap;
use std::sync::Arc;

/// A replay workload: its inputs and per-simulation budget.
pub struct Spec {
    /// Workload name on the command line.
    pub workload: &'static str,
    /// The three simulator inputs.
    pub inputs: [&'static str; 3],
    /// Warm-up memory operations per simulation.
    pub warmup: u64,
    /// Measured memory operations per simulation.
    pub measure: u64,
    /// Memory operations per timed segment of a simulation.
    pub segment: u64,
}

/// Events that hit both the L1 D-TLB and the L1D: decode, the L1 probes
/// and core issue do the work (paper-default budget).
pub const L1_HITS: Spec = Spec {
    workload: "l1_hits",
    inputs: ["Triangle", "KCore", "sssp"],
    warmup: 200_000,
    measure: 1_000_000,
    segment: 100_000,
};

/// Events that miss the L1 D-TLB: walks, the LLT with dpPred and the LLC
/// with cbPred do the work. Each event costs ~10x an `l1_hits` event, so
/// the budget is a quarter of the paper default to fit several passes.
pub const TLB_THRASH: Spec = Spec {
    workload: "tlb_thrash",
    inputs: ["canneal", "mcf", "cactusADM"],
    warmup: 50_000,
    measure: 250_000,
    segment: 25_000,
};

/// Set-up repeats before the measuring window: at least `MIN_SETUPS`
/// times, then until `SETUP_BUDGET_S` is spent or `MAX_SETUPS` are done;
/// `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 50;
const SETUP_BUDGET_S: f64 = 2.0;
/// Events per decode call in the decode-only pass (the replay engine's
/// chunk size).
const DECODE_CHUNK: usize = 256;

/// The two machines every input runs on: gate label suffix, span name
/// and policy selectors.
const PAIRS: [(&str, &str, TlbPolicySel, LlcPolicySel); 2] = [
    ("base", "sim.base", TlbPolicySel::Baseline, LlcPolicySel::Baseline),
    ("dpPred+cbPred", "sim.pair", TlbPolicySel::DpPred, LlcPolicySel::CbPred),
];

/// A captured input stream.
pub struct Input {
    name: &'static str,
    stream: Arc<EventStream>,
}

/// One simulation's output.
struct Outcome {
    stats: SimStats,
    llt_accuracy: Option<AccuracyReport>,
    llc_accuracy: Option<AccuracyReport>,
    /// Memory operations simulated, warm-up included.
    mem_ops: u64,
    /// Host seconds of each segment: machine construction, then every
    /// `Spec::segment` memory operations of warm-up and of measurement.
    laps: Vec<f64>,
}

/// Builds every input, then captures `budget` memory operations of its
/// stream: `WorkloadFactory::build` (the first graph input builds the
/// shared graph) and `WorkloadFactory::stream`, on a cold factory.
/// Returns the streams and the store size.
pub fn set_up(
    names: &[&'static str],
    seed: u64,
    budget: u64,
    tr: &mut Tracer,
) -> (Vec<Input>, usize) {
    let factory = WorkloadFactory::new(Scale::Small, seed).with_trace_store(true);
    tr.begin("setup", "");
    for &name in names {
        tr.begin("setup.build", name);
        drop(factory.build(name).expect("benchmark inputs are known workloads"));
        tr.end(0, 0);
    }
    let inputs: Vec<Input> = names
        .iter()
        .map(|&name| {
            tr.begin("setup.capture", name);
            let (cursor, _) = factory.stream(name, budget).expect("benchmark inputs are known");
            let stream = Arc::clone(cursor.stream());
            tr.end(stream.len() as u64, stream.mem_events() as u64);
            Input { name, stream }
        })
        .collect();
    let store_bytes = factory.trace_store().total_bytes();
    tr.end(event_counts(&inputs).values().sum(), 0);
    (inputs, store_bytes)
}

/// Events per input stream (`EventStream::len`).
pub fn event_counts(inputs: &[Input]) -> HashMap<String, u64> {
    inputs.iter().map(|i| (i.name.to_owned(), i.stream.len() as u64)).collect()
}

/// The policy-pair action: a machine monomorphized for the dispatched
/// policies, replaying warm-up then measured window from the stream in
/// timed segments.
struct Simulate<'a> {
    config: RunConfig,
    segment: u64,
    input: &'a Input,
    span: &'static str,
    tr: &'a mut Tracer,
    laps: Laps,
}

/// Replays `budget` memory operations in calls of at most `segment`,
/// timing each call. Returns the statistics after the last call (they
/// accumulate until `reset_stats`, so they equal one call's).
fn run_segments<L: LltPolicy, C: LlcPolicy>(
    system: &mut System<L, C>,
    stream: &EventStream,
    cursor: &mut StreamCursor,
    budget: u64,
    segment: u64,
    laps: &mut Laps,
) -> SimStats {
    let mut remaining = budget;
    loop {
        let n = remaining.min(segment);
        let stats = system.run_stream(stream, cursor, n);
        laps.lap();
        remaining -= n;
        if remaining == 0 {
            return stats;
        }
    }
}

impl PolicyApply for Simulate<'_> {
    type Out = Outcome;

    fn apply<L: LltPolicy, C: LlcPolicy>(self, llt: L, llc: C) -> Outcome {
        let Simulate { config, segment, input, span, tr, mut laps } = self;
        let mut system = System::with_typed_policies(config.system, llt, llc)
            .expect("the paper machine is a valid configuration");
        // The sampling interval dpc's runner uses: ~200 samples per window.
        system.set_sample_interval((config.measure_mem_ops * 3 / 200).max(1000));
        laps.lap();
        let stream = input.stream.as_ref();
        let mut cursor = StreamCursor::default();
        tr.begin(span, input.name);
        tr.begin("warmup", input.name);
        let warm = run_segments(
            &mut system,
            stream,
            &mut cursor,
            config.warmup_mem_ops,
            segment,
            &mut laps,
        );
        let warm_events = cursor.position() as u64;
        tr.end(warm_events, warm.mem_ops);
        system.reset_stats();
        tr.begin("measure", input.name);
        let stats = run_segments(
            &mut system,
            stream,
            &mut cursor,
            config.measure_mem_ops,
            segment,
            &mut laps,
        );
        let events = cursor.position() as u64;
        tr.end(events - warm_events, stats.mem_ops);
        tr.end(events, warm.mem_ops + stats.mem_ops);
        Outcome {
            llt_accuracy: system.llt_policy().accuracy_report(),
            llc_accuracy: system.llc_policy().accuracy_report(),
            mem_ops: warm.mem_ops + stats.mem_ops,
            stats,
            laps: laps.secs,
        }
    }
}

/// One simulation of a pass: its gate label and output.
struct Sim {
    label: String,
    outcome: Outcome,
}

/// One pass: every input on both machines, each simulation timed in
/// segments from policy construction on. Returns the simulations and the
/// memory operations simulated.
fn pass(spec: &Spec, inputs: &[Input], base: RunConfig, tr: &mut Tracer) -> (Vec<Sim>, u64) {
    tr.begin("pass", "");
    let mut out = Vec::with_capacity(inputs.len() * PAIRS.len());
    for input in inputs {
        for (suffix, span, tlb, llc) in PAIRS {
            let config = base.with_policies(tlb, llc);
            let laps = Laps::start();
            let simulate =
                Simulate { config, segment: spec.segment, input, span, tr: &mut *tr, laps };
            let outcome = dispatch(tlb, llc, &config.system, simulate);
            out.push(Sim { label: format!("{}/{suffix}", input.name), outcome });
        }
    }
    let mem_ops = out.iter().map(|t| t.outcome.mem_ops).sum();
    tr.end(0, mem_ops);
    (out, mem_ops)
}

fn view<'a>(label: &str, outcome: &'a Outcome, measure: u64) -> SimView<'a> {
    SimView {
        label: label.to_owned(),
        stats: &outcome.stats,
        llt_accuracy: outcome.llt_accuracy,
        llc_accuracy: outcome.llc_accuracy,
        measure_mem_ops: measure,
    }
}

/// Baseline and dpPred+cbPred outcomes of each input, in input order.
fn pair_views(sims: &[Sim]) -> Vec<PairView<'_>> {
    sims.chunks_exact(PAIRS.len())
        .map(|chunk| PairView {
            base: &chunk[0].outcome.stats,
            pair: &chunk[1].outcome.stats,
            llt_accuracy: chunk[1].outcome.llt_accuracy,
            llc_accuracy: chunk[1].outcome.llc_accuracy,
        })
        .collect()
}

/// A decode-only pass over every stream (`EventStream::decode_chunk`).
pub fn decode_pass(inputs: &[Input], tr: &mut Tracer) {
    let mut batch = EventBatch::with_capacity(DECODE_CHUNK);
    for input in inputs {
        tr.begin("decode", input.name);
        let mut cursor = StreamCursor::default();
        loop {
            input.stream.decode_chunk(&mut cursor, &mut batch, DECODE_CHUNK, u64::MAX);
            if batch.is_empty() {
                break;
            }
            std::hint::black_box(batch.events());
        }
        tr.end(input.stream.len() as u64, input.stream.mem_events() as u64);
    }
}

/// Runs a replay workload; returns whether every check passed.
pub fn run(spec: &Spec, args: &Args) -> bool {
    let options = ExperimentOptions {
        scale: Scale::Small,
        seed: args.seed,
        warmup_mem_ops: spec.warmup,
        measure_mem_ops: spec.measure,
        page_policy: AllocPolicy::Base4K,
    };
    let base = options.base_run();
    let mut probe = (!args.trace).then(Probe::new);
    let mut gate = Gate::new(spec.workload, args.seed, args.bless);
    let mut tr = Tracer::new(args.trace, crate::run_id(spec.workload, args));

    let budget = spec.warmup + spec.measure;
    let set_up_timed = |inputs: &mut Vec<Input>, store_bytes: &mut usize, tr: &mut Tracer| {
        inputs.clear();
        let ((built, bytes), secs) = timed(|| set_up(&spec.inputs, args.seed, budget, tr));
        (*inputs, *store_bytes) = (built, bytes);
        secs
    };
    let mut setup_secs = Vec::new();
    let mut inputs = Vec::new();
    let mut store_bytes = 0;
    crate::sample_setups(&mut setup_secs, MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S, || {
        set_up_timed(&mut inputs, &mut store_bytes, &mut tr)
    });

    // The measuring window. Every pass replays the same deterministic
    // simulations, cut into the same segments; each segment keeps its
    // fastest repetition. Co-tenants of a shared host only ever add time
    // (contention for its last-level cache and DRAM, which can double a
    // segment's time for seconds), so the sum of the best segments tracks
    // the program, not the host's load. Contention that lasts the whole
    // run is scaled out by the probe, sampled before every untraced pass.
    // A traced run alternates untraced and traced passes, so the tracing
    // overhead is measured on the same inputs.
    let mut best: Vec<f64> = Vec::new();
    let mut pass_mem_ops = 0;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let deadline = Deadline::after(args.seconds);
    let last = loop {
        let tracing = args.trace && untraced.len() > traced.len();
        tr.set_on(tracing);
        if let Some(probe) = &mut probe {
            probe.sample();
        }
        let (sims, mem_ops) = pass(spec, &inputs, base, &mut tr);
        let laps = sims.iter().flat_map(|t| t.outcome.laps.iter().copied());
        let wall: f64 = laps.clone().sum();
        if tracing {
            traced.push(wall);
            decode_pass(&inputs, &mut tr);
        } else {
            untraced.push(wall);
            best.resize(laps.clone().count(), f64::INFINITY);
            for (b, secs) in best.iter_mut().zip(laps) {
                *b = b.min(secs);
            }
            pass_mem_ops = mem_ops;
        }
        for t in &sims {
            gate.check(&view(&t.label, &t.outcome, spec.measure));
        }
        if deadline.passed() && !untraced.is_empty() && traced.len() >= usize::from(args.trace) {
            break sims;
        }
    };

    let mut metrics = Metrics::default();
    if args.trace {
        tr.set_on(true);
        mini_campaign(spec, options, &inputs, &last, &mut gate, &mut tr, &mut metrics);
        add_layer_metrics(&mut metrics, &tr, store_bytes, setup_secs.len(), &last);
        metrics.add(
            "bench.trace_overhead_pct",
            (median(&traced) / median(&untraced) - 1.0) * 100.0,
            "%",
        );
        crate::write_trace(&tr, spec.workload, args);
    } else {
        let probe = probe.expect("untraced runs sample the probe");
        let measured: f64 = best.iter().sum();
        let wall = measured * probe.scale();
        println!(
            "# measured pass {measured} s; probe best {} s, scale {}",
            probe.best_s(),
            probe.scale()
        );
        metrics.add("setup_s", median(&setup_secs), "s");
        metrics.add("wall_s", wall, "s");
        metrics.add("sim_mops_per_s", pass_mem_ops as f64 / wall / 1e6, "Mops/s");
        metrics.add("peak_rss_mb", layers::peak_rss_mb() - probe.resident_mb(), "MB");
        layers::add_paper_ratios(&mut metrics, layers::paper_ratios(&pair_views(&last)));
    }
    println!("# passes: {} untraced, {} traced", untraced.len(), traced.len());
    crate::finish(&gate, &metrics, args)
}

/// Per-layer metrics of the set-up, decode and simulation layers, from
/// the spans and the last pass.
fn add_layer_metrics(
    metrics: &mut Metrics,
    tr: &Tracer,
    store_bytes: usize,
    setups: usize,
    last: &[Sim],
) {
    let build = tr.totals("setup.build");
    let capture = tr.totals("setup.capture");
    let decode = tr.totals("decode");
    let base = tr.totals("sim.base");
    let pair = tr.totals("sim.pair");
    let ns_per_event = |t: crate::trace::Totals| layers::ratio(t.secs * 1e9, t.events as f64);
    metrics.add("workloads.graph_build_s", build.secs / setups as f64, "s");
    metrics.add("workloads.capture_s", capture.secs / setups as f64, "s");
    metrics.add(
        "workloads.capture_mevents_per_s",
        layers::ratio(capture.events as f64 / 1e6, capture.secs),
        "Mevents/s",
    );
    metrics.add("workloads.store_mb", store_bytes as f64 / 1e6, "MB");
    metrics.add("stream.decode_ns_per_event", ns_per_event(decode), "ns");
    metrics.add("memsim.base_ns_per_event", ns_per_event(base), "ns");
    metrics.add("predictors.overhead_ns_per_event", ns_per_event(pair) - ns_per_event(base), "ns");
    let views = pair_views(last);
    let bases: Vec<&SimStats> = views.iter().map(|v| v.base).collect();
    layers::add_memsim_counts(metrics, &bases);
    layers::add_predictor_counts(metrics, &views);
}

/// The campaign layer on this workload's inputs: the four experiments'
/// plan restricted to them, executed on two workers from a cold factory.
/// Its baseline and dpPred+cbPred results must repeat the replayed ones.
fn mini_campaign(
    spec: &Spec,
    options: ExperimentOptions,
    inputs: &[Input],
    last: &[Sim],
    gate: &mut Gate,
    tr: &mut Tracer,
    metrics: &mut Metrics,
) {
    let (plan_all, plan_s) = campaign::traced_plan(options, tr);
    let mine = |key: &&dpc::RunKey| spec.inputs.contains(&key.0.as_str());
    let plan = CampaignPlan {
        plain: plan_all.plain.iter().filter(mine).cloned().collect(),
        oracle: plan_all.oracle.iter().filter(mine).cloned().collect(),
    };
    let (mut ctx, stats) = campaign::execute(options, &plan, tr, &event_counts(inputs));
    campaign::check_results(gate, &mut ctx, &plan, false);
    let pairs = campaign::pairs(&mut ctx, &options, &spec.inputs);
    for ((base, pair), chunk) in pairs.iter().zip(last.chunks_exact(PAIRS.len())) {
        for (result, replayed) in [base, pair].into_iter().zip(chunk) {
            gate.check(&campaign::view(&replayed.label, result, spec.measure));
        }
    }
    campaign::add_campaign_layers(metrics, &stats, plan_s);
}
