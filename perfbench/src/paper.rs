//! The `paper_campaign` workload: what users run. Plan, execute on two
//! workers from a cold factory, and render Fig. 9, Table IV, Fig. 10 and
//! Table V over all 14 workloads.

use crate::campaign;
use crate::gate::{digest_str, Gate};
use crate::layers;
use crate::replay;
use crate::report::Metrics;
use crate::trace::{timed, Deadline, Tracer};
use crate::{median, Args};
use dpc::experiments::{CampaignPlan, ExperimentContext, ExperimentOptions};
use dpc::{CampaignStats, ExpTable, RunResult, SimKind};
use dpc_memsim::SimStats;
use dpc_types::AllocPolicy;
use dpc_workloads::{Scale, WorkloadFactory, WORKLOAD_NAMES};
use std::collections::HashMap;
use std::sync::Arc;

/// Warm-up memory operations per simulation: a fifth of the `paper`
/// default, so one campaign fits the benchmark's time per run.
const WARMUP: u64 = 40_000;
/// Measured memory operations per simulation (a fifth of the default).
const MEASURE: u64 = 200_000;
/// Plans per run: at least `MIN_PLANS`, then more (up to `MAX_PLANS`)
/// until `PLAN_BUDGET_S` is spent; `setup_s` is their median.
const MIN_PLANS: usize = 3;
const MAX_PLANS: usize = 2000;
const PLAN_BUDGET_S: f64 = 0.5;
/// Inputs re-simulated outside the campaign for repetition agreement:
/// the ones without a shared graph, so no graph is rebuilt.
const RECHECK: [&str; 5] = ["cactusADM", "cg.B", "lbm", "canneal", "mcf"];
/// The three headline summary cells, as (table in `render_tables` order,
/// column): Fig. 10 cbPred (IPC), Table IV dpPred (LLT MPKI cut) and
/// Table V cbPred (LLC MPKI cut).
const HEADLINES: [(usize, usize); 3] = [(2, 4), (1, 2), (3, 2)];

/// One executed and rendered campaign.
struct Campaign {
    ctx: ExperimentContext,
    stats: CampaignStats,
    tables: [ExpTable; 4],
    render_s: f64,
}

fn options(seed: u64) -> ExperimentOptions {
    ExperimentOptions {
        scale: Scale::Small,
        seed,
        warmup_mem_ops: WARMUP,
        measure_mem_ops: MEASURE,
        page_policy: AllocPolicy::Base4K,
    }
}

/// Executes `plan` from a cold factory and renders the four tables.
fn campaign(
    options: ExperimentOptions,
    plan: &CampaignPlan,
    tr: &mut Tracer,
    events: &HashMap<String, u64>,
) -> Campaign {
    let (mut ctx, stats) = campaign::execute(options, plan, tr, events);
    tr.begin("campaign.render", "");
    let (tables, render_s) = timed(|| {
        let tables = campaign::render_tables(&mut ctx);
        for table in &tables {
            std::hint::black_box(table.render());
        }
        tables
    });
    tr.end(0, 0);
    Campaign { ctx, stats, tables, render_s }
}

/// Gates one campaign: every simulation, the rendered tables, and the
/// three headline values against their rendered summary cells.
fn check(gate: &mut Gate, plan: &CampaignPlan, run: &mut Campaign) {
    campaign::check_results(gate, &mut run.ctx, plan, true);
    let rendered: String = run.tables.iter().map(ExpTable::render).collect();
    gate.check_digest("tables", digest_str(&rendered));
    for (index, column) in HEADLINES {
        let table = &run.tables[index];
        let value = table.summary_values().map(|v| v[column]);
        let text = table.render();
        let cell = text
            .lines()
            .rev()
            .find(|l| l.starts_with("geomean") || l.starts_with("mean"))
            .and_then(|l| l.split_whitespace().nth(column + 1));
        let want = value.map(|v| format!("{v:.prec$}", prec = table.precision));
        if cell.is_none() || cell.map(str::to_owned) != want {
            gate.problem(format!("{}: summary {want:?} is not the rendered {cell:?}", table.title));
        }
    }
}

/// Re-simulates a sample of the campaign's runs through `dpc::run_workload`
/// and `dpc::run_oracle` on an independent factory: they must repeat the
/// campaign's digests.
fn recheck(gate: &mut Gate, options: ExperimentOptions, plan: &CampaignPlan) {
    let factory = WorkloadFactory::new(options.scale, options.seed).with_trace_store(true);
    for name in RECHECK {
        let (_, pair) = campaign::pair_key(&options, name);
        for key in
            plan.plain.iter().filter(|k| k.0 == name && (k.1 == pair || k.1 == options.base_run()))
        {
            let result = dpc::run_workload(&factory, name, &key.1);
            gate.check(&campaign::view(&campaign::label(key, "plain"), &result, MEASURE));
        }
    }
    if let Some(key) = plan.oracle.iter().find(|k| k.0 == "mcf") {
        let result = dpc::run_oracle(&factory, &key.0, &key.1);
        gate.check(&campaign::view(&campaign::label(key, "oracle"), &result, MEASURE));
    }
}

/// The traced set-up on a cold factory of the benchmark's own, as the
/// campaign's generation phase does it: every `build`, every stream
/// capture, then a decode-only pass. Returns each workload's stream
/// length and the store size.
fn traced_inputs(options: ExperimentOptions, tr: &mut Tracer) -> (HashMap<String, u64>, usize) {
    let budget = options.warmup_mem_ops + options.measure_mem_ops;
    let (inputs, store_bytes) = replay::set_up(&WORKLOAD_NAMES, options.seed, budget, tr);
    replay::decode_pass(&inputs, tr);
    (replay::event_counts(&inputs), store_bytes)
}

/// Runs `paper_campaign`; returns whether every check passed.
pub fn run(args: &Args) -> bool {
    let options = options(args.seed);
    let mut gate = Gate::new("paper_campaign", args.seed, args.bless);
    let mut tr = Tracer::new(false, crate::run_id("paper_campaign", args));
    let none = HashMap::new();

    // Set-up is planning; the cold factory's generation is part of every
    // campaign, so it stays in the timed phase.
    let mut plan_secs = Vec::new();
    let mut plan = CampaignPlan::default();
    crate::sample_setups(&mut plan_secs, MIN_PLANS, MAX_PLANS, PLAN_BUDGET_S, || {
        let (planned, secs) = timed(|| campaign::plan(options));
        plan = planned;
        secs
    });

    let deadline = Deadline::after(args.seconds);
    let mut walls = Vec::new();
    let mut throughputs = Vec::new();
    let mut last = loop {
        let (mut run, wall) = timed(|| campaign(options, &plan, &mut tr, &none));
        check(&mut gate, &plan, &mut run);
        walls.push(wall);
        throughputs.push(run.stats.total_mem_ops() as f64 / wall / 1e6);
        // Start another campaign only if it fits in the window.
        if args.trace || deadline.remaining() < wall {
            break run;
        }
    };
    recheck(&mut gate, options, &plan);

    let mut metrics = Metrics::default();
    if args.trace {
        tr.set_on(true);
        let (events, store_bytes) = traced_inputs(options, &mut tr);
        let (plan, plan_s) = campaign::traced_plan(options, &mut tr);
        let (mut run, wall) = timed(|| campaign(options, &plan, &mut tr, &events));
        check(&mut gate, &plan, &mut run);
        add_layer_metrics(&mut metrics, &tr, &mut run, &options, &events, store_bytes, plan_s);
        metrics.add("bench.trace_overhead_pct", (wall / walls[0] - 1.0) * 100.0, "%");
        println!("# campaign.render_s = {} s", run.render_s);
        crate::write_trace(&tr, "paper_campaign", args);
        last = run;
    } else {
        metrics.add("setup_s", median(&plan_secs), "s");
        metrics.add("wall_s", median(&walls), "s");
        metrics.add("sim_mops_per_s", median(&throughputs), "Mops/s");
        metrics.add("peak_rss_mb", layers::peak_rss_mb(), "MB");
        let [ipc, llt_cut, llc_cut] = HEADLINES
            .map(|(index, column)| last.tables[index].summary_values().map_or(0.0, |v| v[column]));
        layers::add_paper_ratios(&mut metrics, (ipc, 1.0 - llt_cut / 100.0, 1.0 - llc_cut / 100.0));
    }
    let stats = &last.stats;
    println!(
        "# last campaign: {} simulations on {} workers in {:.1} s ({:.1} s generating, \
         {:.1} s simulating); {} campaigns timed",
        stats.simulations(),
        stats.threads,
        stats.wall.as_secs_f64(),
        stats.total_gen_wall().as_secs_f64(),
        stats.total_sim_wall().as_secs_f64(),
        walls.len()
    );
    crate::finish(&gate, &metrics, args)
}

/// Per-layer metrics of the traced campaign: set-up layers from the
/// replicated inputs, host time per event from the campaign's own run
/// timings, simulated counts from its results.
fn add_layer_metrics(
    metrics: &mut Metrics,
    tr: &Tracer,
    run: &mut Campaign,
    options: &ExperimentOptions,
    events: &HashMap<String, u64>,
    store_bytes: usize,
    plan_s: f64,
) {
    let capture = tr.totals("setup.capture");
    let decode = tr.totals("decode");
    metrics.add("workloads.graph_build_s", tr.totals("setup.build").secs, "s");
    metrics.add("workloads.capture_s", capture.secs, "s");
    metrics.add(
        "workloads.capture_mevents_per_s",
        layers::ratio(capture.events as f64 / 1e6, capture.secs),
        "Mevents/s",
    );
    metrics.add("workloads.store_mb", store_bytes as f64 / 1e6, "MB");
    metrics.add(
        "stream.decode_ns_per_event",
        layers::ratio(decode.secs * 1e9, decode.events as f64),
        "ns",
    );
    // The campaign's only policy-free plain runs are Fig. 9's
    // iso-storage machines (one more LLT way); the baseline machine
    // itself runs as the oracle's recording pass, which carries the
    // recorder's cost, so the iso-storage runs stand in for the baseline.
    let ns_per_event = |pick: &dyn Fn(&dpc::RunTiming) -> bool| {
        let (secs, n) =
            run.stats.run_timings.iter().filter(|t| pick(t)).fold((0.0, 0), |acc, t| {
                (
                    acc.0 + t.sim_wall().as_secs_f64(),
                    acc.1 + events.get(&t.workload).copied().unwrap_or(0),
                )
            });
        layers::ratio(secs * 1e9, n as f64)
    };
    let base_ns = ns_per_event(&|t| {
        t.kind == SimKind::Plain && t.tlb_policy == "Baseline" && t.llc_policy == "Baseline"
    });
    let pair_ns = ns_per_event(&|t| {
        t.kind == SimKind::Plain && t.tlb_policy == "DpPred" && t.llc_policy == "CbPred"
    });
    metrics.add("memsim.base_ns_per_event", base_ns, "ns");
    metrics.add("predictors.overhead_ns_per_event", pair_ns - base_ns, "ns");
    let pairs: Vec<(Arc<RunResult>, Arc<RunResult>)> =
        campaign::pairs(&mut run.ctx, options, &WORKLOAD_NAMES);
    let views = campaign::pair_views(&pairs);
    let bases: Vec<&SimStats> = views.iter().map(|v| v.base).collect();
    layers::add_memsim_counts(metrics, &bases);
    layers::add_predictor_counts(metrics, &views);
    campaign::add_campaign_layers(metrics, &run.stats, plan_s);
}
