//! The campaign layer of dpc core (plan → execute → render), driven and
//! timed from outside through its public API.

use crate::gate::{digest_str, Gate, SimView};
use crate::layers::PairView;
use crate::report::Metrics;
use crate::trace::{timed, Tracer};
use dpc::experiments::{self, CampaignPlan, ExperimentContext, ExperimentOptions, RunKey};
use dpc::{campaign, CampaignStats, ExpTable, LlcPolicySel, RunResult, SimKind, TlbPolicySel};
use std::collections::HashMap;
use std::sync::Arc;

/// Worker threads of every campaign the benchmark executes.
pub const THREADS: usize = 2;

/// Plans the paper's headline experiments (Fig. 9, Table IV, Fig. 10,
/// Table V) against a planning context.
pub fn plan(options: ExperimentOptions) -> CampaignPlan {
    let mut ctx = ExperimentContext::planner(options);
    render_tables(&mut ctx);
    ctx.into_plan()
}

/// Runs the four experiment functions against `ctx`.
pub fn render_tables(ctx: &mut ExperimentContext) -> [ExpTable; 4] {
    [
        experiments::fig9_tlb_predictor_ipc(ctx),
        experiments::table4_llt_mpki(ctx),
        experiments::fig10_llc_predictor_ipc(ctx),
        experiments::table5_llc_mpki(ctx),
    ]
}

/// Executes `plan` on [`THREADS`] workers from a cold factory. When
/// tracing, the execute span gets one child record per simulation (and
/// per stream capture) from the program's own run timings; `events`
/// gives each workload's stream length when known.
pub fn execute(
    options: ExperimentOptions,
    plan: &CampaignPlan,
    tr: &mut Tracer,
    events: &HashMap<String, u64>,
) -> (ExperimentContext, CampaignStats) {
    tr.begin_lanes("campaign.execute", "", THREADS as u32);
    let (ctx, stats) = campaign::execute(options, plan, THREADS, false);
    let budget = options.warmup_mem_ops + options.measure_mem_ops;
    let mut all_events = 0;
    for timing in &stats.run_timings {
        let n = events.get(&timing.workload).copied().unwrap_or(0);
        all_events += n;
        if !timing.gen_wall.is_zero() {
            tr.record("campaign.gen", &timing.workload, timing.gen_wall.as_secs_f64(), n, 0);
        }
        let name = match timing.kind {
            SimKind::Plain => "campaign.sim.plain",
            SimKind::Record => "campaign.sim.record",
            SimKind::Oracle => "campaign.sim.oracle",
        };
        tr.record(name, &timing.workload, timing.sim_wall().as_secs_f64(), n, budget);
    }
    tr.end(all_events, budget * stats.run_timings.len() as u64);
    (ctx, stats)
}

/// The gate label of a planned run.
pub fn label(key: &RunKey, kind: &str) -> String {
    format!(
        "{}/{kind}/{:?}/{:?}/sys-{:016x}",
        key.0,
        key.1.tlb_policy,
        key.1.llc_policy,
        digest_str(&format!("{:?}", key.1.system))
    )
}

/// Looks up every planned run in the executed context (a memo hit,
/// never a new simulation) and passes it through the gate: identities
/// always, digests only when `digests` is set.
pub fn check_results(
    gate: &mut Gate,
    ctx: &mut ExperimentContext,
    plan: &CampaignPlan,
    digests: bool,
) {
    let plain = plan.plain.iter().map(|key| (key, false));
    let oracle = plan.oracle.iter().map(|key| (key, true));
    for (key, is_oracle) in plain.chain(oracle) {
        let (result, kind) = if is_oracle {
            (ctx.run_oracle(&key.0, key.1), "oracle")
        } else {
            (ctx.run(&key.0, key.1), "plain")
        };
        let sim = view(&label(key, kind), &result, key.1.measure_mem_ops);
        if digests {
            gate.check(&sim);
        } else {
            gate.check_identities(&sim);
        }
    }
}

/// The gate's view of a campaign result.
pub fn view<'a>(label: &str, result: &'a RunResult, measure_mem_ops: u64) -> SimView<'a> {
    SimView {
        label: label.to_owned(),
        stats: &result.stats,
        llt_accuracy: result.llt_accuracy,
        llc_accuracy: result.llc_accuracy,
        measure_mem_ops,
    }
}

/// The dpPred+cbPred configuration of the campaign's baseline machine.
pub fn pair_key(options: &ExperimentOptions, workload: &str) -> RunKey {
    let config = options.base_run().with_policies(TlbPolicySel::DpPred, LlcPolicySel::CbPred);
    (workload.to_owned(), config)
}

/// Baseline and dpPred+cbPred results of `workloads`, from the memo.
pub fn pairs(
    ctx: &mut ExperimentContext,
    options: &ExperimentOptions,
    workloads: &[&str],
) -> Vec<(Arc<RunResult>, Arc<RunResult>)> {
    workloads
        .iter()
        .map(|name| {
            let base = ctx.run(name, options.base_run());
            let (_, pair_config) = pair_key(options, name);
            (base, ctx.run(name, pair_config))
        })
        .collect()
}

/// Borrowed [`PairView`]s of [`pairs`] output.
pub fn pair_views(pairs: &[(Arc<RunResult>, Arc<RunResult>)]) -> Vec<PairView<'_>> {
    pairs
        .iter()
        .map(|(base, pair)| PairView {
            base: &base.stats,
            pair: &pair.stats,
            llt_accuracy: pair.llt_accuracy,
            llc_accuracy: pair.llc_accuracy,
        })
        .collect()
}

/// Per-layer metrics of the campaign engine and runner.
pub fn add_campaign_layers(metrics: &mut Metrics, stats: &CampaignStats, plan_s: f64) {
    let busy: f64 = stats.worker_busy.iter().map(std::time::Duration::as_secs_f64).sum();
    let wall = stats.wall.as_secs_f64();
    let sim_of = |kind: SimKind| -> f64 {
        stats
            .run_timings
            .iter()
            .filter(|t| t.kind == kind)
            .map(|t| t.sim_wall().as_secs_f64())
            .sum()
    };
    metrics.add("runner.record_s", sim_of(SimKind::Record), "s");
    metrics.add("runner.oracle_s", sim_of(SimKind::Oracle), "s");
    metrics.add("campaign.plan_s", plan_s, "s");
    metrics.add("campaign.execute_s", wall, "s");
    metrics.add("campaign.sim_s", stats.total_sim_wall().as_secs_f64(), "s");
    metrics.add("campaign.gen_s", stats.total_gen_wall().as_secs_f64(), "s");
    metrics.add("campaign.worker_utilization", stats.worker_utilization(), "ratio");
    metrics.add("campaign.tail_idle_s", (stats.threads as f64 * wall - busy).max(0.0), "s");
}

/// Plans `options` once, timed and traced.
pub fn traced_plan(options: ExperimentOptions, tr: &mut Tracer) -> (CampaignPlan, f64) {
    tr.begin("campaign.plan", "");
    let (plan, secs) = timed(|| plan(options));
    tr.end(0, 0);
    (plan, secs)
}
