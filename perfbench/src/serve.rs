//! The `serve-train` workload, composed from hf-serve's public pieces
//! exactly as `hf_serve::run_colocated` composes them: pipelined PPO
//! (staleness 1) on four 2-device pools with telemetry on, its timeline
//! folded into a capacity profile, and the tiered tenant mix replayed
//! open-loop in virtual time against that profile.

use std::sync::Arc;
use std::time::Instant;

use hf_core::{Controller, Result, TimelineEntry, WorkerLayout};
use hf_genserve::GenServer;
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_rlhf::env::make_prompts;
use hf_rlhf::{
    IterStats, ModelPlacement, PipelineConfig, PipelinedPpo, Placement, RlhfConfig, RlhfSystem,
};
use hf_serve::{
    build_arrivals, frontend, mixes, train_capacity_profile, Arrival, ColocateConfig, ServeConfig,
    ServeReport, TenantSpec, TrainSummary,
};
use hf_simcluster::{ClusterSpec, CommCostModel, ResourcePool};
use hf_telemetry::{SpanRecord, Telemetry};

use crate::trace::{build_system, TraceLog};

/// The serving side of the scenario.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Virtual seconds of arrivals (the training timeline is stretched
    /// onto the same window).
    pub horizon_s: f64,
    /// Load multiplier on the tenant mix's base rates.
    pub load: f64,
    /// Fixed ladder of load multipliers searched for `slo_max_load`.
    pub ladder: Vec<f64>,
    /// Virtual seconds of arrivals at each ladder rung (the training
    /// timeline is stretched onto this shorter window there).
    pub ladder_horizon_s: f64,
    /// Cache blocks of the serving engine.
    pub cache_blocks: usize,
    /// Maximum concurrently decoding serving requests.
    pub max_batch: usize,
}

/// The whole scenario's configuration.
#[derive(Debug, Clone)]
pub struct ServeTrain {
    /// Training shape and capacity shares.
    pub cc: ColocateConfig,
    /// Serving shape.
    pub serve: ServeSpec,
    /// Pipelined steps run during set-up.
    pub warmup: u64,
    /// The job's last batches whose mean score is `final_score`.
    pub score_tail: usize,
}

impl ServeTrain {
    /// The benchmark's `serve-train` workload.
    pub fn workload() -> Self {
        // At a quarter of the tiered mix's base rates no request is shed,
        // and 3000 s hold over 1000 gold requests, so at least ten lie
        // beyond the gold p99.
        let horizon_s = 3000.0;
        ServeTrain {
            cc: ColocateConfig {
                iterations: 60,
                train_window_s: horizon_s,
                ..ColocateConfig::default()
            },
            serve: ServeSpec {
                horizon_s,
                load: 0.25,
                ladder: vec![1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0],
                ladder_horizon_s: 100.0,
                cache_blocks: 64,
                max_batch: 8,
            },
            warmup: 8,
            score_tail: 20,
        }
    }

    /// The tenant mix.
    pub fn tenants() -> Vec<TenantSpec> {
        mixes::tiered()
    }

    /// Rows trained per step.
    pub fn rollouts(&self) -> usize {
        self.cc.rows
    }
}

/// `run_training`'s split placement: actor, critic, reference and
/// reward each on its own `per_model`-device pool.
pub fn placement(cc: &ColocateConfig) -> Placement {
    let n = cc.per_model;
    let (p, t, d) = cc.spec;
    let spec = ParallelSpec::new(p, t, d);
    let gen = GenGrouping::new(spec, 1, cc.tg, GroupingMethod::Strided);
    let train = WorkerLayout::train_only(spec);
    Placement {
        actor: ModelPlacement {
            pool: ResourcePool::contiguous(0, n),
            layout: WorkerLayout::with_gen(gen),
        },
        critic: Some(ModelPlacement { pool: ResourcePool::contiguous(n, n), layout: train }),
        reference: ModelPlacement { pool: ResourcePool::contiguous(2 * n, n), layout: train },
        reward: ModelPlacement { pool: ResourcePool::contiguous(3 * n, n), layout: train },
        cost: None,
    }
}

/// The co-located training job, stepped one pipelined step at a time.
pub struct TrainJob {
    /// The single controller (telemetry on, as `run_training` runs it).
    pub ctrl: Controller,
    /// The spawned models.
    pub sys: RlhfSystem,
    /// The trace sink when workers are wrapped.
    pub log: Option<Arc<TraceLog>>,
    driver: PipelinedPpo,
    rc: RlhfConfig,
    rows: usize,
    /// Stats of every completed training batch, in completion order.
    pub stats: Vec<IterStats>,
    /// Steps issued so far.
    pub next: u64,
}

/// What a finished job leaves behind, as `hf_serve::run_training`
/// returns it: the controller timeline, the telemetry spans, and the
/// training summary.
pub type JobTrace = (Vec<TimelineEntry>, Vec<SpanRecord>, TrainSummary);

/// One pipelined step as seen from the controller.
#[derive(Debug, Clone)]
pub struct JobStep {
    /// Host seconds of the step.
    pub wall_s: f64,
    /// Trace-log times bracketing the step (traced jobs only).
    pub window: Option<(f64, f64)>,
    /// Physical DataProto bytes the controller thread copied.
    pub copy_bytes: u64,
}

impl TrainJob {
    /// Spawns the job; `traced` wraps every worker.
    pub fn start(cc: &ColocateConfig, traced: bool) -> Result<TrainJob> {
        let rc = RlhfConfig::tiny();
        let ctrl = Controller::with_telemetry(
            ClusterSpec::a100_with_gpus(4 * cc.per_model),
            CommCostModel::default(),
            Telemetry::enabled(),
        );
        let log = traced.then(TraceLog::new);
        let sys = build_system(&ctrl, &placement(cc), &rc, log.as_ref())?;
        let driver = PipelinedPpo::new(PipelineConfig { staleness: 1, gen_chunks: cc.gen_chunks });
        Ok(TrainJob { ctrl, sys, log, driver, rc, rows: cc.rows, stats: Vec::new(), next: 0 })
    }

    /// One pipelined step on iteration `next`'s prompts (seeded by the
    /// iteration index, as `run_training` seeds them).
    pub fn step(&mut self) -> Result<JobStep> {
        let rc = &self.rc;
        let prompts =
            make_prompts(self.rows, rc.prompt_len, rc.response_len, rc.lm.vocab as u32, self.next);
        let copy0 = hf_core::physical_copy_bytes();
        let lt0 = self.log.as_ref().map(|l| l.now());
        let t0 = Instant::now();
        if let Some(s) = self.driver.step(&self.sys, &self.ctrl, &prompts)? {
            self.stats.push(s);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        self.next += 1;
        let window = self.log.as_ref().map(|l| (lt0.expect("traced"), l.now()));
        Ok(JobStep { wall_s, window, copy_bytes: hf_core::physical_copy_bytes() - copy0 })
    }

    /// Drains the pipeline and snapshots what `run_training` returns.
    pub fn finish(&mut self) -> Result<JobTrace> {
        let tail = self.driver.flush(&self.sys, &self.ctrl)?;
        self.stats.extend(tail);
        let timeline = self.ctrl.timeline();
        let spans = self.ctrl.telemetry().spans();
        let virtual_seconds = self.ctrl.clock();
        let stall: f64 = spans
            .iter()
            .filter(|s| s.name.starts_with("transition."))
            .map(|s| s.end - s.start)
            .sum();
        let count = self.stats.len().max(1) as f64;
        let summary = TrainSummary {
            iterations: self.stats.len() as u64,
            virtual_seconds,
            transition_stall_s: stall,
            mean_score: self.stats.iter().map(|s| s.mean_score as f64).sum::<f64>() / count,
            mean_actor_loss: self.stats.iter().map(|s| s.actor_loss as f64).sum::<f64>() / count,
        };
        Ok((timeline, spans, summary))
    }

    /// Stops the device threads.
    pub fn shutdown(self) -> Result<()> {
        self.ctrl.shutdown()
    }
}

/// The serving engine and the vocabulary its arrivals draw from.
pub fn server(spec: &ServeSpec) -> (GenServer, usize) {
    hf_serve::standard_server(spec.cache_blocks, spec.max_batch)
}

/// The serving half: the seeded arrival schedule and the front-end's
/// run over it against the finished job's capacity profile.
pub struct ServePhase {
    /// The arrival schedule the benchmark generated.
    pub arrivals: Vec<Arrival>,
    /// The front-end's report.
    pub report: ServeReport,
}

/// Runs the co-located serving phase as `run_colocated` does.
#[allow(clippy::too_many_arguments)]
pub fn serve_phase(
    cc: &ColocateConfig,
    job: &JobTrace,
    server: &GenServer,
    vocab: usize,
    horizon_s: f64,
    load: f64,
    seed: u64,
    tel: Option<&Telemetry>,
) -> std::result::Result<ServePhase, hf_genserve::GenError> {
    let (timeline, spans, train) = job;
    let profile = train_capacity_profile(timeline, spans, cc, train.virtual_seconds);
    let horizon = if horizon_s > 0.0 { horizon_s } else { cc.train_window_s };
    let tenants = ServeTrain::tenants();
    let arrivals = build_arrivals(&tenants, horizon, load, vocab, seed);
    let report =
        frontend::run(server, &tenants, &arrivals, &ServeConfig::default(), &profile, tel)?;
    Ok(ServePhase { arrivals, report })
}

/// Per-tenant request accounting: `(arrivals in the schedule, reported
/// arrivals, completed, shed, unfinished)`.
pub fn conservation(phase: &ServePhase) -> Vec<(u64, u64, u64, u64, u64)> {
    phase
        .report
        .tenants
        .iter()
        .enumerate()
        .map(|(k, t)| {
            let scheduled = phase.arrivals.iter().filter(|a| a.tenant as usize == k).count() as u64;
            let shed = t.shed_pressure + t.shed_budget;
            let unfinished = t.arrivals.saturating_sub(t.completed + shed);
            (scheduled, t.arrivals, t.completed, shed, unfinished)
        })
        .collect()
}

/// Arrivals served to completion within their tenant's TTFT SLO, over
/// every tenant.
pub fn within_slo(report: &ServeReport) -> u64 {
    report.tenants.iter().map(|t| (t.slo_attainment * t.completed as f64).round() as u64).sum()
}

/// The top-priority tenant's report.
pub fn gold(report: &ServeReport) -> &hf_serve::TenantReport {
    let top = report.tenants.iter().map(|t| t.priority).min().expect("tenants");
    report.tenants.iter().find(|t| t.priority == top).expect("top tenant")
}

/// Whether the run met the top tier's p99 SLO with no growing backlog:
/// the engine drains within the loosest SLO after the horizon.
pub fn meets_slo(report: &ServeReport, horizon_s: f64) -> bool {
    let g = gold(report);
    let loosest = report.tenants.iter().map(|t| t.slo_ttft_s).fold(0.0, f64::max);
    g.p99_ttft_s <= g.slo_ttft_s && report.duration_s <= horizon_s + loosest
}

/// Bit-level summary of a serving report and training summary, for
/// comparing two runs exactly.
pub fn report_bits(report: &ServeReport, train: &TrainSummary) -> Vec<u64> {
    let mut v = vec![
        report.duration_s.to_bits(),
        report.engine_steps,
        report.preemptions,
        report.prefix_hit_tokens,
        train.iterations,
        train.virtual_seconds.to_bits(),
        train.transition_stall_s.to_bits(),
        train.mean_score.to_bits(),
        train.mean_actor_loss.to_bits(),
    ];
    for t in &report.tenants {
        v.extend([
            t.arrivals,
            t.completed,
            t.shed_pressure,
            t.shed_budget,
            t.generated_tokens,
            t.p50_ttft_s.to_bits(),
            t.p99_ttft_s.to_bits(),
            t.slo_attainment.to_bits(),
            t.tokens_per_s.to_bits(),
            t.peak_charged_bytes,
        ]);
    }
    v
}
