//! The one recovery loop: checkpoint → detect → respawn (same or new
//! layout) → restore → continue, on one live controller.
//!
//! [`remap_recoverable`] handles a lost rank and a serving front-end
//! re-negotiating training's GPU share the same way. A plain restart is
//! the [`KeepLayout`] case: the same placement goes back on the same
//! devices (a replaced device). When the device is permanently gone or
//! the budget shrank, a [`MapperPlanner`] re-enters the device-mapping
//! search instead. Each recovery or shift runs:
//!
//! 1. **Detect** — a window fails with a rank-loss/timeout error and the
//!    controller's [`LostRank`](hf_core::LostRank) registry names the
//!    devices that died; or a [`PlannedRemap`] (a load-shift signal,
//!    e.g. from `hf-serve`) matures at a checkpoint boundary.
//! 2. **Re-place** — a [`RemapPlanner`] picks the new placement:
//!    [`MapperPlanner`] re-runs `Mapper::search` over the surviving
//!    device set (the mapper's caches are world-size independent, so
//!    the re-search is warm-started) and bridges the winning strategy
//!    onto the running system's toy model.
//! 3. **Reshard live** — the old worker groups are despawned *on the
//!    live controller* ([`Controller::despawn_group`]), the new groups
//!    spawned on the planned devices, and the last committed checkpoint
//!    is broadcast into the new layout through the existing
//!    `CheckpointStore::restore_group` path — which is layout-agnostic
//!    by construction.
//! 4. **Continue** — the driver re-enters at the last committed step.
//!    No process restart, no full replay. A rank lost before the step-0
//!    checkpoint commits has nothing to restore: the respawned system
//!    *is* the initial state (worker construction is seed-deterministic),
//!    so the loop re-saves step 0 and starts over.
//!
//! The controller clock runs on across recoveries, so a
//! `FaultTrigger::AtTime` is absolute over the whole run.
//!
//! **Determinism contract.** Prompt batches are seeded by iteration
//! number and the checkpoint restores parameters, Adam moments, step
//! counts, and the generation RNG round bit-for-bit, so the continued
//! run's token streams, weights, and optimizer moments are bit-identical
//! to a fresh run launched in the re-mapped layout from the same
//! committed checkpoint (the audit sweep's mid-run-remap dimension and
//! the `fault_remap` tier-1 test assert exactly this). Each checkpoint
//! window runs one fresh [`StageDriver`] under the configured schedule
//! and flushes it at the boundary: every committed step has pinned
//! staleness, hence pinned bits.

use hf_core::{Controller, CoreError, Result, WorkerLayout};
use hf_mapping::{AlgoKind, DataflowSpec, Mapper};
use hf_modelspec::{ModelConfig, PerfModel, RlhfWorkload};
use hf_nn::LmConfig;
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_resilience::{classify, CheckpointStore, FailureKind, RecoveryStats};
use hf_simcluster::{ClusterSpec, DeviceId, ResourcePool};

use crate::algo::{IterStats, Placement, RlhfConfig, RlhfSystem};
use crate::pipeline::StageDriver;
use crate::recover::{
    iteration_inputs, restore_system_checkpoint, save_system_checkpoint, RecoveryConfig,
    RecoveryReport,
};
use crate::trainer::Algorithm;

/// A capacity-profile shift scheduled from outside (e.g. the serving
/// front-end re-negotiating training's GPU share): after
/// `after_iteration` commits, re-map onto at most `devices` GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedRemap {
    /// The iteration boundary the shift matures at.
    pub after_iteration: u64,
    /// Target device budget (healthy devices are truncated to this).
    pub devices: usize,
}

/// What a planner decided for one re-map.
#[derive(Debug, Clone)]
pub struct PlannedPlacement {
    /// The new placement (every pool ⊆ the survivor set handed in,
    /// except under [`KeepLayout`], which models replaced devices).
    pub placement: Placement,
    /// The actor's training layout under the new placement.
    pub spec: ParallelSpec,
    /// Wall-clock seconds the placement decision took. Recorded on the
    /// [`RemapEvent`] and in [`RecoveryStats`], but *never* fed into
    /// virtual time or telemetry — the decision must not perturb
    /// simulated timing or deterministic artefacts.
    pub search_wall_s: f64,
    /// `(plan, alloc)` candidates the search scored, 0 if not searched.
    pub evaluations: usize,
}

/// Decides a new placement over a surviving device set.
pub trait RemapPlanner {
    /// Plans a placement using only `survivors` (any subset). `rlhf`
    /// describes the running system; `algorithm` determines which roles
    /// (critic, cost model) the placement must carry.
    fn plan(
        &mut self,
        survivors: &[DeviceId],
        rlhf: &RlhfConfig,
        algorithm: Algorithm,
    ) -> Result<PlannedPlacement>;
}

/// Bridges a paper-scale strategy onto the toy system: the largest
/// `(p, t, d)` with `p | layers`, `t | ffn`, and `p·t·d ≤ world`,
/// preferring full device usage and then closeness to `found`.
/// Deterministic in its inputs.
pub fn bridge_spec(found: ParallelSpec, lm: &LmConfig, world: usize) -> ParallelSpec {
    let mut best = (1usize, 1usize, 1usize);
    // (usage, p-distance, t-distance) — maximize usage, then minimize
    // distance to the searched strategy.
    let mut best_key = (0usize, usize::MAX, usize::MAX);
    for p in (1..=world.min(lm.layers)).filter(|p| lm.layers.is_multiple_of(*p)) {
        for t in (1..=world / p).filter(|t| lm.ffn.is_multiple_of(*t)) {
            let d = world / (p * t);
            let key = (p * t * d, found.p.abs_diff(p), found.t.abs_diff(t));
            if key.0 > best_key.0
                || (key.0 == best_key.0 && (key.1, key.2) < (best_key.1, best_key.2))
            {
                best = (p, t, d);
                best_key = key;
            }
        }
    }
    ParallelSpec::new(best.0, best.1, best.2)
}

/// The default planner: re-runs the paper's Algorithm 1 over the
/// surviving world and bridges the winning actor strategy onto the
/// running system. The [`Mapper`]'s strategy/bound caches key on
/// `(role, gpus, pressure)` — world-size independent — so every
/// re-search after the first is warm-started.
pub struct MapperPlanner {
    mapper: Mapper,
}

impl MapperPlanner {
    /// A planner searching a paper-scale PPO dataflow (7B models, the
    /// paper's workload) over an A100 cluster of `total_gpus`.
    pub fn paper_scale(total_gpus: usize) -> Self {
        let perf = PerfModel::new(ClusterSpec::a100_with_gpus(total_gpus));
        let df =
            DataflowSpec::uniform(AlgoKind::Ppo, ModelConfig::llama_7b(), RlhfWorkload::paper());
        MapperPlanner { mapper: Mapper::new(perf, df, total_gpus) }
    }

    /// A planner searching a toy-scale PPO dataflow — feasible down to a
    /// single surviving GPU, unlike [`paper_scale`](Self::paper_scale)'s
    /// 7B models whose four roles need at least 4 GPUs of memory.
    pub fn toy(total_gpus: usize) -> Self {
        let perf = PerfModel::new(ClusterSpec::a100_with_gpus(total_gpus));
        let df = DataflowSpec::uniform(AlgoKind::Ppo, ModelConfig::tiny(), RlhfWorkload::paper());
        MapperPlanner { mapper: Mapper::new(perf, df, total_gpus) }
    }

    /// A planner around an explicit, pre-configured mapper.
    pub fn from_mapper(mapper: Mapper) -> Self {
        MapperPlanner { mapper }
    }

    /// The underlying mapper (its `stats()` expose warm-start hit rates).
    pub fn mapper(&self) -> &Mapper {
        &self.mapper
    }
}

impl RemapPlanner for MapperPlanner {
    fn plan(
        &mut self,
        survivors: &[DeviceId],
        rlhf: &RlhfConfig,
        algorithm: Algorithm,
    ) -> Result<PlannedPlacement> {
        if survivors.is_empty() {
            return Err(CoreError::Config("no surviving devices to re-map onto".into()));
        }
        self.mapper.resize_world(survivors.len());
        let before = self.mapper.stats();
        let t0 = std::time::Instant::now();
        // The sequential search: deterministic incumbent tie-breaking,
        // so the chosen layout — and with it every post-remap bit — is
        // reproducible across runs (the parallel search breaks cost
        // ties by arrival order).
        let found = self.mapper.search_sequential().ok_or_else(|| {
            CoreError::Config(format!("no feasible mapping for {} survivors", survivors.len()))
        })?;
        let search_wall_s = t0.elapsed().as_secs_f64();
        let evaluations = self.mapper.stats().evaluations - before.evaluations;
        let actor = found
            .strategies
            .get(&hf_mapping::Role::Actor)
            .ok_or_else(|| CoreError::Invariant("mapping carries no actor strategy".into()))?;
        let spec = bridge_spec(actor.spec, &rlhf.lm, survivors.len());
        // Generation grouping (1,1) divides every training layout; the
        // searched gen choice is paper-scale and does not transfer.
        let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
        let pool = ResourcePool::new(survivors[..spec.world()].to_vec());
        let placement = Placement::colocated(
            pool,
            WorkerLayout::with_gen(gen),
            matches!(algorithm, Algorithm::Ppo | Algorithm::SafeRlhf),
            matches!(algorithm, Algorithm::SafeRlhf),
        );
        Ok(PlannedPlacement { placement, spec, search_wall_s, evaluations })
    }
}

/// The restart planner: puts the same placement back on the same
/// devices, modelling a replaced device. It ignores the survivor set —
/// the killed rank's device thread outlives the kill (only the worker
/// is marked dead, and despawning clears the mark).
pub struct KeepLayout(pub Placement);

impl RemapPlanner for KeepLayout {
    fn plan(
        &mut self,
        _survivors: &[DeviceId],
        _rlhf: &RlhfConfig,
        _algorithm: Algorithm,
    ) -> Result<PlannedPlacement> {
        Ok(PlannedPlacement {
            placement: self.0.clone(),
            spec: self.0.actor.layout.spec,
            search_wall_s: 0.0,
            evaluations: 0,
        })
    }
}

/// One completed re-map.
#[derive(Debug, Clone)]
pub struct RemapEvent {
    /// Why the re-map happened.
    pub reason: String,
    /// The step training resumed from (the last committed checkpoint).
    pub resumed_step: u64,
    /// Devices in use before and after.
    pub world_before: usize,
    /// Devices in use after the re-map.
    pub world_after: usize,
    /// The actor layout after the re-map.
    pub spec: ParallelSpec,
    /// Wall seconds deciding the new mapping (not virtual time).
    pub search_wall_s: f64,
    /// Virtual seconds broadcasting the checkpoint into the new layout.
    pub reshard_s: f64,
    /// Bytes the restore broadcast dispatched.
    pub reshard_bytes: u64,
    /// Virtual seconds from failure detection (or shift maturity) to
    /// training resumed — the blackout the re-map cost.
    pub blackout_s: f64,
}

fn run_window(
    sys: &RlhfSystem,
    ctrl: &Controller,
    cfg: &RecoveryConfig,
    start: u64,
    end: u64,
) -> Result<Vec<IterStats>> {
    // The actor's restored generation round continues the run's round
    // sequence, so a fresh driver per window is bit-compatible with one
    // long run.
    let mut driver = StageDriver::with_algorithm(cfg.algorithm, cfg.pipeline);
    let mut out = Vec::new();
    for i in start..end {
        let seed = cfg.data_seed.wrapping_add(i);
        let (prompts, pretrain) = iteration_inputs(&sys.cfg, cfg.algorithm, cfg.batch, seed);
        out.extend(driver.step_captured(sys, ctrl, &prompts, pretrain.as_ref())?.map(|(s, _)| s));
    }
    out.extend(driver.flush(sys, ctrl)?);
    Ok(out)
}

/// Tears the system's worker groups down on the live controller.
fn despawn_system(ctrl: &Controller, sys: RlhfSystem) {
    let RlhfSystem { actor, critic, reference, reward, cost, cfg: _ } = sys;
    ctrl.despawn_group(actor);
    if let Some(g) = critic {
        ctrl.despawn_group(g);
    }
    ctrl.despawn_group(reference);
    ctrl.despawn_group(reward);
    if let Some(g) = cost {
        ctrl.despawn_group(g);
    }
}

/// Runs `cfg.iterations` iterations on one live controller with
/// checkpoint-based recovery: whenever a rank dies, and whenever a
/// [`PlannedRemap`] matures, the system is respawned where `planner`
/// says and restored from the last committed checkpoint. See the
/// module docs for the protocol and the determinism contract.
///
/// `initial` places the first epoch; `rlhf` configures every system the
/// run builds (the model is identical across re-maps — only the layout
/// moves). An application error (bad data, unknown method) propagates
/// immediately: replaying it would fail identically. The run also
/// errors out on an exhausted retry budget, and when fewer than
/// `cfg.min_world` devices survive.
pub fn remap_recoverable(
    ctrl: &Controller,
    store: &CheckpointStore,
    cfg: &RecoveryConfig,
    initial: &Placement,
    rlhf: RlhfConfig,
    planner: &mut dyn RemapPlanner,
) -> Result<RecoveryReport> {
    assert!(cfg.checkpoint_every >= 1, "checkpoint_every must be >= 1");
    let telemetry = ctrl.telemetry().clone();
    let mut sys = RlhfSystem::build(ctrl, initial, rlhf.clone())?;
    let mut world = initial.actor.pool.len();
    // The capped device budget: starts at the allowed universe, shrinks
    // when a planned remap matures (a later rank loss must not grow the
    // world back past the most recent budget).
    let mut budget = cfg.allowed.as_ref().map(|a| a.len()).unwrap_or(ctrl.cluster().total_gpus());

    let mut stats = RecoveryStats::new();
    let mut log = Vec::new();
    let mut history: Vec<IterStats> = Vec::new();
    let mut remaps: Vec<RemapEvent> = Vec::new();
    let mut planned = cfg.planned.clone();
    planned.sort_by_key(|p| p.after_iteration);
    let mut iteration = 0u64;
    let mut recoveries = 0u32;
    // Whether the step-0 checkpoint has committed.
    let mut initialized = false;
    // The instant lost work is measured from: the last commit, or the
    // instant training resumed after a recovery or re-map, if later.
    let mut t_ckpt = ctrl.clock();
    // Clock at which the in-flight checkpoint write began, if one is in
    // flight. A fault inside the write loses *checkpoint overhead*, not
    // training work — the accounting below keeps the two apart.
    let mut save_start: Option<f64> = None;

    // The healthy devices this run may occupy, truncated to `limit`.
    let survivors = |ctrl: &Controller, allowed: &Option<Vec<DeviceId>>, limit: usize| {
        let lost = ctrl.lost_devices();
        let universe: Vec<DeviceId> = match allowed {
            Some(a) => a.clone(),
            None => (0..ctrl.cluster().total_gpus()).map(DeviceId).collect(),
        };
        universe.into_iter().filter(|d| !lost.contains(d)).take(limit).collect::<Vec<_>>()
    };

    // One re-map: despawn → plan → respawn → restore → account.
    // `reason` feeds the event log; `step` is the committed step to
    // restore (`None`: nothing committed, the respawn is the initial
    // state).
    macro_rules! do_remap {
        ($sys:ident, $reason:expr, $step:expr) => {{
            let step: Option<u64> = $step;
            let t_detect = ctrl.clock();
            let world_before = world;
            despawn_system(ctrl, $sys);
            let alive = survivors(ctrl, &cfg.allowed, budget);
            if alive.len() < cfg.min_world {
                return Err(CoreError::Worker(format!(
                    "only {} devices survive (< min_world {})",
                    alive.len(),
                    cfg.min_world
                )));
            }
            let plan = planner.plan(&alive, &rlhf, cfg.algorithm)?;
            let new_sys = RlhfSystem::build(ctrl, &plan.placement, rlhf.clone())?;
            let bytes0 = telemetry.counter("protocol.OneToAll.dispatch_bytes");
            let t_reshard = ctrl.clock();
            if let Some(step) = step {
                restore_system_checkpoint(store, &new_sys, step)?;
            }
            let reshard_s = ctrl.clock() - t_reshard;
            let reshard_bytes = telemetry.counter("protocol.OneToAll.dispatch_bytes") - bytes0;
            let blackout_s = ctrl.clock() - t_detect;
            let resumed_step = step.unwrap_or(0);
            world = plan.placement.actor.pool.len();
            stats.record_remap(plan.search_wall_s, reshard_s);
            telemetry.observe_digest("remap.reshard_s", reshard_s);
            telemetry.observe_digest("remap.blackout_s", blackout_s);
            telemetry.add_counter("remap.reshard_bytes", reshard_bytes);
            telemetry.add_counter("remap.events", 1);
            telemetry.set_gauge("remap.world", world as f64);
            log.push(format!(
                "remap ({}): {} -> {} devices, layout {:?}, resumed step {}, \
                 blackout {:.3}s ({:.3}s reshard)",
                $reason, world_before, world, plan.spec, resumed_step, blackout_s, reshard_s
            ));
            remaps.push(RemapEvent {
                reason: $reason,
                resumed_step,
                world_before,
                world_after: world,
                spec: plan.spec,
                search_wall_s: plan.search_wall_s,
                reshard_s,
                reshard_bytes,
                blackout_s,
            });
            new_sys
        }};
    }

    while !initialized || (iteration as usize) < cfg.iterations {
        // Window end: step 0 until it commits; then the next checkpoint
        // boundary, capped by the run length and by the next planned
        // shift.
        let ce = cfg.checkpoint_every as u64;
        let mut end = if initialized { ((iteration / ce) + 1) * ce } else { 0 };
        end = end.min(cfg.iterations as u64);
        if let Some(p) = planned.first() {
            if p.after_iteration > iteration {
                end = end.min(p.after_iteration);
            }
        }
        // A rank lost during the checkpoint write (the `save_shard`
        // collective) recovers exactly like one lost mid-window: the
        // partially written step is never committed.
        let outcome = run_window(&sys, ctrl, cfg, iteration, end).and_then(|sts| {
            save_start = Some(ctrl.clock());
            save_system_checkpoint(store, &sys, ctrl, end)?;
            Ok(sts)
        });
        match outcome {
            Ok(sts) => {
                save_start = None;
                initialized = true;
                iteration = end;
                history.extend(sts);
                // The committed instant as the marker recorded it — the
                // anchor the next lost-work figure is measured against.
                t_ckpt = store.commit_time(end).unwrap_or_else(|| ctrl.clock());
                // Planned load shifts maturing at this boundary.
                while planned.first().is_some_and(|p| p.after_iteration <= iteration) {
                    let p = planned.remove(0);
                    budget = budget.min(p.devices);
                    let reason =
                        format!("load shift to {} devices at iteration {iteration}", p.devices);
                    sys = do_remap!(sys, reason, Some(iteration));
                    // Training resumes now: the shift's blackout is not
                    // work a later fault could lose.
                    t_ckpt = ctrl.clock();
                }
            }
            Err(e) => {
                stats.record_failure();
                if classify(&e) == FailureKind::Application {
                    return Err(e);
                }
                recoveries += 1;
                if recoveries > cfg.max_recoveries {
                    return Err(CoreError::Worker(format!(
                        "gave up after {} recoveries: {e}",
                        cfg.max_recoveries
                    )));
                }
                // Split the interval since the last commit: work before
                // the interrupted checkpoint write began is discarded
                // training; the write window itself is checkpoint
                // overhead.
                let at_fault = ctrl.clock();
                let (train_end, ckpt_window) = match save_start.take() {
                    Some(s) => (s, at_fault - s),
                    None => (at_fault, 0.0),
                };
                let lost = (train_end - t_ckpt).max(0.0);
                stats.record_checkpoint_window(ckpt_window);
                let step = store.latest_step();
                let reason = match step {
                    Some(_) => format!("rank loss at iteration {iteration}: {e}"),
                    None => format!(
                        "rank loss before the initial checkpoint committed, \
                         rebuilt from seeds: {e}"
                    ),
                };
                sys = do_remap!(sys, reason, step);
                let blackout = remaps.last().map(|r| r.blackout_s).unwrap_or(0.0);
                stats.record_recovery(blackout, lost);
                telemetry.observe_digest("resilience.mttr_s", blackout);
                initialized = step.is_some();
                iteration = step.unwrap_or(0);
                history.truncate(iteration as usize);
                // Work before the resume instant is already charged; a
                // second fault before the next commit loses only what
                // ran since.
                t_ckpt = ctrl.clock();
            }
        }
    }
    stats.export(&telemetry);
    Ok(RecoveryReport {
        history,
        stats,
        log,
        virtual_time_s: ctrl.clock(),
        remaps,
        final_world: world,
    })
}
