//! Configuration, report, and shared steps of the one recovery loop,
//! [`remap_recoverable`](crate::remap::remap_recoverable).
//!
//! A lost rank takes its worker group with it: the dead rank's
//! communicators are poisoned, surviving peers return `PeerFailed`, and
//! no call on that group can ever succeed again. The loop therefore
//! despawns the groups on the live controller, respawns them — in the
//! same layout ([`KeepLayout`](crate::remap::KeepLayout): a plain
//! restart on a replaced device) or in a re-searched one
//! ([`MapperPlanner`](crate::remap::MapperPlanner)) — restores the last
//! committed on-disk checkpoint into them, and replays from there.
//!
//! Determinism makes the recovery *exact*: prompt batches are seeded by
//! iteration number, the sharded checkpoint restores parameters, Adam
//! moments, step counts, and the generation RNG round bit-for-bit, so a
//! run that loses a rank mid-training converges to the same final
//! parameters as a fault-free run (the `fault_recovery` integration test
//! asserts byte equality).

use hf_core::{Controller, DataProto, Result};
use hf_resilience::{CheckpointStore, RecoveryStats};
use hf_simcluster::DeviceId;

use crate::algo::{IterStats, RlhfConfig, RlhfSystem};
use crate::env::{make_pretrain, make_prompts};
use crate::pipeline::PipelineConfig;
use crate::remap::{PlannedRemap, RemapEvent};
use crate::trainer::Algorithm;

/// Configuration of the recovery loop.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// The algorithm to run each iteration.
    pub algorithm: Algorithm,
    /// Iterations to complete.
    pub iterations: usize,
    /// Commit a checkpoint every `n` completed iterations (≥ 1; step 0
    /// is always checkpointed before training starts).
    pub checkpoint_every: usize,
    /// Prompts per iteration.
    pub batch: usize,
    /// Base seed; iteration `i` draws prompts with seed
    /// `data_seed + i`, so replayed iterations see identical data.
    pub data_seed: u64,
    /// Recoveries to attempt before giving up.
    pub max_recoveries: u32,
    /// The stage schedule each checkpoint window runs under: one fresh
    /// driver per window, flushed at the boundary so committed steps have
    /// pinned staleness (the determinism contract).
    pub pipeline: PipelineConfig,
    /// Scheduled load-shift re-maps, matured at iteration boundaries.
    pub planned: Vec<PlannedRemap>,
    /// The device universe this run may occupy (`None` = the whole
    /// cluster). Lost devices are removed from it as they die.
    pub allowed: Option<Vec<DeviceId>>,
    /// Give up (error out) if fewer healthy devices remain.
    pub min_world: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            algorithm: Algorithm::Ppo,
            iterations: 4,
            checkpoint_every: 1,
            batch: 8,
            data_seed: 0,
            max_recoveries: 4,
            pipeline: PipelineConfig::BARRIER,
            planned: Vec::new(),
            allowed: None,
            min_world: 1,
        }
    }
}

/// What a recoverable run did.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Statistics of every *kept* iteration (rolled-back iterations are
    /// replayed and their replayed stats kept).
    pub history: Vec<IterStats>,
    /// Failure / recovery bookkeeping (also exported as `resilience.*`
    /// telemetry on the controller).
    pub stats: RecoveryStats,
    /// One line per recovery or re-map: what happened and where
    /// training resumed.
    pub log: Vec<String>,
    /// Total virtual seconds of the run, failed work included.
    pub virtual_time_s: f64,
    /// Every completed respawn — fault recovery or planned shift — in
    /// order.
    pub remaps: Vec<RemapEvent>,
    /// The device count the run finished on.
    pub final_world: usize,
}

/// Saves a consistent sharded checkpoint of the system's trainable
/// models (actor, plus critic when present) and commits it. The COMMIT
/// marker is stamped with `ctrl`'s virtual clock at the instant the
/// marker lands (after the save collectives), so lost-work accounting
/// can read the true commit time back instead of inferring it.
pub fn save_system_checkpoint(
    store: &CheckpointStore,
    sys: &RlhfSystem,
    ctrl: &Controller,
    step: u64,
) -> Result<()> {
    store.save_group(&sys.actor, step)?;
    let mut groups = vec!["actor"];
    if let Some(c) = &sys.critic {
        store.save_group(c, step)?;
        groups.push("critic");
    }
    store.commit_at(step, &groups, ctrl.clock())
}

/// Restores the system's trainable models from the committed checkpoint
/// at `step`.
pub fn restore_system_checkpoint(
    store: &CheckpointStore,
    sys: &RlhfSystem,
    step: u64,
) -> Result<()> {
    store.restore_group(&sys.actor, step)?;
    if let Some(c) = &sys.critic {
        store.restore_group(c, step)?;
    }
    Ok(())
}

/// The prompt batch (and, for Safe-RLHF, the pre-train batch) an
/// iteration of `algorithm` drawn with `seed` trains on.
pub(crate) fn iteration_inputs(
    rc: &RlhfConfig,
    algorithm: Algorithm,
    batch: usize,
    seed: u64,
) -> (DataProto, Option<DataProto>) {
    let prompts = make_prompts(batch, rc.prompt_len, rc.response_len, rc.lm.vocab as u32, seed);
    let pretrain = (algorithm == Algorithm::SafeRlhf)
        .then(|| make_pretrain(batch, rc.prompt_len + rc.response_len, rc.lm.vocab as u32, seed));
    (prompts, pretrain)
}
