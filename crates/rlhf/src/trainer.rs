//! A multi-iteration RLHF training harness.
//!
//! [`RlhfTrainer`] wraps an [`RlhfSystem`] with the loop a user actually
//! runs: a prompt stream, per-iteration statistics history, periodic
//! consistent checkpoints (§9), and automatic rollback to the last good
//! checkpoint when an iteration fails — the redundancy-based recovery
//! the paper describes, driven entirely from the single controller.

use hf_core::{Controller, CoreError, Result};

use crate::algo::{restore_checkpoint, save_checkpoint, IterStats, RlhfSystem, SystemCheckpoint};
use crate::pipeline::barrier_iteration;
use crate::recover::iteration_inputs;

/// Which algorithm the trainer drives each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// PPO (needs a critic).
    Ppo,
    /// ReMax (no critic, greedy baseline pass).
    ReMax,
    /// Safe-RLHF (critic + cost model + pre-train loss).
    SafeRlhf,
    /// GRPO (no critic, group sampling).
    Grpo,
}

/// Trainer configuration on top of the system's [`crate::RlhfConfig`].
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// The algorithm to run.
    pub algorithm: Algorithm,
    /// Prompts per iteration.
    pub batch: usize,
    /// Checkpoint every `n` iterations (0 = never).
    pub checkpoint_every: usize,
    /// Base seed for the prompt stream.
    pub data_seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig { algorithm: Algorithm::Ppo, batch: 16, checkpoint_every: 0, data_seed: 0 }
    }
}

/// The training harness.
pub struct RlhfTrainer {
    sys: RlhfSystem,
    cfg: TrainerConfig,
    iteration: u64,
    history: Vec<IterStats>,
    summaries: Vec<String>,
    last_checkpoint: Option<SystemCheckpoint>,
}

impl RlhfTrainer {
    /// Wraps a built system.
    pub fn new(sys: RlhfSystem, cfg: TrainerConfig) -> Self {
        RlhfTrainer {
            sys,
            cfg,
            iteration: 0,
            history: Vec::new(),
            summaries: Vec::new(),
            last_checkpoint: None,
        }
    }

    /// The wrapped system.
    pub fn system(&self) -> &RlhfSystem {
        &self.sys
    }

    /// Statistics of every completed iteration.
    pub fn history(&self) -> &[IterStats] {
        &self.history
    }

    /// Per-iteration telemetry digests, parallel to [`Self::history`].
    /// Empty strings when the controller's telemetry is disabled, so
    /// `IterStats` (and everything else) is unchanged by tracing.
    pub fn summaries(&self) -> &[String] {
        &self.summaries
    }

    /// Completed iterations.
    pub fn iterations(&self) -> u64 {
        self.iteration
    }

    /// Mean reward over the last `n` iterations (0 if none).
    pub fn recent_reward(&self, n: usize) -> f32 {
        let tail = &self.history[self.history.len().saturating_sub(n)..];
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().map(|s| s.mean_score).sum::<f32>() / tail.len() as f32
    }

    /// Runs one iteration: draws the next prompt batch from the stream,
    /// executes the algorithm, records statistics, and checkpoints on
    /// schedule. On failure, rolls back to the last checkpoint (if any)
    /// before returning the error.
    pub fn step(&mut self, ctrl: &Controller) -> Result<IterStats> {
        let seed = self.cfg.data_seed.wrapping_add(self.iteration);
        let t0 = ctrl.clock();
        let algorithm = self.cfg.algorithm;
        let (prompts, pretrain) = iteration_inputs(&self.sys.cfg, algorithm, self.cfg.batch, seed);
        match barrier_iteration(algorithm, &self.sys, ctrl, &prompts, pretrain.as_ref()) {
            Ok((stats, _)) => {
                self.iteration += 1;
                self.history.push(stats);
                let tel = ctrl.telemetry();
                self.summaries.push(if tel.is_enabled() {
                    format!(
                        "iteration {} ({:?})\n{}",
                        self.iteration,
                        self.cfg.algorithm,
                        tel.summary_since(t0)
                    )
                } else {
                    String::new()
                });
                if self.cfg.checkpoint_every > 0
                    && self.iteration.is_multiple_of(self.cfg.checkpoint_every as u64)
                {
                    self.last_checkpoint = Some(save_checkpoint(&self.sys)?);
                }
                Ok(stats)
            }
            Err(e) => {
                if let Some(ckpt) = &self.last_checkpoint {
                    restore_checkpoint(&self.sys, ckpt)?;
                }
                Err(CoreError::Worker(format!(
                    "iteration {} failed (rolled back to last checkpoint): {e}",
                    self.iteration
                )))
            }
        }
    }

    /// Runs `n` iterations, stopping at the first error.
    pub fn run(&mut self, ctrl: &Controller, n: usize) -> Result<()> {
        for _ in 0..n {
            self.step(ctrl)?;
        }
        Ok(())
    }
}
