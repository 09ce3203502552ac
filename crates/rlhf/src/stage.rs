//! The shared stage DAG behind every RLHF algorithm driver.
//!
//! All four algorithms (PPO, Safe-RLHF, ReMax, GRPO) run the same
//! three-stage dataflow — generation → experience preparation →
//! training — and differ only in which forward passes preparation
//! issues, how advantages are finalized, and whether training updates a
//! critic. A [`StageAlgo`] supplies the per-algorithm hooks; the one
//! stage driver (`pipeline::StageDriver`) composes them under any
//! schedule, the barrier included. Preparation is expressed as a list of
//! [`PrepCall`] descriptors whose futures are issued together per
//! generation chunk and collected in issue order.
//!
//! The barrier schedule reproduces the original hand-written drivers
//! *bit for bit*: call order, wait order, phase-span boundaries, retry
//! semantics (critic/actor updates are futures without retry; actor-only
//! training goes through `invoke_sync`'s transient-retry path), and stats
//! arithmetic are all unchanged — the audit oracle and fault-matrix
//! tests pin this.

use hf_core::{Controller, CoreError, DataProto, Result, WorkerGroup};

use crate::advantage::{gae, grpo_advantages, remax_advantage, shape_token_rewards, whiten};
use crate::algo::{IterStats, RlhfConfig, RlhfSystem};
use crate::trainer::Algorithm;

/// Closes an algorithm phase: records a `Phase` span on the controller
/// track from `start` to now and observes its latency into the
/// `phase.<name>.seconds` digest, returning `(now, span id)` so the
/// next phase can start at now and cite this one as its cause — phase
/// spans chain into the causal graph's backbone. Free when the
/// controller's telemetry is disabled; never advances the clock.
pub(crate) fn phase_span(ctrl: &Controller, name: &str, start: f64, prev: u64) -> (f64, u64) {
    let now = ctrl.clock();
    let tel = ctrl.telemetry();
    let id = tel.next_span_id();
    tel.span_causal(
        hf_telemetry::CONTROLLER_TRACK,
        name,
        hf_telemetry::SpanKind::Phase,
        start,
        now,
        id,
        &[prev],
        &[],
    );
    tel.observe_digest(&format!("phase.{name}.seconds"), now - start);
    (now, id)
}

pub(crate) fn mean_of(data: &DataProto, col: &str) -> f32 {
    match data.f32(col) {
        Ok((v, _)) if !v.is_empty() => v.iter().sum::<f32>() / v.len() as f32,
        _ => 0.0,
    }
}

/// Which advantage estimator the GAE finalizer uses.
pub(crate) enum GaeFlavor {
    Ppo,
    SafeRlhf,
}

/// Computes token rewards + GAE advantages/returns on the controller
/// (Figure 6's `compute_advantage`; no model forward passes).
pub(crate) fn compute_advantage_gae(
    batch: &mut DataProto,
    cfg: &RlhfConfig,
    algo: GaeFlavor,
) -> Result<()> {
    let rows = batch.rows();
    let rw = cfg.response_len;
    let (logp, _) = batch.f32("logp_old")?;
    let (ref_logp, _) = batch.f32("ref_logp")?;
    let (values, _) = batch.f32("values")?;
    let (scores, _) = batch.f32("scores")?;
    let costs = match algo {
        GaeFlavor::SafeRlhf => Some(batch.f32("costs")?.0.to_vec()),
        GaeFlavor::Ppo => None,
    };
    let logp = logp.to_vec();
    let ref_logp = ref_logp.to_vec();
    let values = values.to_vec();
    let scores = scores.to_vec();

    let mut advantages = Vec::with_capacity(rows * rw);
    let mut returns = Vec::with_capacity(rows * rw);
    for i in 0..rows {
        let score = match &costs {
            // Safe-RLHF folds the cost model in through the Lagrangian
            // penalty on the combined objective.
            Some(c) => scores[i] - cfg.lambda_cost * c[i],
            None => scores[i],
        };
        let r = shape_token_rewards(
            score,
            &logp[i * rw..(i + 1) * rw],
            &ref_logp[i * rw..(i + 1) * rw],
            cfg.kl_coef,
        );
        let (a, ret) = gae(&r, &values[i * rw..(i + 1) * rw], cfg.gamma, cfg.lam);
        advantages.extend(a);
        returns.extend(ret);
    }
    whiten(&mut advantages);
    batch.insert_f32("advantages", advantages, rw);
    batch.insert_f32("returns", returns, rw);
    Ok(())
}

/// Which model a preparation forward pass runs on. Resolves to a worker
/// group + registered method through the [`RlhfSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PrepRole {
    Critic,
    Reference,
    Reward,
    Cost,
}

impl PrepRole {
    pub(crate) fn resolve<'a>(
        &self,
        sys: &'a RlhfSystem,
    ) -> Result<(&'a WorkerGroup, &'static str)> {
        match self {
            PrepRole::Critic => {
                let g = sys
                    .critic
                    .as_ref()
                    .ok_or_else(|| CoreError::Config("algorithm requires a critic".into()))?;
                Ok((g, "compute_values"))
            }
            PrepRole::Reference => Ok((&sys.reference, "compute_ref_log_prob")),
            PrepRole::Reward => Ok((&sys.reward, "compute_reward")),
            PrepRole::Cost => {
                let g = sys
                    .cost
                    .as_ref()
                    .ok_or_else(|| CoreError::Config("algorithm requires a cost model".into()))?;
                Ok((g, "compute_cost"))
            }
        }
    }
}

/// What batch a preparation pass reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PrepInput {
    /// The main experience batch.
    Batch,
    /// The `i`-th auxiliary generation pass (ReMax's greedy baseline).
    Aux(usize),
}

/// Where a preparation pass's output goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PrepSink {
    /// Column-union into the experience batch.
    Union,
    /// Kept aside for the finalizer (e.g. baseline scores).
    Side,
}

/// One experience-preparation forward pass in the stage DAG.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrepCall {
    pub role: PrepRole,
    pub input: PrepInput,
    pub sink: PrepSink,
}

impl PrepCall {
    pub(crate) fn union(role: PrepRole) -> Self {
        PrepCall { role, input: PrepInput::Batch, sink: PrepSink::Union }
    }
}

/// How the training stage updates models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TrainMode {
    /// Per mini-batch: critic update and actor update issued as
    /// concurrent futures, collected critic-first. No transient retry —
    /// a failure surfaces immediately (recovery happens a level up).
    CriticActor,
    /// Per mini-batch: a single actor update; in-step training calls it
    /// synchronously through the controller's retry-with-backoff policy.
    ActorOnly,
}

impl Algorithm {
    /// The algorithm's stage hooks.
    pub(crate) fn stages(self) -> &'static dyn StageAlgo {
        match self {
            Algorithm::Ppo => &PpoStages,
            Algorithm::ReMax => &RemaxStages,
            Algorithm::SafeRlhf => &SafeRlhfStages,
            Algorithm::Grpo => &GrpoStages,
        }
    }
}

/// Per-algorithm hooks the stage driver composes.
pub(crate) trait StageAlgo {
    /// Transforms the prompt batch before generation (GRPO's ×g group
    /// expansion); `None` generates from the prompts as-is.
    fn expand_prompts(&self, _cfg: &RlhfConfig, _prompts: &DataProto) -> Result<Option<DataProto>> {
        Ok(None)
    }

    /// Additional generation passes after the main one, from these
    /// inputs (ReMax's greedy baseline decode of the same prompts).
    fn aux_gen_inputs(&self, _prompts: &DataProto) -> Vec<DataProto> {
        Vec::new()
    }

    /// Whether to recompute response log-probs with a training-engine
    /// forward pass and use them as `logp_old` (PPO's optional Table 4
    /// pass).
    fn recompute_logp(&self, _cfg: &RlhfConfig) -> bool {
        false
    }

    /// The preparation forward passes, in issue order.
    fn prep_calls(&self) -> Vec<PrepCall>;

    /// Finalizes advantages (and anything else derived on the
    /// controller) once every preparation output landed. `side` holds
    /// the [`PrepSink::Side`] outputs in issue order.
    fn finalize(&self, cfg: &RlhfConfig, batch: &mut DataProto, side: &[DataProto]) -> Result<()>;

    /// Last chance to extend the batch before training (Safe-RLHF
    /// attaches the pre-train rows and `ptx_coef` here). Runs after the
    /// preparation phase closes.
    fn pre_train(
        &self,
        _cfg: &RlhfConfig,
        _batch: &mut DataProto,
        _pretrain: Option<&DataProto>,
    ) -> Result<()> {
        Ok(())
    }

    /// How the training stage runs.
    fn train_mode(&self) -> TrainMode;
}

/// Loss/entropy totals the training stage accumulates across
/// mini-batches.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct TrainTotals {
    pub actor_loss: f32,
    pub entropy: f32,
    pub critic_loss: f32,
    pub ptx_loss: f32,
}

impl TrainTotals {
    /// Folds one actor-update reply in (`ptx_loss` is 0 in replies of
    /// algorithms without the pre-train objective, so accumulating it
    /// uniformly changes nothing).
    pub(crate) fn absorb_actor(&mut self, reply: &DataProto) {
        self.actor_loss += mean_of(reply, "actor_loss");
        self.entropy += mean_of(reply, "entropy");
        self.ptx_loss += mean_of(reply, "ptx_loss");
    }
}

/// Assembles the iteration's statistics from the finished batch and
/// training totals (timing fields are filled by the driver). `mean_of`
/// returns 0 for absent columns, so the one expression covers every
/// algorithm (no `costs` column ⇒ zero mean cost, and so on).
pub(crate) fn assemble_stats(batch: &DataProto, totals: &TrainTotals, updates: usize) -> IterStats {
    let k = updates as f32;
    IterStats {
        mean_score: mean_of(batch, "scores"),
        mean_cost: mean_of(batch, "costs"),
        actor_loss: totals.actor_loss / k,
        entropy: totals.entropy / k,
        critic_loss: totals.critic_loss / k,
        ptx_loss: totals.ptx_loss / k,
        virtual_seconds: 0.0,
        staleness: 0,
        overlap_fraction: 0.0,
    }
}

/// PPO: critic + reference + reward preparation, GAE advantages,
/// critic/actor training.
pub(crate) struct PpoStages;

impl StageAlgo for PpoStages {
    fn recompute_logp(&self, cfg: &RlhfConfig) -> bool {
        cfg.recompute_logp
    }

    fn prep_calls(&self) -> Vec<PrepCall> {
        vec![
            PrepCall::union(PrepRole::Critic),
            PrepCall::union(PrepRole::Reference),
            PrepCall::union(PrepRole::Reward),
        ]
    }

    fn finalize(&self, cfg: &RlhfConfig, batch: &mut DataProto, _side: &[DataProto]) -> Result<()> {
        compute_advantage_gae(batch, cfg, GaeFlavor::Ppo)
    }

    fn train_mode(&self) -> TrainMode {
        TrainMode::CriticActor
    }
}

/// Safe-RLHF: PPO plus a cost model folded in through the Lagrangian
/// penalty and an auxiliary pre-train (PPO-ptx) loss.
pub(crate) struct SafeRlhfStages;

impl StageAlgo for SafeRlhfStages {
    fn prep_calls(&self) -> Vec<PrepCall> {
        vec![
            PrepCall::union(PrepRole::Critic),
            PrepCall::union(PrepRole::Reference),
            PrepCall::union(PrepRole::Reward),
            PrepCall::union(PrepRole::Cost),
        ]
    }

    fn finalize(&self, cfg: &RlhfConfig, batch: &mut DataProto, _side: &[DataProto]) -> Result<()> {
        compute_advantage_gae(batch, cfg, GaeFlavor::SafeRlhf)
    }

    fn pre_train(
        &self,
        cfg: &RlhfConfig,
        batch: &mut DataProto,
        pretrain: Option<&DataProto>,
    ) -> Result<()> {
        // Attach the pre-train rows and coefficient for the PPO-ptx loss.
        let pretrain = pretrain
            .ok_or_else(|| CoreError::Config("Safe-RLHF requires a pretrain batch".into()))?;
        let (pt, ptw) = pretrain.tokens("pretrain")?;
        if pretrain.rows() != batch.rows() {
            return Err(CoreError::Data("pretrain batch must match prompt batch rows".into()));
        }
        batch.insert_tokens("pretrain", pt.to_vec(), ptw);
        batch.meta.insert("ptx_coef".into(), cfg.ptx_coef.to_string());
        Ok(())
    }

    fn train_mode(&self) -> TrainMode {
        TrainMode::CriticActor
    }
}

/// ReMax: an extra greedy generation pass provides the
/// variance-reduction baseline; the critic is eliminated.
pub(crate) struct RemaxStages;

impl StageAlgo for RemaxStages {
    fn aux_gen_inputs(&self, prompts: &DataProto) -> Vec<DataProto> {
        // Baseline pass: greedy decoding of the same prompts.
        let mut greedy_prompts = prompts.clone();
        greedy_prompts.meta.insert("greedy".into(), "1".into());
        vec![greedy_prompts]
    }

    fn prep_calls(&self) -> Vec<PrepCall> {
        vec![
            PrepCall::union(PrepRole::Reference),
            PrepCall::union(PrepRole::Reward),
            PrepCall { role: PrepRole::Reward, input: PrepInput::Aux(0), sink: PrepSink::Side },
        ]
    }

    fn finalize(&self, cfg: &RlhfConfig, batch: &mut DataProto, side: &[DataProto]) -> Result<()> {
        // Advantage: sampled score − greedy baseline score, KL-shaped.
        let rows = batch.rows();
        let rw = cfg.response_len;
        let (scores, _) = batch.f32("scores")?;
        let (base, _) = side[0].f32("scores")?;
        let (logp, _) = batch.f32("logp_old")?;
        let (ref_logp, _) = batch.f32("ref_logp")?;
        let mut advantages = Vec::with_capacity(rows * rw);
        for i in 0..rows {
            let kl: f32 =
                (0..rw).map(|t| logp[i * rw + t] - ref_logp[i * rw + t]).sum::<f32>() / rw as f32;
            let adv = remax_advantage(scores[i] - cfg.kl_coef * kl, base[i], rw);
            advantages.extend(adv);
        }
        whiten(&mut advantages);
        batch.insert_f32("advantages", advantages, rw);
        Ok(())
    }

    fn train_mode(&self) -> TrainMode {
        TrainMode::ActorOnly
    }
}

/// GRPO: `grpo_group` samples per prompt, group-standardized advantages,
/// no critic.
pub(crate) struct GrpoStages;

impl StageAlgo for GrpoStages {
    fn expand_prompts(&self, cfg: &RlhfConfig, prompts: &DataProto) -> Result<Option<DataProto>> {
        // Repeat each prompt g times (consecutive rows form a group).
        let g = cfg.grpo_group.max(1);
        let (pt, pw) = prompts.tokens("prompts")?;
        let rows = prompts.rows();
        let mut expanded_toks = Vec::with_capacity(rows * g * pw);
        for r in 0..rows {
            for _ in 0..g {
                expanded_toks.extend_from_slice(&pt[r * pw..(r + 1) * pw]);
            }
        }
        let mut expanded = DataProto::with_rows(rows * g);
        expanded.insert_tokens("prompts", expanded_toks, pw);
        expanded.meta = prompts.meta.clone();
        Ok(Some(expanded))
    }

    fn prep_calls(&self) -> Vec<PrepCall> {
        vec![PrepCall::union(PrepRole::Reference), PrepCall::union(PrepRole::Reward)]
    }

    fn finalize(&self, cfg: &RlhfConfig, batch: &mut DataProto, _side: &[DataProto]) -> Result<()> {
        let g = cfg.grpo_group.max(1);
        let rw = cfg.response_len;
        let groups = batch.rows() / g;
        let (scores, _) = batch.f32("scores")?;
        let (logp, _) = batch.f32("logp_old")?;
        let (ref_logp, _) = batch.f32("ref_logp")?;
        let scores = scores.to_vec();
        let logp = logp.to_vec();
        let ref_logp = ref_logp.to_vec();
        let mut advantages = Vec::with_capacity(groups * g * rw);
        for group in 0..groups {
            let s = &scores[group * g..(group + 1) * g];
            let group_adv = grpo_advantages(s);
            for (j, adv) in group_adv.iter().enumerate() {
                let i = group * g + j;
                for t in 0..rw {
                    let kl = logp[i * rw + t] - ref_logp[i * rw + t];
                    advantages.push(adv - cfg.kl_coef * kl);
                }
            }
        }
        batch.insert_f32("advantages", advantages, rw);
        Ok(())
    }

    fn train_mode(&self) -> TrainMode {
        TrainMode::ActorOnly
    }
}
