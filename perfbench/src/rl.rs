//! The two RL workloads, `ppo-colocated` and `grpo-verifier`: both put
//! every model on one 4-device pool, the actor training 1-2-2 (p-t-d)
//! and generating through the strided 1-1-2-2 HybridEngine grouping.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hf_core::{Controller, DataProto, Result, WorkerLayout};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_resilience::CheckpointStore;
use hf_rewards::make_verifier_prompts;
use hf_rlhf::env::make_prompts;
use hf_rlhf::{
    grpo_iteration, ppo_iteration, restore_system_checkpoint, save_checkpoint,
    save_system_checkpoint, IterStats, Placement, RlhfConfig, RlhfSystem,
};
use hf_simcluster::{ClusterSpec, CommCostModel, ResourcePool};
use hf_telemetry::Telemetry;

use crate::trace::{build_system, TraceLog};

/// Which single-controller driver a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// `ppo_iteration` with actor, critic, reference and reward model.
    Ppo,
    /// `grpo_iteration` against the verifier pool, no critic.
    Grpo,
}

/// One RL workload's shape.
#[derive(Debug, Clone)]
pub struct RlWorkload {
    /// Workload name as passed to `--workload`.
    pub name: &'static str,
    /// Driver.
    pub algo: Algo,
    /// Model and algorithm configuration.
    pub cfg: RlhfConfig,
    /// Prompts per iteration (before GRPO's per-prompt sampling).
    pub prompts: usize,
    /// Commit an on-disk checkpoint after every `n`-th iteration (0 =
    /// never).
    pub ckpt_every: u64,
    /// Iterations run during set-up (warm-up).
    pub warmup: u64,
    /// Iterations after warm-up whose results are the virtual metrics
    /// and the traced-vs-untraced gate; fixed, so they are bit-stable
    /// per seed whatever `--seconds` is.
    pub window: u64,
    /// The last iterations of the window whose mean score is
    /// `final_score`.
    pub score_tail: u64,
    /// Mean reward of a uniformly random policy.
    pub random_score: f64,
}

impl RlWorkload {
    /// PPO quickstart job: 16 prompts, checkpoint every 5 iterations.
    pub fn ppo_colocated() -> Self {
        let cfg = RlhfConfig::tiny();
        let random_score = cfg.good_tokens.len() as f64 / cfg.lm.vocab as f64;
        RlWorkload {
            name: "ppo-colocated",
            algo: Algo::Ppo,
            cfg,
            prompts: 16,
            ckpt_every: 5,
            warmup: 5,
            window: 60,
            score_tail: 20,
            random_score,
        }
    }

    /// GRPO over `RlhfConfig::tiny_verifier()`: 32 prompts × 8 samples.
    pub fn grpo_verifier() -> Self {
        let cfg = RlhfConfig::tiny_verifier();
        let random_score = 1.0 / cfg.lm.vocab as f64;
        RlWorkload {
            name: "grpo-verifier",
            algo: Algo::Grpo,
            cfg,
            prompts: 32,
            ckpt_every: 0,
            warmup: 2,
            window: 140,
            score_tail: 20,
            random_score,
        }
    }

    /// Responses trained per iteration.
    pub fn rollouts(&self) -> usize {
        match self.algo {
            Algo::Ppo => self.prompts,
            Algo::Grpo => self.prompts * self.cfg.grpo_group,
        }
    }

    /// Prompt + response tokens per iteration.
    pub fn tokens_per_iter(&self) -> usize {
        self.rollouts() * (self.cfg.prompt_len + self.cfg.response_len)
    }

    /// The placement: every model colocated on devices 0..4.
    pub fn placement(&self) -> Placement {
        let spec = ParallelSpec::new(1, 2, 2);
        let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
        let pool = ResourcePool::contiguous(0, 4);
        Placement::colocated(pool, WorkerLayout::with_gen(gen), self.algo == Algo::Ppo, false)
    }

    /// The prompt batch of iteration `iter` under workload seed `seed`.
    pub fn prompts_at(&self, seed: u64, iter: u64) -> DataProto {
        let data_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(iter);
        let c = &self.cfg;
        match self.algo {
            Algo::Ppo => make_prompts(
                self.prompts,
                c.prompt_len,
                c.response_len,
                c.lm.vocab as u32,
                data_seed,
            ),
            Algo::Grpo => {
                let toks =
                    make_verifier_prompts(self.prompts, c.prompt_len, c.lm.vocab as u32, data_seed);
                let mut p = DataProto::with_rows(self.prompts);
                p.insert_tokens("prompts", toks, c.prompt_len);
                p.meta.insert("response_len".into(), c.response_len.to_string());
                p
            }
        }
    }
}

/// What one iteration did, seen from the controller.
#[derive(Debug, Clone)]
pub struct Step {
    /// The driver's statistics.
    pub stats: IterStats,
    /// Host seconds of the iteration, checkpoint included.
    pub wall_s: f64,
    /// Trace-log times bracketing the iteration (traced systems only).
    pub window: Option<(f64, f64)>,
    /// Host seconds of this iteration's checkpoint save, if it made one.
    pub save_s: Option<f64>,
    /// Physical DataProto bytes the controller thread copied.
    pub copy_bytes: u64,
}

/// A spawned system plus the state needed to keep iterating it.
pub struct Live {
    /// The single controller.
    pub ctrl: Controller,
    /// The spawned models.
    pub sys: RlhfSystem,
    /// The trace sink when the system is wrapped.
    pub log: Option<Arc<TraceLog>>,
    store: Option<CheckpointStore>,
    /// The next iteration index.
    pub next: u64,
}

impl Live {
    /// Spawns the workload's system. `traced` turns telemetry on and
    /// wraps every worker; `ckpt_dir` is where periodic checkpoints go.
    pub fn build(w: &RlWorkload, traced: bool, ckpt_dir: Option<&Path>) -> Result<Live> {
        let cluster = ClusterSpec::a100_with_gpus(4);
        let (ctrl, log) = if traced {
            let tel = Telemetry::enabled();
            (
                Controller::with_telemetry(cluster, CommCostModel::default(), tel),
                Some(TraceLog::new()),
            )
        } else {
            (Controller::new(cluster), None)
        };
        let sys = build_system(&ctrl, &w.placement(), &w.cfg, log.as_ref())?;
        let store = match (w.ckpt_every, ckpt_dir) {
            (n, Some(dir)) if n > 0 => Some(CheckpointStore::new(dir)?),
            _ => None,
        };
        Ok(Live { ctrl, sys, log, store, next: 0 })
    }

    /// Runs the next iteration (and its checkpoint, when one is due).
    pub fn step(&mut self, w: &RlWorkload, seed: u64) -> Result<Step> {
        let prompts = w.prompts_at(seed, self.next);
        let copy0 = hf_core::physical_copy_bytes();
        let lt0 = self.log.as_ref().map(|l| l.now());
        let t0 = Instant::now();
        let stats = match w.algo {
            Algo::Ppo => ppo_iteration(&self.sys, &self.ctrl, &prompts)?,
            Algo::Grpo => grpo_iteration(&self.sys, &self.ctrl, &prompts)?,
        };
        self.next += 1;
        let mut save_s = None;
        if let Some(store) = &self.store {
            if self.next.is_multiple_of(w.ckpt_every) {
                let s0 = Instant::now();
                save_system_checkpoint(store, &self.sys, &self.ctrl, self.next)?;
                save_s = Some(s0.elapsed().as_secs_f64());
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let window = self.log.as_ref().map(|l| (lt0.expect("traced"), l.now()));
        let copy_bytes = hf_core::physical_copy_bytes() - copy0;
        Ok(Step { stats, wall_s, window, save_s, copy_bytes })
    }

    /// Stops the device threads.
    pub fn shutdown(self) -> Result<()> {
        self.ctrl.shutdown()
    }
}

/// FNV-1a over the bit patterns of every trainable model's weights and
/// Adam moments plus the RNG round and optimizer step, read through the
/// public `save_checkpoint` path.
pub fn fingerprint(sys: &RlhfSystem) -> Result<u64> {
    let ckpt = save_checkpoint(sys)?;
    let mut h = Fnv::default();
    for part in std::iter::once(&ckpt.actor).chain(ckpt.critic.as_ref()) {
        for col in ["params", "opt_m", "opt_v"] {
            let (xs, _) = part.f32(col)?;
            h.write(&(xs.len() as u64).to_le_bytes());
            for x in xs {
                h.write(&x.to_bits().to_le_bytes());
            }
        }
        for key in ["gen_round", "opt_t"] {
            h.write(part.meta.get(key).map_or("", String::as_str).as_bytes());
            h.write(&[0xff]);
        }
    }
    Ok(h.0)
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What a checkpoint round trip observed.
#[derive(Debug, Clone, Copy)]
pub struct RoundTrip {
    /// Fingerprint of the live system that was saved.
    pub before: u64,
    /// Fingerprint of a fresh system the checkpoint was restored into.
    pub after: u64,
    /// Host seconds of `restore_system_checkpoint`.
    pub restore_s: f64,
    /// Bytes the committed checkpoint occupies on disk.
    pub bytes: u64,
}

/// Saves the live system's state to a fresh store under `dir` and
/// restores it into a freshly spawned twin.
pub fn checkpoint_round_trip(live: &Live, w: &RlWorkload, dir: &Path) -> Result<RoundTrip> {
    let store = CheckpointStore::new(dir)?;
    let step = live.next;
    save_system_checkpoint(&store, &live.sys, &live.ctrl, step)?;
    let bytes = dir_bytes(dir);
    let before = fingerprint(&live.sys)?;
    let twin = Live::build(w, false, None)?;
    let t0 = Instant::now();
    restore_system_checkpoint(&store, &twin.sys, step)?;
    let restore_s = t0.elapsed().as_secs_f64();
    let after = fingerprint(&twin.sys)?;
    twin.shutdown()?;
    Ok(RoundTrip { before, after, restore_s, bytes })
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}
