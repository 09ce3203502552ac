//! The stage driver's determinism contract (tier 1), for every
//! algorithm:
//!
//! * `staleness = 0` is **bit-identical to the barrier** — same
//!   responses, same behaviour log-probs, same advantages, same final
//!   actor/critic weights and Adam moments, byte for byte.
//! * `staleness = 1` is **bit-identical across executions** — the
//!   static dispatch/wait schedule means wall-clock jitter (thread
//!   interleaving) never reaches the numerics or the virtual clocks.
//!
//! Comparisons use bit patterns (`f32::to_bits`), not `==`, so `-0.0`
//! vs `+0.0` or NaN-payload drift would fail loudly.

use hf_core::{Controller, DataProto, WorkerLayout};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_rlhf::env::{make_pretrain, make_prompts};
use hf_rlhf::{
    ppo_iteration_captured, save_checkpoint, Algorithm, IterStats, PipelineConfig, Placement,
    RlhfConfig, RlhfSystem, StageDriver,
};
use hf_simcluster::{ClusterSpec, ResourcePool};

const ITERS: u64 = 3;
const ROWS: usize = 8;
const ALGORITHMS: [Algorithm; 4] =
    [Algorithm::Ppo, Algorithm::Grpo, Algorithm::ReMax, Algorithm::SafeRlhf];

fn has_critic(alg: Algorithm) -> bool {
    matches!(alg, Algorithm::Ppo | Algorithm::SafeRlhf)
}

/// Colocated 4-GPU system: actor 1-2-2 with a strided HybridEngine
/// generation grouping, so the pipelined transition path (overlap entry
/// + chunk skip) is actually exercised.
fn build_system(alg: Algorithm) -> (Controller, RlhfSystem, RlhfConfig) {
    let cfg = RlhfConfig::tiny();
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
    let spec = ParallelSpec::new(1, 2, 2);
    let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
    let pool = ResourcePool::contiguous(0, 4);
    let cost = alg == Algorithm::SafeRlhf;
    let placement = Placement::colocated(pool, WorkerLayout::with_gen(gen), has_critic(alg), cost);
    let sys = RlhfSystem::build(&ctrl, &placement, cfg.clone()).unwrap();
    (ctrl, sys, cfg)
}

fn prompts_for(cfg: &RlhfConfig, iter: u64) -> DataProto {
    make_prompts(ROWS, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, iter)
}

/// The pre-train batch Safe-RLHF needs (`None` for the others).
fn pretrain_for(alg: Algorithm, cfg: &RlhfConfig, iter: u64) -> Option<DataProto> {
    let width = cfg.prompt_len + cfg.response_len;
    (alg == Algorithm::SafeRlhf).then(|| make_pretrain(ROWS, width, cfg.lm.vocab as u32, iter))
}

/// One driver step on iteration `iter`'s inputs.
fn step(
    driver: &mut StageDriver,
    alg: Algorithm,
    sys: &RlhfSystem,
    ctrl: &Controller,
    iter: u64,
) -> Option<(IterStats, DataProto)> {
    let pretrain = pretrain_for(alg, &sys.cfg, iter);
    driver.step_captured(sys, ctrl, &prompts_for(&sys.cfg, iter), pretrain.as_ref()).unwrap()
}

/// Bit-pattern fingerprint of everything the schedule must not perturb
/// in an experience batch.
fn batch_bits(alg: Algorithm, batch: &DataProto) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::new();
    let (resp, _) = batch.tokens("responses").unwrap();
    out.extend_from_slice(resp);
    let mut cols = vec!["logp_old", "ref_logp", "scores", "advantages"];
    if has_critic(alg) {
        cols.extend(["values", "returns"]);
    }
    if alg == Algorithm::SafeRlhf {
        cols.push("costs");
    }
    for col in cols {
        let (v, _) = batch.f32(col).unwrap();
        out.extend(v.iter().map(|f| f.to_bits()));
    }
    out
}

/// Bit-pattern fingerprint of the trained state: actor (+ critic)
/// params and Adam moments.
fn checkpoint_bits(alg: Algorithm, sys: &RlhfSystem) -> Vec<u32> {
    let ckpt = save_checkpoint(sys).unwrap();
    let mut out = Vec::new();
    let parts = if has_critic(alg) {
        vec![Some(&ckpt.actor), ckpt.critic.as_ref()]
    } else {
        vec![Some(&ckpt.actor)]
    };
    for part in parts {
        let part = part.expect("checkpoint has actor and, with a critic, critic state");
        for col in ["params", "opt_m", "opt_v"] {
            let (v, _) = part.f32(col).unwrap();
            out.extend(v.iter().map(|f| f.to_bits()));
        }
    }
    out
}

#[test]
fn pipelined_staleness0_is_bit_identical_to_sync() {
    for alg in ALGORITHMS {
        staleness0_matches_barrier(alg);
    }
}

fn staleness0_matches_barrier(alg: Algorithm) {
    // Barrier reference.
    let (ctrl_a, sys_a, cfg) = build_system(alg);
    let mut barrier = StageDriver::with_algorithm(alg, PipelineConfig::BARRIER);
    let mut sync_batches = Vec::new();
    let mut sync_stats: Vec<IterStats> = Vec::new();
    for iter in 0..ITERS {
        let (stats, batch) = if alg == Algorithm::Ppo {
            ppo_iteration_captured(&sys_a, &ctrl_a, &prompts_for(&cfg, iter)).unwrap()
        } else {
            step(&mut barrier, alg, &sys_a, &ctrl_a, iter).expect("the barrier trains in-step")
        };
        sync_batches.push(batch_bits(alg, &batch));
        sync_stats.push(stats);
    }
    let sync_ckpt = checkpoint_bits(alg, &sys_a);
    let _ = ctrl_a.shutdown();

    // Pipelined, staleness 0, generation split in two chunks.
    let (ctrl_b, sys_b, _) = build_system(alg);
    let mut driver =
        StageDriver::with_algorithm(alg, PipelineConfig { staleness: 0, gen_chunks: 2 });
    for iter in 0..ITERS {
        let (stats, batch) =
            step(&mut driver, alg, &sys_b, &ctrl_b, iter).expect("staleness 0 trains in-step");
        assert_eq!(
            batch_bits(alg, &batch),
            sync_batches[iter as usize],
            "{alg:?} iteration {iter}: pipelined staleness-0 batch diverged from sync"
        );
        let s = &sync_stats[iter as usize];
        assert_eq!(stats.mean_score.to_bits(), s.mean_score.to_bits(), "iter {iter} mean_score");
        assert_eq!(stats.actor_loss.to_bits(), s.actor_loss.to_bits(), "iter {iter} actor_loss");
        assert_eq!(stats.critic_loss.to_bits(), s.critic_loss.to_bits(), "iter {iter} critic_loss");
        assert_eq!(stats.entropy.to_bits(), s.entropy.to_bits(), "iter {iter} entropy");
        assert_eq!(stats.staleness, 0);
    }
    assert!(driver.flush(&sys_b, &ctrl_b).unwrap().is_empty(), "staleness 0 leaves nothing queued");
    assert_eq!(
        checkpoint_bits(alg, &sys_b),
        sync_ckpt,
        "{alg:?}: pipelined staleness-0 weights/Adam moments diverged from sync"
    );
    let _ = ctrl_b.shutdown();
}

/// One full staleness-1 pipelined run; returns everything observable.
fn run_staleness1(alg: Algorithm) -> (Vec<IterStats>, Vec<Vec<u32>>, Vec<u32>) {
    let (ctrl, sys, _) = build_system(alg);
    let mut driver =
        StageDriver::with_algorithm(alg, PipelineConfig { staleness: 1, gen_chunks: 2 });
    let mut stats = Vec::new();
    let mut batches = Vec::new();
    for iter in 0..ITERS + 1 {
        if let Some((s, b)) = step(&mut driver, alg, &sys, &ctrl, iter) {
            batches.push(batch_bits(alg, &b));
            stats.push(s);
        }
    }
    stats.extend(driver.flush(&sys, &ctrl).unwrap());
    let ckpt = checkpoint_bits(alg, &sys);
    let _ = ctrl.shutdown();
    (stats, batches, ckpt)
}

/// One short GRPO run against the `RewardSource::Verifier` sandbox
/// pool; returns stat bits + final actor checkpoint bits.
fn run_grpo_verifier() -> (Vec<u32>, Vec<u32>) {
    let cfg = RlhfConfig::tiny_verifier();
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
    let spec = ParallelSpec::new(1, 2, 2);
    let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
    let pool = ResourcePool::contiguous(0, 4);
    let placement = Placement::colocated(pool, WorkerLayout::with_gen(gen), false, false);
    let sys = RlhfSystem::build(&ctrl, &placement, cfg.clone()).unwrap();
    let mut stat_bits = Vec::new();
    for iter in 0..ITERS {
        let prompts =
            make_prompts(ROWS, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, iter);
        let stats = hf_rlhf::grpo_iteration(&sys, &ctrl, &prompts).unwrap();
        stat_bits.push(stats.mean_score.to_bits());
        stat_bits.push(stats.actor_loss.to_bits());
        stat_bits.push(stats.entropy.to_bits());
    }
    let ckpt = save_checkpoint(&sys).unwrap();
    let (params, _) = ckpt.actor.f32("params").unwrap();
    let bits = params.iter().map(|f| f.to_bits()).collect();
    let _ = ctrl.shutdown();
    (stat_bits, bits)
}

#[test]
fn grpo_verifier_pool_is_bit_identical_across_executions() {
    // The verifier pool's virtual-time sandbox (seeded cost draws,
    // timeouts, straggler cancellation, retries) sits on the reward
    // path; pinned seeds must still pin every trained bit.
    let (stats_a, ckpt_a) = run_grpo_verifier();
    let (stats_b, ckpt_b) = run_grpo_verifier();
    assert_eq!(stats_a, stats_b, "GRPO+verifier stats diverged between runs");
    assert_eq!(ckpt_a, ckpt_b, "GRPO+verifier final actor weights diverged between runs");
}

#[test]
fn pipelined_staleness1_is_bit_identical_across_executions() {
    for alg in ALGORITHMS {
        staleness1_is_reproducible(alg);
    }
}

fn staleness1_is_reproducible(alg: Algorithm) {
    let (stats_a, batches_a, ckpt_a) = run_staleness1(alg);
    let (stats_b, batches_b, ckpt_b) = run_staleness1(alg);
    // Every trained batch fed the same bits in both executions.
    assert_eq!(
        batches_a, batches_b,
        "{alg:?}: staleness-1 experience batches diverged between runs"
    );
    // Stats carry virtual-time and overlap measurements as f64 — full
    // equality pins the virtual timing itself as deterministic.
    assert_eq!(stats_a, stats_b, "{alg:?}: staleness-1 iteration stats diverged between runs");
    assert_eq!(ckpt_a, ckpt_b, "{alg:?}: staleness-1 final weights diverged between runs");
    // The pipeline actually ran one step off-policy and trained every
    // generated batch exactly once.
    assert_eq!(stats_a.len() as u64, ITERS + 1, "flush must drain the in-flight iterations");
    assert!(stats_a.iter().all(|s| s.staleness == 1));
}
