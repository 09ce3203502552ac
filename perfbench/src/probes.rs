//! Layer probes: single-layer measurements of public functions at a
//! workload's shapes, timed from outside. Each returns the median over
//! repetitions, so one slow repetition does not move it.

use std::sync::Arc;
use std::time::Instant;

use hf_core::{Controller, DataProto, Protocol, RankCtx, Result, WorkerLayout};
use hf_genserve::{GenConfig, GenRequest, GenServer};
use hf_hybridengine::HybridEngineRank;
use hf_nn::{LmConfig, TinyLm};
use hf_parallel::shard::train_shard;
use hf_parallel::{GenGrouping, ShardLayout};
use hf_rlhf::{gae, grpo_advantages, shape_token_rewards, whiten, RlhfConfig, WorkerHyper};
use hf_simcluster::{
    ClusterSpec, CommCostModel, CommGroup, Communicator, DeviceId, ResourcePool, VirtualClock,
};

use crate::metrics::median;

/// Times `f` `reps` times and returns the median microseconds.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

fn tokens(n: usize, vocab: usize, salt: u64) -> Vec<usize> {
    (0..n as u64)
        .map(|i| (hf_rewards::splitmix(salt ^ i.wrapping_mul(0x9e37)) % vocab as u64) as usize)
        .collect()
}

/// `TinyLm::forward` plus backward of a log-likelihood loss over one
/// micro-batch of `rows` sequences of `seq_len` tokens (µs).
pub fn nn_fwd_bwd_us(lm: LmConfig, rows: usize, seq_len: usize) -> f64 {
    let model = TinyLm::new(lm, 7);
    let seqs: Vec<Vec<usize>> = (0..rows).map(|r| tokens(seq_len, lm.vocab, r as u64)).collect();
    median_us(15, || {
        for seq in &seqs {
            let mut fp = model.forward(&seq[..seq.len() - 1]);
            let lp = fp.tape.gather_log_prob(fp.logits, &seq[1..]);
            let loss = fp.tape.mean_all(lp);
            std::hint::black_box(fp.backward(loss));
        }
    })
}

/// One `decode_step_batch` at `lanes` lanes, `prompt_len` tokens into
/// the sequences (µs).
pub fn nn_decode_batch_us(lm: LmConfig, lanes: usize, prompt_len: usize) -> f64 {
    let model = TinyLm::new(lm, 7);
    let feed = tokens(lanes * (prompt_len + 1), lm.vocab, 11);
    let mut times = Vec::new();
    for _ in 0..9 {
        let mut states: Vec<_> = (0..lanes).map(|_| model.decode_start()).collect();
        for p in 0..prompt_len {
            let toks: Vec<usize> = (0..lanes).map(|l| feed[l * (prompt_len + 1) + p]).collect();
            let mut refs: Vec<_> = states.iter_mut().collect();
            model.decode_step_batch(&mut refs, &toks);
        }
        let toks: Vec<usize> =
            (0..lanes).map(|l| feed[l * (prompt_len + 1) + prompt_len]).collect();
        let mut refs: Vec<_> = states.iter_mut().collect();
        let t0 = Instant::now();
        std::hint::black_box(model.decode_step_batch(&mut refs, &toks));
        times.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    median(&times)
}

/// `GenServer::generate` over one rank's rollouts on one thread, with
/// the actor's engine configuration: µs per generated token.
pub fn genserve_us_per_token(
    lm: LmConfig,
    hyper: &WorkerHyper,
    prompts: &[Vec<usize>],
    response_len: usize,
) -> f64 {
    let mut server = GenServer::new(GenConfig {
        block_tokens: hyper.gen_block_tokens,
        cache_budget_bytes: hyper.gen_cache_budget,
        max_batch: hyper.gen_max_batch,
        ..GenConfig::default()
    });
    server.install_weights(&TinyLm::new(lm, hyper.seed));
    let reqs: Vec<GenRequest> = prompts
        .iter()
        .enumerate()
        .map(|(i, p)| GenRequest {
            prompt: p.clone(),
            max_new_tokens: response_len,
            temperature: hyper.temperature,
            seed: i as u64,
            stop_tokens: Vec::new(),
        })
        .collect();
    let mut generated = 1u64;
    let us = median_us(5, || {
        let (_, report) = server.generate(&reqs).expect("generation probe");
        generated = report.generated_tokens.max(1);
    });
    us / generated as f64
}

/// Runs `body(rank, communicator)` on one thread per member of a
/// `size`-rank communicator and returns rank 0's result.
fn on_group<T: Send>(size: usize, body: impl Fn(usize, &Communicator) -> T + Sync) -> T {
    let cluster = Arc::new(ClusterSpec::a100_with_gpus(size.max(1)));
    let group = CommGroup::new((0..size).map(DeviceId).collect());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..size)
            .map(|r| {
                let comm = Communicator::new(
                    group.clone(),
                    r,
                    Arc::clone(&cluster),
                    CommCostModel::default(),
                );
                let body = &body;
                s.spawn(move || body(r, &comm))
            })
            .collect();
        let mut out: Vec<T> =
            handles.into_iter().map(|h| h.join().expect("probe thread")).collect();
        out.swap_remove(0)
    })
}

/// `Communicator::all_reduce_sum` of `len` floats across 2 threads (µs).
pub fn all_reduce_us(len: usize) -> f64 {
    let data = vec![0.5f32; len];
    on_group(2, |_, comm| {
        let mut clock = VirtualClock::new();
        median_us(25, || {
            std::hint::black_box(comm.all_reduce_sum(&mut clock, &data));
        })
    })
}

/// One HybridEngine train→generation transition at `gen`'s grouping,
/// run by every member of rank 0's gather group (µs, rank 0's view).
pub fn to_generation_us(lm: LmConfig, gen: GenGrouping) -> f64 {
    let model = TinyLm::new(lm, 7);
    let layout = ShardLayout::uniform(lm.layers, lm.block_size());
    let shard_of = |rank: usize| -> Vec<f32> {
        let sh = train_shard(&gen.train, rank, layout.layers());
        layout.ranges(&sh).into_iter().flat_map(|r| model.block_region()[r].to_vec()).collect()
    };
    let group = HybridEngineRank::new(0, gen, layout.clone(), shard_of(0)).gather_group();
    on_group(group.len(), |pos, comm| {
        let rank = group[pos];
        let mut engine = HybridEngineRank::new(rank, gen, layout.clone(), shard_of(rank));
        let mut clock = VirtualClock::new();
        median_us(25, || {
            std::hint::black_box(engine.to_generation(comm, &mut clock));
        })
    })
}

/// Round trip of a no-op worker group through `call_sync` with the 3D
/// protocol, at `layout` on `pool`, carrying `batch` (µs).
pub fn noop_rtt_us(pool: &ResourcePool, layout: WorkerLayout, batch: &DataProto) -> Result<f64> {
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(pool.len()));
    let local = ResourcePool::contiguous(0, pool.len());
    let group = ctrl.spawn_group("noop", &local, layout, |_r| {
        Box::new(|_m: &str, d: DataProto, _c: &mut RankCtx| Ok(d))
    })?;
    for _ in 0..5 {
        group.call_sync("noop", batch, Protocol::ThreeD)?;
    }
    let mut err = None;
    let us = median_us(50, || {
        if let Err(e) = group.call_sync("noop", batch, Protocol::ThreeD) {
            err = Some(e);
        }
    });
    ctrl.shutdown()?;
    match err {
        Some(e) => Err(e),
        None => Ok(us),
    }
}

/// The controller-side advantage estimator over one iteration's batch
/// of `rows` responses (µs): KL-shaped rewards, GAE and whitening for
/// PPO; group-relative advantages for GRPO (`grpo`).
pub fn advantage_us(cfg: &RlhfConfig, rows: usize, grpo: bool) -> f64 {
    let rw = cfg.response_len;
    let f = |i: usize| ((i * 2_654_435_761) % 1000) as f32 / 1000.0 - 0.5;
    let logp: Vec<f32> = (0..rows * rw).map(f).collect();
    let ref_logp: Vec<f32> = (0..rows * rw).map(|i| f(i + 7)).collect();
    let values: Vec<f32> = (0..rows * rw).map(|i| f(i + 13)).collect();
    let scores: Vec<f32> = (0..rows).map(|i| f(i + 29)).collect();
    median_us(25, || {
        if grpo {
            let adv: Vec<f32> = scores.chunks(cfg.grpo_group).flat_map(grpo_advantages).collect();
            std::hint::black_box(adv);
            return;
        }
        let mut adv = Vec::with_capacity(rows * rw);
        for (i, &score) in scores.iter().enumerate() {
            let span = i * rw..(i + 1) * rw;
            let r = shape_token_rewards(
                score,
                &logp[span.clone()],
                &ref_logp[span.clone()],
                cfg.kl_coef,
            );
            adv.extend(gae(&r, &values[span], cfg.gamma, cfg.lam).0);
        }
        whiten(&mut adv);
        std::hint::black_box(adv);
    })
}
