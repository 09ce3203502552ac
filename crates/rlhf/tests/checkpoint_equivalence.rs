//! One checkpoint save path: the in-memory `save_checkpoint` and the
//! on-disk `save_group` + `load_group` both assemble the `save_shard`
//! owner rows, so they must agree bit for bit — parameters, both Adam
//! moments, the RNG round and the optimizer step — on every layout,
//! ZeRO included.

use hf_core::{Controller, DataProto, WorkerLayout};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_resilience::{AssembledState, CheckpointStore};
use hf_rlhf::env::make_prompts;
use hf_rlhf::recover::save_system_checkpoint;
use hf_rlhf::{ppo_iteration, save_checkpoint, Placement, RlhfConfig, RlhfSystem};
use hf_simcluster::{ClusterSpec, ResourcePool};

fn assert_same(label: &str, part: &DataProto, disk: &AssembledState) {
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (col, want) in [("params", &disk.params), ("opt_m", &disk.opt_m), ("opt_v", &disk.opt_v)] {
        let (got, _) = part.f32(col).unwrap();
        assert_eq!(bits(got), bits(want), "{label}: {col}");
    }
    assert_eq!(part.meta["gen_round"], disk.gen_round.to_string(), "{label}: gen_round");
    assert_eq!(part.meta["opt_t"], disk.opt_t.to_string(), "{label}: opt_t");
}

#[test]
fn in_memory_and_on_disk_checkpoints_are_the_same_bits() {
    let strided =
        |spec| WorkerLayout::with_gen(GenGrouping::new(spec, 1, 1, GroupingMethod::Strided));
    let cases = [
        ("1-2-2 strided", strided(ParallelSpec::new(1, 2, 2)), false),
        ("1-1-4", WorkerLayout::train_only(ParallelSpec::new(1, 1, 4)), false),
        ("2-1-2", WorkerLayout::train_only(ParallelSpec::new(2, 1, 2)), false),
        ("2-2-1", WorkerLayout::train_only(ParallelSpec::new(2, 2, 1)), false),
        ("zero 1-1-4", WorkerLayout::train_only(ParallelSpec::new(1, 1, 4)), true),
    ];
    for (i, (label, layout, zero)) in cases.into_iter().enumerate() {
        let cfg = RlhfConfig::tiny();
        let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
        let placement = Placement::colocated(ResourcePool::contiguous(0, 4), layout, true, false);
        let sys = if zero {
            RlhfSystem::build_zero(&ctrl, &placement, cfg.clone())
        } else {
            RlhfSystem::build(&ctrl, &placement, cfg.clone())
        }
        .unwrap();
        for it in 0..3 {
            let prompts =
                make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, it);
            ppo_iteration(&sys, &ctrl, &prompts).unwrap();
        }
        let ckpt = save_checkpoint(&sys).unwrap();
        let dir =
            std::env::temp_dir().join(format!("hf-ckpt-equivalence-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir).unwrap();
        save_system_checkpoint(&store, &sys, &ctrl, 3).unwrap();
        assert_same(label, &ckpt.actor, &store.load_group(3, "actor").unwrap());
        let critic = ckpt.critic.as_ref().expect("PPO checkpoints the critic");
        assert_same(label, critic, &store.load_group(3, "critic").unwrap());
        let _ = std::fs::remove_dir_all(&dir);
        ctrl.shutdown().unwrap();
    }
}
