//! Fault-tolerance tests (paper §9): consistent checkpoints via the
//! single controller, checksum detection of silent data corruption, and
//! exact recovery — a restored system reproduces the original learning
//! trajectory bit-for-bit (parameters *and* RNG state are saved) — and
//! transient RPC drops are retried by the barrier without changing bits.

use hf_core::{CallPolicy, Controller, CoreError, Protocol, WorkerLayout};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_resilience::{CheckpointStore, FaultInjector, FaultPlan, FaultTrigger};
use hf_rlhf::env::make_prompts;
use hf_rlhf::recover::{restore_system_checkpoint, save_system_checkpoint};
use hf_rlhf::{
    grpo_iteration, ppo_iteration, restore_checkpoint, save_checkpoint, Algorithm, Placement,
    RlhfConfig, RlhfSystem,
};
use hf_simcluster::{ClusterSpec, CommCostModel, ResourcePool};
use hf_telemetry::Telemetry;

fn system() -> (Controller, RlhfSystem, RlhfConfig) {
    let cfg = RlhfConfig::tiny();
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
    let spec = ParallelSpec::new(1, 2, 2);
    let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
    let placement = Placement::colocated(
        ResourcePool::contiguous(0, 4),
        WorkerLayout::with_gen(gen),
        true,
        false,
    );
    let sys = RlhfSystem::build(&ctrl, &placement, cfg.clone()).unwrap();
    (ctrl, sys, cfg)
}

#[test]
fn recovery_reproduces_the_exact_trajectory() {
    let (ctrl, sys, cfg) = system();
    let prompts =
        |i: u64| make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, i);

    // Warm up, checkpoint, then record two more iterations.
    for i in 0..2 {
        ppo_iteration(&sys, &ctrl, &prompts(i)).unwrap();
    }
    let ckpt = save_checkpoint(&sys).unwrap();
    let original: Vec<f32> =
        (2..4).map(|i| ppo_iteration(&sys, &ctrl, &prompts(i)).unwrap().mean_score).collect();

    // "Failure": restore and replay — must match exactly.
    restore_checkpoint(&sys, &ckpt).unwrap();
    let replayed: Vec<f32> =
        (2..4).map(|i| ppo_iteration(&sys, &ctrl, &prompts(i)).unwrap().mean_score).collect();
    assert_eq!(original, replayed, "recovery must be exact");
}

#[test]
fn checksum_detects_silent_corruption() {
    let (_ctrl, sys, _cfg) = system();
    let mut ckpt = save_checkpoint(&sys).unwrap();
    // Flip one weight without updating the checksum.
    let (params, w) = {
        let (p, w) = ckpt.actor.f32("params").unwrap();
        (p.to_vec(), w)
    };
    let mut corrupted = params;
    corrupted[17] += 1.0;
    ckpt.actor.insert_f32("params", corrupted, w);
    let err = restore_checkpoint(&sys, &ckpt);
    assert!(err.is_err(), "corruption must be detected");
    let msg = format!("{}", err.unwrap_err());
    assert!(msg.contains("checksum"), "{msg}");
    assert!(!msg.contains("  "), "one message, no broken continuation: {msg}");
}

#[test]
fn malformed_payload_is_a_data_error_that_changes_no_state() {
    // A truncated moment used to panic the rank inside Adam's
    // `load_state` — after the actor had already taken the payload's RNG
    // round — which lost the rank and poisoned the group. The shared
    // decoder rejects it before any state changes.
    let (ctrl, sys, cfg) = system();
    let prompts =
        |i: u64| make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, i);
    ppo_iteration(&sys, &ctrl, &prompts(0)).unwrap();
    let before = save_checkpoint(&sys).unwrap();
    let mut bad = before.clone();
    let (m, w) = bad.actor.f32("opt_m").unwrap();
    let truncated = m[..w - 1].to_vec();
    bad.actor.insert_f32("opt_m", truncated, w - 1);
    bad.actor.meta.insert("gen_round".into(), "999".into());
    let err = restore_checkpoint(&sys, &bad);
    assert!(matches!(&err, Err(CoreError::Data(_))), "{err:?}");
    assert!(ctrl.lost_ranks().is_empty(), "{:?}", ctrl.lost_ranks());
    let after = save_checkpoint(&sys).unwrap();
    for col in ["params", "opt_m", "opt_v"] {
        assert_eq!(before.actor.f32(col).unwrap(), after.actor.f32(col).unwrap(), "{col}");
    }
    assert_eq!(before.actor.meta.get("gen_round"), after.actor.meta.get("gen_round"));
    ppo_iteration(&sys, &ctrl, &prompts(1)).expect("the group is still healthy");
}

#[test]
fn in_memory_restore_costs_the_same_as_the_store_restore() {
    // The in-memory checkpoint is a freshly encoded payload, not a
    // collected batch, so restoring it charges no GPU-to-GPU pull: the
    // same controller time as restoring the committed on-disk shards.
    let (ctrl, sys, cfg) = system();
    let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 0);
    ppo_iteration(&sys, &ctrl, &prompts).unwrap();
    let dir = std::env::temp_dir().join(format!("hf-ft-restore-cost-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir).unwrap();
    save_system_checkpoint(&store, &sys, &ctrl, 1).unwrap();
    let ckpt = save_checkpoint(&sys).unwrap();
    let elapsed = |restore: &dyn Fn()| {
        let t0 = ctrl.clock();
        restore();
        ctrl.clock() - t0
    };
    let from_store = elapsed(&|| restore_system_checkpoint(&store, &sys, 1).unwrap());
    let in_memory = elapsed(&|| restore_checkpoint(&sys, &ckpt).unwrap());
    assert_eq!(in_memory.to_bits(), from_store.to_bits(), "{in_memory} vs {from_store}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_includes_critic_when_present() {
    let (_ctrl, sys, _cfg) = system();
    let ckpt = save_checkpoint(&sys).unwrap();
    assert!(ckpt.critic.is_some());
    assert!(ckpt.actor.meta.contains_key("checksum"));
    assert!(ckpt.actor.meta.contains_key("gen_round"));
    assert!(ckpt.critic.as_ref().unwrap().meta.contains_key("checksum"));
}

#[test]
fn worker_failure_is_isolated_and_recoverable() {
    // A bad method call errors without poisoning the runtime; the system
    // keeps training afterwards.
    let (ctrl, sys, cfg) = system();
    let bad =
        sys.actor.call_sync("no_such_method", &hf_core::DataProto::empty(), Protocol::OneToAll);
    assert!(bad.is_err());
    let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 0);
    assert!(ppo_iteration(&sys, &ctrl, &prompts).is_ok());
}

/// Runs three barrier iterations of `algorithm` on one device, with
/// `plan` injected and transient retries enabled; returns the final
/// checkpoint bits and the `(retries, dropped)` counters.
fn run_with_drops(algorithm: Algorithm, plan: FaultPlan) -> (Vec<u32>, u64, u64) {
    let cfg = RlhfConfig::tiny();
    let ctrl = Controller::with_faults(
        ClusterSpec::a100_with_gpus(1),
        CommCostModel::default(),
        Telemetry::enabled(),
        FaultInjector::new(plan),
    );
    ctrl.set_policy(CallPolicy { max_retries: 3, ..CallPolicy::default() });
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 1));
    let critic = algorithm == Algorithm::Ppo;
    let placement = Placement::colocated(ResourcePool::contiguous(0, 1), layout, critic, false);
    let sys = RlhfSystem::build(&ctrl, &placement, cfg.clone()).unwrap();
    for i in 0..3 {
        let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, i);
        match algorithm {
            Algorithm::Ppo => ppo_iteration(&sys, &ctrl, &prompts).map(|_| ()),
            _ => grpo_iteration(&sys, &ctrl, &prompts).map(|_| ()),
        }
        .expect("transient drops are retried");
    }
    let ckpt = save_checkpoint(&sys).unwrap();
    let mut bits = Vec::new();
    for part in [Some(&ckpt.actor), ckpt.critic.as_ref()].into_iter().flatten() {
        for col in ["params", "opt_m", "opt_v"] {
            bits.extend(part.f32(col).unwrap().0.iter().map(|f| f.to_bits()));
        }
    }
    let tel = ctrl.telemetry();
    let counts = (tel.counter("resilience.retries"), tel.counter("resilience.rpc_dropped"));
    let _ = ctrl.shutdown();
    (bits, counts.0, counts.1)
}

#[test]
fn barrier_retries_transient_drops_to_fault_free_bits() {
    // PPO: drop the actor's 2nd and 3rd generation dispatches (the
    // retry of the first drop is dropped again). GRPO: drop one
    // actor-only update, which trains through `invoke_sync`'s retry.
    let cases =
        [(Algorithm::Ppo, "generate_sequences", 2u32), (Algorithm::Grpo, "update_actor", 1)];
    for (algorithm, method, drops) in cases {
        let (clean, retries, dropped) = run_with_drops(algorithm, FaultPlan::new());
        assert_eq!((retries, dropped), (0, 0), "{algorithm:?}: fault-free run retried");
        let trigger = FaultTrigger::OnCall { method: method.into(), nth: 2 };
        let plan = FaultPlan::new().drop_rpc("actor", 0, drops, trigger);
        let (bits, retries, dropped) = run_with_drops(algorithm, plan);
        assert_eq!(dropped, u64::from(drops), "{algorithm:?}: every planned drop fired");
        assert_eq!(retries, dropped, "{algorithm:?}: one retry per dropped {method}");
        assert!(bits == clean, "{algorithm:?}: retried run diverged from the fault-free bits");
    }
}
