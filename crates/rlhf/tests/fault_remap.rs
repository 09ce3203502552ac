//! Elastic re-mapping tier-1 scenarios: lose a rank mid-PPO, re-map
//! onto the survivors, continue — and prove the continuation is
//! *exact*: post-remap weights, Adam moments, and the generation RNG
//! round are bit-identical to a fresh run launched in the re-mapped
//! layout from the same committed checkpoint.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use hf_core::{Controller, WorkerLayout};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_resilience::{CheckpointStore, FaultInjector, FaultPlan, FaultTrigger};
use hf_rlhf::recover::{restore_system_checkpoint, save_system_checkpoint};
use hf_rlhf::{
    remap_recoverable, KeepLayout, MapperPlanner, PipelineConfig, Placement, PlannedRemap,
    RecoveryConfig, RecoveryReport, RlhfConfig, RlhfSystem,
};
use hf_simcluster::{ClusterSpec, CommCostModel, DeviceId, ResourcePool};
use hf_telemetry::Telemetry;

fn with_watchdog<F: FnOnce() + Send + 'static>(secs: u64, f: F) {
    let (tx, rx) = mpsc::channel();
    let h = thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        // Disconnected means the closure panicked: join propagates it.
        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => h.join().unwrap(),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("deadlock: remap scenario exceeded {secs}s")
        }
    }
}

fn fresh_store(tag: &str) -> CheckpointStore {
    let dir = std::env::temp_dir().join(format!("hf-fault-remap-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointStore::new(dir).unwrap()
}

fn initial_placement() -> Placement {
    let spec = ParallelSpec::new(1, 2, 2);
    let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
    Placement::colocated(ResourcePool::contiguous(0, 4), WorkerLayout::with_gen(gen), true, false)
}

fn remap_cfg(pipeline: PipelineConfig) -> RecoveryConfig {
    RecoveryConfig {
        iterations: 4,
        checkpoint_every: 1,
        batch: 8,
        pipeline,
        allowed: Some((0..4).map(DeviceId).collect()),
        min_world: 1,
        ..Default::default()
    }
}

/// Runs the elastic loop with actor rank 1 killed on its 3rd
/// `update_actor` dispatch (mid-iteration 2, after step 1 committed).
fn run_killed(store: &CheckpointStore, pipeline: PipelineConfig) -> RecoveryReport {
    run_killed_on_ctrl(store, pipeline).0
}

/// [`run_killed`], also returning the controller it ran on.
fn run_killed_on_ctrl(
    store: &CheckpointStore,
    pipeline: PipelineConfig,
) -> (RecoveryReport, Controller) {
    let plan = FaultPlan::new().kill_rank(
        "actor",
        1,
        FaultTrigger::OnCall { method: "update_actor".into(), nth: 3 },
    );
    let injector = FaultInjector::new(plan);
    let ctrl = Controller::with_faults(
        ClusterSpec::a100_with_gpus(4),
        CommCostModel::default(),
        Telemetry::enabled(),
        injector.clone(),
    );
    let cfg = remap_cfg(pipeline);
    let mut planner = MapperPlanner::toy(4);
    let report = remap_recoverable(
        &ctrl,
        store,
        &cfg,
        &initial_placement(),
        RlhfConfig::tiny(),
        &mut planner,
    )
    .expect("elastic run completes after the re-map");
    assert_eq!(injector.fired_count(), 1, "the kill must fire");
    (report, ctrl)
}

#[test]
fn kill_then_remap_continues_on_survivors() {
    with_watchdog(300, || {
        let store = fresh_store("continue");
        let report = run_killed(&store, PipelineConfig::BARRIER);

        assert_eq!(report.history.len(), 4, "all iterations complete");
        assert_eq!(report.stats.recoveries, 1);
        assert_eq!(report.remaps.len(), 1, "{:?}", report.log);
        let ev = &report.remaps[0];
        assert_eq!(ev.world_before, 4);
        assert_eq!(ev.world_after, 3, "device 1 died; survivors are 0,2,3");
        assert_eq!(ev.resumed_step, 1, "step 1 was committed before the kill");
        assert!(ev.reshard_s > 0.0, "the restore broadcast consumes virtual time");
        assert!(ev.reshard_bytes > 0, "the restore broadcast moves bytes");
        assert!(ev.blackout_s >= ev.reshard_s);
        assert_eq!(report.final_world, 3);
        // The run ends with a committed, loadable checkpoint at step 4
        // written from the *re-mapped* layout.
        let final_actor = store.load_group(4, "actor").unwrap();
        assert!(final_actor.opt_t > 0);
    });
}

/// The tentpole determinism contract: the live-remapped continuation is
/// bit-identical to a fresh system launched in the re-mapped layout on
/// a fresh controller, restoring the same committed checkpoint and
/// replaying the same iterations.
#[test]
fn remap_continuation_matches_fresh_launch_in_new_layout() {
    with_watchdog(300, || {
        let store = fresh_store("bits-live");
        let report = run_killed(&store, PipelineConfig::BARRIER);
        let ev = &report.remaps[0];
        let live_actor = store.load_group(4, "actor").unwrap();
        let live_critic = store.load_group(4, "critic").unwrap();

        // Fresh controller, no faults, placed directly in the re-mapped
        // layout over the same survivor devices.
        let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
        let gen = GenGrouping::new(ev.spec, 1, 1, GroupingMethod::Strided);
        let survivors: Vec<DeviceId> = [0usize, 2, 3].into_iter().map(DeviceId).collect();
        let placement = Placement::colocated(
            ResourcePool::new(survivors),
            WorkerLayout::with_gen(gen),
            true,
            false,
        );
        let sys = RlhfSystem::build(&ctrl, &placement, RlhfConfig::tiny()).unwrap();
        restore_system_checkpoint(&store, &sys, ev.resumed_step).unwrap();

        // Replay iterations 1..4 exactly as the barrier driver does,
        // committing to a second store.
        let fresh = fresh_store("bits-fresh");
        let cfg =
            RecoveryConfig { iterations: 4, checkpoint_every: 1, batch: 8, ..Default::default() };
        for i in ev.resumed_step..4 {
            let seed = cfg.data_seed.wrapping_add(i);
            let prompts = hf_rlhf::env::make_prompts(
                cfg.batch,
                sys.cfg.prompt_len,
                sys.cfg.response_len,
                sys.cfg.lm.vocab as u32,
                seed,
            );
            hf_rlhf::ppo_iteration(&sys, &ctrl, &prompts).unwrap();
            save_system_checkpoint(&fresh, &sys, &ctrl, i + 1).unwrap();
        }
        let fresh_actor = fresh.load_group(4, "actor").unwrap();
        let fresh_critic = fresh.load_group(4, "critic").unwrap();
        assert_eq!(
            live_actor, fresh_actor,
            "post-remap actor params/Adam/RNG must match a fresh launch bit-for-bit"
        );
        assert_eq!(live_critic, fresh_critic, "critic state must match bit-for-bit");
    });
}

/// The pipelined window driver at staleness 0 keeps the same bits as
/// the barrier driver across a mid-run re-map (every window flushes at
/// its checkpoint boundary, so committed steps have pinned staleness).
#[test]
fn pipelined_remap_driver_matches_barrier_bits() {
    with_watchdog(300, || {
        let store_b = fresh_store("drv-barrier");
        let report_b = run_killed(&store_b, PipelineConfig::BARRIER);

        let store_p = fresh_store("drv-pipelined");
        let pcfg = hf_rlhf::PipelineConfig { staleness: 0, gen_chunks: 2 };
        let report_p = run_killed(&store_p, pcfg);

        assert_eq!(report_p.history.len(), 4);
        assert_eq!(report_p.remaps.len(), 1, "{:?}", report_p.log);
        assert_eq!(report_b.remaps[0].spec, report_p.remaps[0].spec);
        assert_eq!(
            store_b.load_group(4, "actor").unwrap(),
            store_p.load_group(4, "actor").unwrap(),
            "staleness-0 pipelined windows must commit the barrier driver's bits"
        );
    });
}

/// A load-shift signal (no fault at all): a planned re-map matures at
/// an iteration boundary and moves the run onto a smaller device
/// budget, live.
#[test]
fn planned_load_shift_remaps_at_the_boundary() {
    with_watchdog(300, || {
        let store = fresh_store("load-shift");
        let ctrl = Controller::with_telemetry(
            ClusterSpec::a100_with_gpus(4),
            CommCostModel::default(),
            Telemetry::enabled(),
        );
        let mut cfg = remap_cfg(PipelineConfig::BARRIER);
        cfg.planned = vec![PlannedRemap { after_iteration: 2, devices: 2 }];
        let mut planner = MapperPlanner::toy(4);
        let report = remap_recoverable(
            &ctrl,
            &store,
            &cfg,
            &initial_placement(),
            RlhfConfig::tiny(),
            &mut planner,
        )
        .expect("load-shift run completes");

        assert_eq!(report.history.len(), 4);
        assert_eq!(report.stats.failures, 0, "no fault was injected");
        assert_eq!(report.remaps.len(), 1, "{:?}", report.log);
        let ev = &report.remaps[0];
        assert_eq!(ev.world_before, 4);
        assert_eq!(ev.world_after, 2);
        assert_eq!(ev.resumed_step, 2, "the shift matures after iteration 2 commits");
        assert_eq!(report.final_world, 2);
        assert!(ctrl.telemetry().counter("remap.events") >= 1);
        store.load_group(4, "actor").unwrap();
    });
}

/// Time conservation across a double fault. Two kills land before the
/// next commit (checkpoint every 4 iterations): actor rank 2 on its
/// 3rd `update_actor`, then — after the restart respawned the same
/// layout and reset call counts — critic rank 1 on its 5th
/// `update_critic`. Every virtual second of the faulted run must be
/// accounted exactly once: kept iterations, the fault-free twin's
/// checkpoint writes, MTTR, lost work, and interrupted-write windows.
/// Anchoring the second fault's lost work at the last commit instead
/// of at the resume instant charges the first fault's work twice.
#[test]
fn double_fault_charges_lost_work_once() {
    with_watchdog(300, || {
        let cfg =
            RecoveryConfig { iterations: 4, checkpoint_every: 4, batch: 8, ..Default::default() };
        let run = |tag: &str, ctrl: &Controller| {
            let store = fresh_store(tag);
            remap_recoverable(
                ctrl,
                &store,
                &cfg,
                &initial_placement(),
                RlhfConfig::tiny(),
                &mut KeepLayout(initial_placement()),
            )
            .expect("run completes")
        };
        let twin = run("double-twin", &Controller::new(ClusterSpec::a100_with_gpus(4)));
        let plan = FaultPlan::new()
            .kill_rank("actor", 2, FaultTrigger::OnCall { method: "update_actor".into(), nth: 3 })
            .kill_rank(
                "critic",
                1,
                FaultTrigger::OnCall { method: "update_critic".into(), nth: 5 },
            );
        let injector = FaultInjector::new(plan);
        let ctrl = Controller::with_faults(
            ClusterSpec::a100_with_gpus(4),
            CommCostModel::default(),
            Telemetry::enabled(),
            injector.clone(),
        );
        let faulted = run("double-faulted", &ctrl);
        assert_eq!(injector.fired_count(), 2, "both kills must fire: {:?}", injector.log());
        assert_eq!(faulted.stats.recoveries, 2);
        assert_eq!(faulted.history.len(), 4);

        let iter_sum =
            |r: &RecoveryReport| r.history.iter().map(|s| s.virtual_seconds).sum::<f64>();
        let ckpt_write_s = twin.virtual_time_s - iter_sum(&twin);
        let accounted = iter_sum(&faulted)
            + ckpt_write_s
            + faulted.stats.mttr_s.iter().sum::<f64>()
            + faulted.stats.virtual_time_lost
            + faulted.stats.checkpoint_window_lost_s;
        assert!(
            (faulted.virtual_time_s - accounted).abs() < 1e-9,
            "faulted run took {} s but {accounted} s is accounted ({:?})",
            faulted.virtual_time_s,
            faulted.stats
        );
    });
}

/// A rank lost during the step-0 checkpoint has nothing committed to
/// restore: the elastic loop re-places onto the survivors, rebuilds
/// the initial state from seeds, and re-saves step 0.
#[test]
fn step0_fault_rebuilds_from_seeds_on_survivors() {
    with_watchdog(300, || {
        let store = fresh_store("step0");
        let injector = FaultInjector::new(FaultPlan::new().kill_rank(
            "actor",
            1,
            FaultTrigger::OnCall { method: "save_shard".into(), nth: 1 },
        ));
        let ctrl = Controller::with_faults(
            ClusterSpec::a100_with_gpus(4),
            CommCostModel::default(),
            Telemetry::enabled(),
            injector.clone(),
        );
        let report = remap_recoverable(
            &ctrl,
            &store,
            &remap_cfg(PipelineConfig::BARRIER),
            &initial_placement(),
            RlhfConfig::tiny(),
            &mut MapperPlanner::toy(4),
        )
        .expect("a step-0 fault is recovered by rebuilding from seeds");

        assert_eq!(injector.fired_count(), 1, "the step-0 save kill must fire");
        assert_eq!(report.stats.recoveries, 1);
        assert_eq!(report.history.len(), 4, "all iterations complete");
        assert_eq!(report.remaps.len(), 1, "{:?}", report.log);
        assert_eq!(report.remaps[0].resumed_step, 0);
        assert_eq!(report.final_world, 3, "device 1 died; survivors are 0,2,3");
        let final_actor = store.load_group(4, "actor").unwrap();
        assert!(final_actor.opt_t > 0);
    });
}

/// Telemetry is a deterministic artefact: two identical kill→remap runs
/// must record identical `remap.*` and `resilience.*` digests and
/// gauges. (Mapping-search wall time lives only on `RemapEvent` and
/// `RecoveryStats`.)
#[test]
fn remap_telemetry_is_identical_across_reruns() {
    with_watchdog(300, || {
        let recovery_metrics = |tag: &str| {
            let (_, ctrl) = run_killed_on_ctrl(&fresh_store(tag), PipelineConfig::BARRIER);
            let m = ctrl.telemetry().metrics();
            let ours = |k: &String| k.starts_with("remap.") || k.starts_with("resilience.");
            let digests: Vec<_> = m.digests.into_iter().filter(|(k, _)| ours(k)).collect();
            let gauges: Vec<_> = m.gauges.into_iter().filter(|(k, _)| ours(k)).collect();
            (digests, gauges)
        };
        let (d1, g1) = recovery_metrics("telemetry-a");
        let (d2, g2) = recovery_metrics("telemetry-b");
        assert!(d1.iter().any(|(k, _)| k == "remap.blackout_s"), "{d1:?}");
        assert_eq!(d1, d2, "remap/resilience digests must not depend on host time");
        assert_eq!(g1, g2, "remap/resilience gauges must not depend on host time");
    });
}
