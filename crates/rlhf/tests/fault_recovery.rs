//! End-to-end fault recovery: a seeded [`FaultPlan`] kills an actor rank
//! mid-PPO; the collective abort surfaces `PeerFailed` on every
//! surviving rank (no deadlock — a watchdog enforces it), the recovery
//! loop respawns the system in the same layout and restores the latest
//! committed sharded checkpoint, and the run finishes with final actor parameters
//! **bit-identical** to a fault-free run — the determinism claim that
//! makes every failure scenario a reproducible test case.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use hf_core::{Controller, WorkerLayout};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_resilience::{CheckpointStore, FaultInjector, FaultPlan, FaultTrigger};
use hf_rlhf::{
    remap_recoverable, KeepLayout, Placement, RecoveryConfig, RecoveryReport, RlhfConfig,
};
use hf_simcluster::{ClusterSpec, CommCostModel, ResourcePool};
use hf_telemetry::Telemetry;

/// Injected-failure tests must never hang: run `f` on a worker thread
/// and fail loudly if it exceeds `secs` (a deadlock would otherwise
/// wedge the whole suite).
fn with_watchdog<F: FnOnce() + Send + 'static>(secs: u64, f: F) {
    let (tx, rx) = mpsc::channel();
    let h = thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => h.join().unwrap(),
        Err(_) => panic!("deadlock: fault-recovery test exceeded {secs}s"),
    }
}

fn placement() -> Placement {
    let spec = ParallelSpec::new(1, 2, 2);
    let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
    Placement::colocated(ResourcePool::contiguous(0, 4), WorkerLayout::with_gen(gen), true, false)
}

fn build_ctrl(fault: Option<std::sync::Arc<FaultInjector>>) -> Controller {
    match fault {
        Some(f) => Controller::with_faults(
            ClusterSpec::a100_with_gpus(4),
            CommCostModel::default(),
            Telemetry::enabled(),
            f,
        ),
        None => Controller::new(ClusterSpec::a100_with_gpus(4)),
    }
}

/// Runs the recovery loop as a plain restart: every recovery respawns
/// the same placement on the same devices.
fn run_restarting(store: &CheckpointStore, ctrl: &Controller) -> RecoveryReport {
    remap_recoverable(
        ctrl,
        store,
        &recovery_cfg(),
        &placement(),
        RlhfConfig::tiny(),
        &mut KeepLayout(placement()),
    )
    .unwrap()
}

fn tmp_store(tag: &str) -> CheckpointStore {
    let dir = std::env::temp_dir().join(format!("hf-fault-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointStore::new(dir).unwrap()
}

fn recovery_cfg() -> RecoveryConfig {
    RecoveryConfig { iterations: 3, checkpoint_every: 1, batch: 8, ..RecoveryConfig::default() }
}

#[test]
fn killed_rank_recovers_to_a_bit_identical_run() {
    with_watchdog(120, || {
        // Fault-free baseline: the final committed checkpoint is the
        // ground-truth end state.
        let baseline_store = tmp_store("baseline");
        let report = run_restarting(&baseline_store, &build_ctrl(None));
        assert_eq!(report.history.len(), 3);
        assert_eq!(report.stats.failures, 0);
        let baseline = baseline_store.load_group(3, "actor").unwrap();

        // Faulted run: kill actor rank 2 on its 3rd `update_actor`
        // dispatch — mid-iteration 2, after step-1 committed. The
        // one-shot kill does not re-fire after the respawn.
        let injector = FaultInjector::new(FaultPlan::new().kill_rank(
            "actor",
            2,
            FaultTrigger::OnCall { method: "update_actor".into(), nth: 3 },
        ));
        let faulted_store = tmp_store("faulted");
        let report = run_restarting(&faulted_store, &build_ctrl(Some(injector.clone())));

        assert_eq!(injector.fired_count(), 1, "the planned kill must fire: {:?}", injector.log());
        assert_eq!(report.stats.failures, 1);
        assert_eq!(report.stats.recoveries, 1);
        assert_eq!(report.history.len(), 3, "all iterations complete after recovery");
        assert!(!report.log.is_empty());
        assert!(report.stats.mean_mttr_s() > 0.0, "respawn+restore costs virtual time");

        let recovered = faulted_store.load_group(3, "actor").unwrap();
        assert_eq!(
            baseline, recovered,
            "recovered run must be bit-identical to the fault-free run \
             (params, Adam moments, step count, RNG round)"
        );
    });
}

#[test]
fn killed_critic_rank_recovers_too() {
    with_watchdog(120, || {
        let injector = FaultInjector::new(FaultPlan::new().kill_rank(
            "critic",
            1,
            FaultTrigger::OnCall { method: "update_critic".into(), nth: 2 },
        ));
        let store = tmp_store("critic");
        let report = run_restarting(&store, &build_ctrl(Some(injector.clone())));
        assert_eq!(injector.fired_count(), 1);
        assert_eq!(report.stats.recoveries, 1);
        assert_eq!(report.history.len(), 3);
        // Both trainable models were checkpointed and restored.
        assert!(store.load_group(3, "actor").is_ok());
        assert!(store.load_group(3, "critic").is_ok());
    });
}
