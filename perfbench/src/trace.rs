//! Outside-in tracing: a wrapper around the public `hf_core::Worker`
//! trait that records, for every `execute` call, its host interval, the
//! calling device thread's scheduler statistics, the virtual time it
//! took, and the collectives it entered. Nothing inside the program is
//! instrumented; untraced runs build the system through the library's
//! own `RlhfSystem::build` and never see the wrapper.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use hf_core::{Controller, DataProto, Protocol, RankCtx, Result, Worker, WorkerLayout};
use hf_rlhf::{
    ActorWorker, CriticWorker, Placement, ReferenceWorker, RewardEvaluatorWorker, RewardKind,
    RewardSource, RewardWorker, RlhfConfig, RlhfSystem,
};

use crate::host::SchedStat;
use crate::metrics::union_len;

/// One `execute` call as seen from outside the worker.
#[derive(Debug, Clone)]
pub struct ExecRecord {
    /// Worker method name.
    pub method: String,
    /// Host seconds since the log's epoch at entry.
    pub start: f64,
    /// Host seconds since the log's epoch at return.
    pub end: f64,
    /// Device-thread CPU nanoseconds during the call (`None` when the
    /// kernel has no `/proc/thread-self/schedstat`).
    pub cpu_ns: Option<u64>,
    /// Device-thread run-queue nanoseconds during the call.
    pub runq_ns: Option<u64>,
    /// Virtual seconds the rank's clock advanced during the call.
    pub virtual_s: f64,
    /// Collective rounds this rank entered during the call, summed over
    /// its communicators.
    pub collectives: u64,
}

/// Shared sink for every wrapped rank of one controller.
#[derive(Debug)]
pub struct TraceLog {
    epoch: Instant,
    records: Mutex<Vec<ExecRecord>>,
}

impl TraceLog {
    /// A fresh log whose epoch is now.
    pub fn new() -> Arc<TraceLog> {
        Arc::new(TraceLog { epoch: Instant::now(), records: Mutex::new(Vec::new()) })
    }

    /// Host seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn push(&self, r: ExecRecord) {
        self.records.lock().expect("trace log poisoned by a panicking rank").push(r);
    }

    /// Records with `start` in `[t0, t1)`.
    pub fn between(&self, t0: f64, t1: f64) -> Vec<ExecRecord> {
        let recs = self.records.lock().expect("trace log poisoned by a panicking rank");
        recs.iter().filter(|r| r.start >= t0 && r.start < t1).cloned().collect()
    }
}

fn comm_rounds(ctx: &RankCtx) -> u64 {
    let c = &ctx.comms;
    c.world.rounds()
        + c.tp.rounds()
        + c.pp.rounds()
        + c.dp.rounds()
        + c.mp.rounds()
        + c.micro_dp.as_ref().map_or(0, |m| m.rounds())
}

/// A worker wrapped so each `execute` is recorded into a [`TraceLog`].
pub struct Traced {
    inner: Box<dyn Worker>,
    log: Arc<TraceLog>,
}

impl Traced {
    /// Wraps `inner`.
    pub fn boxed(inner: Box<dyn Worker>, log: &Arc<TraceLog>) -> Box<dyn Worker> {
        Box::new(Traced { inner, log: Arc::clone(log) })
    }
}

impl Worker for Traced {
    fn execute(&mut self, method: &str, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        let rounds0 = comm_rounds(ctx);
        let v0 = ctx.clock.now();
        // The host interval encloses both scheduler readings, so the
        // CPU and run-queue time they bracket never exceed it.
        let start = self.log.now();
        let s0 = SchedStat::current();
        let out = self.inner.execute(method, data, ctx);
        let s1 = SchedStat::current();
        let end = self.log.now();
        let (cpu_ns, runq_ns) = match (s0, s1) {
            (Some(a), Some(b)) => {
                (Some(b.cpu_ns.saturating_sub(a.cpu_ns)), Some(b.runq_ns.saturating_sub(a.runq_ns)))
            }
            _ => (None, None),
        };
        self.log.push(ExecRecord {
            method: method.to_string(),
            start,
            end,
            cpu_ns,
            runq_ns,
            virtual_s: ctx.clock.now() - v0,
            collectives: comm_rounds(ctx) - rounds0,
        });
        out
    }
}

/// Builds the RLHF system of `placement`. Without a log this is the
/// library's `RlhfSystem::build`; with one, every rank's worker is the
/// same public worker type wrapped in [`Traced`], and the methods are
/// registered with the protocols `RlhfSystem::build` registers.
pub fn build_system(
    ctrl: &Controller,
    placement: &Placement,
    cfg: &RlhfConfig,
    log: Option<&Arc<TraceLog>>,
) -> Result<RlhfSystem> {
    let Some(log) = log else {
        return RlhfSystem::build(ctrl, placement, cfg.clone());
    };
    let (lm, hyper) = (cfg.lm, cfg.hyper.clone());
    let spawn = |name: &str,
                 pool: &hf_simcluster::ResourcePool,
                 layout: WorkerLayout,
                 make: &dyn Fn() -> Box<dyn Worker>| {
        ctrl.spawn_group(name, pool, layout, |_r| Traced::boxed(make(), log))
    };
    let actor = spawn("actor", &placement.actor.pool, placement.actor.layout, &|| {
        Box::new(ActorWorker::new(lm, hyper.clone()))
    })?;
    let critic = match &placement.critic {
        Some(p) => Some(spawn("critic", &p.pool, p.layout, &|| {
            Box::new(CriticWorker::new(lm, hyper.clone()))
        })?),
        None => None,
    };
    let reference =
        spawn("reference", &placement.reference.pool, placement.reference.layout, &|| {
            Box::new(ReferenceWorker::new(lm, hyper.clone()))
        })?;
    let reward = match &cfg.reward_source {
        RewardSource::Model => {
            spawn("reward", &placement.reward.pool, placement.reward.layout, &|| {
                let good_tokens = cfg.good_tokens.clone();
                Box::new(RewardWorker::new(
                    lm,
                    RewardKind::RuleBased { good_tokens },
                    hyper.clone(),
                ))
            })?
        }
        RewardSource::Verifier { spec, pool } => {
            let (spec, pool) = (*spec, *pool);
            spawn("reward", &placement.reward.pool, placement.reward.layout, &|| {
                Box::new(RewardEvaluatorWorker::new(spec, pool))
            })?
        }
    };
    assert!(placement.cost.is_none(), "no benchmark workload runs a cost model");
    let sys = RlhfSystem { actor, critic, reference, reward, cost: None, cfg: cfg.clone() };
    sys.actor
        .register("generate_sequences", sys.gen_protocol())
        .register("compute_log_prob", Protocol::ThreeD)
        .register("compute_loss", Protocol::ThreeD)
        .register("update_actor", Protocol::ThreeD)
        .register("save_checkpoint", Protocol::OneToOne)
        .register("save_shard", Protocol::AllToAll)
        .register("load_checkpoint", Protocol::OneToAll);
    if let Some(c) = &sys.critic {
        c.register("compute_values", Protocol::ThreeD)
            .register("update_critic", Protocol::ThreeD)
            .register("save_checkpoint", Protocol::OneToOne)
            .register("save_shard", Protocol::AllToAll)
            .register("load_checkpoint", Protocol::OneToAll);
    }
    sys.reference.register("compute_ref_log_prob", Protocol::ThreeD);
    sys.reward.register("compute_reward", Protocol::ThreeD);
    Ok(sys)
}

/// Host attribution of one traced iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterSplit {
    /// Iteration wall seconds.
    pub wall: f64,
    /// Seconds during which at least one rank was inside `execute`.
    pub exec_union: f64,
    /// Seconds during which no rank was: `wall − exec_union`.
    pub controller: f64,
}

/// Splits the iteration `[t0, t1)` into rank-side and controller-only
/// time. Intervals are clipped to the window, so the two parts tile it.
pub fn split_iteration(records: &[ExecRecord], t0: f64, t1: f64) -> IterSplit {
    let iv: Vec<(f64, f64)> = records
        .iter()
        .filter(|r| r.end > t0 && r.start < t1)
        .map(|r| (r.start.max(t0), r.end.min(t1)))
        .collect();
    let exec_union = union_len(iv);
    IterSplit { wall: t1 - t0, exec_union, controller: (t1 - t0) - exec_union }
}

/// Per-method rank time of a set of records, summed over ranks:
/// `(cpu, runq, blocked)` seconds, where blocked is wall − cpu − runq.
/// cpu, runq and blocked are `None` when any record lacks scheduler
/// statistics; the whole triple is `None` when the method never ran.
pub fn rank_time(
    records: &[ExecRecord],
    method: &str,
) -> Option<(Option<f64>, Option<f64>, Option<f64>)> {
    let mine: Vec<&ExecRecord> = records.iter().filter(|r| r.method == method).collect();
    if mine.is_empty() {
        return None;
    }
    let wall: f64 = mine.iter().map(|r| r.end - r.start).sum();
    let cpu: Option<u64> = mine.iter().map(|r| r.cpu_ns).sum();
    let runq: Option<u64> = mine.iter().map(|r| r.runq_ns).sum();
    match (cpu, runq) {
        (Some(c), Some(q)) => {
            let (c, q) = (c as f64 * 1e-9, q as f64 * 1e-9);
            Some((Some(c), Some(q), Some(wall - c - q)))
        }
        _ => Some((None, None, None)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(method: &str, start: f64, end: f64, cpu: Option<u64>) -> ExecRecord {
        ExecRecord {
            method: method.into(),
            start,
            end,
            cpu_ns: cpu,
            runq_ns: cpu.map(|_| 1_000_000),
            virtual_s: 0.0,
            collectives: 0,
        }
    }

    #[test]
    fn controller_time_and_exec_union_tile_the_iteration() {
        let recs = vec![
            rec("a", 0.5, 2.0, Some(0)),
            rec("b", 1.0, 3.0, Some(0)),
            rec("c", 4.0, 6.5, Some(0)),
        ];
        let s = split_iteration(&recs, 0.0, 6.0);
        assert_eq!(s.exec_union, 4.5);
        assert_eq!(s.controller + s.exec_union, s.wall);
    }

    #[test]
    fn missing_schedstat_reports_absent_cpu_and_runq() {
        let recs = vec![rec("update_actor", 0.0, 0.010, None), rec("x", 0.0, 1.0, Some(5))];
        assert_eq!(rank_time(&recs, "update_actor"), Some((None, None, None)));
        assert_eq!(rank_time(&recs, "compute_values"), None);
        let (cpu, runq, blocked) = rank_time(&recs, "x").unwrap();
        assert_eq!(cpu, Some(5e-9));
        assert_eq!(runq, Some(1e-3));
        assert!((blocked.unwrap() - (1.0 - 5e-9 - 1e-3)).abs() < 1e-12);
    }
}
