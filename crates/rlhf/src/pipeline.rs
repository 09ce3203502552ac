//! The one stage driver: every algorithm's stage DAG (see `stage`) under
//! a `(staleness, gen_chunks)` schedule — generation/training overlap
//! for async RLHF dataflow (§6 discussion).
//!
//! [`StageDriver`] runs generation → experience preparation → training
//! for any [`Algorithm`]. The barrier schedule is the configuration
//! [`PipelineConfig::BARRIER`] (staleness 0, one chunk): each stage waits
//! for the last, every generation pass goes through `invoke_sync`'s
//! transient retry, and the iteration emits one `Phase` span per stage.
//! `ppo_iteration` and its siblings are one-line wrappers over it. Any
//! other configuration is *overlapped*:
//!
//! 1. **Generation streams into preparation.** Each generation pass is
//!    split into `gen_chunks` requests; as each chunk's sequences finish,
//!    its preparation forward passes are issued immediately instead of
//!    waiting for the slowest chunk. The algorithm's finalizer runs once
//!    on the concatenated batch, so advantages see the same rows as the
//!    barrier (GAE works row by row and whitens once).
//! 2. **Training runs `staleness` iterations behind.** At staleness 1 the
//!    batch assembled at step *i* is trained while step *i+1*'s generation
//!    executes: its update futures are issued behind the next round's
//!    generation and held across the step boundary. At staleness 0
//!    training stays in-step and micro-batch by micro-batch, exactly as
//!    the barrier trains.
//! 3. **The HybridEngine transition overlaps the train tail.** Generation
//!    chunks carry [`PIPELINE_META`], so the train→generation all-gather
//!    enters through `to_generation_overlapped`, which charges only the
//!    portion of the gather not already hidden behind the actor's queue
//!    wait.
//!
//! Determinism contract: every dispatch and wait follows a *static*
//! schedule, and the actor's checkpointed counter owns the generation
//! round (a continuation chunk does not advance it). Hence pinned
//! staleness ⇒ pinned bits: `staleness = 0` is bit-identical to the
//! barrier for every algorithm and chunking, and `staleness = 1` is
//! bit-identical across executions (the tier-1 determinism tests pin
//! both).

use hf_core::{Controller, CoreError, DataProto, DpFuture, Result, WorkerGroup, ROW_OFFSET_META};

use crate::algo::{IterStats, RlhfSystem};
use crate::stage::{
    assemble_stats, mean_of, phase_span, PrepInput, PrepRole, PrepSink, TrainMode, TrainTotals,
};
use crate::trainer::Algorithm;
use crate::workers::PIPELINE_META;

/// Stage-schedule knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// How many iterations behind generation training runs: `0` trains
    /// the freshly assembled batch in-step (bit-identical to the
    /// barrier), `1` is one-step-off-policy execution.
    pub staleness: u32,
    /// How many generation requests each generation pass is split into.
    /// Each chunk must still satisfy the actor protocol's divisibility
    /// (rows divisible by the DP/micro-DP fan-out).
    pub gen_chunks: usize,
}

impl PipelineConfig {
    /// The barrier schedule: staleness 0, one generation chunk.
    pub const BARRIER: PipelineConfig = PipelineConfig { staleness: 0, gen_chunks: 1 };
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { staleness: 1, gen_chunks: 2 }
    }
}

/// A reply that is either already collected (a synchronous call through
/// the controller's transient-retry policy) or still in flight.
enum Reply {
    Ready(DataProto),
    Pending(DpFuture),
}

impl Reply {
    /// Calls `method` synchronously (`sync`) or issues it as a future.
    fn issue(group: &WorkerGroup, method: &str, data: &DataProto, sync: bool) -> Result<Reply> {
        Ok(if sync {
            Reply::Ready(group.invoke_sync(method, data)?)
        } else {
            Reply::Pending(group.invoke(method, data)?)
        })
    }

    fn wait(self) -> Result<DataProto> {
        match self {
            Reply::Ready(d) => Ok(d),
            Reply::Pending(f) => f.wait(),
        }
    }
}

/// One experience batch's training: per micro-batch the critic update
/// (if the algorithm has a critic) and the actor update, folded into
/// loss totals as they are collected.
struct Training {
    batch: DataProto,
    issued: Vec<(Option<Reply>, Reply)>,
    totals: TrainTotals,
}

impl Training {
    /// Issues `batch`'s micro-batch updates under `mode`. In-step
    /// training collects each micro-batch before issuing the next, and
    /// an actor-only update goes through `invoke_sync`'s retry; deferred
    /// training issues every update as a future and holds them. Critic +
    /// actor updates are futures without retry either way (recovery
    /// happens a level up).
    fn issue(sys: &RlhfSystem, mode: TrainMode, batch: DataProto, in_step: bool) -> Result<Self> {
        let mut t = Training { batch, issued: Vec::new(), totals: TrainTotals::default() };
        for mb in t.batch.chunk(sys.cfg.updates) {
            let critic = match mode {
                TrainMode::CriticActor => {
                    let (critic, _) = PrepRole::Critic.resolve(sys)?;
                    Some(Reply::issue(critic, "update_critic", &mb, false)?)
                }
                TrainMode::ActorOnly => None,
            };
            let sync = in_step && critic.is_none();
            let actor = Reply::issue(&sys.actor, "update_actor", &mb, sync)?;
            t.issued.push((critic, actor));
            if in_step {
                t.collect()?;
            }
        }
        Ok(t)
    }

    /// Waits every issued update in issue order, critic first.
    fn collect(&mut self) -> Result<()> {
        for (critic, actor) in self.issued.drain(..) {
            if let Some(c) = critic {
                self.totals.critic_loss += mean_of(&c.wait()?, "critic_loss");
            }
            self.totals.absorb_actor(&actor.wait()?);
        }
        Ok(())
    }

    /// Collects what is still in flight and assembles the batch's stats.
    fn finish(mut self, updates: usize) -> Result<(IterStats, DataProto)> {
        self.collect()?;
        Ok((assemble_stats(&self.batch, &self.totals, updates), self.batch))
    }
}

/// The stage driver. Owns the off-policy state of overlapped schedules:
/// the batch awaiting training, the update futures awaiting collection,
/// and the overlap bookkeeping.
pub struct StageDriver {
    algorithm: Algorithm,
    cfg: PipelineConfig,
    /// Batch assembled last step, awaiting its training dispatch.
    pending: Option<DataProto>,
    /// Training dispatched last step, awaiting collection — held across
    /// the next generation dispatch so the controller never blocks on
    /// the actor's update tail before re-filling its mailbox.
    held: Option<Training>,
    /// Controller-timeline index up to which stage intervals were
    /// already folded into the overlap bookkeeping.
    cursor: usize,
    started: bool,
    run_start: f64,
    /// Awaited dispatch→completion intervals per stage class:
    /// generation, preparation, training.
    intervals: [Vec<(f64, f64)>; 3],
    overlap_emitted_us: u64,
}

/// The stage driver under the name PPO callers use:
/// [`StageDriver::new`] builds a PPO driver.
pub type PipelinedPpo = StageDriver;

/// Sorts intervals and merges overlapping/adjacent ones.
fn merge_intervals(iv: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut v: Vec<(f64, f64)> = iv.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(v.len());
    for (a, b) in v {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// One iteration of `algorithm` under [`PipelineConfig::BARRIER`],
/// returning its stats and experience batch.
pub(crate) fn barrier_iteration(
    algorithm: Algorithm,
    sys: &RlhfSystem,
    ctrl: &Controller,
    prompts: &DataProto,
    pretrain: Option<&DataProto>,
) -> Result<(IterStats, DataProto)> {
    let mut driver = StageDriver::with_algorithm(algorithm, PipelineConfig::BARRIER);
    let trained = driver.step_captured(sys, ctrl, prompts, pretrain)?;
    Ok(trained.expect("staleness 0 trains in-step"))
}

impl StageDriver {
    /// A PPO driver.
    ///
    /// # Panics
    ///
    /// Panics if `staleness > 1` or `gen_chunks == 0`.
    pub fn new(cfg: PipelineConfig) -> Self {
        Self::with_algorithm(Algorithm::Ppo, cfg)
    }

    /// A driver for `algorithm`. `staleness` must be 0 or 1.
    ///
    /// # Panics
    ///
    /// Panics if `staleness > 1` or `gen_chunks == 0`.
    pub fn with_algorithm(algorithm: Algorithm, cfg: PipelineConfig) -> Self {
        assert!(cfg.staleness <= 1, "bounded staleness: only 0 or 1 supported");
        assert!(cfg.gen_chunks > 0, "gen_chunks must be positive");
        StageDriver {
            algorithm,
            cfg,
            pending: None,
            held: None,
            cursor: 0,
            started: false,
            run_start: 0.0,
            intervals: Default::default(),
            overlap_emitted_us: 0,
        }
    }

    /// One step. Dispatches this round's generation, overlaps it with the
    /// previous batch's training (staleness 1), streams finished chunks
    /// into preparation, and returns the stats of whichever batch's
    /// training *completed* during this step: `None` while the pipeline
    /// is still filling (the first call at `staleness = 1`), `Some`
    /// afterwards. Call [`StageDriver::flush`] after the last step to
    /// drain the in-flight work.
    pub fn step(
        &mut self,
        sys: &RlhfSystem,
        ctrl: &Controller,
        prompts: &DataProto,
    ) -> Result<Option<IterStats>> {
        self.step_captured(sys, ctrl, prompts, None).map(|o| o.map(|(stats, _)| stats))
    }

    /// [`StageDriver::step`] that also takes the pre-train batch
    /// (Safe-RLHF; `None` for the other algorithms) and returns the
    /// experience batch the emitted stats describe (the audit oracle and
    /// the determinism tests fingerprint it).
    pub fn step_captured(
        &mut self,
        sys: &RlhfSystem,
        ctrl: &Controller,
        prompts: &DataProto,
        pretrain: Option<&DataProto>,
    ) -> Result<Option<(IterStats, DataProto)>> {
        let algo = self.algorithm.stages();
        let calls = algo.prep_calls();
        let mode = algo.train_mode();
        // Fail before issuing any work when a model the stages call is
        // missing.
        for call in &calls {
            call.role.resolve(sys)?;
        }
        if mode == TrainMode::CriticActor {
            PrepRole::Critic.resolve(sys)?;
        }
        if self.cfg.staleness > 0 && algo.recompute_logp(&sys.cfg) {
            // Its forward pass would queue behind the deferred update.
            return Err(CoreError::Config("recompute_logp requires staleness 0".into()));
        }
        let barrier = self.cfg == PipelineConfig::BARRIER;
        if !barrier && !self.started {
            self.started = true;
            self.run_start = ctrl.clock();
            self.cursor = ctrl.timeline().len();
        }
        let t0 = ctrl.clock();
        // The barrier closes one `Phase` span per stage, each citing the
        // last as its cause.
        let mut phase = (t0, 0u64);

        // Stage 1: dispatch every generation pass (the main one, then any
        // auxiliary decode), pass by pass, each split into the same row
        // chunks. The barrier calls each pass synchronously.
        let main = algo.expand_prompts(&sys.cfg, prompts)?.unwrap_or_else(|| prompts.clone());
        let mut passes = vec![main];
        passes.extend(algo.aux_gen_inputs(prompts));
        let n = self.cfg.gen_chunks.min(passes[0].rows().max(1));
        let mut gens = Vec::with_capacity(passes.len());
        for pass in &passes {
            let mut replies = Vec::with_capacity(n);
            for chunk in self.split(pass, n) {
                replies.push(Reply::issue(&sys.actor, "generate_sequences", &chunk, barrier)?);
            }
            gens.push(replies.into_iter());
        }

        // Staleness 1: dispatch training for the batch assembled last
        // step. Its micro-batches queue behind the generation calls just
        // issued, so critic updates run concurrently with generation and
        // the actor's update tail is what the *next* round's transition
        // overlaps with.
        let deferred = match self.pending.take() {
            Some(batch) => Some(Training::issue(sys, mode, batch, false)?),
            None => None,
        };

        // Stage 2: stream finished chunks into preparation — wait each
        // chunk in order (static schedule) and issue its forward passes
        // the moment it lands; then collect them in issue order.
        let mut issued = Vec::with_capacity(n);
        let mut row0 = vec![0usize; gens.len()];
        for _ in 0..n {
            let mut outs = Vec::with_capacity(gens.len());
            for (pass, r0) in gens.iter_mut().zip(row0.iter_mut()) {
                let mut out = pass.next().expect("one reply per chunk").wait()?;
                if !barrier {
                    // Global rows, so row-seeded rewards match the barrier.
                    out.meta.insert(ROW_OFFSET_META.into(), r0.to_string());
                }
                *r0 += out.rows();
                outs.push(out);
            }
            if algo.recompute_logp(&sys.cfg) {
                // Optional Table 4 pass: recompute log-probs under the
                // training engine's numerics and use them as the PPO old
                // log-probs.
                let lp = sys.actor.invoke_sync("compute_log_prob", &outs[0])?;
                let (cur, w) = lp.f32("cur_logp")?;
                let cur = cur.to_vec();
                outs[0].insert_f32("logp_old", cur, w);
            }
            if barrier {
                phase = phase_span(ctrl, "generation", phase.0, phase.1);
            }
            let mut futs = Vec::with_capacity(calls.len());
            for call in &calls {
                let (group, method) = call.role.resolve(sys)?;
                let input = match call.input {
                    PrepInput::Batch => &outs[0],
                    PrepInput::Aux(i) => &outs[i + 1],
                };
                futs.push((group.invoke(method, input)?, call.sink));
            }
            issued.push((outs.swap_remove(0), futs));
        }
        let mut parts = Vec::with_capacity(n);
        let mut sides: Vec<Vec<DataProto>> = Vec::with_capacity(n);
        for (mut part, futs) in issued {
            let mut side = Vec::new();
            for (fut, sink) in futs {
                match sink {
                    PrepSink::Union => {
                        part.union(fut.wait()?)?;
                    }
                    PrepSink::Side => side.push(fut.wait()?),
                }
            }
            parts.push(part);
            sides.push(side);
        }
        let mut batch = DataProto::concat(&parts)?;
        for key in [PIPELINE_META, ROW_OFFSET_META] {
            batch.meta.remove(key);
        }
        let side_count = sides.first().map_or(0, Vec::len);
        let side = (0..side_count)
            .map(|k| DataProto::concat(&sides.iter().map(|s| s[k].clone()).collect::<Vec<_>>()))
            .collect::<Result<Vec<_>>>()?;
        algo.finalize(&sys.cfg, &mut batch, &side)?;
        if barrier {
            phase = phase_span(ctrl, "experience_preparation", phase.0, phase.1);
        }
        algo.pre_train(&sys.cfg, &mut batch, pretrain)?;

        // Stage 3: resolve whichever training completes this step.
        let updates = sys.cfg.updates;
        let result = if self.cfg.staleness == 0 {
            debug_assert!(deferred.is_none(), "staleness 0 never defers training");
            Some(Training::issue(sys, mode, batch, true)?.finish(updates)?)
        } else {
            let prev = std::mem::replace(&mut self.held, deferred);
            self.pending = Some(batch);
            prev.map(|t| t.finish(updates)).transpose()?
        };
        if barrier {
            phase_span(ctrl, "training", phase.0, phase.1);
            return Ok(result.map(|(mut stats, batch)| {
                stats.virtual_seconds = ctrl.clock() - t0;
                (stats, batch)
            }));
        }

        // Measured overlap, telemetry, stats finalization.
        Ok(self.record_step(ctrl, t0, result))
    }

    /// Drains the pipeline: collects the held update futures, then
    /// trains the still-pending batch. Returns the remaining stats in
    /// completion order (0–2 entries depending on staleness and how
    /// many steps ran).
    pub fn flush(&mut self, sys: &RlhfSystem, ctrl: &Controller) -> Result<Vec<IterStats>> {
        let updates = sys.cfg.updates;
        let mut out = Vec::new();
        if let Some(t) = self.held.take() {
            let t0 = ctrl.clock();
            let r = t.finish(updates)?;
            out.extend(self.record_step(ctrl, t0, Some(r)).map(|(stats, _)| stats));
        }
        if let Some(b) = self.pending.take() {
            let t0 = ctrl.clock();
            let mode = self.algorithm.stages().train_mode();
            let r = Training::issue(sys, mode, b, false)?.finish(updates)?;
            out.extend(self.record_step(ctrl, t0, Some(r)).map(|(stats, _)| stats));
        }
        Ok(out)
    }

    /// Splits one generation pass into `n` chunks. Overlapped schedules
    /// stamp each with its global row offset (so sampler seeds are
    /// chunking-invariant) and with [`PIPELINE_META`] valued the same
    /// offset (the overlap-aware transition, and the actor's cue that a
    /// chunk past row 0 continues the round chunk 0 opened).
    fn split(&self, pass: &DataProto, n: usize) -> Vec<DataProto> {
        let mut chunks = pass.chunk(n);
        if self.cfg != PipelineConfig::BARRIER {
            let mut row0 = 0usize;
            for c in chunks.iter_mut() {
                c.meta.insert(ROW_OFFSET_META.into(), row0.to_string());
                c.meta.insert(PIPELINE_META.into(), row0.to_string());
                row0 += c.rows();
            }
        }
        chunks
    }

    /// Folds the step's timeline entries into the overlap bookkeeping,
    /// emits the pipeline telemetry, and stamps the emitted stats with
    /// the step's wall time, staleness, and measured overlap fraction.
    fn record_step(
        &mut self,
        ctrl: &Controller,
        t_start: f64,
        result: Option<(IterStats, DataProto)>,
    ) -> Option<(IterStats, DataProto)> {
        self.scan_timeline(ctrl);
        let t_end = ctrl.clock();
        let (overlap_s, frac) = self.cumulative_overlap(t_end);
        let tel = ctrl.telemetry();
        tel.set_gauge("pipeline.staleness", self.cfg.staleness as f64);
        tel.set_gauge("pipeline.overlap_fraction", frac);
        tel.observe_digest("pipeline.overlap_fraction", frac);
        tel.observe_digest("pipeline.step.seconds", t_end - t_start);
        let us = (overlap_s * 1e6).round() as u64;
        tel.add_counter("pipeline.overlap_measured_us", us.saturating_sub(self.overlap_emitted_us));
        self.overlap_emitted_us = us;
        let id = tel.next_span_id();
        tel.span_causal(
            hf_telemetry::CONTROLLER_TRACK,
            "pipeline.step",
            hf_telemetry::SpanKind::Phase,
            t_start,
            t_end,
            id,
            &[],
            &[
                ("staleness", self.cfg.staleness.to_string()),
                ("overlap_fraction", format!("{frac:.6}")),
            ],
        );
        result.map(|(mut stats, batch)| {
            stats.virtual_seconds = t_end - t_start;
            stats.staleness = self.cfg.staleness;
            stats.overlap_fraction = frac;
            (stats, batch)
        })
    }

    /// Classifies new controller-timeline entries into stage intervals.
    fn scan_timeline(&mut self, ctrl: &Controller) {
        let tl = ctrl.timeline();
        for e in &tl[self.cursor..] {
            let class = match e.method.as_str() {
                "generate_sequences" | "compute_log_prob" => 0,
                "compute_values" | "compute_ref_log_prob" | "compute_reward" | "compute_cost" => 1,
                "update_critic" | "update_actor" => 2,
                _ => continue,
            };
            self.intervals[class].push((e.dispatched, e.completed));
        }
        self.cursor = tl.len();
    }

    /// Virtual time during which at least two stage classes (generation
    /// / preparation / training) had work in flight, over the pipelined
    /// run so far, as `(seconds, fraction of run wall)`. Intervals come
    /// from awaited dispatch→completion spans, so the measure is
    /// independent of wait order.
    fn cumulative_overlap(&self, now: f64) -> (f64, f64) {
        let mut edges: Vec<(f64, i32)> = Vec::new();
        for class in &self.intervals {
            for (a, b) in merge_intervals(class) {
                edges.push((a, 1));
                edges.push((b, -1));
            }
        }
        // Starts before ends at equal instants (touching intervals have
        // zero overlap measure either way; this just keeps depth sane).
        edges.sort_by(|x, y| x.0.total_cmp(&y.0).then(y.1.cmp(&x.1)));
        let mut depth = 0i32;
        let mut covered = 0.0;
        let mut last = self.run_start;
        for (t, d) in edges {
            if depth >= 2 {
                covered += t - last;
            }
            depth += d;
            last = t;
        }
        let wall = now - self.run_start;
        let frac = if wall > 0.0 { covered / wall } else { 0.0 };
        (covered, frac)
    }
}
