//! One run of one workload: set-up, the measured loop, the traced twin
//! and the correctness checks, filling a [`Report`].

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use hf_core::{CoreError, Result, WorkerLayout};
use hf_insight::{analyze_iterations, SpanGraph};
use hf_rlhf::env::make_prompts;
use hf_rlhf::{IterStats, RlhfConfig};
use hf_serve::{run_colocated, ColocateConfig, ServeConfig};
use hf_simcluster::ResourcePool;
use hf_telemetry::Telemetry;

use crate::host::{peak_rss_mb, process_cpu_s};
use crate::metrics::{median, quantile, Report, CP_KINDS, RANK_TIME_PARTS, RLHF_METHODS};
use crate::probes;
use crate::rl::{checkpoint_round_trip, fingerprint, Algo, Live, RlWorkload};
use crate::serve::{self, JobTrace, ServeTrain, TrainJob};
use crate::trace::{rank_time, split_iteration, ExecRecord, TraceLog};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;

/// Per-layer metrics a workload's traced run must report with non-zero
/// work: the layers on that workload's path.
pub fn claims(workload: &str) -> Vec<&'static str> {
    let mut v = vec![
        "core.controller_ms",
        "core.calls",
        "core.noop_rtt_us",
        "core.copy_bytes",
        "core.dispatch_bytes",
        "core.collect_bytes",
        "rlhf.advantage_us",
        "nn.fwd_bwd_us",
        "nn.decode_batch_us",
        "genserve.us_per_token",
        "genserve.steps",
        "hybridengine.to_generation_us",
        "simcluster.all_reduce_act_us",
        "simcluster.all_reduce_grad_us",
        "simcluster.collectives",
        "virtual.cp.dispatch_share",
        "virtual.cp.exec_share",
    ];
    let schedstat = crate::host::SchedStat::current().is_some();
    if schedstat {
        v.extend([
            "rlhf.generate_sequences.cpu_ms",
            "rlhf.update_actor.cpu_ms",
            "rlhf.compute_ref_log_prob.cpu_ms",
        ]);
    }
    if workload != "serve-train" {
        v.push("hybridengine.recv_bytes");
    }
    if workload != "grpo-verifier" && schedstat {
        v.extend(["rlhf.compute_values.cpu_ms", "rlhf.update_critic.cpu_ms"]);
    }
    match workload {
        "ppo-colocated" => {
            v.extend(["resilience.save_ms", "resilience.restore_ms", "resilience.ckpt_bytes"])
        }
        "grpo-verifier" => v.extend(["rewards.makespan_ms", "rewards.ok_share"]),
        _ => v.extend([
            "genserve.prefix_hit_share",
            "serve.frontend_ms",
            "serve.engine_steps",
            "serve.prefix_hit_tokens",
            "serve.ttft_gold_ms.p50",
            "serve.ttft_gold_ms.p99",
            "serve.slo_attainment",
            "serve.slo_max_load",
            "serve.tokens_per_s",
        ]),
    }
    v
}

/// Whether every metric `workload` claims is present and non-zero.
fn layers_reported(report: &Report, workload: &str) -> bool {
    claims(workload).iter().all(|m| report.get(m).is_some_and(|v| v != 0.0))
}

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Seconds the measured loop runs for (at least its fixed window).
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured metrics.
    pub report: Report,
    /// Operations attempted: iterations, plus requests on serve-train.
    pub attempted: u64,
    /// Errored iterations, shed and unfinished requests.
    pub failed: u64,
    /// Correctness checks by name, with whether each passed.
    pub checks: Vec<(String, bool)>,
    /// Per-chunk values behind each chunked host metric, for readers
    /// judging the spread within a run.
    pub chunks: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Host-time samples of a measured loop, one per iteration.
#[derive(Debug, Default)]
struct Loop {
    walls: Vec<f64>,
    cpus: Vec<f64>,
}

/// A host metric over one chunk's `(wall, cpu)` seconds per iteration.
type ChunkStat<'a> = dyn Fn(&[f64], &[f64]) -> f64 + 'a;

/// Iterations per chunk of the measured loop: enough that ten lie
/// beyond each chunk's p90.
const CHUNK_MIN: usize = 100;

/// Chunks the measured loop is split into at most.
const CHUNKS_MAX: usize = 10;

impl Loop {
    /// Times `step` in wall and process-CPU seconds and keeps both.
    fn time<T>(&mut self, step: impl FnOnce() -> Result<T>) -> Result<T> {
        let c0 = process_cpu_s();
        let t0 = Instant::now();
        let out = step()?;
        self.walls.push(t0.elapsed().as_secs_f64());
        self.cpus.push(process_cpu_s() - c0);
        Ok(out)
    }

    /// The host end-to-end metrics. The loop is cut into up to ten
    /// consecutive chunks of at least [`CHUNK_MIN`] iterations; each
    /// metric is the median of its per-chunk values, so one burst of
    /// interference from outside the process moves at most one chunk.
    fn end_to_end(&self, out: &mut Outcome, setup_s: &[f64], rollouts: usize) {
        let n = self.walls.len();
        let k = (n / CHUNK_MIN).clamp(1, CHUNKS_MAX);
        let bounds: Vec<(usize, usize)> = (0..k).map(|i| (i * n / k, (i + 1) * n / k)).collect();
        let ms = |w: &[f64], q: f64| quantile(&w.iter().map(|x| x * 1e3).collect::<Vec<_>>(), q);
        let chunked: [(&'static str, &ChunkStat<'_>); 4] = [
            ("samples_per_s", &|w, _| (rollouts * w.len()) as f64 / w.iter().sum::<f64>()),
            ("iter_ms.p50", &|w, _| ms(w, 0.5)),
            ("iter_ms.p90", &|w, _| ms(w, 0.9)),
            ("cpu_ms_per_iter", &|_, c| c.iter().sum::<f64>() * 1e3 / c.len() as f64),
        ];
        out.report.set("setup_s", median(setup_s));
        for (name, f) in chunked {
            let v: Vec<f64> =
                bounds.iter().map(|&(a, b)| f(&self.walls[a..b], &self.cpus[a..b])).collect();
            out.report.set(name, median(&v));
            out.chunks.push((name, v));
        }
    }
}

fn mean_score(stats: &[IterStats]) -> f64 {
    stats.iter().map(|s| s.mean_score as f64).sum::<f64>() / stats.len().max(1) as f64
}

/// Growth of the telemetry counters whose names satisfy `pick` since
/// the `before` snapshot.
fn counter_delta(
    tel: &Telemetry,
    before: &BTreeMap<String, u64>,
    pick: impl Fn(&str) -> bool,
) -> f64 {
    let now = tel.metrics().counters;
    now.iter()
        .filter(|(k, _)| pick(k))
        .map(|(k, v)| v - before.get(k).copied().unwrap_or(0))
        .sum::<u64>() as f64
}

/// Per-layer numbers every workload's traced window yields: core,
/// rank-side method time, collectives, genserve and HybridEngine
/// counters, and the virtual critical-path shares. `before` holds the
/// telemetry counters at the window's start and `v0` its virtual start.
fn traced_layers(
    r: &mut Report,
    tel: &Telemetry,
    before: &BTreeMap<String, u64>,
    v0: f64,
    steps: &[(f64, f64, u64)],
    records: &[ExecRecord],
    prompt_tokens_per_step: f64,
) {
    let n = steps.len() as f64;
    let delta = |pick: &dyn Fn(&str) -> bool| counter_delta(tel, before, pick);
    let splits: Vec<_> =
        steps.iter().map(|&(t0, t1, _)| split_iteration(records, t0, t1)).collect();
    r.set("core.controller_ms", splits.iter().map(|s| s.controller).sum::<f64>() * 1e3 / n);
    r.set("core.calls", records.len() as f64 / n);
    r.set("core.copy_bytes", steps.iter().map(|s| s.2 as f64).sum::<f64>() / n);
    let proto =
        |suffix: &'static str| move |k: &str| k.starts_with("protocol.") && k.ends_with(suffix);
    r.set("core.dispatch_bytes", delta(&proto(".dispatch_bytes")) / n);
    r.set("core.collect_bytes", delta(&proto(".collect_bytes")) / n);
    for m in RLHF_METHODS {
        if let Some((cpu, runq, blocked)) = rank_time(records, m) {
            for (suffix, v) in RANK_TIME_PARTS.iter().zip([cpu, runq, blocked]) {
                r.set_opt(&format!("rlhf.{m}.{suffix}"), v.map(|s| s * 1e3 / n));
            }
        }
    }
    r.set("simcluster.collectives", records.iter().map(|x| x.collectives).sum::<u64>() as f64 / n);
    r.set("genserve.steps", delta(&|k| k == "genserve.rollout.steps") / n);
    r.set("genserve.preemptions", delta(&|k| k == "genserve.rollout.preemptions") / n);
    let hits = delta(&|k| k == "genserve.rollout.prefix_hit_tokens");
    r.set("genserve.prefix_hit_share", hits / (prompt_tokens_per_step * n));
    r.set("hybridengine.recv_bytes", delta(&|k| k == "transition.to_generation.recv_bytes") / n);
    let spans: Vec<_> = tel.spans().into_iter().filter(|s| s.start >= v0).collect();
    let analyses = analyze_iterations(&SpanGraph::build(spans));
    let total: f64 = analyses.iter().map(|a| a.duration()).sum();
    if total > 0.0 {
        let mut by_kind: BTreeMap<&str, f64> = BTreeMap::new();
        for a in &analyses {
            for (k, v) in &a.by_kind {
                *by_kind.entry(k.as_str()).or_default() += v;
            }
        }
        for k in CP_KINDS {
            r.set(&format!("virtual.cp.{k}_share"), by_kind.get(k).copied().unwrap_or(0.0) / total);
        }
    }
}

/// Layer probes at a workload's shapes.
#[allow(clippy::too_many_arguments)]
fn probe_layers(
    r: &mut Report,
    cfg: &RlhfConfig,
    gen: hf_parallel::GenGrouping,
    pool: &ResourcePool,
    layout: WorkerLayout,
    rollouts: usize,
    grpo: bool,
    seed: u64,
) -> Result<()> {
    let (lm, seq) = (cfg.lm, cfg.prompt_len + cfg.response_len);
    let train = gen.train;
    // One rank's PPO micro-batch: rows split over DP, then `updates`.
    let micro_rows = (rollouts / train.d / cfg.updates.max(1)).max(1);
    let gen_dp = pool.len() / (gen.pg * gen.tg);
    let lanes = (rollouts / gen_dp).max(1);
    r.set("nn.fwd_bwd_us", probes::nn_fwd_bwd_us(lm, micro_rows, seq));
    r.set("nn.decode_batch_us", probes::nn_decode_batch_us(lm, lanes, cfg.prompt_len));
    let batch = make_prompts(rollouts, cfg.prompt_len, cfg.response_len, lm.vocab as u32, seed);
    let (toks, pw) = batch.tokens("prompts")?;
    let rank_prompts: Vec<Vec<usize>> =
        toks.chunks(pw).take(lanes).map(|p| p.iter().map(|&t| t as usize).collect()).collect();
    r.set(
        "genserve.us_per_token",
        probes::genserve_us_per_token(lm, &cfg.hyper, &rank_prompts, cfg.response_len),
    );
    r.set("hybridengine.to_generation_us", probes::to_generation_us(lm, gen));
    let act = micro_rows * seq * lm.hidden;
    r.set("simcluster.all_reduce_act_us", probes::all_reduce_us(act));
    r.set("simcluster.all_reduce_grad_us", probes::all_reduce_us(lm.param_count()));
    r.set("core.noop_rtt_us", probes::noop_rtt_us(pool, layout, &batch)?);
    r.set("rlhf.advantage_us", probes::advantage_us(cfg, rollouts, grpo));
    Ok(())
}

/// A traced window: per-step `(start, end, copy bytes)` in trace-log
/// time, the `execute` records inside it, and each step's wall time.
#[derive(Default)]
struct Window {
    steps: Vec<(f64, f64, u64)>,
    records: Vec<ExecRecord>,
    walls: Vec<f64>,
}

impl Window {
    fn push(&mut self, window: Option<(f64, f64)>, copy_bytes: u64, wall_s: f64) {
        let (t0, t1) = window.expect("traced step has a window");
        self.steps.push((t0, t1, copy_bytes));
        self.walls.push(wall_s);
    }

    fn close(&mut self, log: &TraceLog) {
        let (t0, t1) = (self.steps[0].0, self.steps.last().expect("non-empty window").1);
        self.records = log.between(t0, t1);
    }

    /// `trace.overhead_pct`: the traced median step against the same
    /// steps untraced.
    fn overhead_pct(&self, untraced: &[f64]) -> f64 {
        let base = median(&untraced[..self.walls.len().min(untraced.len())]);
        (median(&self.walls) / base - 1.0) * 100.0
    }
}

/// Runs an RL workload.
pub fn run_rl(w: &RlWorkload, args: &RunArgs, dir: &Path) -> Result<Outcome> {
    let mut out = Outcome::default();
    let seed = args.seed;

    // Set-up: spawn + warm-up, several times; the last system is kept.
    let mut setup_s = Vec::new();
    let mut warm = Vec::new();
    let mut live = None;
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let mut l = Live::build(w, false, Some(&dir.join(format!("setup{k}"))))?;
        let mut bits = Vec::new();
        for _ in 0..w.warmup {
            bits.push(l.step(w, seed)?.stats.mean_score.to_bits());
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        out.attempted += w.warmup;
        warm.push((bits, fingerprint(&l.sys)?));
        if k + 1 < SETUPS {
            l.shutdown()?;
        } else {
            live = Some(l);
        }
    }
    let mut live = live.expect("at least one set-up");
    out.check("setups_bit_identical", warm.windows(2).all(|p| p[0] == p[1]));
    let warm = warm.pop().expect("at least one set-up");

    // Measured loop, untraced. The first `window` iterations are the
    // fixed, bit-stable part; the rest only add host samples.
    let deadline = Duration::from_secs_f64(if args.trace { 0.0 } else { args.seconds });
    let mut lp = Loop::default();
    let mut window_stats = Vec::new();
    let mut window_fp = None;
    let t_start = Instant::now();
    while (lp.walls.len() as u64) < w.window || t_start.elapsed() < deadline {
        out.attempted += 1;
        let s = match lp.time(|| live.step(w, seed)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("iteration {} failed: {e}", live.next);
                out.failed += 1;
                break;
            }
        };
        if window_stats.len() < w.window as usize {
            window_stats.push(s.stats);
            if window_stats.len() == w.window as usize {
                window_fp = Some(fingerprint(&live.sys)?);
            }
        }
    }
    out.check("window_completed", window_fp.is_some());
    if window_fp.is_none() {
        return Ok(out);
    }
    if !args.trace {
        lp.end_to_end(&mut out, &setup_s, w.rollouts());
    }
    let vsec: f64 = window_stats.iter().map(|s| s.virtual_seconds).sum();
    let tail = &window_stats[window_stats.len() - w.score_tail as usize..];
    let final_score = mean_score(tail);
    out.report
        .set("virtual_tokens_per_s", (w.tokens_per_iter() * window_stats.len()) as f64 / vsec);
    out.report.set("final_score", final_score);
    out.check("reward_beats_random_policy", final_score > w.random_score);

    // Checkpoint save -> restore into a fresh system reproduces the
    // fingerprint.
    let trip = checkpoint_round_trip(&live, w, &dir.join("round_trip"))?;
    out.check("checkpoint_round_trip", trip.before == trip.after);
    live.shutdown()?;

    // The traced twin: telemetry on, every worker wrapped. Its warm-up
    // (and, when tracing, its window) must match the untraced bits.
    let mut twin = Live::build(w, true, Some(&dir.join("traced")))?;
    let mut bits = Vec::new();
    for _ in 0..w.warmup {
        bits.push(twin.step(w, seed)?.stats.mean_score.to_bits());
    }
    out.attempted += w.warmup;
    out.check("traced_warmup_bit_identical", (bits, fingerprint(&twin.sys)?) == warm);
    if args.trace {
        let tel = twin.ctrl.telemetry().clone();
        let before = tel.metrics().counters;
        let v0 = twin.ctrl.clock();
        let mut win = Window::default();
        let mut same = true;
        let mut saves = Vec::new();
        for expect in &window_stats {
            out.attempted += 1;
            let s = twin.step(w, seed)?;
            same &= s.stats.mean_score.to_bits() == expect.mean_score.to_bits()
                && s.stats.virtual_seconds.to_bits() == expect.virtual_seconds.to_bits();
            win.push(s.window, s.copy_bytes, s.wall_s);
            saves.extend(s.save_s);
        }
        win.close(twin.log.as_ref().expect("traced twin has a log"));
        out.check(
            "traced_window_bit_identical",
            same && Some(fingerprint(&twin.sys)?) == window_fp,
        );
        let r = &mut out.report;
        let prompt_tokens = (w.rollouts() * w.cfg.prompt_len) as f64;
        traced_layers(r, &tel, &before, v0, &win.steps, &win.records, prompt_tokens);
        if w.ckpt_every > 0 {
            r.set(
                "resilience.save_ms",
                saves.iter().sum::<f64>() * 1e3 / saves.len().max(1) as f64,
            );
            r.set("resilience.restore_ms", trip.restore_s * 1e3);
            r.set("resilience.ckpt_bytes", trip.bytes as f64);
        }
        if w.algo == Algo::Grpo {
            rewards_layer(r, &tel, &before, &win);
        }
        r.set("trace.overhead_pct", win.overhead_pct(&lp.walls));
        let placement = w.placement();
        let gen = placement.actor.layout.gen.expect("actor generates through the HybridEngine");
        let grpo = w.algo == Algo::Grpo;
        let (pool, layout) = (&placement.actor.pool, placement.actor.layout);
        probe_layers(r, &w.cfg, gen, pool, layout, w.rollouts(), grpo, seed)?;
        let reported = layers_reported(&out.report, w.name);
        out.check("layers_reported", reported);
    }
    twin.shutdown()?;
    out.report.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// hf-rewards: the verifier pool's virtual makespan per iteration (the
/// slowest rank's `compute_reward`), and scored ÷ attempted tasks with
/// retries counted as attempts.
fn rewards_layer(r: &mut Report, tel: &Telemetry, before: &BTreeMap<String, u64>, win: &Window) {
    let makespan: f64 = win
        .steps
        .iter()
        .map(|&(t0, t1, _)| {
            win.records
                .iter()
                .filter(|x| x.method == "compute_reward" && x.start >= t0 && x.start < t1)
                .map(|x| x.virtual_s)
                .fold(0.0, f64::max)
        })
        .sum();
    r.set("rewards.makespan_ms", makespan * 1e3 / win.steps.len() as f64);
    let tasks = counter_delta(tel, before, |k| k == "reward_eval.tasks");
    let failed = counter_delta(tel, before, |k| k == "reward_eval.failed");
    let retries = counter_delta(tel, before, |k| k == "reward_eval.retries");
    if tasks > 0.0 {
        r.set("rewards.ok_share", (tasks - failed) / (tasks + retries));
    }
}

/// Runs the serve-train workload.
pub fn run_serve(w: &ServeTrain, args: &RunArgs) -> Result<Outcome> {
    let mut out = Outcome::default();
    let cc = &w.cc;
    let rc = RlhfConfig::tiny();

    let mut setup_s = Vec::new();
    let mut job = None;
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let mut j = TrainJob::start(cc, false)?;
        for _ in 0..w.warmup {
            j.step()?;
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        out.attempted += w.warmup;
        if k + 1 < SETUPS {
            j.shutdown()?;
        } else {
            job = Some(j);
        }
    }
    let mut job = job.expect("at least one set-up");

    // Measured loop: the fixed job runs on from its warm-up to
    // `cc.iterations` steps and is drained and snapshotted. Until the
    // deadline, further jobs repeat it for host samples only; each is
    // spawned and warmed up untimed, so memory and per-step work match
    // the first job whatever the run length.
    let deadline = Duration::from_secs_f64(if args.trace { 0.0 } else { args.seconds });
    let mut lp = Loop::default();
    let mut finished: Option<(JobTrace, Vec<IterStats>)> = None;
    let t_start = Instant::now();
    'jobs: loop {
        while job.next < cc.iterations as u64 {
            out.attempted += 1;
            if let Err(e) = lp.time(|| job.step()) {
                eprintln!("pipelined step {} failed: {e}", job.next);
                out.failed += 1;
                job.shutdown()?;
                break 'jobs;
            }
        }
        let done = job.finish()?;
        if finished.is_none() {
            finished = Some((done, job.stats.clone()));
        }
        job.shutdown()?;
        if t_start.elapsed() >= deadline {
            break;
        }
        job = TrainJob::start(cc, false)?;
        for _ in 0..w.warmup {
            job.step()?;
        }
        out.attempted += w.warmup;
    }
    out.check("job_completed", finished.is_some());
    let Some((fin, stats)) = finished else { return Ok(out) };
    if !args.trace {
        lp.end_to_end(&mut out, &setup_s, w.rollouts());
    }
    let train = &fin.2;
    let tokens = train.iterations as usize * w.rollouts() * (rc.prompt_len + rc.response_len);
    out.report.set("virtual_tokens_per_s", tokens as f64 / train.virtual_seconds);
    let final_score = mean_score(&stats[stats.len().saturating_sub(w.score_tail)..]);
    out.report.set("final_score", final_score);
    let random = rc.good_tokens.len() as f64 / rc.lm.vocab as f64;
    out.check("reward_beats_random_policy", final_score > random);

    // Serving phase against the training-derived capacity profile.
    let (server, vocab) = serve::server(&w.serve);
    let t0 = Instant::now();
    let phase = serve_at(w, &fin, &server, vocab, w.serve.horizon_s, w.serve.load, args.seed)?;
    let frontend_s = t0.elapsed().as_secs_f64();
    let mut conserved = true;
    for (scheduled, arrivals, completed, shed, unfinished) in serve::conservation(&phase) {
        conserved &= scheduled == arrivals && arrivals == completed + shed + unfinished;
        out.attempted += arrivals;
        out.failed += shed + unfinished;
    }
    out.check("requests_conserved", conserved);

    // The composition matches the library's own co-located driver.
    let tenants = ServeTrain::tenants();
    let (h, load, seed) = (w.serve.horizon_s, w.serve.load, args.seed);
    let lib =
        run_colocated(cc, &server, vocab, &tenants, h, load, seed, &ServeConfig::default(), None)
            .map_err(|e| CoreError::Worker(format!("run_colocated: {e}")))?;
    let bits = serve::report_bits(&phase.report, train);
    out.check("matches_run_colocated", serve::report_bits(&lib.colocated, &lib.train) == bits);

    if args.trace {
        serve_traced(&mut out, w, args, &lp, &bits, &phase, frontend_s)?;
    }
    out.report.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

fn serve_at(
    w: &ServeTrain,
    fin: &JobTrace,
    server: &hf_genserve::GenServer,
    vocab: usize,
    horizon_s: f64,
    load: f64,
    seed: u64,
) -> Result<serve::ServePhase> {
    serve::serve_phase(&w.cc, fin, server, vocab, horizon_s, load, seed, None)
        .map_err(|e| CoreError::Worker(format!("serving: {e}")))
}

/// The traced half of serve-train: the wrapped job (whose serving
/// result must equal the untraced one bit for bit), serving per-layer
/// numbers, the load ladder, and the layer probes.
fn serve_traced(
    out: &mut Outcome,
    w: &ServeTrain,
    args: &RunArgs,
    lp: &Loop,
    untraced_bits: &[u64],
    phase: &serve::ServePhase,
    frontend_s: f64,
) -> Result<()> {
    let cc = &w.cc;
    let mut job = TrainJob::start(cc, true)?;
    for _ in 0..w.warmup {
        job.step()?;
    }
    let tel = job.ctrl.telemetry().clone();
    let before = tel.metrics().counters;
    let v0 = job.ctrl.clock();
    let mut win = Window::default();
    while job.next < cc.iterations as u64 {
        out.attempted += 1;
        let s = job.step()?;
        win.push(s.window, s.copy_bytes, s.wall_s);
    }
    win.close(job.log.as_ref().expect("traced job has a log"));
    let fin = job.finish()?;
    let rc = RlhfConfig::tiny();
    let prompt_tokens = (w.rollouts() * rc.prompt_len) as f64;
    traced_layers(&mut out.report, &tel, &before, v0, &win.steps, &win.records, prompt_tokens);
    let rollout_hits = out.report.get("genserve.prefix_hit_share").unwrap_or(0.0) * prompt_tokens;
    job.shutdown()?;

    let (server, vocab) = serve::server(&w.serve);
    let traced = serve_at(w, &fin, &server, vocab, w.serve.horizon_s, w.serve.load, args.seed)?;
    out.check("traced_bit_identical", serve::report_bits(&traced.report, &fin.2) == untraced_bits);

    let r = &mut out.report;
    let rep = &phase.report;
    let arrivals: u64 = rep.tenants.iter().map(|t| t.arrivals).sum();
    let shed: u64 = rep.tenants.iter().map(|t| t.shed_pressure + t.shed_budget).sum();
    let generated: u64 = rep.tenants.iter().map(|t| t.generated_tokens).sum();
    let mut frontend = vec![frontend_s];
    for _ in 0..2 {
        let t0 = Instant::now();
        serve_at(w, &fin, &server, vocab, w.serve.horizon_s, w.serve.load, args.seed)?;
        frontend.push(t0.elapsed().as_secs_f64());
    }
    let frontend_s = median(&frontend);
    r.set("serve.frontend_ms", frontend_s * 1e3);
    r.set("serve.tokens_per_s", generated as f64 / frontend_s);
    r.set("serve.engine_steps", rep.engine_steps as f64);
    r.set("serve.shed_share", shed as f64 / arrivals as f64);
    r.set("serve.prefix_hit_tokens", rep.prefix_hit_tokens as f64);
    let gold = serve::gold(rep);
    r.set("serve.ttft_gold_ms.p50", gold.p50_ttft_s * 1e3);
    r.set("serve.ttft_gold_ms.p99", gold.p99_ttft_s * 1e3);
    r.set("serve.slo_attainment", serve::within_slo(rep) as f64 / arrivals as f64);
    let mut max_load = 0.0;
    let ladder = ServeTrain {
        cc: ColocateConfig { train_window_s: w.serve.ladder_horizon_s, ..w.cc.clone() },
        ..w.clone()
    };
    for &load in &w.serve.ladder {
        let p = serve_at(&ladder, &fin, &server, vocab, w.serve.ladder_horizon_s, load, args.seed)?;
        if serve::meets_slo(&p.report, w.serve.ladder_horizon_s) {
            max_load = load;
        }
    }
    r.set("serve.slo_max_load", max_load);
    // Prefix hits over every engine session: training rollouts and serving.
    let served_prompt: usize = phase.arrivals.iter().map(|a| a.req.prompt.len()).sum();
    let n = win.steps.len() as f64;
    let share = (rollout_hits * n + rep.prefix_hit_tokens as f64)
        / (prompt_tokens * n + served_prompt as f64);
    r.set("genserve.prefix_hit_share", share);
    r.set("trace.overhead_pct", win.overhead_pct(&lp.walls));

    let placement = serve::placement(cc);
    let gen = placement.actor.layout.gen.expect("actor generates through the HybridEngine");
    let (pool, layout) = (&placement.actor.pool, placement.actor.layout);
    probe_layers(r, &rc, gen, pool, layout, w.rollouts(), false, args.seed)?;
    let reported = layers_reported(&out.report, "serve-train");
    out.check("layers_reported", reported);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench_run")
            .join(format!("test-{tag}-{}", std::process::id()))
    }

    /// Removes a test's scratch directory, and the shared parent once no
    /// other test is using it.
    fn cleanup(dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir(dir.parent().expect("scratch has a parent"));
    }

    fn traced_args() -> RunArgs {
        RunArgs { seed: 3, seconds: 0.0, trace: true }
    }

    fn small_ppo() -> RlWorkload {
        RlWorkload { warmup: 1, window: 6, score_tail: 3, ..RlWorkload::ppo_colocated() }
    }

    #[test]
    fn controller_time_and_execute_intervals_tile_each_traced_iteration() {
        let w = small_ppo();
        let dir = scratch("tile");
        let mut live = Live::build(&w, true, Some(&dir)).unwrap();
        let log = live.log.clone().unwrap();
        for _ in 0..4 {
            let s = live.step(&w, 1).unwrap();
            let (t0, t1) = s.window.unwrap();
            let records = log.between(t0, t1);
            assert!(!records.is_empty());
            // Barrier drivers wait for every call: each execute interval
            // lies inside its iteration.
            assert!(records.iter().all(|r| r.start >= t0 && r.end <= t1));
            // CPU and run-queue time are read inside each call's host
            // interval, so together they never exceed it.
            for r in &records {
                if let (Some(cpu), Some(runq)) = (r.cpu_ns, r.runq_ns) {
                    assert!((cpu + runq) as f64 * 1e-9 <= r.end - r.start + 1e-6, "{r:?}");
                }
            }
            let split = split_iteration(&records, t0, t1);
            assert!(split.exec_union > 0.0 && split.controller > 0.0);
            assert!((split.controller + split.exec_union - split.wall).abs() < 1e-12);
            assert!((split.wall - (t1 - t0)).abs() < 1e-12);
        }
        live.shutdown().unwrap();
        cleanup(&dir);
    }

    fn assert_claims(workload: &str, out: &Outcome) {
        for m in claims(workload) {
            let v = out.report.get(m);
            assert!(v.is_some_and(|v| v != 0.0), "{workload}: {m} reported {v:?}");
        }
        for (name, ok) in &out.checks {
            assert!(ok, "{workload}: check {name} failed");
        }
    }

    #[test]
    fn every_layer_reports_work_on_the_rl_workloads_that_claim_it() {
        let dir = scratch("claims");
        let ppo = run_rl(&small_ppo(), &traced_args(), &dir.join("ppo")).unwrap();
        assert_claims("ppo-colocated", &ppo);
        assert!(ppo.report.get("rewards.makespan_ms").is_none(), "no verifier pool on PPO");
        let grpo = RlWorkload {
            warmup: 1,
            window: 2,
            score_tail: 2,
            random_score: 0.0,
            ..RlWorkload::grpo_verifier()
        };
        let grpo = run_rl(&grpo, &traced_args(), &dir.join("grpo")).unwrap();
        assert_claims("grpo-verifier", &grpo);
        assert!(grpo.report.get("rlhf.update_critic.cpu_ms").is_none(), "GRPO has no critic");
        assert!(grpo.report.get("resilience.save_ms").is_none(), "GRPO commits no checkpoints");
        cleanup(&dir);
    }

    #[test]
    fn every_layer_reports_work_on_serve_train() {
        let mut w = ServeTrain::workload();
        w.cc.iterations = 8;
        w.cc.train_window_s = 200.0;
        w.serve.horizon_s = 200.0;
        w.serve.ladder = vec![1.0, 8.0];
        w.serve.ladder_horizon_s = 50.0;
        w.warmup = 2;
        w.score_tail = 4;
        let out = run_serve(&w, &traced_args()).unwrap();
        assert_claims("serve-train", &out);
        assert!(out.report.get("resilience.save_ms").is_none());
        assert_eq!(out.failed, 0, "no request is shed at a quarter of the base load");
    }
}
