//! The metric catalogue, the report a run fills, and the order
//! statistics the metrics are computed with.
//!
//! Every metric has one clock: `host` (wall or CPU time of this
//! process, noisy), or `virtual` (the runtime's simulated clock,
//! bit-stable per seed). The catalogue order is the output order.

use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall or CPU time, or a host-side count.
    Host,
    /// The runtime's virtual clock, or a deterministic count.
    Virtual,
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// The clock the value comes from.
    pub clock: Clock,
}

const fn host(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, clock: Clock::Host }
}

const fn virt(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, clock: Clock::Virtual }
}

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    host("setup_s", "s"),
    host("samples_per_s", "1/s"),
    host("iter_ms.p50", "ms"),
    host("iter_ms.p90", "ms"),
    host("cpu_ms_per_iter", "ms"),
    host("peak_rss_mb", "MiB"),
    virt("virtual_tokens_per_s", "1/s"),
    virt("final_score", "reward"),
];

/// The RL worker methods the per-rank wrapper attributes time to.
pub const RLHF_METHODS: [&str; 6] = [
    "generate_sequences",
    "update_actor",
    "compute_values",
    "update_critic",
    "compute_ref_log_prob",
    "compute_reward",
];

/// Critical-path kinds reported as shares of the virtual iteration.
pub const CP_KINDS: [&str; 7] =
    ["dispatch", "queue_wait", "comm", "exec", "transition", "collect", "controller"];

/// Per-layer metrics, printed by every traced run (`--trace 1`). Layers
/// are named after the crates.
pub fn per_layer() -> &'static [MetricDef] {
    static DEFS: OnceLock<Vec<MetricDef>> = OnceLock::new();
    DEFS.get_or_init(per_layer_defs)
}

fn per_layer_defs() -> Vec<MetricDef> {
    let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
    let mut v = vec![
        host("core.controller_ms", "ms"),
        host("core.calls", "count"),
        host("core.noop_rtt_us", "us"),
        host("core.copy_bytes", "bytes"),
        host("core.dispatch_bytes", "bytes"),
        host("core.collect_bytes", "bytes"),
    ];
    for m in RLHF_METHODS {
        for suffix in RANK_TIME_PARTS {
            v.push(host(leak(format!("rlhf.{m}.{suffix}")), "ms"));
        }
    }
    v.extend([
        host("rlhf.advantage_us", "us"),
        host("nn.fwd_bwd_us", "us"),
        host("nn.decode_batch_us", "us"),
        host("genserve.us_per_token", "us"),
        host("genserve.steps", "count"),
        host("genserve.preemptions", "count"),
        host("genserve.prefix_hit_share", "ratio"),
        host("hybridengine.to_generation_us", "us"),
        host("hybridengine.recv_bytes", "bytes"),
        host("simcluster.all_reduce_act_us", "us"),
        host("simcluster.all_reduce_grad_us", "us"),
        host("simcluster.collectives", "count"),
        host("resilience.save_ms", "ms"),
        host("resilience.restore_ms", "ms"),
        host("resilience.ckpt_bytes", "bytes"),
        virt("rewards.makespan_ms", "ms"),
        virt("rewards.ok_share", "ratio"),
        host("serve.frontend_ms", "ms"),
        virt("serve.engine_steps", "count"),
        virt("serve.shed_share", "ratio"),
        virt("serve.prefix_hit_tokens", "count"),
        virt("serve.ttft_gold_ms.p50", "ms"),
        virt("serve.ttft_gold_ms.p99", "ms"),
        virt("serve.slo_attainment", "ratio"),
        virt("serve.slo_max_load", "x"),
        host("serve.tokens_per_s", "1/s"),
    ]);
    for k in CP_KINDS {
        v.push(virt(leak(format!("virtual.cp.{k}_share")), "ratio"));
    }
    v.push(host("trace.overhead_pct", "%"));
    v
}

/// The rank-time parts of `rlhf.<method>.*`: time on a CPU, waiting
/// for a core, and sleeping (the rest of the call's wall time).
pub const RANK_TIME_PARTS: [&str; 3] = ["cpu_ms", "runq_ms", "blocked_ms"];

/// The values one run measured. A metric never set is *absent*: its
/// layer did not run on this workload, or the kernel did not expose
/// the counter it needs.
#[derive(Debug, Default, Clone)]
pub struct Report {
    values: BTreeMap<String, f64>,
}

impl Report {
    /// Records `value` for `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Records `value` when present; leaves the metric absent otherwise.
    pub fn set_opt(&mut self, name: &str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    /// The measured value, `None` when absent.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Names from `defs` this report leaves absent.
    pub fn absent(&self, defs: &[MetricDef]) -> Vec<&'static str> {
        defs.iter().filter(|d| !self.values.contains_key(d.name)).map(|d| d.name).collect()
    }

    /// The `metrics` object of the result line over `defs`. The result
    /// format carries numbers only, so an absent metric prints as 0;
    /// the line before the result lists the absent names.
    pub fn metrics_json(&self, defs: &[MetricDef]) -> String {
        let body: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.get(d.name).unwrap_or(0.0);
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", d.name, json_num(v), d.unit)
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit Rust's shortest round-trip printing
/// gives; non-finite values (which JSON cannot carry) print as 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// order statistics.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Total length of the union of `[start, end)` intervals.
pub fn union_len(mut iv: Vec<(f64, f64)>) -> f64 {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = ce.max(e),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Whether `name` follows the benchmark's naming rule: starts with a
    /// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        let first_ok = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` follows the unit rule: at most 16 of
    /// `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory")
    }

    /// `(name, unit)` pairs of one list in BENCHMARK.json, in order.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("list present");
        let end = start + json[start..].find(']').expect("list closes");
        let field = |obj: &str, f: &str| -> String {
            let at = obj.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
            let open = at + obj[at..].find('"').expect("value opens") + 1;
            let close = open + obj[open..].find('"').expect("value closes");
            obj[open..close].to_string()
        };
        json[start..end]
            .split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let all: Vec<MetricDef> = END_TO_END.iter().chain(per_layer()).copied().collect();
        let mut seen = BTreeSet::new();
        for d in &all {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "metric {} listed twice", d.name);
        }
        assert!(all.len() <= 16 + 128);
        assert!(!valid_name(".hidden") && !valid_name("a b") && !valid_name(&"x".repeat(65)));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = benchmark_json();
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|d| (d.name.into(), d.unit.into())).collect();
        assert_eq!(listed(&json, "end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            per_layer().iter().map(|d| (d.name.into(), d.unit.into())).collect();
        assert_eq!(listed(&json, "per_layer"), layers);
    }

    #[test]
    fn absent_metrics_are_listed_and_never_measured() {
        let mut r = Report::default();
        r.set("core.calls", 3.0);
        r.set_opt("rlhf.update_actor.cpu_ms", None);
        assert_eq!(r.get("rlhf.update_actor.cpu_ms"), None);
        let defs = per_layer();
        let absent = r.absent(defs);
        assert!(absent.contains(&"rlhf.update_actor.cpu_ms"));
        assert!(!absent.contains(&"core.calls"));
        let json = r.metrics_json(&defs[..2]);
        assert!(json.contains("\"core.calls\": {\"value\": 3.0, \"unit\": \"count\"}"));
    }

    #[test]
    fn order_statistics() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.9), 4.6);
        assert_eq!(union_len(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0);
    }
}
