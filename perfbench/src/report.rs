//! The result line, and the metrics that go into it.

use crate::layers::LayerSample;
use crate::probe::Probe;
use crate::stats::{self, LoopStats};
use crate::Args;
use faircap_core::Json;

pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A finished run: op counts, check failures, and the metrics to print.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Check failures that belong to no single op (set-up, counters).
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Count a loop's ops against this run.
    pub fn count(&mut self, ops: &LoopStats) {
        self.attempted += ops.attempted;
        self.failed += ops.failed;
    }

    /// Record a check failure that is not an op's.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(msg) = result {
            eprintln!("perfbench: check failed: {msg}");
            self.errors.push(msg);
        }
    }

    pub fn print(&self, args: &Args) {
        let correct = self.failed == 0 && self.errors.is_empty();
        println!(
            "perfbench: {} seed {} trace {}: ops attempted {}, succeeded {}, failed {}; checks {}",
            args.workload,
            args.seed,
            u8::from(args.trace),
            self.attempted,
            self.attempted - self.failed,
            self.failed,
            if correct { "passed" } else { "FAILED" },
        );
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]);
                (m.name.to_owned(), value)
            })
            .collect();
        let line = Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        println!("{}", line.render());
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(workload: &str, setup_s: &[f64], ops: &LoopStats) -> Result<Vec<Metric>, String> {
    if ops.latencies_ms.is_empty() {
        return Err("no op succeeded; nothing to report".into());
    }
    let tail = stats::tail(&ops.latencies_ms);
    println!(
        "perfbench: {workload}: {} ops in {:.3} s; tail_ms is p{:.2} of {} samples; setup_s is the median of {} set-ups",
        ops.latencies_ms.len(),
        ops.wall.as_secs_f64(),
        tail.percentile,
        ops.latencies_ms.len(),
        setup_s.len(),
    );
    let rss = stats::peak_rss_mb().ok_or("VmHWM is not available on this platform")?;
    Ok(vec![
        metric("setup_s", stats::median(setup_s), "s"),
        metric("p50_ms", stats::median(&ops.latencies_ms), "ms"),
        metric("tail_ms", tail.value, "ms"),
        metric("ops_per_s", ops.ops_per_s(), "1/s"),
        metric("peak_rss_mb", rss, "MB"),
    ])
}

/// Layer samples of the traced ops, each paired with the wall time of the
/// traced op and of its untraced twin.
#[derive(Default)]
pub struct TracedOps {
    sum: LayerSample,
    n: u64,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    attributed_ns: u64,
    capacity_ns: u64,
}

impl TracedOps {
    pub fn add(&mut self, layers: &LayerSample, traced_ms: f64, untraced_ms: f64) {
        self.sum.absorb(layers);
        self.n += 1;
        self.traced_ms.push(traced_ms);
        self.untraced_ms.push(untraced_ms);
        self.attributed_ns += layers.attributed_ns();
        self.capacity_ns += layers.capacity_ns((traced_ms * 1e6) as u64);
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// The cold solves a traced run composed: every op of the cold workload,
/// the set-up's cold solve of the warm ones.
#[derive(Default)]
pub struct ColdSolves {
    sum: LayerSample,
    n: u64,
    distinct: u64,
    duplicates: u64,
}

impl ColdSolves {
    /// Add one cold solve: its layers, the distinct estimate-cache entries
    /// it left, and the estimates it ran twice because two workers missed
    /// the same key at once.
    pub fn add(&mut self, layers: &LayerSample, distinct: u64, duplicates: u64) {
        self.sum.absorb(layers);
        self.n += 1;
        self.distinct += distinct;
        self.duplicates += duplicates;
    }
}

/// Session cache-counter deltas over the untraced ops of a traced run.
#[derive(Default)]
pub struct CacheDeltas {
    pub ops: u64,
    pub estimate_hits: u64,
    pub estimate_misses: u64,
    pub intervention_hits: u64,
    pub intervention_misses: u64,
    /// Estimate-cache misses of ops that run on a warmed session (must be
    /// zero).
    pub warm_estimate_misses: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics of a traced run.
pub fn per_layer(
    cold: &ColdSolves,
    ops: &TracedOps,
    cache: &CacheDeltas,
    probe: &Probe,
) -> Vec<Metric> {
    let per_cold = |v: u64| v as f64 / cold.n.max(1) as f64;
    let per_op = |v: u64| v as f64 / ops.n.max(1) as f64;
    let ms = 1e-6;
    let c = &cold.sum;
    let o = &ops.sum;
    let untraced_ms = stats::median(&ops.untraced_ms);
    let lookups_e = cache.estimate_hits + cache.estimate_misses;
    let lookups_i = cache.intervention_hits + cache.intervention_misses;
    vec![
        metric("causal.estimates", per_cold(c.estimates), "count"),
        metric(
            "causal.distinct_estimates",
            per_cold(cold.distinct),
            "count",
        ),
        metric(
            "causal.duplicate_estimates",
            per_cold(cold.duplicates),
            "count",
        ),
        metric("causal.estimate_ms", per_cold(c.estimate_ns) * ms, "ms"),
        metric(
            "causal.estimate_us",
            ratio(c.estimate_ns, c.estimates) * 1e-3,
            "us",
        ),
        metric(
            "causal.design_build_share",
            ratio(c.build_ns, c.estimate_ns),
            "ratio",
        ),
        metric("core.step1_ms", per_op(o.step1_ns) * ms, "ms"),
        metric("mining.groups", per_op(o.groups), "count"),
        metric("core.step2_eval_ms", per_op(o.step2_eval_ns) * ms, "ms"),
        metric(
            "core.step2_eval_self_ms",
            per_op(o.step2_eval_ns.saturating_sub(o.estimate_ns)) * ms,
            "ms",
        ),
        metric(
            "mining.lattice_candidates",
            per_op(o.lattice_candidates),
            "count",
        ),
        metric(
            "mining.lattice_evaluated",
            per_op(o.lattice_evaluated),
            "count",
        ),
        metric("core.step2_rules_ms", per_op(o.step2_rules_ns) * ms, "ms"),
        metric("core.candidates", per_op(o.candidates), "count"),
        metric("core.step3_ms", per_op(o.step3_ns) * ms, "ms"),
        metric("greedy.evaluations", per_op(o.greedy_evaluations), "count"),
        metric(
            "greedy.reevaluations",
            per_op(o.greedy_reevaluations),
            "count",
        ),
        metric(
            "cache.estimate_hit_ratio",
            ratio(cache.estimate_hits, lookups_e),
            "ratio",
        ),
        metric(
            "cache.estimate_lookups",
            ratio(lookups_e, cache.ops),
            "count",
        ),
        metric(
            "cache.intervention_hit_ratio",
            ratio(cache.intervention_hits, lookups_i),
            "ratio",
        ),
        metric(
            "cache.intervention_lookups",
            ratio(lookups_i, cache.ops),
            "count",
        ),
        metric(
            "cache.warm_estimate_misses",
            (cache.warm_estimate_misses + probe.warm_estimate_misses) as f64,
            "count",
        ),
        metric("wire.decode_us", probe.decode_us, "us"),
        metric("wire.encode_us", probe.encode_us, "us"),
        metric("wire.response_bytes", probe.response_bytes, "bytes"),
        metric("serve.healthz_rtt_us", probe.healthz_rtt_us, "us"),
        metric("serve.solve_rtt_ms", probe.solve_rtt_ms, "ms"),
        metric("serve.overhead_ms", probe.overhead_ms, "ms"),
        metric(
            "serve.remine_share",
            ratio(probe.bypassed, probe.sent),
            "ratio",
        ),
        metric("serve.requests_sent", probe.sent as f64, "count"),
        metric(
            "trace.attributed_share",
            ratio(ops.attributed_ns, ops.capacity_ns),
            "ratio",
        ),
        metric("trace.capacity_ms", per_op(ops.capacity_ns) * ms, "ms"),
        metric(
            "trace.overhead",
            stats::median(&ops.traced_ms) / untraced_ms,
            "ratio",
        ),
        metric("trace.untraced_op_ms", untraced_ms, "ms"),
        metric("trace.ops", ops.n as f64, "count"),
    ]
}
