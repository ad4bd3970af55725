//! Per-layer timing taken from outside the program.
//!
//! * [`TimedLinear`] is an `Estimator` named `linear` that delegates to the
//!   built-in linear estimator and times every call, so it shares the
//!   session's estimate cache and is only reached on a cache miss.
//! * [`Composer`] runs Steps 1–3 of `PrescriptionSession::solve` itself,
//!   from the public per-step functions, and times each. It keeps its own
//!   grouping and intervention caches, used exactly where the session uses
//!   its own, so a composed solve does the work the session would.

use crate::check::{same_count, same_ruleset, Digest};
use crate::report::{CacheDeltas, TracedOps};
use faircap_causal::{Estimate, EstimateCtx, Estimator, EstimatorKind};
use faircap_core::algorithm::{greedy, grouping, intervention};
use faircap_core::exec::{resolve_workers, run_work_stealing};
use faircap_core::{
    CoverageConstraint, FairCapConfig, GroupEvaluation, InterventionCache, InterventionKey,
    PrescriptionSession, Rule, SolveRequest,
};
use faircap_mining::{FrequentPattern, MiningStats};
use faircap_table::{DataFrame, Mask, ShardedLruCache};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Shard counts of the session's own caches, so lookups cost the same.
const GROUPING_CACHE_SHARDS: usize = 4;
const INTERVENTION_CACHE_SHARDS: usize = 8;

/// Totals over every call a [`TimedLinear`] served.
#[derive(Debug, Default)]
struct EstimateCounters {
    calls: AtomicU64,
    ns: AtomicU64,
    build_ns: AtomicU64,
}

/// The linear estimator behind a stopwatch.
#[derive(Default)]
pub struct TimedLinear {
    counters: EstimateCounters,
}

impl TimedLinear {
    /// `(calls, busy ns, design-build ns)` so far.
    fn totals(&self) -> (u64, u64, u64) {
        let c = &self.counters;
        (
            c.calls.load(Relaxed),
            c.ns.load(Relaxed),
            c.build_ns.load(Relaxed),
        )
    }
}

impl Estimator for TimedLinear {
    fn name(&self) -> &str {
        EstimatorKind::Linear.name()
    }

    fn estimate(
        &self,
        df: &DataFrame,
        group: &Mask,
        treated: &Mask,
        outcome: &str,
        adjustment: &[String],
    ) -> faircap_causal::Result<Estimate> {
        EstimatorKind::Linear.estimate(df, group, treated, outcome, adjustment)
    }

    fn estimate_with_ctx(
        &self,
        ctx: &mut EstimateCtx<'_>,
        df: &DataFrame,
        group: &Mask,
        treated: &Mask,
        outcome: &str,
        adjustment: &[String],
    ) -> faircap_causal::Result<Estimate> {
        let build_before = ctx.stats.build_ns;
        let t0 = Instant::now();
        let result =
            EstimatorKind::Linear.estimate_with_ctx(ctx, df, group, treated, outcome, adjustment);
        let ns = t0.elapsed().as_nanos() as u64;
        let c = &self.counters;
        c.calls.fetch_add(1, Relaxed);
        c.ns.fetch_add(ns, Relaxed);
        c.build_ns
            .fetch_add(ctx.stats.build_ns.saturating_sub(build_before), Relaxed);
        result
    }
}

/// What one composed solve did, layer by layer. Times are nanoseconds of
/// busy time summed over calls (Step 2 runs on several workers).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerSample {
    pub step1_ns: u64,
    pub step2_wall_ns: u64,
    pub step2_eval_ns: u64,
    pub step2_rules_ns: u64,
    pub step3_ns: u64,
    /// Step-2 worker threads used (1 when serial).
    pub workers: u64,
    pub groups: u64,
    pub candidates: u64,
    pub lattice_candidates: u64,
    pub lattice_evaluated: u64,
    pub greedy_evaluations: u64,
    pub greedy_reevaluations: u64,
    pub estimates: u64,
    pub estimate_ns: u64,
    pub build_ns: u64,
}

impl LayerSample {
    /// Add another sample's times and counts to this one.
    pub fn absorb(&mut self, o: &LayerSample) {
        self.step1_ns += o.step1_ns;
        self.step2_wall_ns += o.step2_wall_ns;
        self.step2_eval_ns += o.step2_eval_ns;
        self.step2_rules_ns += o.step2_rules_ns;
        self.step3_ns += o.step3_ns;
        self.workers += o.workers;
        self.groups += o.groups;
        self.candidates += o.candidates;
        self.lattice_candidates += o.lattice_candidates;
        self.lattice_evaluated += o.lattice_evaluated;
        self.greedy_evaluations += o.greedy_evaluations;
        self.greedy_reevaluations += o.greedy_reevaluations;
        self.estimates += o.estimates;
        self.estimate_ns += o.estimate_ns;
        self.build_ns += o.build_ns;
    }

    /// Busy time attributed to a named layer.
    pub fn attributed_ns(&self) -> u64 {
        self.step1_ns + self.step2_eval_ns + self.step2_rules_ns + self.step3_ns
    }

    /// Processor time the op held: its wall time, plus the extra workers'
    /// share of the parallel Step 2.
    pub fn capacity_ns(&self, op_wall_ns: u64) -> u64 {
        op_wall_ns + self.workers.saturating_sub(1) * self.step2_wall_ns
    }
}

/// A composed solve's ruleset and what each layer did for it.
pub struct Composed {
    pub digest: Digest,
    pub layers: LayerSample,
}

/// Mirror of the session's grouping-cache key: the effective Apriori
/// parameters after the rule-coverage threshold raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GroupingKey {
    support_bits: u64,
    max_len: usize,
    protected_need: usize,
}

impl GroupingKey {
    fn of(config: &FairCapConfig, protected: &Mask) -> GroupingKey {
        let mut min_support = config.apriori_threshold;
        let mut protected_need = 0;
        if let CoverageConstraint::Rule {
            theta,
            theta_protected,
        } = config.coverage
        {
            min_support = min_support.max(theta);
            protected_need = (theta_protected * protected.count() as f64).ceil() as usize;
        }
        GroupingKey {
            support_bits: min_support.to_bits(),
            max_len: config.max_group_len,
            protected_need,
        }
    }
}

/// Steps 1–3 composed from the public per-step functions, with the timing
/// estimator plugged in through `SolveRequest::estimator`.
pub struct Composer {
    estimator: Arc<TimedLinear>,
    groupings: ShardedLruCache<GroupingKey, Arc<Vec<FrequentPattern>>>,
    interventions: InterventionCache,
}

impl Composer {
    /// A composer with empty caches, as a fresh session has.
    pub fn new() -> Composer {
        Composer {
            estimator: Arc::new(TimedLinear::default()),
            groupings: ShardedLruCache::unbounded(GROUPING_CACHE_SHARDS),
            interventions: ShardedLruCache::unbounded(INTERVENTION_CACHE_SHARDS),
        }
    }

    /// Solve `request` on `session` step by step. The session contributes
    /// its data, protected mask and estimate cache; the grouping and
    /// intervention caches are the composer's own.
    pub fn solve(
        &self,
        session: &PrescriptionSession,
        request: &SolveRequest,
    ) -> Result<Composed, String> {
        let request = request.clone().estimator(self.estimator.clone());
        let config = &request.config;
        let estimator: &dyn Estimator = request.estimator.as_deref().unwrap_or(&config.estimator);
        let protected = session.protected_mask();
        let (calls0, ns0, build0) = self.estimator.totals();
        let mut layers = LayerSample::default();

        // Step 1: grouping patterns.
        let t = Instant::now();
        let groups = self.groups(session, config, request.use_solve_cache)?;
        layers.step1_ns = t.elapsed().as_nanos() as u64;
        layers.groups = groups.len() as u64;

        // Step 2: per-group evaluation (or cache lookup), then the
        // per-solve rule filter, fanned out like the session's Step 2.
        let t = Instant::now();
        let query = session.engine().with_estimator(estimator);
        let cache = request.use_solve_cache.then_some(&self.interventions);
        let k = config.interventions_per_group.max(1);
        let eval_ns = AtomicU64::new(0);
        let rules_ns = AtomicU64::new(0);
        let worker = |g: &FrequentPattern| -> (Vec<Rule>, MiningStats) {
            let t = Instant::now();
            let key = cache.map(|_| InterventionKey::of(&g.pattern, estimator.name(), config));
            let hit = cache.zip(key.as_ref()).and_then(|(c, key)| c.get(key));
            let fresh = hit.is_none();
            let (evaluation, stats): (Arc<GroupEvaluation>, MiningStats) = match hit {
                Some(hit) => (hit, MiningStats::default()),
                None => {
                    let (evaluation, stats) = intervention::evaluate_group_interventions(
                        &query,
                        &g.support,
                        protected,
                        session.mutable(),
                        config.max_intervention_len,
                        config.alpha,
                    );
                    (Arc::new(evaluation), stats)
                }
            };
            eval_ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
            let t = Instant::now();
            let rules = intervention::rules_from_evaluation(
                &evaluation,
                &g.pattern,
                &g.support,
                protected,
                config,
                k,
            );
            rules_ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
            if let (true, Some(cache), Some(key)) = (fresh, cache, key) {
                cache.insert(key, evaluation);
            }
            (rules, stats)
        };
        let per_group: Vec<(Vec<Rule>, MiningStats)> = if !config.parallel || groups.len() < 2 {
            layers.workers = 1;
            groups.iter().map(&worker).collect()
        } else {
            let (per_group, exec) =
                run_work_stealing(groups.len(), resolve_workers(request.workers), |i| {
                    worker(&groups[i])
                });
            layers.workers = exec.workers as u64;
            per_group
        };
        layers.step2_wall_ns = t.elapsed().as_nanos() as u64;
        layers.step2_eval_ns = eval_ns.into_inner();
        layers.step2_rules_ns = rules_ns.into_inner();
        let mut rules = Vec::new();
        let mut lattice = MiningStats::default();
        for (group_rules, stats) in per_group {
            rules.extend(group_rules);
            lattice.merge(&stats);
        }
        layers.candidates = rules.len() as u64;
        layers.lattice_candidates = lattice.candidates;
        layers.lattice_evaluated = lattice.evaluated;

        // Step 3: greedy selection.
        let t = Instant::now();
        let (outcome, greedy_stats) =
            greedy::greedy_select_with_stats(rules, config, session.df().n_rows(), protected);
        layers.step3_ns = t.elapsed().as_nanos() as u64;
        layers.greedy_evaluations = greedy_stats.evaluations;
        layers.greedy_reevaluations = greedy_stats.reevaluations;

        let (calls1, ns1, build1) = self.estimator.totals();
        layers.estimates = calls1 - calls0;
        layers.estimate_ns = ns1 - ns0;
        layers.build_ns = build1 - build0;
        Ok(Composed {
            digest: Digest::of_parts(&outcome.selected, &outcome.summary, outcome.constraints_met),
            layers,
        })
    }

    /// Step-1 output, from the composer's grouping cache when allowed.
    fn groups(
        &self,
        session: &PrescriptionSession,
        config: &FairCapConfig,
        use_cache: bool,
    ) -> Result<Arc<Vec<FrequentPattern>>, String> {
        let key = GroupingKey::of(config, session.protected_mask());
        if use_cache {
            if let Some(hit) = self.groupings.get(&key) {
                return Ok(hit);
            }
        }
        let (mined, _) = grouping::mine_grouping_patterns_with_stats(
            session.df(),
            session.immutable(),
            session.protected_mask(),
            config,
        )
        .map_err(|e| format!("step 1 failed: {e}"))?;
        let mined = Arc::new(mined);
        if use_cache {
            self.groupings.insert(key, Arc::clone(&mined));
        }
        Ok(mined)
    }
}

/// One op of a traced warm run: `request` solved by `session` (timed, its
/// cache-counter deltas recorded), then composed by `composer` (timed, its
/// layers recorded). Both must return `reference`, and the composed work
/// counters must equal those the session reported. Returns the traced
/// op's time.
pub fn warm_pair(
    session: &PrescriptionSession,
    composer: &Composer,
    request: &SolveRequest,
    reference: &Digest,
    ops: &mut TracedOps,
    cache: &mut CacheDeltas,
) -> Result<std::time::Duration, String> {
    let before_e = session.cache_stats();
    let before_i = session.intervention_cache_stats();
    let t = Instant::now();
    let report = session.solve(request);
    let untraced_took = t.elapsed();
    let report = report.map_err(|e| format!("solve: {e}"))?;
    let after_e = session.cache_stats();
    let after_i = session.intervention_cache_stats();
    same_ruleset(&Digest::of(&report), reference)?;
    cache.ops += 1;
    cache.estimate_hits += after_e.hits - before_e.hits;
    cache.estimate_misses += after_e.misses - before_e.misses;
    cache.warm_estimate_misses += after_e.misses - before_e.misses;
    cache.intervention_hits += after_i.hits - before_i.hits;
    cache.intervention_misses += after_i.misses - before_i.misses;

    let t = Instant::now();
    let composed = composer.solve(session, request);
    let traced_took = t.elapsed();
    let composed = composed?;
    same_ruleset(&composed.digest, reference)?;
    let l = &composed.layers;
    let s = &report.stats;
    same_count(
        "composed greedy evaluations",
        l.greedy_evaluations,
        s.greedy.evaluations,
    )?;
    same_count(
        "composed lattice candidates",
        l.lattice_candidates,
        s.lattice.candidates,
    )?;
    same_count(
        "composed groups",
        l.groups,
        report.n_grouping_patterns as u64,
    )?;
    same_count(
        "composed candidates",
        l.candidates,
        report.n_candidates as u64,
    )?;
    same_count("composed estimates on a warm session", l.estimates, 0)?;
    ops.add(
        l,
        traced_took.as_secs_f64() * 1e3,
        untraced_took.as_secs_f64() * 1e3,
    );
    Ok(traced_took)
}
