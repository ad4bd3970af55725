//! Ruleset identity of the moments-based linear estimator: a whole solve
//! with the built-in `linear` estimator (group moments, cached per
//! subgroup and adjustment set) must select exactly the ruleset a solve
//! with the row-major oracle `reference::linear_naive` selects, doing the
//! same work, on German credit and on a ground-truth scenario frame.

use faircap::causal::estimate::reference;
use faircap::causal::{Estimate, Estimator};
use faircap::data::{german, Dataset};
use faircap::scenario::{generate, ScenarioSpec};
use faircap::table::{DataFrame, Mask};
use faircap::{FairCap, PrescriptionSession, SolveRequest};
use std::sync::Arc;

/// The oracle under its own name, so it gets its own estimate-cache scope
/// and never reaches the moments cache.
struct NaiveLinear;

impl Estimator for NaiveLinear {
    fn name(&self) -> &str {
        "linear-naive-oracle"
    }

    fn estimate(
        &self,
        df: &DataFrame,
        group: &Mask,
        treated: &Mask,
        outcome: &str,
        adjustment: &[String],
    ) -> faircap::causal::Result<Estimate> {
        reference::linear_naive(df, group, treated, outcome, adjustment)
    }
}

fn session(ds: &Dataset) -> PrescriptionSession {
    FairCap::builder()
        .data(Arc::new(ds.df.clone()))
        .dag(Arc::new(ds.dag.clone()))
        .outcome(&ds.outcome)
        .immutable(ds.immutable.iter().cloned())
        .mutable(ds.mutable.iter().cloned())
        .protected(ds.protected.clone())
        .build()
        .unwrap()
}

/// What one cold solve selected and how much work it took: rule strings,
/// `benefit` bits, the summary (its `Debug` form prints every float
/// exactly), distinct estimates, lattice candidates, greedy evaluations.
type Outcome = (Vec<String>, Vec<u64>, String, usize, u64, u64);

fn cold_solve(ds: &Dataset, request: &SolveRequest) -> (Outcome, PrescriptionSession) {
    let s = session(ds);
    let report = s.solve(request).unwrap();
    let outcome = (
        report.rules.iter().map(|r| r.to_string()).collect(),
        report.rules.iter().map(|r| r.benefit.to_bits()).collect(),
        format!("{:?}", report.summary),
        s.cache_stats().entries,
        report.stats.lattice.candidates,
        report.stats.greedy.evaluations,
    );
    (outcome, s)
}

fn assert_same_ruleset_as_oracle(ds: &Dataset, what: &str) {
    let (moments, s) = cold_solve(ds, &SolveRequest::default());
    let oracle_request = SolveRequest::default().estimator(Arc::new(NaiveLinear));
    let (oracle, _) = cold_solve(ds, &oracle_request);
    assert!(!moments.0.is_empty(), "{what}: the solve selected no rules");
    assert_eq!(
        moments, oracle,
        "{what}: moments path differs from the oracle"
    );

    let cache = s.engine().moments_cache();
    let stats = cache.stats();
    assert!(stats.hits > 0, "{what}: moments never reused: {stats:?}");
    assert!(
        stats.entries <= cache.capacity(),
        "{what}: {} moments cached over the bound {}",
        stats.entries,
        cache.capacity()
    );
}

#[test]
fn german_rulesets_match_the_naive_oracle() {
    for seed in [42, 7] {
        let ds = german::generate(1_000, seed);
        assert_same_ruleset_as_oracle(&ds, &format!("german seed {seed}"));
    }
}

#[test]
fn scenario_ruleset_matches_the_naive_oracle() {
    let sc = generate(&ScenarioSpec {
        name: "moments".into(),
        rows: 3_000,
        ..ScenarioSpec::default()
    })
    .unwrap();
    assert_same_ruleset_as_oracle(&sc.dataset, "scenario");
}
