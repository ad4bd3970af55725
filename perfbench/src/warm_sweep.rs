//! `warm_sweep_so10k`: one caller; one session over Stack Overflow with
//! 10⁴ rows, warmed at set-up with every variant; each op is one cached
//! solve from a fixed cycle of twelve constraint variants.

use crate::check::{same_count, same_ruleset, Digest};
use crate::inputs::{sweep_bodies, Body, SessionSpec};
use crate::layers::{warm_pair, Composer, LayerSample};
use crate::report::{self, CacheDeltas, ColdSolves, Outcome, TracedOps};
use crate::stats::{self, timed};
use crate::{probe, Args};
use faircap_core::{PrescriptionSession, SolutionReport};
use faircap_data::so;
use std::sync::Arc;
use std::time::Duration;

const NAME: &str = "warm_sweep_so10k";
const ROWS: usize = 10_000;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The deterministic work of the set-up's cold solve. Estimates are
/// counted as distinct estimate-cache entries: Step 2's workers can race to
/// estimate the same key, and those duplicates vary from run to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ColdWork {
    distinct_estimates: u64,
    lattice_candidates: u64,
    greedy_evaluations: u64,
}

struct Setup {
    session: Arc<PrescriptionSession>,
    bodies: Vec<Body>,
    /// Per variant: the ruleset of the uncached solve.
    references: Vec<Digest>,
    /// Per variant: greedy evaluations of a cached solve.
    greedy_evaluations: Vec<u64>,
    cold: ColdWork,
    /// Estimates the cold solve ran twice (racing workers).
    duplicate_estimates: u64,
}

fn solve(session: &PrescriptionSession, body: &Body) -> Result<SolutionReport, String> {
    session
        .solve(&body.request)
        .map_err(|e| format!("solve of {}: {e}", body.text))
}

/// Data generation, the cold solve of the first variant (composed step by
/// step when `composer` is given), then every variant solved cached and
/// uncached: the uncached ruleset is the reference, and the cached one
/// must already match it.
fn setup(seed: u64, composer: Option<&Composer>) -> Result<(Setup, Option<LayerSample>), String> {
    let spec = SessionSpec::new(so::generate(ROWS, seed));
    let session = Arc::new(spec.session()?);
    let bodies = sweep_bodies(false)
        .into_iter()
        .map(Body::new)
        .collect::<Result<Vec<_>, _>>()?;
    let composed = match composer {
        Some(c) => Some(c.solve(&session, &bodies[0].request)?),
        None => None,
    };
    // The cold solve's estimates, counted before the session's own first
    // solve (which then runs on the warm estimate cache when composed).
    let estimates = session.cache_stats();
    let first = solve(&session, &bodies[0])?;
    let estimates = if composed.is_some() {
        estimates
    } else {
        session.cache_stats()
    };
    let cold = ColdWork {
        distinct_estimates: estimates.entries as u64,
        lattice_candidates: first.stats.lattice.candidates,
        greedy_evaluations: first.stats.greedy.evaluations,
    };
    if let Some(composed) = &composed {
        same_ruleset(&composed.digest, &Digest::of(&first))
            .map_err(|e| format!("composed cold solve: {e}"))?;
    }
    let mut references = Vec::with_capacity(bodies.len());
    let mut greedy_evaluations = Vec::with_capacity(bodies.len());
    for body in &bodies {
        let cached = solve(&session, body)?;
        let uncached = session
            .solve(&body.request.clone().use_solve_cache(false))
            .map_err(|e| format!("uncached solve of {}: {e}", body.text))?;
        let reference = Digest::of(&uncached);
        same_ruleset(&Digest::of(&cached), &reference)
            .map_err(|e| format!("{}: cached vs uncached: {e}", body.text))?;
        references.push(reference);
        greedy_evaluations.push(cached.stats.greedy.evaluations);
    }
    let setup = Setup {
        session,
        bodies,
        references,
        greedy_evaluations,
        cold,
        duplicate_estimates: estimates.misses - estimates.entries as u64,
    };
    Ok((setup, composed.map(|c| c.layers)))
}

/// One measured op: variant `v`, solved with the caches on, then checked.
/// Returns the time the solve took.
fn op(setup: &Setup, v: usize) -> Result<Duration, String> {
    let misses = setup.session.cache_stats().misses;
    let (report, took) = timed(|| solve(&setup.session, &setup.bodies[v]));
    let report = report?;
    same_ruleset(&Digest::of(&report), &setup.references[v])?;
    same_count(
        "estimate-cache misses of a warm op",
        setup.session.cache_stats().misses - misses,
        0,
    )?;
    same_count(
        "grouping candidates of a warm op",
        report.stats.grouping.candidates,
        0,
    )?;
    same_count(
        "lattice candidates of a warm op",
        report.stats.lattice.candidates,
        0,
    )?;
    same_count(
        "greedy evaluations",
        report.stats.greedy.evaluations,
        setup.greedy_evaluations[v],
    )?;
    Ok(took)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    if args.trace {
        traced(args, &mut outcome)?;
        return Ok(outcome);
    }

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut first: Option<(ColdWork, Vec<Digest>, Vec<u64>)> = None;
    let mut kept: Option<Setup> = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first, so peak memory is that of one.
        drop(kept.take());
        let (s, took) = timed(|| setup(args.seed, None));
        let (s, _) = s?;
        setup_s.push(took.as_secs_f64());
        let (cold, references, greedy_evaluations) = first
            .get_or_insert_with(|| (s.cold, s.references.clone(), s.greedy_evaluations.clone()));
        // Same seed, same inputs: the set-ups must do the same work.
        if s.cold != *cold {
            outcome.check(Err(format!(
                "cold-solve counters {:?} differ from the first set-up's {cold:?}",
                s.cold
            )));
        }
        for (v, (a, b)) in s.references.iter().zip(references.iter()).enumerate() {
            outcome.check(same_ruleset(a, b).map_err(|e| format!("variant {v}: {e}")));
        }
        if s.greedy_evaluations != *greedy_evaluations {
            outcome.check(Err("greedy evaluations differ between set-ups".into()));
        }
        kept = Some(s);
    }
    let setup = kept.expect("at least one set-up");
    println!(
        "perfbench: {NAME}: cold set-up solve {:?}; racing duplicate estimates {}",
        setup.cold, setup.duplicate_estimates
    );
    let n = setup.bodies.len();
    let ops = stats::closed_loop(NAME, args.seconds, |i| op(&setup, i % n));
    outcome.count(&ops);
    outcome.metrics = report::end_to_end(NAME, &setup_s, &ops)?;
    Ok(outcome)
}

/// Traced run: the set-up's cold solve is composed step by step; each op
/// is the variant solved by the session, then composed against the
/// composer's own warmed caches; then the serving probe over the session.
fn traced(args: &Args, outcome: &mut Outcome) -> Result<(), String> {
    let composer = Composer::new();
    let (setup, cold_layers) = setup(args.seed, Some(&composer))?;
    let mut cold = ColdSolves::default();
    cold.add(
        &cold_layers.expect("composed cold solve"),
        setup.cold.distinct_estimates,
        setup.duplicate_estimates,
    );
    for (v, body) in setup.bodies.iter().enumerate() {
        let composed = composer.solve(&setup.session, &body.request)?;
        same_ruleset(&composed.digest, &setup.references[v])
            .map_err(|e| format!("composed warm-up of {}: {e}", body.text))?;
    }

    let n = setup.bodies.len();
    let mut ops = TracedOps::default();
    let mut cache = CacheDeltas::default();
    let loop_stats = stats::closed_loop(NAME, args.seconds * 2.0 / 3.0, |i| {
        let v = i % n;
        let request = &setup.bodies[v].request;
        warm_pair(
            &setup.session,
            &composer,
            request,
            &setup.references[v],
            &mut ops,
            &mut cache,
        )
    });
    outcome.count(&loop_stats);
    if ops.is_empty() {
        return Err("no traced op succeeded".into());
    }

    let server = probe::start_server("stackoverflow", &setup.session)?;
    let wants = setup
        .bodies
        .iter()
        .map(|b| probe::reference(&setup.session, b))
        .collect::<Result<Vec<_>, _>>()?;
    let schedule: Vec<usize> = (0..n).collect();
    let (probe, probe_ops) = probe::run(
        server.addr(),
        std::slice::from_ref(&setup.session),
        &setup.bodies,
        &wants,
        &schedule,
        args.seconds / 3.0,
    )?;
    server.shutdown();
    outcome.count(&probe_ops);
    outcome.metrics = report::per_layer(&cold, &ops, &cache, &probe);
    Ok(())
}
