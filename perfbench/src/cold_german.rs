//! `cold_german`: one caller; each op builds a fresh session over a shared
//! German-credit frame of 1,000 rows and runs one default solve, so every
//! CATE is estimated and every lattice mined. The ops cycle over several
//! frames generated from the seed, so one run covers more than one draw
//! of the data.

use crate::check::{same_ruleset, Digest};
use crate::inputs::{data_seed, Body, SessionSpec};
use crate::layers::Composer;
use crate::report::{self, CacheDeltas, ColdSolves, Outcome, TracedOps};
use crate::stats::{self, timed};
use crate::{probe, Args};
use faircap_core::{PrescriptionSession, SolveRequest};
use faircap_data::german;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NAME: &str = "cold_german";
/// Frames per run; op `i` solves frame `i % DATASETS`.
const DATASETS: usize = 8;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The deterministic work of one cold solve; every op on the same frame
/// must repeat it. Estimates are counted as distinct estimate-cache
/// entries: Step 2's workers can race to estimate the same key, and the
/// racing duplicates (counted apart, see [`duplicates`]) vary run to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    distinct_estimates: u64,
    lattice_candidates: u64,
    greedy_evaluations: u64,
    groups: u64,
    candidates: u64,
}

/// One frame and what its cold solve must return.
struct Frame {
    spec: SessionSpec,
    reference: Digest,
    work: Work,
}

struct Setup {
    request: SolveRequest,
    frames: Vec<Frame>,
    /// Each frame's set-up session, warm after its cold solve, held as a
    /// service holding these datasets would; peak memory then reflects
    /// every frame rather than whichever is largest. The traced run's
    /// serving probe uses the first.
    warm: Vec<Arc<PrescriptionSession>>,
}

/// One cold solve on a fresh session: its ruleset, its work, the session,
/// and the time the session build and solve took.
fn cold_solve(
    spec: &SessionSpec,
    request: &SolveRequest,
) -> Result<(Digest, Work, PrescriptionSession, Duration), String> {
    let t0 = Instant::now();
    let session = spec.session()?;
    let report = session.solve(request).map_err(|e| format!("solve: {e}"))?;
    let took = t0.elapsed();
    let work = Work {
        distinct_estimates: session.cache_stats().entries as u64,
        lattice_candidates: report.stats.lattice.candidates,
        greedy_evaluations: report.stats.greedy.evaluations,
        groups: report.n_grouping_patterns as u64,
        candidates: report.n_candidates as u64,
    };
    Ok((Digest::of(&report), work, session, took))
}

/// Data generation plus one discarded cold solve per frame.
fn setup(seed: u64) -> Result<Setup, String> {
    let request = Body::new("{}".into())?.request;
    let mut frames = Vec::with_capacity(DATASETS);
    let mut warm = Vec::with_capacity(DATASETS);
    for j in 0..DATASETS {
        let ds = german::generate(german::GERMAN_DEFAULT_ROWS, data_seed(seed, j));
        let spec = SessionSpec::new(ds);
        let (reference, work, session, _) = cold_solve(&spec, &request)?;
        warm.push(Arc::new(session));
        frames.push(Frame {
            spec,
            reference,
            work,
        });
    }
    Ok(Setup {
        request,
        frames,
        warm,
    })
}

/// Estimates a session ran twice because two workers missed the same key
/// at once: estimate-cache misses beyond the distinct entries.
fn duplicates(session: &PrescriptionSession) -> u64 {
    let stats = session.cache_stats();
    stats.misses - stats.entries as u64
}

fn check_work(got: Work, want: Work) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "work counters {got:?} differ from the set-up's {want:?}"
        ))
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    if args.trace {
        let setup = setup(args.seed)?;
        traced(args, &setup, &mut outcome)?;
        return Ok(outcome);
    }

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut first: Vec<(Digest, Work)> = Vec::new();
    let mut kept: Option<Setup> = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first, so peak memory is that of one.
        drop(kept.take());
        let (s, took) = timed(|| setup(args.seed));
        let s = s?;
        setup_s.push(took.as_secs_f64());
        if first.is_empty() {
            first = s
                .frames
                .iter()
                .map(|f| (f.reference.clone(), f.work))
                .collect();
        }
        // Same seed, same inputs: the set-ups must do the same work.
        for (f, (reference, work)) in s.frames.iter().zip(&first) {
            outcome.check(same_ruleset(&f.reference, reference));
            outcome.check(check_work(f.work, *work));
        }
        kept = Some(s);
    }
    let setup = kept.expect("at least one set-up");
    let mut duplicate_estimates = 0;
    let ops = stats::closed_loop(NAME, args.seconds, |i| {
        let frame = &setup.frames[i % DATASETS];
        let (digest, work, session, took) = cold_solve(&frame.spec, &setup.request)?;
        duplicate_estimates += duplicates(&session);
        same_ruleset(&digest, &frame.reference)?;
        check_work(work, frame.work)?;
        Ok(took)
    });
    outcome.count(&ops);
    for (j, frame) in setup.frames.iter().enumerate() {
        println!("perfbench: {NAME}: frame {j} work per op {:?}", frame.work);
    }
    println!(
        "perfbench: {NAME}: racing duplicate estimates {duplicate_estimates} over {} ops",
        ops.attempted
    );
    outcome.metrics = report::end_to_end(NAME, &setup_s, &ops)?;
    Ok(outcome)
}

/// Traced run: each op is a cold solve on a fresh session, once through
/// `PrescriptionSession::solve` and once composed step by step; then the
/// serving probe over the first frame's warm set-up session.
fn traced(args: &Args, setup: &Setup, outcome: &mut Outcome) -> Result<(), String> {
    let mut cold = ColdSolves::default();
    let mut ops = TracedOps::default();
    let mut cache = CacheDeltas::default();
    let loop_stats = stats::closed_loop(NAME, args.seconds * 2.0 / 3.0, |i| {
        let frame = &setup.frames[i % DATASETS];
        let (digest, work, session, untraced_took) = cold_solve(&frame.spec, &setup.request)?;
        same_ruleset(&digest, &frame.reference)?;
        check_work(work, frame.work)?;
        let estimates = session.cache_stats();
        let interventions = session.intervention_cache_stats();
        drop(session);
        cache.ops += 1;
        cache.estimate_hits += estimates.hits;
        cache.estimate_misses += estimates.misses;
        cache.intervention_hits += interventions.hits;
        cache.intervention_misses += interventions.misses;

        let (composed, traced_took) = timed(|| {
            let session = frame.spec.session()?;
            let composed = Composer::new().solve(&session, &setup.request)?;
            Ok::<_, String>((composed, session))
        });
        let (composed, session) = composed?;
        same_ruleset(&composed.digest, &frame.reference)?;
        let l = &composed.layers;
        let distinct = session.cache_stats().entries as u64;
        check_work(
            Work {
                distinct_estimates: distinct,
                lattice_candidates: l.lattice_candidates,
                greedy_evaluations: l.greedy_evaluations,
                groups: l.groups,
                candidates: l.candidates,
            },
            frame.work,
        )?;
        cold.add(l, distinct, duplicates(&session));
        ops.add(
            l,
            traced_took.as_secs_f64() * 1e3,
            untraced_took.as_secs_f64() * 1e3,
        );
        Ok(traced_took)
    });
    outcome.count(&loop_stats);
    if ops.is_empty() {
        return Err("no traced op succeeded".into());
    }

    let session = &setup.warm[0];
    let server = probe::start_server("german", session)?;
    let body = Body::new("{}".into())?;
    let want = probe::reference(session, &body)?;
    let (probe, probe_ops) = probe::run(
        server.addr(),
        std::slice::from_ref(session),
        &[body],
        &[want],
        &[0],
        args.seconds / 3.0,
    )?;
    server.shutdown();
    outcome.count(&probe_ops);
    outcome.metrics = report::per_layer(&cold, &ops, &cache, &probe);
    Ok(())
}
