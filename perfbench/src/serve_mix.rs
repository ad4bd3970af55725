//! `serve_german_mix`: an in-process server with the default configuration
//! over warmed German-credit sessions, driven by two keep-alive connections
//! on two client threads. The connections cycle disjoint sets of
//! constraint bodies, so request coalescing never triggers, and every 16th
//! request on each carries `"use_solve_cache": false`, which re-runs Step 1
//! and the lattice walk against the warm estimate cache. The server holds
//! several sessions over frames generated from the seed, and the bodies
//! name theirs, so one run covers more than one draw of the data.

use crate::check::{same_count, same_ruleset, wire_digest, Digest};
use crate::inputs::{data_seed, encode, sweep_bodies, Body, SessionSpec};
use crate::layers::{warm_pair, Composer, LayerSample};
use crate::probe::{self, CLIENT_TIMEOUT};
use crate::report::{self, CacheDeltas, ColdSolves, Outcome, TracedOps};
use crate::stats::{self, timed, LoopStats};
use crate::Args;
use faircap_core::{Json, PrescriptionSession, SessionRegistry};
use faircap_data::german;
use faircap_serve::{ClientConnection, ServeConfig, Server};
use std::sync::Arc;

const NAME: &str = "serve_german_mix";
/// Sessions the server holds, one per frame.
const DATASETS: usize = 4;
/// Client threads, one keep-alive connection each: no more than the two
/// cores the benchmark is sized for.
const CONNECTIONS: usize = 2;
/// Every this-many-th request on a connection bypasses the solve caches.
const BYPASS_EVERY: usize = 16;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The sweep's constraint variants per session.
fn variants() -> usize {
    sweep_bodies(false).len()
}

/// Bodies per session: every variant with the caches on, and one
/// cache-bypassing variant per connection.
fn per_session() -> usize {
    variants() + CONNECTIONS
}

/// The body request `r` of connection `c` sends. Connection `c` only ever
/// uses variants `v` with `v % CONNECTIONS == c`, so the two never send the
/// same body; it cycles its variants over every session, and its
/// cache-bypassing requests send variant `c` to each session in turn.
fn body_of(c: usize, r: usize) -> usize {
    let own = variants() / CONNECTIONS;
    if r % BYPASS_EVERY == BYPASS_EVERY - 1 {
        let j = (r / BYPASS_EVERY) % DATASETS;
        j * per_session() + variants() + c
    } else {
        let (j, v) = (r % DATASETS, c + CONNECTIONS * ((r / DATASETS) % own));
        j * per_session() + v
    }
}

/// The mix as one sequence (the connections' requests alternating), a
/// whole number of periods long.
fn schedule() -> Vec<usize> {
    let period = CONNECTIONS * BYPASS_EVERY * DATASETS * (variants() / CONNECTIONS);
    (0..period)
        .map(|i| body_of(i % CONNECTIONS, i / CONNECTIONS))
        .collect()
}

struct Setup {
    sessions: Vec<Arc<PrescriptionSession>>,
    server: Server,
    bodies: Vec<Body>,
    /// Per body: the wire digest every response must match.
    wants: Vec<String>,
    /// Per body: the in-process ruleset.
    references: Vec<Digest>,
}

/// A composed cold solve: its layers, the distinct estimate-cache entries
/// it left, and its racing duplicate estimates.
type ColdComposed = (LayerSample, u64, u64);

/// Per frame: data generation, a session and its cold default solve
/// (composed step by step by `composers[j]` when given), and the
/// in-process reference of every body. Then the server over all sessions,
/// and one pass of every body over HTTP.
fn setup(seed: u64, composers: Option<&[Composer]>) -> Result<(Setup, Vec<ColdComposed>), String> {
    let default = Body::new("{}".into())?;
    let mut sessions = Vec::with_capacity(DATASETS);
    let mut bodies = Vec::with_capacity(DATASETS * per_session());
    let mut cold = Vec::new();
    for j in 0..DATASETS {
        let ds = german::generate(german::GERMAN_DEFAULT_ROWS, data_seed(seed, j));
        let session = Arc::new(SessionSpec::new(ds).session()?);
        let composed = match composers {
            Some(c) => {
                let composed = c[j].solve(&session, &default.request)?;
                let stats = session.cache_stats();
                let entries = stats.entries as u64;
                cold.push((composed.layers, entries, stats.misses - entries));
                Some(composed.digest)
            }
            None => None,
        };
        let report = session
            .solve(&default.request)
            .map_err(|e| format!("cold solve: {e}"))?;
        if let Some(digest) = composed {
            same_ruleset(&digest, &Digest::of(&report))
                .map_err(|e| format!("composed cold solve: {e}"))?;
        }
        let bypassing = sweep_bodies(true).into_iter().take(CONNECTIONS);
        for text in sweep_bodies(false).into_iter().chain(bypassing) {
            let text = format!(
                r#"{{"session":"{}","workers":1,{}"#,
                session_name(j),
                &text[1..]
            );
            bodies.push(Body::for_session(text, j)?);
        }
        sessions.push(session);
    }
    let mut wants = Vec::with_capacity(bodies.len());
    let mut references = Vec::with_capacity(bodies.len());
    for body in &bodies {
        let report = sessions[body.session]
            .solve(&body.request)
            .map_err(|e| format!("reference solve of {}: {e}", body.text))?;
        wants.push(wire_digest(&encode(&report))?);
        references.push(Digest::of(&report));
    }
    let registry = Arc::new(SessionRegistry::new());
    for (j, session) in sessions.iter().enumerate() {
        registry.register(session_name(j), Arc::clone(session));
    }
    let server = Server::start(ServeConfig::default(), registry)
        .map_err(|e| format!("server start: {e}"))?;
    let mut conn = ClientConnection::connect(server.addr(), CLIENT_TIMEOUT)
        .map_err(|e| format!("connect: {e}"))?;
    for (body, want) in bodies.iter().zip(&wants) {
        probe::post(&mut conn, body, want).map_err(|e| format!("warm-up: {e}"))?;
    }
    let setup = Setup {
        sessions,
        server,
        bodies,
        wants,
        references,
    };
    Ok((setup, cold))
}

fn session_name(j: usize) -> String {
    format!("german-{j}")
}

/// `requests.coalesce_hits` from `GET /v1/metrics`.
fn coalesce_hits(setup: &Setup) -> Result<u64, String> {
    let response = setup
        .server
        .client()
        .get("/v1/metrics")
        .map_err(|e| format!("GET /v1/metrics: {e}"))?;
    let json = Json::parse(&response.body).map_err(|e| format!("metrics are not JSON: {e}"))?;
    json.get_path("requests.coalesce_hits")
        .and_then(Json::as_f64)
        .map(|v| v as u64)
        .ok_or_else(|| "metrics have no requests.coalesce_hits".into())
}

/// Estimate-cache misses summed over the server's sessions.
fn misses(setup: &Setup) -> u64 {
    setup.sessions.iter().map(|s| s.cache_stats().misses).sum()
}

/// One connection's closed loop.
fn client(setup: &Setup, c: usize, seconds: f64) -> LoopStats {
    let mut conn = match ClientConnection::connect(setup.server.addr(), CLIENT_TIMEOUT) {
        Ok(conn) => conn,
        Err(e) => {
            let mut stats = LoopStats::default();
            stats.record(NAME, Err(format!("connect: {e}")));
            return stats;
        }
    };
    stats::closed_loop(NAME, seconds, |r| {
        let b = body_of(c, r);
        probe::post(&mut conn, &setup.bodies[b], &setup.wants[b]).map(|(took, _)| took)
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    if args.trace {
        traced(args, &mut outcome)?;
        return Ok(outcome);
    }

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut first: Option<Vec<String>> = None;
    let mut kept: Option<Setup> = None;
    for _ in 0..SETUPS {
        // Shut the previous set-up down first, so at most one server runs
        // and peak memory is that of one set-up.
        drop(kept.take());
        let (s, took) = timed(|| setup(args.seed, None));
        let (s, _) = s?;
        setup_s.push(took.as_secs_f64());
        // Same seed, same inputs: every reference must repeat.
        if *first.get_or_insert_with(|| s.wants.clone()) != s.wants {
            outcome.check(Err("reference answers differ between set-ups".into()));
        }
        kept = Some(s);
    }
    let setup = kept.expect("at least one set-up");

    let misses_before = misses(&setup);
    let hits_before = coalesce_hits(&setup)?;
    let mut ops = LoopStats::default();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let setup = &setup;
                scope.spawn(move || client(setup, c, args.seconds))
            })
            .collect();
        for handle in clients {
            ops.absorb(handle.join().expect("client thread panicked"));
        }
    });
    outcome.count(&ops);
    outcome.check(same_count(
        "estimate-cache misses while serving",
        misses(&setup) - misses_before,
        0,
    ));
    outcome.check(same_count(
        "coalesce hits while serving",
        coalesce_hits(&setup)? - hits_before,
        0,
    ));
    setup.server.shutdown();
    outcome.metrics = report::end_to_end(NAME, &setup_s, &ops)?;
    Ok(outcome)
}

/// Traced run: each session's cold solve at set-up is composed step by
/// step; each op is one body of the mix, solved in-process by its session
/// and then composed against that session's composer's warmed caches;
/// then the serving probe sends the same mix over one connection.
fn traced(args: &Args, outcome: &mut Outcome) -> Result<(), String> {
    let composers: Vec<Composer> = (0..DATASETS).map(|_| Composer::new()).collect();
    let (setup, cold_composed) = setup(args.seed, Some(&composers))?;
    let mut cold = ColdSolves::default();
    for (layers, distinct, duplicates) in &cold_composed {
        cold.add(layers, *distinct, *duplicates);
    }
    for (body, want) in setup.bodies.iter().zip(&setup.references) {
        let composed =
            composers[body.session].solve(&setup.sessions[body.session], &body.request)?;
        same_ruleset(&composed.digest, want)
            .map_err(|e| format!("composed warm-up of {}: {e}", body.text))?;
    }

    let schedule = schedule();
    let mut ops = TracedOps::default();
    let mut cache = CacheDeltas::default();
    let loop_stats = stats::closed_loop(NAME, args.seconds * 2.0 / 3.0, |i| {
        let b = schedule[i % schedule.len()];
        let body = &setup.bodies[b];
        warm_pair(
            &setup.sessions[body.session],
            &composers[body.session],
            &body.request,
            &setup.references[b],
            &mut ops,
            &mut cache,
        )
    });
    outcome.count(&loop_stats);
    if ops.is_empty() {
        return Err("no traced op succeeded".into());
    }

    let (probe, probe_ops) = probe::run(
        setup.server.addr(),
        &setup.sessions,
        &setup.bodies,
        &setup.wants,
        &schedule,
        args.seconds / 3.0,
    )?;
    setup.server.shutdown();
    outcome.count(&probe_ops);
    outcome.metrics = report::per_layer(&cold, &ops, &cache, &probe);
    Ok(())
}
