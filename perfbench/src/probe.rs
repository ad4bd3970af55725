//! Serving and wire figures, taken over one keep-alive connection to a
//! server that fronts a warmed session: per request, the `POST /v1/solve`
//! round trip, the same body decoded, solved and encoded in-process, and a
//! `GET /healthz` round trip.

use crate::check::wire_digest;
use crate::inputs::{decode, encode, Body};
use crate::stats::{self, LoopStats};
use faircap_core::{PrescriptionSession, SessionRegistry};
use faircap_serve::{ClientConnection, ServeConfig, Server};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests the probe sends even when its time is up.
const MIN_REQUESTS: usize = 32;

/// Socket timeout of every benchmark connection.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Default)]
pub struct Probe {
    pub healthz_rtt_us: f64,
    pub solve_rtt_ms: f64,
    /// Median over requests of the round trip minus the same body's
    /// in-process decode + solve + encode, measured right after it.
    pub overhead_ms: f64,
    pub decode_us: f64,
    pub encode_us: f64,
    pub response_bytes: f64,
    pub sent: u64,
    pub bypassed: u64,
    pub warm_estimate_misses: u64,
}

/// Start a server with the default configuration over `session`,
/// registered as `name`.
pub fn start_server(name: &str, session: &Arc<PrescriptionSession>) -> Result<Server, String> {
    let registry = Arc::new(SessionRegistry::new());
    registry.register(name, Arc::clone(session));
    Server::start(ServeConfig::default(), registry).map_err(|e| format!("server start: {e}"))
}

/// The wire digest of the in-process answer to `body`: what every response
/// to it must match.
pub fn reference(session: &PrescriptionSession, body: &Body) -> Result<String, String> {
    let report = session
        .solve(&body.request)
        .map_err(|e| format!("reference solve of {}: {e}", body.text))?;
    wire_digest(&encode(&report))
}

/// One `POST /v1/solve` exchange, checked against the body's reference:
/// the round-trip time (the check excluded) and the response size.
pub fn post(
    conn: &mut ClientConnection,
    body: &Body,
    want: &str,
) -> Result<(Duration, usize), String> {
    let t0 = Instant::now();
    let response = conn.request("POST", "/v1/solve", Some(&body.text));
    let elapsed = t0.elapsed();
    let response = response.map_err(|e| format!("POST /v1/solve: {e}"))?;
    if response.status != 200 {
        return Err(format!("status {}: {}", response.status, response.body));
    }
    if wire_digest(&response.body)? != want {
        return Err(format!(
            "response to {} differs from the in-process reference",
            body.text
        ));
    }
    Ok((elapsed, response.body.len()))
}

/// Drive the probe for `seconds` (and at least [`MIN_REQUESTS`] requests).
/// `schedule` indexes `bodies` and `references`; a body's `session`
/// indexes `sessions`, the sessions the server fronts.
pub fn run(
    addr: SocketAddr,
    sessions: &[Arc<PrescriptionSession>],
    bodies: &[Body],
    references: &[String],
    schedule: &[usize],
    seconds: f64,
) -> Result<(Probe, LoopStats), String> {
    let mut conn =
        ClientConnection::connect(addr, CLIENT_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let mut ops = LoopStats::default();
    let (mut healthz, mut rtt, mut overhead, mut dec, mut enc, mut bytes) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut probe = Probe::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while i < MIN_REQUESTS || Instant::now() < deadline {
        let idx = schedule[i % schedule.len()];
        let (body, want) = (&bodies[idx], &references[idx]);
        let session = &sessions[body.session];
        i += 1;
        probe.sent += 1;
        probe.bypassed += u64::from(body.bypass);
        let misses = session.cache_stats().misses;

        let result = post(&mut conn, body, want);
        let round_trip_ms = result
            .as_ref()
            .ok()
            .map(|(elapsed, _)| elapsed.as_secs_f64() * 1e3);
        ops.record("probe", result.map(|(elapsed, _)| elapsed));

        let t0 = Instant::now();
        let request = decode(&body.text)?;
        let t1 = Instant::now();
        let report = session
            .solve(&request)
            .map_err(|e| format!("in-process solve of {}: {e}", body.text))?;
        let t2 = Instant::now();
        let text = encode(&report);
        let t3 = Instant::now();
        dec.push((t1 - t0).as_secs_f64() * 1e6);
        enc.push((t3 - t2).as_secs_f64() * 1e6);
        if let Some(round_trip_ms) = round_trip_ms {
            rtt.push(round_trip_ms);
            overhead.push(round_trip_ms - (t3 - t0).as_secs_f64() * 1e3);
        }
        bytes.push(text.len() as f64);
        if wire_digest(&text)? != *want {
            return Err(format!("in-process answer to {} changed", body.text));
        }
        probe.warm_estimate_misses += session.cache_stats().misses - misses;

        let t0 = Instant::now();
        let response = conn
            .request("GET", "/healthz", None)
            .map_err(|e| format!("GET /healthz: {e}"))?;
        if response.status != 200 {
            return Err(format!("GET /healthz: status {}", response.status));
        }
        healthz.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    ops.wall = start.elapsed();
    if rtt.is_empty() {
        return Err("no probe request succeeded".into());
    }
    probe.healthz_rtt_us = stats::median(&healthz);
    probe.solve_rtt_ms = stats::median(&rtt);
    probe.overhead_ms = stats::median(&overhead);
    probe.decode_us = stats::median(&dec);
    probe.encode_us = stats::median(&enc);
    probe.response_bytes = stats::mean(&bytes);
    Ok((probe, ops))
}
