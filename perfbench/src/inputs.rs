//! Workload inputs: sessions over generated data, and request bodies.

use faircap_causal::Dag;
use faircap_core::wire::{solution_report_to_json, solve_request_from_json};
use faircap_core::{FairCap, Json, PrescriptionSession, SolutionReport, SolveRequest};
use faircap_data::Dataset;
use faircap_table::{DataFrame, Pattern};
use std::sync::Arc;

/// Everything needed to build a session over one generated dataset; the
/// frame and DAG are shared, as a serving deployment shares them.
pub struct SessionSpec {
    df: Arc<DataFrame>,
    dag: Arc<Dag>,
    outcome: String,
    immutable: Vec<String>,
    mutable: Vec<String>,
    protected: Pattern,
}

impl SessionSpec {
    pub fn new(ds: Dataset) -> SessionSpec {
        SessionSpec {
            df: Arc::new(ds.df),
            dag: Arc::new(ds.dag),
            outcome: ds.outcome,
            immutable: ds.immutable,
            mutable: ds.mutable,
            protected: ds.protected,
        }
    }

    /// A fresh session: empty estimate, grouping and intervention caches.
    pub fn session(&self) -> Result<PrescriptionSession, String> {
        FairCap::builder()
            .data(Arc::clone(&self.df))
            .dag(Arc::clone(&self.dag))
            .outcome(&self.outcome)
            .immutable(self.immutable.iter().cloned())
            .mutable(self.mutable.iter().cloned())
            .protected(self.protected.clone())
            .build()
            .map_err(|e| format!("session build failed: {e}"))
    }
}

/// Seed of the `j`-th dataset of a run with workload seed `seed`; dataset 0
/// uses the workload seed itself.
pub fn data_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_add((j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One request, as sent over the wire and as decoded for in-process use.
pub struct Body {
    pub text: String,
    pub request: SolveRequest,
    /// Whether the body bypasses the session's solve caches.
    pub bypass: bool,
    /// Which of the workload's sessions answers it.
    pub session: usize,
}

impl Body {
    /// A body for the workload's only (or first) session.
    pub fn new(text: String) -> Result<Body, String> {
        Body::for_session(text, 0)
    }

    pub fn for_session(text: String, session: usize) -> Result<Body, String> {
        let request = decode(&text)?;
        Ok(Body {
            bypass: !request.use_solve_cache,
            text,
            request,
            session,
        })
    }
}

/// The wire decode path of `POST /v1/solve`: parse, then build the request.
pub fn decode(text: &str) -> Result<SolveRequest, String> {
    let json = Json::parse(text).map_err(|e| format!("bad body {text}: {e}"))?;
    solve_request_from_json(&json).map_err(|e| format!("bad body {text}: {e}"))
}

/// The wire encode path: the response document, rendered.
pub fn encode(report: &SolutionReport) -> String {
    solution_report_to_json(report).render()
}

/// The constraint sweep both warm workloads cycle: fairness none,
/// statistical parity, or bounded group loss, each at four `max_rules`.
/// Coverage is not varied, so a cached solve never re-mines groups.
pub fn sweep_bodies(bypass: bool) -> Vec<String> {
    let fairness = [
        r#"{"kind":"none"}"#,
        r#"{"kind":"sp","scope":"group","epsilon":10000}"#,
        r#"{"kind":"bgl","scope":"group","tau":0.1}"#,
    ];
    let extra = if bypass {
        r#","use_solve_cache":false"#
    } else {
        ""
    };
    fairness
        .iter()
        .flat_map(|f| {
            [3, 5, 10, 20].map(|k| format!(r#"{{"fairness":{f},"max_rules":{k}{extra}}}"#))
        })
        .collect()
}
