//! Output checks: what a correct op must return.

use faircap_core::{Rule, RulesetUtility, SolutionReport};

/// A ruleset as the checks compare it: rule strings, benefit bit patterns,
/// the summary (its `Debug` form prints every float exactly), and whether
/// the constraints held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    rules: Vec<String>,
    benefit_bits: Vec<u64>,
    summary: String,
    constraints_met: bool,
}

impl Digest {
    pub fn of(report: &SolutionReport) -> Digest {
        Digest::of_parts(&report.rules, &report.summary, report.constraints_met)
    }

    pub fn of_parts(rules: &[Rule], summary: &RulesetUtility, constraints_met: bool) -> Digest {
        Digest {
            rules: rules.iter().map(|r| r.to_string()).collect(),
            benefit_bits: rules.iter().map(|r| r.benefit.to_bits()).collect(),
            summary: format!("{summary:?}"),
            constraints_met,
        }
    }
}

/// Compare an op's digest with its reference.
pub fn same_ruleset(got: &Digest, want: &Digest) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "ruleset differs from the reference: got {} rules {:?}, want {} rules {:?}",
            got.rules.len(),
            got.rules,
            want.rules.len(),
            want.rules
        ))
    }
}

/// The parts of a `POST /v1/solve` response body that must equal the
/// in-process reference, as rendered: the report from `label` up to
/// `timings` (constraint verdict, rules, summary, counts) and the `stats`
/// block of work counters. The server's leading `session` field, timings
/// and executor figures are left out. Comparing rendered bytes is stricter than comparing parsed
/// values and costs the client next to nothing, so the check does not
/// compete with the server for the processor. (A key cannot occur inside
/// a JSON string, whose quotes are escaped.)
pub fn wire_digest(body: &str) -> Result<String, String> {
    let find = |key: &str| {
        body.find(&format!("\"{key}\":"))
            .ok_or_else(|| format!("response has no `{key}` field"))
    };
    let (label, timings) = (find("label")?, find("timings")?);
    let (stats, exec) = (find("stats")?, find("exec")?);
    if !(label < timings && timings < stats && stats < exec) {
        return Err("response fields are out of order".into());
    }
    Ok(format!("{}{}", &body[label..timings], &body[stats..exec]))
}

/// Fail unless `got == want`, naming the counter.
pub fn same_count(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} = {got}, expected {want}"))
    }
}
