//! `compare <a.json> <b.json>`: do two full runs at one seed agree?
//!
//! Per workload × end-to-end metric it prints both medians with their
//! quartiles over the rounds, and one verdict:
//!
//! * `agree` — the medians differ by no more than the metric's
//!   tolerance, `max(bound × median, floor)`;
//! * `DISAGREE` — they differ by more;
//! * `unresolved` — the run-to-run spread is wider than the tolerance,
//!   so the bound cannot be resolved. Round `r` is the same job in both
//!   runs, so that spread is measured directly: the distance between
//!   the quartiles of the per-round differences. (The quartiles of one
//!   run's rounds also hold the spread between its problem instances,
//!   which repeats exactly and says nothing about resolution.)
//!
//! Exact-count metrics must match exactly. The exit code is 0 only if
//! every pairing agrees.

use crate::json::{self, Json};
use crate::metrics::{EndToEnd, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, Summary};
use std::path::Path;

/// The verdict on one pairing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Agree,
    Disagree,
    Unresolved,
}

/// Judge two runs of one metric, given each run's value per round
/// (`None` for a failed round), against the metric's bound.
pub fn judge(a: &[Option<f64>], b: &[Option<f64>], metric: &EndToEnd) -> Verdict {
    let passed = |rounds: &[Option<f64>]| rounds.iter().flatten().copied().collect::<Vec<f64>>();
    let (all_a, all_b) = (passed(a), passed(b));
    let differences: Vec<f64> = a
        .iter()
        .zip(b)
        .filter_map(|(x, y)| Some((*y)? - (*x)?))
        .collect();
    if differences.is_empty() {
        return Verdict::Disagree;
    }
    let (median_a, median_b) = (median(&all_a), median(&all_b));
    let tolerance = metric.tolerance(median_a.min(median_b));
    let (q1, _, q3) = quartiles(&differences);
    if q3 - q1 > tolerance {
        Verdict::Unresolved
    } else if (median_a - median_b).abs() <= tolerance {
        Verdict::Agree
    } else {
        Verdict::Disagree
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare two result files; `Ok(true)` when everything agrees.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads = |j: &Json| -> Result<Vec<(String, Json)>, String> {
        j.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or_else(|| "no `workloads` object".to_string())
    };
    let (wa, wb) = (workloads(&a)?, workloads(&b)?);
    let mut all_agree = true;
    for (name, ra) in &wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
            println!("{name}: missing from {}", b_path.display());
            all_agree = false;
            continue;
        };
        println!("== {name} ==");
        for m in &END_TO_END {
            let rounds = |r: &Json| -> Option<Vec<Option<f64>>> {
                let values = r.get("end_to_end")?.get(m.name)?.get("rounds")?.as_arr()?;
                let values: Vec<Option<f64>> = values.iter().map(Json::as_f64).collect();
                values.iter().any(Option::is_some).then_some(values)
            };
            let verdict = match (rounds(ra), rounds(rb)) {
                (Some(va), Some(vb)) => {
                    let verdict = judge(&va, &vb, m);
                    let summary = |v: &[Option<f64>]| {
                        Summary::of(&v.iter().flatten().copied().collect::<Vec<f64>>())
                    };
                    let (sa, sb) = (summary(&va), summary(&vb));
                    let show =
                        |s: &Summary| format!("{:>10.5} [{:.5}, {:.5}]", s.median, s.q1, s.q3);
                    println!(
                        "  {:<12} a {}  b {}  {:+6.1}%  bound {:.0}%  {}",
                        m.name,
                        show(&sa),
                        show(&sb),
                        (sb.median / sa.median - 1.0) * 100.0,
                        m.bound * 100.0,
                        match verdict {
                            Verdict::Agree => "agree",
                            Verdict::Disagree => "DISAGREE",
                            Verdict::Unresolved => "unresolved",
                        }
                    );
                    verdict
                }
                _ => {
                    println!("  {:<12} missing from one run  DISAGREE", m.name);
                    Verdict::Disagree
                }
            };
            all_agree &= verdict == Verdict::Agree;
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let value = |r: &Json| {
                r.get("per_layer")
                    .and_then(|p| p.get(m.name))
                    .and_then(|v| v.get("value"))
                    .cloned()
            };
            let (va, vb) = (value(ra), value(rb));
            if va != vb {
                let show = |v: Option<Json>| v.map_or("absent".to_string(), |j| j.render());
                println!(
                    "  {:<42} a {} b {}  DISAGREE (exact count)",
                    m.name,
                    show(va),
                    show(vb)
                );
                all_agree = false;
            }
        }
        if ra.get("theta_fnv") != rb.get("theta_fnv") {
            println!("  theta_fnv differs (only meaningful at equal seeds)  DISAGREE");
            all_agree = false;
        }
    }
    for (name, _) in &wb {
        if !wa.iter().any(|(n, _)| n == name) {
            println!("{name}: missing from {}", a_path.display());
            all_agree = false;
        }
    }
    println!(
        "{}",
        if all_agree {
            "compare: every pairing agrees"
        } else {
            "compare: NOT every pairing agrees"
        }
    );
    Ok(all_agree)
}
