//! Human-readable tables and the contract's result line.

use crate::harness::WorkloadReport;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};

fn fmt_value(x: f64) -> String {
    if x.fract().abs() > 0.0 || x.abs() >= 1e15 {
        format!("{x:.6}")
    } else {
        format!("{x:.0}")
    }
}

/// Print every metric of one workload by name, with its unit.
pub fn print_workload(report: &WorkloadReport) {
    println!(
        "\n== {} — attempted {}, failed {} ==",
        report.spec.name,
        report.attempted(),
        report.failed()
    );
    println!(
        "  {:<12} {:>12} {:>12} {:>12} {:>3} {:>7} | {:<4} bound",
        "end-to-end", "median", "q1", "q3", "n", "spread", "unit"
    );
    for m in &END_TO_END {
        match report.summary(m.name) {
            Some(s) => println!(
                "  {:<12} {:>12.6} {:>12.6} {:>12.6} {:>3} {:>6.1}% | {:<4} {:.0}%",
                m.name,
                s.median,
                s.q1,
                s.q3,
                s.n,
                s.spread() * 100.0,
                m.unit,
                m.bound * 100.0
            ),
            None => println!("  {:<12} no passing round", m.name),
        }
    }
    if report.traced.is_some() {
        println!("  per-layer (traced pass):");
        for m in &PER_LAYER {
            let value = report
                .layer(m.name)
                .map_or_else(|| "null".to_string(), fmt_value);
            println!("    {:<42} {:>16} {}", m.name, value, m.unit);
        }
    }
    for problem in report.all_problems() {
        println!("  FAILED CHECK: {problem}");
    }
}

/// The single JSON object the acceptance driver reads from the last
/// line of standard output: end-to-end values with `--trace 0`,
/// per-layer values with `--trace 1`. A per-layer metric with no value
/// on this workload (a layer that does no work here) is reported as 0.
pub fn contract_line(report: &WorkloadReport, traced: bool) -> String {
    let metric = |value: f64, unit: &str| {
        Json::obj([
            ("value", Json::num(value)),
            ("unit", Json::Str(unit.into())),
        ])
    };
    let mut complete = true;
    let metrics: Vec<(&str, Json)> = if traced {
        PER_LAYER
            .iter()
            .map(|m| (m.name, metric(report.layer(m.name).unwrap_or(0.0), m.unit)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let value = report.summary(m.name).map(|s| s.median);
                complete &= value.is_some();
                (m.name, metric(value.unwrap_or(f64::NAN), m.unit))
            })
            .collect()
    };
    Json::obj([
        ("correct", Json::Bool(report.correct() && complete)),
        ("attempted", Json::Num(report.attempted().max(1) as f64)),
        ("failed", Json::Num(report.failed() as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}
