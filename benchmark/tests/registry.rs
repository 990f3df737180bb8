//! The metric registry, the workload table and `BENCHMARK.json` name
//! the same things, and every name is well formed.

use pdnn_benchmark::json::{self, Json};
use pdnn_benchmark::metrics::{END_TO_END, PER_LAYER};
use pdnn_benchmark::workload::WORKLOADS;
use std::collections::BTreeSet;

/// `[A-Za-z0-9_.-]+`, at most 64 characters, starting with a letter or
/// a digit.
fn well_formed_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok_char)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

fn well_formed_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

#[test]
fn every_emitted_name_is_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    let names = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
    for (name, unit) in names {
        assert!(well_formed_name(name), "bad metric name {name:?}");
        assert!(well_formed_unit(unit), "bad unit {unit:?} on {name}");
        assert!(seen.insert(name), "{name} is used twice");
    }
    for w in &WORKLOADS {
        assert!(well_formed_name(w.name), "bad workload name {:?}", w.name);
        assert!(seen.insert(w.name), "{} is used twice", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.why);
    }
    assert!(!well_formed_name("has space"));
    assert!(!well_formed_name(".leading"));
    assert!(!well_formed_name(""));
}

#[test]
fn bounds_are_within_the_contract() {
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: {}", m.name, m.bound);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!(setup.unit, "s");
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

fn field<'j>(j: &'j Json, key: &str) -> &'j Json {
    j.get(key)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
}

fn text<'j>(j: &'j Json, key: &str) -> &'j str {
    field(j, key)
        .as_str()
        .unwrap_or_else(|| panic!("`{key}` is not a string"))
}

#[test]
fn benchmark_json_lists_exactly_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads = field(&doc, "workloads").as_arr().unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (listed, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(text(listed, "name"), w.name);
        assert_eq!(text(listed, "why"), w.why);
    }

    let end_to_end = field(&doc, "end_to_end").as_arr().unwrap();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (listed, m) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(text(listed, "name"), m.name);
        assert_eq!(text(listed, "unit"), m.unit);
        assert_eq!(text(listed, "better"), "lower");
        let bound = field(listed, "bound").as_f64().unwrap();
        assert!((bound - m.bound).abs() < 1e-12, "{}: {bound}", m.name);
    }

    let per_layer = field(&doc, "per_layer").as_arr().unwrap();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    assert!(per_layer.len() <= 128);
    for (listed, m) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(text(listed, "name"), m.name);
        assert_eq!(text(listed, "unit"), m.unit);
        assert_eq!(text(listed, "better"), m.better.name());
    }

    let seconds = field(&doc, "run_seconds").as_f64().unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract().abs() < 1e-12);
    let paths: Vec<&str> = field(&doc, "paths")
        .as_arr()
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
}
