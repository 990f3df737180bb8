//! Integration test: the full protocheck contract from ISSUE 3.
//!
//! 1. The unmutated workspace produces **zero** static findings (no
//!    false positives) and the extracted model has the protocol shape
//!    documented in `PROTOCOL.md`.
//! 2. Every seeded protocol mutation is flagged by the expected rule.
//! 3. A 4-rank training job under K = 8 perturbed schedules produces
//!    byte-identical telemetry and bit-identical weights with zero
//!    happens-before violations.

use pdnn_protocheck::dynamic::{self, DynamicConfig};
use pdnn_protocheck::{model::Op, mutate, run_static};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_default()
}

#[test]
fn static_pass_is_clean_and_models_the_full_protocol() {
    let outcome = run_static(&workspace_root()).expect("protocol surfaces readable");
    assert!(
        outcome.findings.is_empty(),
        "false positives on the unmutated workspace:\n{}",
        outcome
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(outcome.meta.is_empty());
    assert!(outcome.suppressed.is_empty());

    let m = &outcome.model;
    // The seven HF commands, each with both a master sequence and a
    // worker arm.
    for name in [
        "CMD_SHUTDOWN",
        "CMD_SET_THETA",
        "CMD_GRADIENT",
        "CMD_SAMPLE",
        "CMD_GN",
        "CMD_HELDOUT",
        "CMD_FISHER",
    ] {
        let cmd = m.command(name).unwrap_or_else(|| panic!("{name} missing"));
        assert!(cmd.master.is_some(), "{name}: master never issues it");
        assert!(cmd.worker.is_some(), "{name}: no worker arm");
        assert!(cmd.value.is_some(), "{name}: opcode const not resolved");
    }
    // The GRADIENT exchange is the paper's core reduction: a gradient
    // reduce followed by a loss/frame-count metadata reduce.
    let grad = m.command("CMD_GRADIENT").expect("gradient spec");
    let master = grad.master.as_ref().expect("gradient master seq");
    assert_eq!(master.len(), 2);
    assert!(matches!(master[0].op, Op::Reduce { root: Some(0), .. }));
    assert!(matches!(
        master[1].op,
        Op::Reduce {
            root: Some(0),
            len: Some(2),
            ..
        }
    ));
    // Startup data-load handshake: two tagged sends per worker, two
    // matching receives.
    assert_eq!(m.startup_sends.len(), 2);
    assert_eq!(m.startup_recvs.len(), 2);
    assert_eq!(m.const_value("TAG_LOAD_DATA"), Some(17));
    // The hop interpreter every collective shape runs through, plus
    // the two recovery fns, were modeled with balanced internal tags.
    assert_eq!(m.collective_fns.len(), 3, "{:?}", m.collective_fns);
}

#[test]
fn every_seeded_mutation_is_flagged() {
    let outcome = run_static(&workspace_root()).expect("protocol surfaces readable");
    let results = mutate::selftest(&outcome.model);
    assert!(
        results.len() >= 12,
        "ISSUE 3 requires >= 12 mutations, have {}",
        results.len()
    );
    let missed: Vec<String> = results
        .iter()
        .filter(|r| !r.flagged)
        .map(|r| {
            format!(
                "{}: expected {} but fired {:?}",
                r.name, r.expected_rule, r.fired_rules
            )
        })
        .collect();
    assert!(
        missed.is_empty(),
        "uncaught mutations:\n{}",
        missed.join("\n")
    );
}

#[test]
fn four_rank_train_is_schedule_independent_across_eight_seeds() {
    let outcome = dynamic::run(&DynamicConfig {
        seeds: 8,
        workers: 3,
        max_iters: 1,
    });
    assert_eq!(outcome.seeds_run.len(), 8);
    assert!(
        outcome.ok(),
        "hb={:?} weights={:?} telemetry={:?}",
        outcome.hb_violations,
        outcome.weight_divergence,
        outcome.telemetry_divergence
    );
}
