//! Acceptance tests: the real tree is clean and fully covered, the
//! mutation battery all gets caught, and the suppression grammar is
//! honored (used allows waive, unused allows are meta diagnostics).

use pdnn_kernelcheck::{analyze, mutate, run_static, Tree, ZONE_DIR};
use std::collections::BTreeSet;
use std::path::Path;

fn repo_root() -> &'static Path {
    // crates/kernelcheck -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
}

#[test]
fn clean_tree_has_zero_findings_and_full_coverage() {
    let outcome = run_static(repo_root()).expect("zone readable");
    assert!(
        outcome.findings.is_empty(),
        "clean tree produced findings:\n{:#?}",
        outcome.findings
    );
    assert!(
        outcome.meta.is_empty(),
        "clean tree produced meta diagnostics:\n{:#?}",
        outcome.meta
    );
    assert!(
        outcome.suppressed.is_empty(),
        "clean tree should need no suppressions:\n{:#?}",
        outcome.suppressed
    );
    let uncovered: Vec<_> = outcome.coverage.iter().filter(|c| !c.covered).collect();
    assert!(
        uncovered.is_empty(),
        "unsafe sites without verified contracts:\n{uncovered:#?}"
    );
    assert!(
        !outcome.coverage.is_empty(),
        "coverage table empty — zone extraction is broken"
    );
    // Every unsafe kernel fn carries contracts the checker verified.
    let unsafe_kernels = outcome.kernels.iter().filter(|k| k.is_unsafe).count();
    assert!(
        unsafe_kernels >= 16,
        "expected the full kernel battery, found {unsafe_kernels} unsafe kernels"
    );
}

#[test]
fn mutation_battery_is_fully_caught() {
    let tree = Tree::load(repo_root()).expect("zone readable");
    let baseline = analyze(&tree);
    let results = mutate::run_mutations(&tree, &baseline).expect("clean baseline");
    assert!(
        results.len() >= 30,
        "need >= 30 mutations, have {}",
        results.len()
    );
    let names: BTreeSet<_> = results.iter().map(|r| r.name).collect();
    assert_eq!(names.len(), results.len(), "duplicate mutation names");
    let missed: Vec<_> = results
        .iter()
        .filter(|r| !r.caught)
        .map(|r| {
            format!(
                "{}: expected {}, fired {:?}",
                r.name, r.expected_rule, r.fired_rules
            )
        })
        .collect();
    assert!(missed.is_empty(), "missed mutations:\n{missed:#?}");
}

fn fixture_tree(kernel: &str) -> Tree {
    Tree {
        files: vec![(format!("{ZONE_DIR}/fixture.rs"), kernel.to_string())],
    }
}

const WAIVED: &str = r#"
pub const MR: usize = 8;

pub fn k(kc: usize, ap: &[f32]) {
    kernel_precondition!(ap.len() >= kc * MR, "short");
    unsafe { k_imp(kc, ap.as_ptr()) }
}

// kernel-contract: ap points-to len >= kc * MR, noalias
unsafe fn k_imp(kc: usize, ap: *const f32) {
    // pdnn-lint: allow(k1-oob-access): fixture waiver exercised by the test
    let x = *ap.add(kc * MR);
    let _ = x;
}
"#;

#[test]
fn suppression_waives_a_finding_and_reports_unused_allows() {
    // The deliberate off-by-one is waived by the directive.
    let outcome = analyze(&fixture_tree(WAIVED));
    assert!(
        outcome.findings.is_empty(),
        "waived finding still reported:\n{:#?}",
        outcome.findings
    );
    assert_eq!(outcome.suppressed.len(), 1);
    assert_eq!(outcome.suppressed[0].0.rule, "k1-oob-access");
    assert!(outcome.suppressed[0].1.contains("fixture waiver"));
    assert!(outcome.meta.is_empty(), "{:#?}", outcome.meta);
    // A suppressed violation still counts against coverage.
    assert!(outcome.coverage.iter().any(|c| !c.covered));

    // Same fixture with the bug fixed: the allow is now unused.
    let fixed = WAIVED.replace("*ap.add(kc * MR)", "*ap.add(kc * MR - 1)");
    let outcome = analyze(&fixture_tree(&fixed));
    assert!(outcome.findings.is_empty(), "{:#?}", outcome.findings);
    assert!(outcome.suppressed.is_empty());
    assert_eq!(outcome.meta.len(), 1, "{:#?}", outcome.meta);
    assert!(outcome.meta[0].message.contains("unused suppression"));
}

#[test]
fn seeded_oob_is_reported_without_a_waiver() {
    let unwaived = WAIVED.replace(
        "    // pdnn-lint: allow(k1-oob-access): fixture waiver exercised by the test\n",
        "",
    );
    let outcome = analyze(&fixture_tree(&unwaived));
    assert_eq!(outcome.findings.len(), 1, "{:#?}", outcome.findings);
    assert_eq!(outcome.findings[0].rule, "k1-oob-access");
}
