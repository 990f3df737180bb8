//! Integration checks on the figure/table generators: every
//! reproduction target renders, persists as CSV, and the headline
//! shape claims hold (belt-and-braces over the unit tests, exercised
//! through the public facade).

use pdnn::perfmodel::figures;
use pdnn::perfmodel::{bgq_time, BgqRun, JobSpec};

#[test]
fn all_generators_emit_csv() {
    let dir = std::env::temp_dir().join(format!("pdnn-figures-{}", std::process::id()));
    let job = JobSpec::ce_50h();
    let targets = [
        ("fig1a", figures::fig1(&job, &figures::fig1a_configs())),
        (
            "fig1b",
            figures::fig1(&JobSpec::ce_400h(), &figures::fig1b_configs()),
        ),
        ("fig2", figures::fig2(&job)),
        ("fig3", figures::fig3(&job)),
        ("fig4", figures::fig4(&job)),
        ("fig5", figures::fig5(&job)),
        ("table1", figures::table1()),
        ("comm", figures::comm_ablation()),
        ("energy", figures::energy_table()),
    ];
    for (name, table) in targets {
        assert!(!table.is_empty(), "{name} has no rows");
        let path = table.write_csv(&dir, name).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.lines().count() > 1, "{name} CSV has no data rows");
        // Every row has the same number of commas as the header.
        let header_cols = content.lines().next().unwrap().split(',').count();
        for line in content.lines() {
            assert_eq!(line.split(',').count(), header_cols, "{name}: ragged CSV");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn headline_claims_hold_through_the_facade() {
    // Figure 1(a): 2048-2-32 < 4096-4-16 < 1024-1-64.
    let job = JobSpec::ce_50h();
    let t = |r: BgqRun| bgq_time(&job, &r).total_seconds();
    let t2048 = t(BgqRun::new(2048, 2, 32));
    let t4096 = t(BgqRun::new(4096, 4, 16));
    let t1024 = t(BgqRun::new(1024, 1, 64));
    assert!(t2048 < t4096 && t4096 < t1024, "{t2048} {t4096} {t1024}");

    // Table I: BG/Q wins on both objectives, by a smaller factor for
    // sequence training.
    let [(xc, bc, sc), (xs, bs, ss)] = figures::table1_values();
    assert!(xc > bc && xs > bs);
    assert!(ss < sc, "sequence speedup {ss} !< CE speedup {sc}");

    // Figure 1(b): two racks meaningfully faster on 400 h.
    let job400 = JobSpec::ce_400h();
    let one_rack = bgq_time(&job400, &BgqRun::new(4096, 4, 16)).total_seconds();
    let two_racks = bgq_time(&job400, &BgqRun::new(8192, 4, 16)).total_seconds();
    assert!(two_racks < one_rack);
    let gain = one_rack / two_racks;
    assert!(gain < 1.9, "super-linear two-rack gain {gain}?");
}

#[test]
fn imbalance_inflates_modeled_time_proportionally() {
    // Section V.C mechanism: every compute phase waits for the
    // slowest worker.
    let run = BgqRun::new(2048, 2, 32);
    let mut balanced = JobSpec::ce_50h();
    balanced.imbalance = 1.0;
    let mut skewed = balanced.clone();
    skewed.imbalance = 1.5;
    let tb = bgq_time(&balanced, &run);
    let ts = bgq_time(&skewed, &run);
    let gb = tb.phase("gradient_loss").unwrap().worker_compute_s;
    let gs = ts.phase("gradient_loss").unwrap().worker_compute_s;
    assert!(
        (gs / gb - 1.5).abs() < 1e-9,
        "gradient did not scale: {}",
        gs / gb
    );
    assert!(ts.total_seconds() > tb.total_seconds());
}
