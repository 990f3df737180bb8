//! Smoke tests: every figure/table binary must run to completion and
//! emit its CSV. Fast configurations only — the full runs are
//! documented in EXPERIMENTS.md.

use std::process::{Command, Output};

fn spawn(name: &str, args: &[&str]) -> Output {
    let exe = match name {
        "fig1" => env!("CARGO_BIN_EXE_fig1"),
        "fig2_3" => env!("CARGO_BIN_EXE_fig2_3"),
        "fig4_5" => env!("CARGO_BIN_EXE_fig4_5"),
        "table1" => env!("CARGO_BIN_EXE_table1"),
        "comm_ablation" => env!("CARGO_BIN_EXE_comm_ablation"),
        "scaling" => env!("CARGO_BIN_EXE_scaling"),
        "energy" => env!("CARGO_BIN_EXE_energy"),
        "loadbalance" => env!("CARGO_BIN_EXE_loadbalance"),
        "lambda_rule" => env!("CARGO_BIN_EXE_lambda_rule"),
        "preconditioner" => env!("CARGO_BIN_EXE_preconditioner"),
        "parity" => env!("CARGO_BIN_EXE_parity"),
        other => panic!("unknown bin {other}"),
    };
    let results = std::env::temp_dir().join(format!("pdnn-smoke-{}", std::process::id()));
    Command::new(exe)
        .args(args)
        .env("PDNN_RESULTS_DIR", &results)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"))
}

fn run_bin(name: &str, args: &[&str]) -> String {
    let out = spawn(name, args);
    assert!(
        out.status.success(),
        "{name} failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn model_driven_bins_run() {
    // Pure model evaluation: all fast.
    assert!(run_bin("fig1", &["--hours", "50"]).contains("2048-2-32"));
    assert!(run_bin("fig1", &["--hours", "400"]).contains("8192-4-16"));
    assert!(run_bin("fig2_3", &[]).contains("gradient_loss"));
    assert!(run_bin("fig4_5", &[]).contains("collective"));
    assert!(run_bin("table1", &[]).contains("Cross-Entropy"));
    assert!(run_bin("comm_ablation", &[]).contains("socket"));
    assert!(run_bin("scaling", &[]).contains("efficiency"));
    assert!(run_bin("energy", &[]).contains("kWh"));
    assert!(run_bin("loadbalance", &[]).contains("sorted-LPT"));
}

#[test]
fn functional_training_bins_run() {
    // These actually train; keep them tiny.
    assert!(run_bin("lambda_rule", &["--iters", "3"]).contains("Martens"));
    assert!(run_bin("preconditioner", &["--iters", "3"]).contains("fisher"));
    assert!(run_bin("parity", &["--utterances", "40", "--iters", "3"]).contains("serial"));
}

#[test]
fn bad_flag_values_are_rejected() {
    // `4OO` (letter O) must not fall back to the 50-hour default, and
    // neither may a flag with no value.
    for args in [&["--hours", "4OO"][..], &["--hours"]] {
        let out = spawn("fig1", args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "fig1 {args:?} succeeded");
        assert!(
            args.iter().all(|a| stderr.contains(a)),
            "fig1 {args:?} stderr: {stderr}"
        );
    }
}
