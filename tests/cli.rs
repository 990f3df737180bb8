//! End-to-end tests of the `pdnn-train` command-line binary:
//! training, checkpointing, and resume across objectives.

use std::process::Command;

fn train_bin() -> &'static str {
    env!("CARGO_BIN_EXE_pdnn-train")
}

fn tmpfile(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pdnn-cli-{}-{name}", std::process::id()))
}

#[test]
fn serial_training_run_succeeds() {
    let out = Command::new(train_bin())
        .args(["--utterances", "40", "--iters", "2"])
        .output()
        .expect("failed to spawn pdnn-train");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("mode: serial"), "{stdout}");
    assert!(stdout.contains("heldout loss"), "{stdout}");
}

#[test]
fn distributed_save_then_sequence_resume() {
    let ckpt = tmpfile("roundtrip.pdnn");
    let _ = std::fs::remove_file(&ckpt);

    let out = Command::new(train_bin())
        .args([
            "--utterances",
            "40",
            "--iters",
            "2",
            "--workers",
            "2",
            "--save",
            ckpt.to_str().unwrap(),
        ])
        .output()
        .expect("spawn failed");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(ckpt.exists(), "checkpoint not written");

    let out = Command::new(train_bin())
        .args([
            "--utterances",
            "40",
            "--iters",
            "1",
            "--objective",
            "sequence",
            "--resume",
            ckpt.to_str().unwrap(),
        ])
        .output()
        .expect("spawn failed");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("resumed from"), "{stdout}");
    std::fs::remove_file(&ckpt).unwrap();
}

#[test]
fn bad_flags_fail_cleanly() {
    let out = Command::new(train_bin())
        .args(["--objective", "nonsense"])
        .output()
        .expect("spawn failed");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown --objective"), "{stderr}");

    // Zero iterations must be a clean CLI error, not a config panic.
    let out = Command::new(train_bin())
        .args(["--iters", "0"])
        .output()
        .expect("spawn failed");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--iters must be at least 1") && !stderr.contains("panicked"),
        "{stderr}"
    );

    // An unparsable number names its flag instead of falling back to
    // the default (`--workers 4x` used to train serially).
    for (flag, value) in [("--workers", "4x"), ("--seed", "-1")] {
        let out = Command::new(train_bin())
            .args([flag, value])
            .output()
            .expect("spawn failed");
        assert_eq!(out.status.code(), Some(1), "{flag} {value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("invalid {flag}: ")), "{stderr}");
    }

    let out = Command::new(train_bin())
        .args(["--resume", "/nonexistent/path.pdnn"])
        .output()
        .expect("spawn failed");
    assert!(!out.status.success());
}

#[test]
fn checkpoint_shape_mismatch_is_rejected() {
    let ckpt = tmpfile("mismatch.pdnn");
    let _ = std::fs::remove_file(&ckpt);
    // Train with 8 states, then resume claiming 6.
    let out = Command::new(train_bin())
        .args([
            "--utterances",
            "30",
            "--iters",
            "1",
            "--states",
            "8",
            "--save",
            ckpt.to_str().unwrap(),
        ])
        .output()
        .expect("spawn failed");
    assert!(out.status.success());
    let out = Command::new(train_bin())
        .args([
            "--utterances",
            "30",
            "--iters",
            "1",
            "--states",
            "6",
            "--resume",
            ckpt.to_str().unwrap(),
        ])
        .output()
        .expect("spawn failed");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("does not match"), "{stderr}");
    std::fs::remove_file(&ckpt).unwrap();
}
