//! The benchmark drives the path a user runs: given the CLI's own
//! parameters, `workload::prepare` + `workload::train` reproduce the
//! held-out losses and CG counts `pdnn-train` prints.
//!
//! Skipped when `target/release/pdnn-train` has not been built
//! (`cargo build --release` at the repository root builds it).

use pdnn_benchmark::workload::{self, Mode, Task, WorkloadSpec};
use std::path::PathBuf;
use std::process::Command;

/// `(held-out loss as printed, CG iterations, accepted)` per HF
/// iteration, from the CLI's statistics table.
fn parse_cli_table(stdout: &str) -> Vec<(String, usize, bool)> {
    stdout
        .lines()
        .skip_while(|l| !l.starts_with("iter "))
        .skip(1)
        .map_while(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            match cols.as_slice() {
                [iter, _train, heldout, _acc, cg, _alpha, accepted]
                    if iter.parse::<usize>().is_ok() =>
                {
                    Some((
                        heldout.to_string(),
                        cg.parse().ok()?,
                        accepted.parse().ok()?,
                    ))
                }
                _ => None,
            }
        })
        .collect()
}

#[test]
fn serial_ce_path_reproduces_pdnn_train() {
    let cli = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../target/release/pdnn-train");
    if !cli.exists() {
        eprintln!("skipped: {} is not built", cli.display());
        return;
    }
    // The issue's configuration when this test is itself optimised;
    // a debug build of the library is ~20x slower, so it takes a
    // smaller one through the same code.
    let (utterances, hidden, iters) = if cfg!(debug_assertions) {
        (40, 32, 3)
    } else {
        (150, 256, 7)
    };
    let seed = 2024u64;
    let output = Command::new(&cli)
        .args(["--states", "32", "--features", "40", "--noise", "1.5"])
        .args(["--utterances", &utterances.to_string()])
        .args(["--hidden", &format!("{hidden},{hidden}")])
        .args(["--iters", &iters.to_string()])
        .args(["--seed", &seed.to_string()])
        .output()
        .expect("pdnn-train runs");
    assert!(output.status.success(), "{output:?}");
    let cli_rows = parse_cli_table(&String::from_utf8_lossy(&output.stdout));
    assert_eq!(cli_rows.len(), iters, "CLI table not understood");

    // The CLI's corpus and optimizer defaults, not the benchmark's.
    let spec = WorkloadSpec {
        name: "cli_parity",
        why: "",
        utterances,
        length_sigma: 0.4,
        hidden: [hidden, hidden],
        curvature_fraction: 0.5,
        cg_cap: 60,
        mode: Mode::Serial,
        // The target disabled: the CLI has none.
        task: Task::Ce {
            target: None,
            max_iters: iters,
        },
    };
    let trained = workload::train(&spec, workload::prepare(&spec, seed), None);
    let ours: Vec<(String, usize, bool)> = trained
        .stats
        .iter()
        .map(|s| (format!("{:.4}", s.heldout_after), s.cg_iters, s.accepted))
        .collect();
    assert_eq!(ours, cli_rows);
}

#[test]
fn cli_table_parser_reads_the_documented_layout() {
    let text = "corpus: 3 utterances\nmode: serial\n\n\
        iter  train loss  heldout loss  accuracy  cg  alpha  accepted\n   \
        0      3.6021        3.4102     0.120   19   1.00  true\n   \
        1      3.4000        3.4102     0.000   16   0.00  false\n\n\
        master phases:\n";
    assert_eq!(
        parse_cli_table(text),
        [
            ("3.4102".to_string(), 19, true),
            ("3.4102".to_string(), 16, false)
        ]
    );
}
