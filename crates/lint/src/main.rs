//! `cargo run -p pdnn-lint` — lint the workspace, print rustc-style
//! diagnostics, write `results/lint_report.json`, and exit nonzero on
//! any violation or suppression problem.
//!
//! Usage: `pdnn-lint [workspace-root]` (default: the nearest directory
//! at or above the current one whose `Cargo.toml` has a `[workspace]`
//! table, so a copy of the repo lints and reports into itself).
//!
//! `pdnn-lint --api [workspace-root]` prints the public-API listing
//! instead (see `pdnn_lint::api`); `results/public_api.txt` is its
//! output: `cargo run -q -p pdnn-lint -- --api > results/public_api.txt`.

use pdnn_lint::{api, find_workspace_root, lint_workspace, report, rules};
use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root(arg: Option<String>) -> Result<PathBuf, String> {
    if let Some(arg) = arg {
        return Ok(PathBuf::from(arg));
    }
    let cwd = std::env::current_dir().map_err(|e| format!("no current directory: {e}"))?;
    find_workspace_root(&cwd).ok_or_else(|| {
        format!(
            "no Cargo.toml with a [workspace] table at or above {}; pass the root",
            cwd.display()
        )
    })
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let api_only = args.next_if(|a| a == "--api").is_some();
    let root = match workspace_root(args.next()) {
        Ok(root) => root,
        Err(e) => {
            eprintln!("pdnn-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if api_only {
        return match api::workspace_api(&root) {
            Ok(listing) => {
                print!("{listing}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("pdnn-lint: cannot list the API of {}: {e}", root.display());
                ExitCode::from(2)
            }
        };
    }
    let (outcomes, files_scanned) = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pdnn-lint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let mut violations = 0usize;
    let mut meta_errors = 0usize;
    let mut suppressed = 0usize;
    for o in &outcomes {
        for f in &o.findings {
            println!("{f}\n");
            violations += 1;
        }
        for m in &o.meta {
            println!("{m}\n");
            meta_errors += 1;
        }
        suppressed += o.suppressed.len();
    }

    let json = report::render(&outcomes, files_scanned);
    let results_dir = root.join("results");
    let report_path = results_dir.join("lint_report.json");
    if let Err(e) =
        std::fs::create_dir_all(&results_dir).and_then(|()| std::fs::write(&report_path, &json))
    {
        eprintln!("pdnn-lint: cannot write {}: {e}", report_path.display());
        return ExitCode::from(2);
    }

    println!(
        "pdnn-lint: {files_scanned} files, {} rules, {violations} violation(s), \
         {meta_errors} suppression problem(s), {suppressed} suppressed",
        rules::RULES.len()
    );
    println!("pdnn-lint: report written to {}", report_path.display());

    if violations > 0 || meta_errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
