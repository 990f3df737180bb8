//! # pdnn-bench — benchmark harness
//!
//! One binary per paper table/figure (see DESIGN.md's per-experiment
//! index) plus criterion microbenches for the kernels (GEMM, training
//! phases, collectives). Timings of the trainer itself come from the
//! end-to-end `benchmark/` package, not from these binaries.
//!
//! | target            | regenerates                                   |
//! |-------------------|-----------------------------------------------|
//! | `fig1`            | Figure 1(a)/(b): time per rank/thread config  |
//! | `fig2_3`          | Figures 2–3: cycle breakdowns                  |
//! | `fig4_5`          | Figures 4–5: MPI time breakdowns               |
//! | `table1`          | Table I: Xeon vs BG/Q speedups                 |
//! | `parity`          | "no loss in accuracy": serial vs distributed   |
//! | `loadbalance`     | Section V.C: partitioning strategies           |
//! | `comm_ablation`   | Section V.B: socket vs MPI weight sync         |
//! | `scaling`         | strong-scaling curve + sync crossover          |
//! | `energy`          | the conclusion's energy-efficiency claim       |
//! | `lambda_rule`     | DESIGN.md §2: Martens vs paper-literal λ rule  |
//! | `preconditioner`  | CG preconditioning (the paper's future work)   |
//! | `reproduce_all`   | every model-driven target above, in one go     |
//!
//! Each binary prints the series and writes a CSV under `results/`
//! (override with `PDNN_RESULTS_DIR`).

use pdnn_util::report::{results_dir, Table};

/// Print a table and persist it as CSV; report where it went.
pub fn emit(table: &Table, name: &str) {
    print!("{}", table.render());
    match table.write_csv(results_dir(), name) {
        Ok(path) => println!("[csv] {}\n", path.display()),
        Err(e) => eprintln!("[csv] failed to write {name}: {e}\n"),
    }
}

/// Print `--key: <problem>` to stderr and exit with status 2.
fn bad_flag(key: &str, problem: &str) -> ! {
    eprintln!("{key}: {problem}");
    std::process::exit(2)
}

/// Parse `--key value` from `std::env::args` as a number, or `default`
/// when the flag is absent. A flag with no value or an unparsable one
/// exits with status 2, naming the flag and the value.
pub fn arg_num<T: std::str::FromStr>(key: &str, default: T) -> T {
    let mut args = std::env::args().skip(1);
    if !args.any(|a| a == key) {
        return default;
    }
    match args.next() {
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| bad_flag(key, &format!("invalid value `{v}`"))),
        None => bad_flag(key, "missing value"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_writes_csv() {
        std::env::set_var(
            "PDNN_RESULTS_DIR",
            std::env::temp_dir().join("pdnn-bench-test"),
        );
        let mut t = Table::new("t", &["a"]);
        t.row(&["1".into()]);
        emit(&t, "emit_test");
        let path = results_dir().join("emit_test.csv");
        assert!(path.exists());
        std::fs::remove_file(path).unwrap();
        std::env::remove_var("PDNN_RESULTS_DIR");
    }

    #[test]
    fn arg_num_falls_back_to_default() {
        assert_eq!(arg_num("--nonexistent-flag", 42usize), 42);
    }
}
