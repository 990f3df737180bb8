//! One-command reproduction: regenerate every model-driven table and
//! figure of the paper into `results/` (override with
//! `PDNN_RESULTS_DIR`).
//!
//! Functional experiments that train or partition real data
//! (`parity`, `lambda_rule`, `preconditioner`, `loadbalance`) are
//! separate binaries — run them individually; this driver covers
//! everything that evaluates in milliseconds. GEMM throughput is
//! measured by `benchmark/` and `cargo bench`.

use pdnn_bench::emit;
use pdnn_perfmodel::figures;
use pdnn_perfmodel::JobSpec;

fn main() {
    let ce50 = JobSpec::ce_50h();
    let ce400 = JobSpec::ce_400h();

    println!("Regenerating all model-driven paper targets...\n");
    emit(&figures::fig1(&ce50, &figures::fig1a_configs()), "fig1a");
    emit(&figures::fig1(&ce400, &figures::fig1b_configs()), "fig1b");
    emit(&figures::fig2(&ce50), "fig2_master_cycles");
    emit(&figures::fig3(&ce50), "fig3_worker_cycles");
    emit(&figures::fig4(&ce50), "fig4_master_mpi");
    emit(&figures::fig5(&ce50), "fig5_worker_mpi");
    emit(&figures::table1(), "table1");
    emit(
        &figures::scaling_curve(&ce400, &[256, 512, 1024, 2048, 4096, 8192]),
        "scaling",
    );
    emit(&figures::billions_table(), "billions");
    emit(&figures::comm_ablation(), "comm_ablation");
    emit(&figures::energy_table(), "energy");

    println!(
        "Done. Functional experiments (run separately):\n\
         cargo run --release -p pdnn-bench --bin parity\n\
         cargo run --release -p pdnn-bench --bin lambda_rule\n\
         cargo run --release -p pdnn-bench --bin preconditioner\n\
         cargo run --release -p pdnn-bench --bin loadbalance"
    );
}
