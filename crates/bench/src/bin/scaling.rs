//! Strong-scaling study — the paper's headline: "performance on BG/Q
//! scales linearly up to 4096 processes … Beyond that, although we
//! see a significant speed up, the speed improvements are sub-linear."

use pdnn_bench::{arg_num, emit};
use pdnn_perfmodel::figures::{
    scaling_curve, sync_crossover_rank, sync_crossover_table, INT8_PAYLOAD_FACTOR,
};
use pdnn_perfmodel::JobSpec;

fn main() {
    let hours: f64 = arg_num("--hours", 400.0);
    let job = if hours >= 100.0 {
        JobSpec::ce_400h()
    } else {
        JobSpec::ce_50h()
    };
    let ranks = [256usize, 512, 1024, 2048, 4096, 8192];
    emit(&scaling_curve(&job, &ranks), "scaling");
    emit(&pdnn_perfmodel::figures::billions_table(), "billions");
    println!(
        "Efficiency decays as the serial master share (CG vector arithmetic,\n\
         per-rank coordination) stops shrinking while worker compute halves —\n\
         the Amdahl mechanism behind the paper's sub-linear regime past 4096."
    );

    // Masterless sync moves the byte hotspot off rank 0: the
    // master-centric curve grows with log2(ranks), the ring curves do
    // not, and wire compression shifts the crossover to smaller
    // worlds (measured counterpart: crates/core/tests/sync_strategies.rs,
    // `ring_mode_slashes_rank0_bytes_at_8_ranks`).
    let sync_ranks = [2usize, 4, 8, 16, 64, 256, 1024, 4096];
    emit(&sync_crossover_table(&job, &sync_ranks), "sync_crossover");
    let at = |factor: f64| {
        sync_crossover_rank(&job, factor, 2.0, &sync_ranks)
            .map(|p| format!("P={p}"))
            .unwrap_or_else(|| "beyond the sweep".into())
    };
    println!(
        "2x rank-0 byte-reduction crossover: plain ring at {}, ring+int8 at {}",
        at(1.0),
        at(INT8_PAYLOAD_FACTOR)
    );
}
