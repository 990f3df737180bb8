//! Communication ablation (Section V.B): the cost of weight
//! synchronization under the three transports the paper discusses —
//! the original socket fan-out, commodity-cluster MPI, and BG/Q's
//! optimized torus collectives — across model sizes and rank counts.

use pdnn_bench::emit;
use pdnn_perfmodel::figures::comm_ablation;

fn main() {
    emit(&comm_ablation(), "comm_ablation");
    println!(
        "The socket transport serializes the fan-out (linear in ranks); the\n\
         paper replaced it with MPI_Bcast to exploit the optimized torus\n\
         collectives, whose cost is nearly independent of rank count."
    );
}
