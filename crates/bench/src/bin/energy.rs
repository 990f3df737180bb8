//! Energy comparison — the paper's conclusion cites BG/Q's Green500
//! leadership; this restates Table I in kilowatt-hours per completed
//! training run.

use pdnn_bench::emit;
use pdnn_perfmodel::figures::energy_table;

fn main() {
    emit(&energy_table(), "energy");
    println!(
        "The rack draws ~4x the cluster's power but finishes ~5x sooner:\n\
         energy per training run favors BG/Q — the job-level restatement of\n\
         the paper's Green500 energy-efficiency claim."
    );
}
