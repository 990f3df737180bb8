//! Energy model.
//!
//! The paper's conclusion: "From a financial perspective, Blue Gene/Q
//! is also a leader in energy efficiency compared to the 30 different
//! systems studied [Green500]." This module attaches era-appropriate
//! power figures to the timing model so the Table I comparison can be
//! restated in energy terms.
//!
//! Power figures (2012-era, published system specs):
//! * BG/Q: ~85 kW per 1024-node rack under load → ~83 W/node
//!   (the Green500 #1 machines of 2012 were BG/Q systems at
//!   ~2.1 GFLOPS/W peak).
//! * Commodity Xeon cluster: dual-socket Sandy Bridge node ~350 W
//!   under load plus ~15% for switching/cooling overhead, two
//!   processes (sockets) per node.

use crate::model::{bgq_time, xeon_time, BgqRun, RunBreakdown};
use crate::workload::JobSpec;
use pdnn_util::cast;

/// BG/Q node power under load, watts.
const BGQ_NODE_WATTS: f64 = 83.0;
/// Commodity dual-socket node power under load, watts.
const XEON_NODE_WATTS: f64 = 350.0;
/// Cluster overhead factor (network switches, fans, PSU losses).
const CLUSTER_OVERHEAD: f64 = 1.15;
/// Processes (sockets) per Xeon node.
const XEON_PROCS_PER_NODE: usize = 2;

/// Energy summary of a modeled run.
#[derive(Clone, Debug)]
pub(crate) struct EnergyReport {
    /// Wall-clock hours.
    pub hours: f64,
    /// Average machine power, kilowatts.
    pub kilowatts: f64,
    /// Total energy, kilowatt-hours.
    pub kwh: f64,
}

/// Energy of a BG/Q run.
pub(crate) fn bgq_energy(job: &JobSpec, run: &BgqRun) -> EnergyReport {
    let breakdown: RunBreakdown = bgq_time(job, run);
    let hours = breakdown.total_hours();
    let kilowatts = cast::exact_f64_usize(run.nodes()) * BGQ_NODE_WATTS / 1000.0;
    EnergyReport {
        hours,
        kilowatts,
        kwh: kilowatts * hours,
    }
}

/// Energy of the Xeon-cluster run.
pub(crate) fn xeon_energy(job: &JobSpec, processes: usize) -> EnergyReport {
    let breakdown = xeon_time(job, processes);
    let hours = breakdown.total_hours();
    let nodes = processes.div_ceil(XEON_PROCS_PER_NODE);
    let kilowatts = cast::exact_f64_usize(nodes) * XEON_NODE_WATTS * CLUSTER_OVERHEAD / 1000.0;
    EnergyReport {
        hours,
        kilowatts,
        kwh: kilowatts * hours,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bgq_run_energy_is_power_times_time() {
        let job = JobSpec::ce_50h();
        let run = BgqRun::new(4096, 4, 16);
        let e = bgq_energy(&job, &run);
        assert!((e.kwh - e.kilowatts * e.hours).abs() < 1e-9);
        // 1024 nodes × 83 W = 85 kW.
        assert!((e.kilowatts - 85.0).abs() < 0.1, "{}", e.kilowatts);
    }

    #[test]
    fn xeon_cluster_power_is_plausible() {
        let job = JobSpec::ce_50h();
        let e = xeon_energy(&job, 96);
        // 48 nodes × 350 W × 1.15 ≈ 19.3 kW.
        assert!(e.kilowatts > 15.0 && e.kilowatts < 25.0, "{}", e.kilowatts);
    }

    #[test]
    fn bgq_uses_less_energy_per_training_run_despite_more_hardware() {
        // The paper's energy-efficiency claim in job terms: the BG/Q
        // rack draws more power than the small cluster but finishes so
        // much sooner that the energy per completed training run is
        // comparable or better.
        let job = JobSpec::ce_50h();
        let bgq = bgq_energy(&job, &BgqRun::new(4096, 4, 16));
        let xeon = xeon_energy(&job, 96);
        assert!(
            bgq.kwh < xeon.kwh,
            "bgq {:.0} kWh vs xeon {:.0} kWh",
            bgq.kwh,
            xeon.kwh
        );
    }

    #[test]
    fn sequence_job_costs_more_energy_than_ce() {
        let run = BgqRun::new(4096, 4, 16);
        let ce = bgq_energy(&JobSpec::ce_50h(), &run);
        let seq = bgq_energy(&JobSpec::seq_50h(), &run);
        assert!(seq.kwh > ce.kwh);
    }
}
