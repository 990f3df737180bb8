//! CLI: `pdnn-protomc [--check] [--mutations] [--conformance] [--emit-diagram] [root]`.
//!
//! With no pass flags, runs all three passes. `--check` model-checks
//! the 2/3/4-rank master-protocol worlds (full + sleep-set-reduced,
//! fault budget 1) plus the masterless ring/tree worlds at the same
//! sizes; `--mutations` runs the seeded-bug self-test (master battery
//! plus the decentral battery); `--conformance` executes real 4-rank
//! training runs in-process (fault-free, injected worker kill, and
//! one each under ring and tree sync) and replays their recorded
//! comm-event traces through the abstract automata. `--emit-diagram`
//! prints the compiled protocol as a mermaid state diagram and exits.
//!
//! Writes `results/protomc_report.json` under the workspace root and
//! exits nonzero on any finding, reduction disagreement, missed
//! mutation, or non-conforming trace.

use pdnn_protomc::report::{self, NamedRun};
use pdnn_protomc::{conformance, decentral, mutate};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Cli {
    run_check: bool,
    run_mutations: bool,
    run_conformance: bool,
    emit_diagram: bool,
    root: PathBuf,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        run_check: false,
        run_mutations: false,
        run_conformance: false,
        emit_diagram: false,
        root: PathBuf::from("."),
    };
    let mut any_flag = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => {
                cli.run_check = true;
                any_flag = true;
            }
            "--mutations" => {
                cli.run_mutations = true;
                any_flag = true;
            }
            "--conformance" => {
                cli.run_conformance = true;
                any_flag = true;
            }
            "--emit-diagram" => {
                cli.emit_diagram = true;
                any_flag = true;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: pdnn-protomc [--check] [--mutations] [--conformance] [--emit-diagram] [root]"
                        .to_string(),
                )
            }
            other if !other.starts_with('-') => cli.root = PathBuf::from(other),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !any_flag {
        cli.run_check = true;
        cli.run_mutations = true;
        cli.run_conformance = true;
    }
    Ok(cli)
}

/// The model-checked worlds: 2, 3, and 4 ranks, fault budget 1
/// (which includes every 0-kill path).
const WORLDS: [(usize, u8); 3] = [(1, 1), (2, 1), (3, 1)];

fn run_training_traces(spec: &pdnn_protomc::ProtoSpec) -> Result<Vec<NamedRun>, String> {
    use pdnn_core::{
        train_distributed_deterministic, train_distributed_faulted, DistributedConfig, Objective,
        SyncStrategy, TrainOutput,
    };
    use pdnn_dnn::{Activation, Network};
    use pdnn_mpisim::FaultPlan;
    use pdnn_speech::{Corpus, CorpusSpec};
    use pdnn_util::Prng;

    let corpus = Corpus::generate(CorpusSpec::tiny(23));
    let mut rng = Prng::new(11);
    let net0 = Network::new(
        &[corpus.spec().feature_dim, 10, corpus.spec().states],
        Activation::Sigmoid,
        &mut rng,
    );
    let mut config = DistributedConfig {
        workers: 3,
        ..DistributedConfig::default()
    };
    config.hf.max_iters = 3;

    let replay = |name: &str, out: &TrainOutput| -> NamedRun {
        let mut streams: Vec<&[pdnn_mpisim::CommEvent]> = vec![&out.master_events];
        streams.extend(out.worker_events.iter().map(|e| e.as_slice()));
        NamedRun {
            name: name.to_string(),
            dead_ranks: out.dead_ranks.clone(),
            replay: conformance::replay_run(spec, &streams, &out.dead_ranks),
        }
    };

    let clean = train_distributed_deterministic(&net0, &corpus, &Objective::CrossEntropy, &config)
        .map_err(|e| format!("fault-free training run failed: {e:?}"))?;
    let mut runs = vec![replay("fault-free-4rank", &clean)];

    // Rank 2 dies entering the first GRADIENT (collective index 5;
    // see the collective-index map in core's fault_tolerance tests).
    let plan = FaultPlan::new(41)
        .kill(2, 5)
        .with_timeouts(Duration::from_millis(500), Duration::from_secs(30));
    let faulted =
        train_distributed_faulted(&net0, &corpus, &Objective::CrossEntropy, &config, &plan)
            .map_err(|e| format!("faulted training run failed: {e:?}"))?;
    if faulted.dead_ranks != vec![2] {
        return Err(format!(
            "fault injection did not take: dead ranks {:?}",
            faulted.dead_ranks
        ));
    }
    runs.push(replay("faulted-4rank-kill-rank2-at-gradient", &faulted));

    // Masterless modes: the same training job under ring and tree
    // sync, replayed through the decentral automata (rank 0 is a peer
    // here, not a master — its stream obeys the same grammar).
    for (dmode, sync, name) in [
        (
            decentral::DMode::Ring,
            SyncStrategy::Ring,
            "ring-masterless-4rank",
        ),
        (
            decentral::DMode::Tree,
            SyncStrategy::Tree,
            "tree-masterless-4rank",
        ),
    ] {
        let mut dconfig = DistributedConfig {
            workers: 4,
            sync,
            ..DistributedConfig::default()
        };
        dconfig.hf.max_iters = 3;
        let out =
            train_distributed_deterministic(&net0, &corpus, &Objective::CrossEntropy, &dconfig)
                .map_err(|e| format!("{name} training run failed: {e:?}"))?;
        let mut streams: Vec<&[pdnn_mpisim::CommEvent]> = vec![&out.master_events];
        streams.extend(out.worker_events.iter().map(|e| e.as_slice()));
        runs.push(NamedRun {
            name: name.to_string(),
            dead_ranks: Vec::new(),
            replay: decentral::replay_decentral_run(dmode, &streams, &[]),
        });
    }

    // A *real* killed ring: rank 2 dies entering a collective, the
    // survivors run the peer-coordinated recovery, and the recorded
    // streams must map onto the faulted grammar with nothing left
    // over — victim silent, one aborted collective per survivor,
    // recovery p2p hop for hop as the lowered membership round and
    // shipments, resumed schedule re-rooted at the lowest survivor.
    let mut ring_cfg = DistributedConfig {
        workers: 4,
        sync: SyncStrategy::Ring,
        ..DistributedConfig::default()
    };
    ring_cfg.hf.max_iters = 3;
    let plan = FaultPlan::new(41)
        .kill(2, 5)
        .with_timeouts(Duration::from_millis(500), Duration::from_secs(30));
    let killed_ring =
        train_distributed_faulted(&net0, &corpus, &Objective::CrossEntropy, &ring_cfg, &plan)
            .map_err(|e| format!("killed ring training run failed: {e:?}"))?;
    if killed_ring.dead_ranks != vec![2] {
        return Err(format!(
            "ring fault injection did not take: dead ranks {:?}",
            killed_ring.dead_ranks
        ));
    }
    let mut streams: Vec<&[pdnn_mpisim::CommEvent]> = vec![&killed_ring.master_events];
    streams.extend(killed_ring.worker_events.iter().map(|e| e.as_slice()));
    runs.push(NamedRun {
        name: "ring-masterless-4rank-kill-rank2".to_string(),
        dead_ranks: killed_ring.dead_ranks.clone(),
        replay: decentral::replay_decentral_run(
            decentral::DMode::Ring,
            &streams,
            &killed_ring.dead_ranks,
        ),
    });
    Ok(runs)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let (spec, anchor_path, anchor_line) = match pdnn_protomc::load_spec(&cli.root) {
        Ok(loaded) => loaded,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };

    if cli.emit_diagram {
        print!("{}", pdnn_protomc::mermaid(&spec));
        if !(cli.run_check || cli.run_mutations || cli.run_conformance) {
            return ExitCode::SUCCESS;
        }
    }

    let mut failed = false;

    let check = if cli.run_check {
        let check = pdnn_protomc::run_check(&spec, &WORLDS, &anchor_path, anchor_line);
        for w in &check.worlds {
            println!(
                "protomc check: {}-rank world (budget {}): {} states / {} transitions full, \
                 {} / {} reduced ({:.1}% of transitions), {} terminals, {} kill placements, {}",
                w.ranks,
                w.budget,
                w.full.states,
                w.full.transitions,
                w.reduced.states,
                w.reduced.transitions,
                100.0 * w.reduced.transitions as f64 / w.full.transitions.max(1) as f64,
                w.full.terminals,
                w.full.kill_placements,
                if w.agrees {
                    "verdicts agree"
                } else {
                    "REDUCTION DISAGREES"
                }
            );
            if !w.agrees {
                failed = true;
            }
        }
        for f in &check.findings {
            println!("{}: {} at {}:{}", f.rule, f.message, f.path, f.line);
        }
        println!("protomc check: {} finding(s)", check.findings.len());
        if !check.findings.is_empty() {
            failed = true;
        }
        Some(check)
    } else {
        None
    };

    let decentral_worlds = if cli.run_check {
        let mut worlds = decentral::check_worlds();
        worlds.extend(decentral::check_recovery_worlds());
        worlds.push(decentral::check_step_recovery_world());
        for w in &worlds {
            println!(
                "protomc decentral: {} mode, {}-rank world ({}): {} states / {} transitions, \
                 {} terminals, {} violation(s)",
                w.label,
                w.ranks,
                if w.kill_placements == 0 {
                    "fault-free".to_string()
                } else {
                    format!("{} kill placements", w.kill_placements)
                },
                w.outcome.states,
                w.outcome.transitions,
                w.outcome.terminals,
                w.outcome.violations.len()
            );
            for v in &w.outcome.violations {
                println!("{}: {}", v.rule, v.detail);
                failed = true;
            }
        }
        Some(worlds)
    } else {
        None
    };

    let mutation_results = if cli.run_mutations {
        let mut results = mutate::run_mutations(&spec);
        results.extend(decentral::run_decentral_mutations());
        let caught = results.iter().filter(|r| r.caught).count();
        for r in results.iter().filter(|r| !r.caught) {
            println!(
                "MISSED {}: expected {} but only {:?} fired",
                r.name, r.expected_rule, r.fired_rules
            );
        }
        println!("protomc mutations: {caught}/{} caught", results.len());
        if caught != results.len() {
            failed = true;
        }
        Some(results)
    } else {
        None
    };

    let conformance_runs = if cli.run_conformance {
        match run_training_traces(&spec) {
            Ok(runs) => {
                for run in &runs {
                    println!(
                        "protomc conformance: {} — {} ({} events, {} unmapped)",
                        run.name,
                        if run.replay.accepted {
                            "accepted"
                        } else {
                            "REJECTED"
                        },
                        run.replay.p2p_events + run.replay.coll_events,
                        run.replay.unmapped
                    );
                    for r in run.replay.ranks.iter().filter(|r| !r.accepted) {
                        println!(
                            "  rank {}: {} ({} of {} events consumed)",
                            r.rank,
                            r.error.as_deref().unwrap_or("not accepted"),
                            r.consumed,
                            r.total
                        );
                    }
                    if !run.replay.accepted {
                        failed = true;
                    }
                }
                Some(runs)
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                failed = true;
                None
            }
        }
    } else {
        None
    };

    let rep = report::Report {
        check: check.as_ref(),
        decentral: decentral_worlds.as_deref(),
        mutation_results: mutation_results.as_deref(),
        conformance_runs: conformance_runs.as_deref(),
    };
    if let Err(err) = report::write(&cli.root, &rep) {
        eprintln!("error: cannot write results/protomc_report.json: {err}");
        return ExitCode::from(2);
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
