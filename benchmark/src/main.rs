//! `pdnn-benchmark` — time Hessian-free training to a held-out loss,
//! serial, master/worker and ring, with a per-layer ladder.
//!
//! ```text
//! pdnn-benchmark [--seed N] [--smoke] [--out FILE]
//!     Full run: 9 interleaved rounds of all four workloads over the
//!     seed's 7 problem instances, then one traced pass each; prints
//!     every metric, writes FILE (default
//!     benchmark/results/run_seed<N>.json) for `compare`.
//! pdnn-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     One workload for about S seconds (never fewer than 7 rounds);
//!     the last line of standard output is the result object
//!     BENCHMARK.json describes.
//! pdnn-benchmark compare A.json B.json
//!     Do two full runs agree within the bounds? Exit 0 if so.
//! ```
//!
//! Exit codes: 0 all checks passed, 1 a check failed, 2 usage error.

use pdnn_benchmark::child::{self, ChildArgs};
use pdnn_benchmark::harness::{measure, Options, WorkloadReport, FULL_ROUNDS, MIN_ROUNDS};
use pdnn_benchmark::json::Json;
use pdnn_benchmark::workload::{WorkloadSpec, WORKLOADS};
use pdnn_benchmark::{compare, report, results_dir};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  pdnn-benchmark [--seed N] [--smoke] [--out FILE]
  pdnn-benchmark --workload NAME --seed N --seconds S --trace 0|1
  pdnn-benchmark compare A.json B.json
workloads: serial_ce serial_seq master_ce ring_int8_wide";

/// Parsed command line (flags may come in any order).
#[derive(Default)]
struct Args {
    child: Option<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<u8>,
    smoke: bool,
    traced: bool,
    spawned_at_ns: Option<u128>,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |what: &str| format!("{flag}: not {what}");
        match flag.as_str() {
            "--child" => args.child = Some(value()?.to_string()),
            "--workload" => args.workload = Some(value()?.to_string()),
            "--seed" => args.seed = Some(value()?.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()? {
                    "0" => 0,
                    "1" => 1,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--spawned-at-ns" => {
                args.spawned_at_ns = Some(value()?.parse().map_err(|_| bad("an integer"))?)
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--traced" => args.traced = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// `--workload`: the acceptance driver's entry point. Rounds are
/// fitted into `seconds`; medians do not depend on how many fit.
fn contract_run(spec: WorkloadSpec, opts: Options, seconds: f64, traced: bool) -> ExitCode {
    let started = Instant::now();
    let reports = measure(&[spec], opts, traced, |done, longest| {
        done < MIN_ROUNDS || started.elapsed().as_secs_f64() + longest <= seconds
    });
    let report = &reports[0];
    println!(
        "measured {} rounds in {:.1} s",
        report.rounds.len(),
        started.elapsed().as_secs_f64()
    );
    println!("{}", report::contract_line(report, traced));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The one command: all four workloads, every metric.
fn full_run(opts: Options, out: Option<&Path>) -> ExitCode {
    let started = Instant::now();
    let rounds = if opts.smoke { 1 } else { FULL_ROUNDS };
    let specs = WORKLOADS.map(|w| opts.sized(&w));
    let reports = measure(&specs, opts, true, |done, _| done < rounds);
    let attempted: usize = reports.iter().map(WorkloadReport::attempted).sum();
    let failed: usize = reports.iter().map(WorkloadReport::failed).sum();
    let correct = reports.iter().all(WorkloadReport::correct);
    println!(
        "\nseed {}: failed {failed} of attempted {attempted}; checks {}; total {:.1} s",
        opts.seed,
        if correct { "passed" } else { "FAILED" },
        started.elapsed().as_secs_f64()
    );

    let result = Json::obj([
        ("seed", Json::Str(opts.seed.to_string())),
        ("smoke", Json::Bool(opts.smoke)),
        ("rounds", Json::Num(rounds as f64)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("correct", Json::Bool(correct)),
        (
            "workloads",
            Json::obj(reports.iter().map(|r| (r.spec.name, r.to_json()))),
        ),
    ]);
    let default_path = results_dir().join(format!("run_seed{}.json", opts.seed));
    let path = out.unwrap_or(&default_path);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, result.render() + "\n"));
    match written {
        Ok(()) => println!("[json] {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::run(Path::new(a), Path::new(b)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let usage_error = |e: String| {
        eprintln!("{e}\n{USAGE}");
        ExitCode::from(2)
    };
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => return usage_error(e),
    };
    let seed = args.seed.unwrap_or(2024);

    let opts = Options {
        seed,
        smoke: args.smoke,
    };
    let spec_named = |name: &str| {
        opts.spec(name)
            .ok_or_else(|| format!("unknown workload `{name}`"))
    };

    if let Some(name) = &args.child {
        let spec = match spec_named(name) {
            Ok(spec) => spec,
            Err(e) => return usage_error(e),
        };
        let result = child::run(&ChildArgs {
            spec,
            seed,
            spawned_at_ns: args.spawned_at_ns,
            traced: args.traced,
            quick_probes: args.smoke,
        });
        println!("{}", result.render());
        return ExitCode::SUCCESS;
    }

    match &args.workload {
        Some(name) => {
            let spec = match spec_named(name) {
                Ok(spec) => spec,
                Err(e) => return usage_error(e),
            };
            let (Some(seconds), Some(trace)) = (args.seconds, args.trace) else {
                return usage_error("--workload needs --seconds and --trace".into());
            };
            contract_run(spec, opts, seconds, trace == 1)
        }
        None => full_run(opts, args.out.as_deref()),
    }
}
