//! `lexbench` — command-line front of the benchmark.
//!
//! ```text
//! lexbench --workload W --seed N --seconds S --trace 0|1     one run, one JSON result line (the driver's form)
//! lexbench [--seed N] [--seconds S] [--repeat K]             every workload end to end, then traced; K sets -> noise report
//! lexbench --smoke                                           2K names, 1 s of phases, all four workloads and their traces
//! lexbench --print-benchmark-json                            BENCHMARK.json as the spec tables render it
//! ```
//!
//! `crates/lexbench/run.sh` builds `lexequald` and this binary in release
//! mode and forwards its arguments here.

use lexequal_lexbench::daemon::{check_fresh, locate};
use lexequal_lexbench::e2e::{self, E2eConfig};
use lexequal_lexbench::report::{provenance, result_json, Outcome};
use lexequal_lexbench::spec::{
    benchmark_json, workload, Better, Workload, DAEMON_FLAGS, END_TO_END, PER_LAYER, PHASE_SHARES,
    REPORTED, ROUNDS, RUN_SECONDS, WORKLOADS,
};
use lexequal_lexbench::stats::{iqr_over_median, median_f64};
use lexequal_lexbench::trace::{self, TraceConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: lexbench [--workload scan_hot|qgram_hot|phonidx_cold|write_mix] \
[--seed N] [--seconds S] [--trace 0|1] [--repeat K] [--smoke] [--daemon PATH] \
[--results-dir DIR] [--print-benchmark-json]";

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
    smoke: bool,
    daemon: Option<String>,
    results_dir: PathBuf,
    print_json: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        repeat: 1,
        smoke: false,
        daemon: None,
        results_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("results"),
        print_json: false,
    };
    let mut it = argv;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        let bad = |name: &str, v: &str| format!("{name}: invalid value {v:?}");
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                args.workload = Some(workload(&v).ok_or_else(|| bad("--workload", &v))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| bad("--seed", &v))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| bad("--seconds", &v))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("--seconds", &v));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                let v = value("--trace")?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("--trace", &v)),
                };
            }
            "--repeat" => {
                let v = value("--repeat")?;
                args.repeat = v.parse().map_err(|_| bad("--repeat", &v))?;
                if args.repeat == 0 {
                    return Err(bad("--repeat", &v));
                }
            }
            "--smoke" => args.smoke = true,
            "--daemon" => args.daemon = Some(value("--daemon")?),
            "--results-dir" => args.results_dir = PathBuf::from(value("--results-dir")?),
            "--print-benchmark-json" => args.print_json = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Unit of a metric that goes on the result line (bounded end-to-end
/// metrics and per-layer metrics).
fn result_unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|m| m.0 == name)
        .map(|m| m.1)
}

fn unit_of(name: &str) -> &'static str {
    result_unit(name)
        .or_else(|| REPORTED.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or("")
}

fn arrow(better: Better) -> &'static str {
    match better {
        Better::Lower => "lower is better",
        Better::Higher => "higher is better",
    }
}

/// Print every metric of `outcome` by name with its unit, then the
/// report lines and any failures.
fn print_outcome(w: &Workload, traced: bool, outcome: &Outcome) {
    for (name, value) in &outcome.metrics {
        let note = match END_TO_END.iter().chain(&REPORTED).find(|m| m.name == *name) {
            Some(m) => match m.bound {
                Some(b) => format!("{}, may worsen by {b}: {}", arrow(m.better), m.what),
                None => format!("{}, no bound: {}", arrow(m.better), m.what),
            },
            None => PER_LAYER
                .iter()
                .find(|m| m.name == *name)
                .map_or(String::new(), |m| {
                    format!("{}; {}; should move {}", arrow(m.better), m.how, m.moves)
                }),
        };
        println!(
            "  {:<9} {name:<42} {value:>16.4} {:<6} ({note})",
            w.name,
            unit_of(name)
        );
    }
    for line in &outcome.report {
        println!("  {} {line}", if traced { "[trace]" } else { "[e2e]" });
    }
    for f in &outcome.failures {
        println!("  FAILED: {f}");
    }
}

fn header(w: &Workload, args: &Args, seconds: f64, daemon: &Path) {
    println!(
        "lexbench: workload {} seed {} seconds {seconds} {}{}",
        w.name,
        args.seed,
        if args.trace {
            "(traced replay, in-process)"
        } else {
            "(end to end, tracing off)"
        },
        if args.smoke { " SMOKE" } else { "" }
    );
    for line in provenance() {
        println!("  {line}");
    }
    println!("  daemon: {} {}", daemon.display(), DAEMON_FLAGS.join(" "));
    println!(
        "  phases: warm-up, then {ROUNDS} rounds of {}",
        PHASE_SHARES
            .iter()
            .map(|(n, s)| format!("{n} {:.2} s", s * seconds / ROUNDS as f64))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "  frozen: open_lo {} req/s, open_hi {} req/s, latency limit {} us; why: {}",
        w.rate_lo, w.rate_hi, w.limit_us, w.why
    );
}

fn run_one(
    w: &'static Workload,
    traced: bool,
    args: &Args,
    seconds: f64,
    daemon: &Path,
) -> Outcome {
    let result = if traced {
        trace::run(&TraceConfig {
            workload: w,
            seed: args.seed,
            smoke: args.smoke,
            daemon: daemon.to_owned(),
            results_dir: args.results_dir.clone(),
        })
    } else {
        e2e::run(&E2eConfig {
            workload: w,
            seed: args.seed,
            seconds,
            smoke: args.smoke,
            daemon: daemon.to_owned(),
        })
    };
    result.unwrap_or_else(|e| {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.fail(format!("run aborted: {e}"));
        o
    })
}

/// Per (workload, end-to-end metric): the values of each set, their
/// spread (quartile distance over median as the driver takes it, or the
/// range over the median below four sets) and whether the benchmark's
/// own bound resolves it.
fn noise_report(sets: &[Vec<(&'static Workload, Outcome)>]) {
    println!(
        "noise report over {} sets (same code, same seed):",
        sets.len()
    );
    for (wi, (w, _)) in sets[0].iter().enumerate() {
        for m in END_TO_END.iter().chain(&REPORTED) {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|set| set[wi].1.get(m.name))
                .collect();
            if values.is_empty() {
                continue; // a write_mix-only metric on a read workload
            }
            // Quartiles need a handful of values; two sets get their range.
            let spread = if values.len() >= 4 {
                iqr_over_median(&values)
            } else {
                median_f64(&values).map(|m| {
                    let (lo, hi) = values
                        .iter()
                        .fold((f64::MAX, f64::MIN), |a, &v| (a.0.min(v), a.1.max(v)));
                    (hi - lo) / m
                })
            }
            .unwrap_or(f64::NAN);
            let verdict = match m.bound {
                Some(b) if spread <= b => format!("bound {b} ok"),
                Some(b) => format!("bound {b} unresolved"),
                None if spread <= 0.25 => "no bound (would resolve at 0.25)".to_owned(),
                None => "no bound".to_owned(),
            };
            println!(
                "  {:<12} {:<22} {:<6} {} spread {:.4} {verdict}",
                w.name,
                m.name,
                m.unit,
                values
                    .iter()
                    .map(|v| format!("{v:>12.4}"))
                    .collect::<Vec<_>>()
                    .join(" "),
                spread,
            );
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lexbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_json {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    // Guard rails: timings from a debug build, or against a daemon older
    // than its sources, would be attributed to the wrong code.
    if cfg!(debug_assertions) && !args.smoke {
        eprintln!("lexbench: this is a debug build; timings need --release (or pass --smoke)");
        return ExitCode::from(2);
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let daemon = match locate(args.daemon.as_deref())
        .and_then(|d| check_fresh(&d, &root, args.smoke).map(|()| d))
    {
        Ok(d) => d,
        Err(e) => {
            eprintln!("lexbench: {e}");
            return ExitCode::from(2);
        }
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 1.0 } else { RUN_SECONDS as f64 });

    if let Some(w) = args.workload {
        header(w, &args, seconds, &daemon);
        let outcome = run_one(w, args.trace, &args, seconds, &daemon);
        print_outcome(w, args.trace, &outcome);
        println!("{}", result_json(&outcome, result_unit));
        return if outcome.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // The whole set: every workload end to end, then traced.
    let mut ok = true;
    let mut sets = Vec::new();
    for set in 0..args.repeat {
        let mut outcomes = Vec::new();
        for w in &WORKLOADS {
            header(w, &args, seconds, &daemon);
            let outcome = run_one(w, false, &args, seconds, &daemon);
            print_outcome(w, false, &outcome);
            ok &= outcome.correct();
            outcomes.push((w, outcome));
        }
        if set == 0 {
            for w in &WORKLOADS {
                let outcome = run_one(w, true, &args, seconds, &daemon);
                print_outcome(w, true, &outcome);
                ok &= outcome.correct();
            }
        }
        sets.push(outcomes);
    }
    if sets.len() > 1 {
        noise_report(&sets);
    }
    let (failed, attempted) = sets
        .iter()
        .flatten()
        .fold((0, 0), |a, (_, o)| (a.0 + o.failed, a.1 + o.attempted));
    println!(
        "lexbench: fail_ratio {:.6} ({failed} failed of {attempted} attempted end to end): {}",
        failed as f64 / attempted.max(1) as f64,
        if ok { "ok" } else { "FAILED" }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
