//! `fusebench` — the one repeatable benchmark for fusiond.
//!
//! ```text
//! fusebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload, one pass, in this process; prints every metric as
//!     `workload metric unit value` and, last, the result line.
//! fusebench all [--seed <n>] [--seconds <s>]
//!     every workload in its own process, untraced then traced; prints
//!     every metric and writes out/fusebench.json.
//! fusebench repeat [--runs <n>] [--seed <n>] [--seconds <s>] [--workload <name>]
//!     A/A check: two interleaved sets of runs of this build, run k of
//!     both sets on seed + k.
//! fusebench manifest
//!     prints `BENCHMARK.json` from the metric and workload registries.
//! ```
//!
//! See `README.md` beside `Cargo.toml` for the metric glossary.

mod json;
mod machine;
mod metrics;
mod replay;
mod run;
mod spans;
mod stats;
mod workloads;

use metrics::{Better, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::Kind;

const DEFAULT_SEED: u64 = 20_000_821;
/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const DEFAULT_SECONDS: u32 = 12;

struct Args {
    mode: Mode,
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    runs: usize,
}

enum Mode {
    Single,
    All,
    Repeat,
    Manifest,
}

fn usage(problem: &str) -> ! {
    eprintln!("fusebench: {problem}");
    eprintln!(
        "usage: fusebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n\
         \x20      fusebench all [--seed <n>] [--seconds <s>] [--smoke]\n\
         \x20      fusebench repeat [--runs <n>] [--seed <n>] [--seconds <s>] [--workload <name>]\n\
         \x20      fusebench manifest\n\
         workloads: {}",
        Kind::ALL.map(Kind::name).join(" ")
    );
    std::process::exit(2);
}

/// Everything the benchmark writes (report, traces, work files) goes beside
/// its manifest: it writes nowhere outside its own directory.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn parse_args() -> Args {
    let mut args = Args {
        mode: Mode::Single,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(DEFAULT_SECONDS),
        traced: false,
        smoke: false,
        runs: 5,
    };
    let mut words = std::env::args().skip(1).peekable();
    match words.peek().map(String::as_str) {
        Some("all") => {
            args.mode = Mode::All;
            words.next();
        }
        Some("repeat") => {
            args.mode = Mode::Repeat;
            words.next();
        }
        Some("manifest") => {
            args.mode = Mode::Manifest;
            words.next();
        }
        _ => {}
    }
    while let Some(flag) = words.next() {
        let mut value = |what: &str| {
            words
                .next()
                .unwrap_or_else(|| usage(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name");
                args.workload = Some(
                    Kind::from_name(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name}"))),
                );
            }
            "--seed" => {
                args.seed = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs a whole number"));
            }
            "--seconds" => {
                args.seconds = value("a number")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds needs a positive number"));
            }
            "--trace" => {
                args.traced = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace needs 0 or 1"),
                };
            }
            "--runs" => {
                args.runs = value("a number")
                    .parse()
                    .ok()
                    .filter(|n| *n >= 2)
                    .unwrap_or_else(|| usage("--runs needs a number of at least 2"));
            }
            "--smoke" => args.smoke = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    args
}

/// What one child process reported.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, unit, value)` in print order.
    metrics: Vec<(String, String, f64)>,
    findings: Vec<String>,
}

/// Runs one workload pass in its own process (so peak memory is per
/// workload) and reads back its result line.
fn spawn_run(args: &Args, kind: Kind, seed: u64, traced: bool, echo: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("own executable path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command.output().expect("child run starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().unwrap_or("");
    if echo {
        for line in &lines {
            println!("{line}");
        }
    }
    let doc = json::parse(result).unwrap_or_else(|e| {
        panic!(
            "{} (trace {}) printed no result line ({e}); exit {:?}",
            kind.name(),
            traced as u8,
            output.status.code()
        )
    });
    let number = |key: &str| doc.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
    let listed = doc
        .get("metrics")
        .and_then(|m| m.as_object())
        .expect("metrics object");
    // The result line's object is keyed by name; restore registry order.
    let order: Vec<&str> = if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let metrics = order
        .into_iter()
        .filter_map(|name| {
            let entry = listed.get(name)?;
            Some((
                name.to_string(),
                entry.get("unit")?.as_str()?.to_string(),
                entry.get("value")?.as_f64()?,
            ))
        })
        .collect();
    ChildRun {
        correct: doc.get("correct").and_then(|c| c.as_bool()) == Some(true)
            && output.status.success(),
        attempted: number("attempted") as u64,
        failed: number("failed") as u64,
        metrics,
        findings: lines
            .iter()
            .filter_map(|l| l.strip_prefix("# FINDING "))
            .map(str::to_string)
            .collect(),
    }
}

/// `--workload`'s one workload, or all six.
fn selected(args: &Args) -> Vec<Kind> {
    match args.workload {
        Some(kind) => vec![kind],
        None => Kind::ALL.to_vec(),
    }
}

/// Every workload, untraced then traced, merged into `out/fusebench.json`.
fn run_all(args: &Args) -> ExitCode {
    let mut correct = true;
    let mut entries = Vec::new();
    for kind in selected(args) {
        let plain = spawn_run(args, kind, args.seed, false, true);
        let traced = spawn_run(args, kind, args.seed, true, true);
        correct &= plain.correct && traced.correct;
        let findings: Vec<String> = traced.findings.iter().map(|f| json::quote(f)).collect();
        entries.push(format!(
            "{}:{{\"correct\":{},\"attempted\":{},\"failed\":{},\"end_to_end\":{},\"per_layer\":{},\"findings\":[{}],\"trace\":{}}}",
            json::quote(kind.name()),
            plain.correct && traced.correct,
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            metrics::object(&plain.metrics),
            metrics::object(&traced.metrics),
            findings.join(","),
            json::quote(&format!("trace_{}.json", kind.name())),
        ));
    }
    let doc = format!(
        "{{\"claim\":null,\"seed\":{},\"seconds\":{},\"smoke\":{},\"correct\":{correct},\"workloads\":{{{}}}}}\n",
        args.seed,
        json::number(args.seconds),
        args.smoke,
        entries.join(",")
    );
    let out = out_dir();
    std::fs::create_dir_all(&out).expect("output directory");
    let path = out.join("fusebench.json");
    std::fs::write(&path, doc).expect("report written");
    println!("# wrote {}", path.display());
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "fusebench: a failed job, an output mismatch or an exact-counter violation occurred"
        );
        ExitCode::FAILURE
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// A/A check: two interleaved sets of runs of the same build must agree
/// within the benchmark's own bounds on every end-to-end metric, no job may
/// fail, and every exact counter must be identical across runs of one seed.
/// Run `k` of both sets has seed + `k`, so the spread is taken over
/// different inputs, the way the benchmark contract takes it.
fn run_repeat(args: &Args) -> ExitCode {
    let mut ok = true;
    for kind in selected(args) {
        // values[(metric)][set] = one value per run
        let mut values: BTreeMap<String, [Vec<f64>; 2]> = BTreeMap::new();
        let mut exact: BTreeMap<(String, u64), Vec<f64>> = BTreeMap::new();
        for run in 0..args.runs {
            let seed = args.seed + run as u64;
            // A B, then B A: neither set always runs on the warmer machine.
            let order = if run % 2 == 0 { [0, 1] } else { [1, 0] };
            for set in order {
                for traced in [false, true] {
                    let child = spawn_run(args, kind, seed, traced, false);
                    if !child.correct || child.failed > 0 {
                        println!(
                            "{} seed {seed}: run was not correct ({} of {} jobs failed)",
                            kind.name(),
                            child.failed,
                            child.attempted
                        );
                        ok = false;
                    }
                    for (name, _, value) in child.metrics {
                        if PER_LAYER.iter().any(|m| m.exact && m.name == name) {
                            exact.entry((name.clone(), seed)).or_default().push(value);
                        }
                        values.entry(name).or_default()[set].push(value);
                    }
                }
            }
            eprintln!("# {} run {}/{} done", kind.name(), run + 1, args.runs);
        }
        println!(
            "{:<16} {:<34} {:>5} | {:>12} {:>12} {:>12} {:>6} | {:>12} {:>12} {:>12} {:>6} | {:>7}",
            "workload",
            "metric",
            "unit",
            "A q1",
            "A median",
            "A q3",
            "A iqr%",
            "B q1",
            "B median",
            "B q3",
            "B iqr%",
            "B vs A%"
        );
        let order = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better, Some(m.bound)))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better, None)));
        for (name, unit, better, bound) in order {
            let Some([a, b]) = values.get(name) else {
                continue;
            };
            let (Some(qa), Some(qb)) = (stats::quartiles(a), stats::quartiles(b)) else {
                continue;
            };
            let spread = |v: &[f64]| stats::iqr_share(v).unwrap_or(0.0) * 100.0;
            // How far the worse median is from the better one.
            let drift = if qa[1] == 0.0 || qb[1] == 0.0 {
                0.0
            } else {
                worsening(qa[1], qb[1], better).max(worsening(qb[1], qa[1], better))
            };
            let mut verdict = String::new();
            if let Some(bound) = bound {
                if drift > bound {
                    verdict = format!("  MEDIANS DIFFER BY MORE THAN {:.0} %", bound * 100.0);
                    ok = false;
                } else if name != "setup_s" && spread(a).max(spread(b)) > bound * 100.0 {
                    verdict = format!("  SPREAD ABOVE {:.0} %", bound * 100.0);
                    ok = false;
                }
            }
            println!(
                "{:<16} {:<34} {:>5} | {:>12.4} {:>12.4} {:>12.4} {:>6.2} | {:>12.4} {:>12.4} {:>12.4} {:>6.2} | {:>7.2}{verdict}",
                kind.name(), name, unit, qa[0], qa[1], qa[2], spread(a), qb[0], qb[1], qb[2],
                spread(b), drift * 100.0
            );
        }
        for ((name, seed), seen) in &exact {
            if seen.iter().any(|v| v != &seen[0]) {
                println!(
                    "{} {name}: exact counter differs between runs of seed {seed}: {seen:?}",
                    kind.name()
                );
                ok = false;
            }
        }
    }
    if ok {
        println!("A/A check passed");
        ExitCode::SUCCESS
    } else {
        println!("A/A check FAILED");
        ExitCode::FAILURE
    }
}

/// `BENCHMARK.json`, generated so it cannot drift from what is printed.
fn manifest() -> String {
    let workloads: Vec<String> = Kind::ALL
        .iter()
        .map(|k| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::quote(k.name()),
                json::quote(k.why())
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better.label()),
                json::number(m.bound)
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better.label())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"fusebench/run.sh\"],\n  \"paths\": [\"fusebench\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        DEFAULT_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

fn main() -> ExitCode {
    let args = parse_args();
    match args.mode {
        Mode::Manifest => {
            print!("{}", manifest());
            ExitCode::SUCCESS
        }
        Mode::All => run_all(&args),
        Mode::Repeat => run_repeat(&args),
        Mode::Single => {
            let Some(kind) = args.workload else {
                usage("--workload is required");
            };
            let outcome = run::run(&run::Options {
                kind,
                seed: args.seed,
                seconds: args.seconds,
                traced: args.traced,
                smoke: args.smoke,
                out: out_dir(),
            });
            println!(
                "{}",
                metrics::result_line(
                    outcome.correct,
                    outcome.attempted,
                    outcome.failed,
                    &outcome.metrics
                )
            );
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is the contract later changes are judged by; the
    /// registries are what the program prints.  Regenerate the file with
    /// `fusebench manifest > BENCHMARK.json` when this fails.
    #[test]
    fn committed_benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(committed, manifest());
        let doc = json::parse(&committed).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("an object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(committed.len() <= 64 * 1024);
        for workload in doc.get("workloads").and_then(|w| w.as_array()).unwrap() {
            let why = workload.get("why").and_then(|w| w.as_str()).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }

    /// The whole harness at a twentieth of the size: every workload, both
    /// passes, correctness gates and exact counters included.  Sequential,
    /// because the workloads time themselves on a 2-core box.
    #[test]
    fn smoke_runs_every_workload_through_both_passes() {
        let out = out_dir().join("smoke");
        for kind in Kind::ALL {
            for traced in [false, true] {
                let outcome = run::run(&run::Options {
                    kind,
                    seed: 7,
                    seconds: 0.2,
                    traced,
                    smoke: true,
                    out: out.clone(),
                });
                let label = format!("{} trace {}", kind.name(), traced as u8);
                assert!(outcome.correct, "{label}: not correct");
                assert_eq!(outcome.failed, 0, "{label}: failures");
                assert!(outcome.attempted >= 1, "{label}");
                let expected = if traced {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(outcome.metrics.len(), expected, "{label}");
                for (name, _, value) in &outcome.metrics {
                    assert!(value.is_finite(), "{label}: {name} = {value}");
                    if !traced {
                        assert!(*value > 0.0, "{label}: {name} = {value} must never be 0");
                    }
                }
                if traced {
                    assert!(out.join(format!("trace_{}.json", kind.name())).exists());
                }
            }
        }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert!(worsening(100.0, 90.0, Better::Lower) < 0.0);
    }
}
