//! The DBAugur benchmark: six named workloads, eleven end-to-end
//! metrics, and an outside-in per-layer trace. See `README.md` beside
//! this file for the tables and how to run it.
//!
//! ```text
//! benchmark --workload <name|all> --seed <n> [--seconds <s>] [--trace [0|1]]
//!           [--smoke] [--repeat <K>]
//! ```
//!
//! Inputs come from `--seed` alone; the system is driven only through
//! public crate APIs; every metric is printed by name with its unit;
//! outputs are checked; the last line of standard output is one JSON
//! object `{correct, attempted, failed, metrics}`; the exit code is
//! non-zero when a check failed.

mod gen;
mod ingest;
mod json;
mod metrics;
mod plan;
mod probes;
mod recover;
mod repeat;
mod run;
mod serve;
mod setup;
mod spans;
mod stats;
mod train;

use metrics::{Value, WORKLOADS};
use run::Outcome;
use std::fmt::Write as _;
use std::process::ExitCode;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        repeat: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                // `--trace 0|1` for the driver, bare `--trace` by hand.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--repeat" => {
                args.repeat = Some(
                    value("a run count")?
                        .parse()
                        .map_err(|e| format!("--repeat: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let known = args.workload == "all" || WORKLOADS.iter().any(|w| w.name == args.workload);
    if !known {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {} or all",
            names.join(", ")
        ));
    }
    Ok(args)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// Values print with every digit they were measured with.
fn result_line(outcome: &Outcome) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    for (i, Value { name, value, unit }) in outcome.metrics.values().iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    line
}

fn run_workload(name: &str, args: &Args) -> Result<bool, String> {
    let scale = if args.smoke {
        plan::smoke
    } else {
        std::convert::identity
    };
    let plan = scale(plan::full(name).expect("workload name was checked"));
    let companion = scale(plan::companion());
    let outcome = run::run(&plan, &companion, args.seed, args.seconds, args.trace)?;
    println!(
        "workload {name} seed {} seconds {} trace {} scale {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { "smoke" } else { "full" }
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for v in outcome.metrics.values() {
        println!("  {:<30} {:>18.6} {}", v.name, v.value, v.unit);
    }
    let digests: Vec<String> = outcome
        .digests
        .iter()
        .map(|d| format!("{d:016x}"))
        .collect();
    println!("  served-value digests per shard: {}", digests.join(" "));
    for check in &outcome.failed_checks {
        println!("  FAILED CHECK {check}");
    }
    if let Some(spans) = &outcome.span_file {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("spans-{name}-{}.json", args.seed));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("  spans written to {}", path.display());
    }
    println!("{}", result_line(&outcome));
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&str> = if args.workload == "all" {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        vec![args.workload.as_str()]
    };
    let ok = match args.repeat {
        Some(k) => repeat::repeat(&selected, k, args.seed, args.seconds, args.smoke),
        None => selected
            .iter()
            .try_fold(true, |ok, name| Ok(run_workload(name, &args)? && ok)),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::metrics::{END_TO_END, PER_LAYER};

    fn smoke_outcome(name: &str, trace: bool) -> Outcome {
        let plan = plan::smoke(plan::full(name).expect("declared workload"));
        run::run(&plan, &plan::smoke(plan::companion()), 7, 10.0, trace)
            .unwrap_or_else(|e| panic!("{name} trace={trace}: {e}"))
    }

    fn metric_names(line: &str) -> Vec<String> {
        let v = json::parse(line).expect("the result line is valid JSON");
        let obj = v.as_object().expect("an object");
        let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert!(
            v.get("attempted")
                .and_then(Json::as_f64)
                .expect("attempted")
                >= 1.0
        );
        v.get("metrics")
            .and_then(Json::as_object)
            .expect("metrics")
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{name} has a value"
                );
                assert!(
                    m.get("unit").and_then(Json::as_str).is_some(),
                    "{name} has a unit"
                );
                name.clone()
            })
            .collect()
    }

    /// One workload, untraced and traced, at smoke scale: both runs are
    /// correct, each emits exactly the metrics `BENCHMARK.json` declares
    /// for its kind under well-formed names, the span file parses, and
    /// one seed served the same answers in the same order whether or
    /// not spans were being recorded.
    fn check_workload(workload: &str) {
        let declared = json::parse(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let names_of = |key: &str| -> Vec<String> {
            let mut v: Vec<String> = declared
                .get(key)
                .and_then(Json::as_array)
                .expect("a list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("a name")
                        .to_string()
                })
                .collect();
            v.sort();
            v
        };
        assert!(
            names_of("workloads").iter().any(|w| w == workload),
            "{workload} is declared"
        );
        let mut digests = Vec::new();
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = smoke_outcome(workload, trace);
            assert!(
                outcome.correct(),
                "{workload} trace={trace}: {:?}",
                outcome.failed_checks
            );
            assert_eq!(outcome.failed, 0, "{workload}: no operation may fail");
            let mut emitted = metric_names(&result_line(&outcome));
            emitted.sort();
            assert_eq!(emitted, names_of(key), "{workload} trace={trace}");
            for name in &emitted {
                let ok = name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
                assert!(
                    ok && !name.is_empty() && name.len() <= 64,
                    "bad metric name {name}"
                );
            }
            if let Some(spans) = &outcome.span_file {
                let spans = json::parse(spans).expect("the span file is valid JSON");
                assert!(spans
                    .get("totals")
                    .and_then(|t| t.get("shard.run_tick"))
                    .is_some());
            }
            assert!(outcome.digests.iter().all(|&d| d != 0));
            digests.push(outcome.digests);
        }
        assert_eq!(
            digests[0], digests[1],
            "{workload}: traced and untraced digests differ"
        );
    }

    // One test per workload, so they run side by side.
    #[test]
    fn stream_hot_disk_emits_every_declared_metric() {
        check_workload("stream_hot_disk");
    }

    #[test]
    fn stream_hot_mem_emits_every_declared_metric() {
        check_workload("stream_hot_mem");
    }

    #[test]
    fn stream_churn_mem_emits_every_declared_metric() {
        check_workload("stream_churn_mem");
    }

    #[test]
    fn forecast_serve_emits_every_declared_metric() {
        check_workload("forecast_serve");
    }

    #[test]
    fn serve_mixed_emits_every_declared_metric() {
        check_workload("serve_mixed");
    }

    #[test]
    fn train_recover_emits_every_declared_metric() {
        check_workload("train_recover");
    }

    /// `BENCHMARK.json` and the tables in `metrics.rs` say the same thing.
    #[test]
    fn benchmark_json_matches_the_declared_tables() {
        let text = include_str!("../../../../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let declared = json::parse(text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = declared
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
        let list = |key: &str| {
            declared
                .get(key)
                .and_then(Json::as_array)
                .expect("a list")
                .clone()
        };
        let str_of = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(str_of(j, "name"), w.name);
            assert_eq!(str_of(j, "why"), w.why);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
        }
        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (j, m) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (j, m) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), m.better.as_str());
            assert!(j.get("bound").is_none(), "per-layer metrics have no bound");
        }
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        let unique: std::collections::HashSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "a name is used once");
    }

    #[test]
    fn arguments_parse_the_driver_form_and_the_bare_form() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload stream_hot_mem --seed 9 --seconds 12 --trace 0",
        ))
        .expect("driver form");
        assert_eq!((a.seed, a.seconds, a.trace), (9, 12.0, false));
        let a = parse_args(&argv("--workload all --trace --smoke")).expect("bare form");
        assert!(a.trace && a.smoke);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload all --seconds 0")).is_err());
    }
}
