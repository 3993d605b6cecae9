//! `--repeat K`: run each selected workload K times in fresh processes,
//! each with another seed, twice over, and hold every end-to-end metric
//! to its bound the way the acceptance check does: the interquartile
//! spread of each set as a share of its median, and how much worse the
//! second set's median is than the first's.

use crate::json::{self, Json};
use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, relative_spread};
use std::collections::BTreeMap;
use std::process::Command;

/// One child run's end-to-end values by metric name.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--trace",
        "0",
    ]);
    cmd.args(["--seconds", &seconds.to_string()]);
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn child run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let result = json::parse(line)?;
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed} reported an incorrect run"));
    }
    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("no metrics object")?;
    metrics
        .iter()
        .map(|(name, m)| {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without a value")?;
            Ok((name.clone(), v))
        })
        .collect()
}

/// Returns whether every metric of every workload held its bound.
pub fn repeat(
    workloads: &[&str],
    k: usize,
    base_seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<bool, String> {
    if k < 2 {
        return Err("--repeat needs at least 2 runs per set".into());
    }
    let mut all_hold = true;
    for workload in workloads {
        // sets[set][metric] = the K values
        let mut sets: Vec<BTreeMap<String, Vec<f64>>> = vec![BTreeMap::new(), BTreeMap::new()];
        for set in &mut sets {
            for run in 0..k {
                for (name, v) in child_run(workload, base_seed + run as u64, seconds, smoke)? {
                    set.entry(name).or_default().push(v);
                }
            }
        }
        println!(
            "{workload}: 2 sets of {k} runs, seeds {base_seed}..{}",
            base_seed + k as u64 - 1
        );
        println!(
            "  {:<22} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
            "metric", "median A", "median B", "spread A", "spread B", "B worse", "bound"
        );
        for m in &END_TO_END {
            let (a, b) = (&sets[0][m.name], &sets[1][m.name]);
            let (ma, mb) = (median(a), median(b));
            let (sa, sb) = (relative_spread(a), relative_spread(b));
            let worse = match m.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            // The acceptance check holds setup_s to its median only.
            let spread_ok = m.name == "setup_s" || (sa <= m.bound && sb <= m.bound);
            let holds = spread_ok && worse <= m.bound;
            let verdict = if !holds {
                "EXCEEDS"
            } else if m.name != "setup_s" && sa.max(sb) > m.bound / 3.0 {
                "holds (spread above a third of the bound)"
            } else {
                "holds"
            };
            all_hold &= holds;
            println!(
                "  {:<22} {ma:>14.4} {mb:>14.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {verdict}",
                m.name,
                sa * 100.0,
                sb * 100.0,
                worse * 100.0,
                m.bound * 100.0
            );
        }
    }
    Ok(all_hold)
}
