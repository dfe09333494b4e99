//! `compare`: two sets of result records (parent and change, runs
//! alternated between them) judged under the bounds of `BENCHMARK.json`.
//!
//! One row per (end-to-end metric, workload) present on both sides, with
//! each side's median and quartiles and a verdict:
//!
//! * `worse` — the change's median is worse than the parent's by more
//!   than the metric's bound;
//! * `unresolved` — either side's spread (quartile distance over median)
//!   is wider than the bound, unless every change run reads better than
//!   every parent run;
//! * `better` — the change's median is better by more than the parent's
//!   own spread and the change wins at least 9 of every 10 run pairs;
//! * `no worse` — otherwise.
//!
//! `--claim <metric>@<workload>` names the one metric a change claims to
//! improve; the claim holds only if that row is `better`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::Json;
use crate::util::quartiles;

/// Values of one metric on one workload, in file order.
type Series = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Series, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut series = Series::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let record = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if record.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let Some(workload) = record.get("workload").and_then(Json::as_str) else { continue };
        let Some(Json::Obj(metrics)) = record.get("metrics") else { continue };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                series.entry((name.clone(), workload.to_string())).or_default().push(v);
            }
        }
    }
    Ok(series)
}

/// (better is lower, bound) per end-to-end metric.
fn bounds(path: &str) -> Result<BTreeMap<String, (bool, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let bench = Json::parse(&text)?;
    let list = bench.get("end_to_end").ok_or("no end_to_end list")?;
    Ok(list
        .as_array()
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            let lower = m.get("better")?.as_str()? == "lower";
            Some((name, (lower, m.get("bound")?.as_f64()?)))
        })
        .collect())
}

/// The verdict on one row, and how many run pairs the change won.
fn verdict(
    parent: &[f64],
    change: &[f64],
    lower: bool,
    bound: f64,
) -> (&'static str, usize, usize) {
    let (p1, pm, p3) = quartiles(parent);
    let (c1, cm, c3) = quartiles(change);
    let better = |a: f64, b: f64| if lower { a < b } else { a > b };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let spread =
        |q1: f64, m: f64, q3: f64| if m != 0.0 { (q3 - q1).abs() / m.abs() } else { f64::INFINITY };
    let parent_spread = spread(p1, pm, p3);
    let worse_by =
        if pm != 0.0 { (cm - pm) / pm.abs() * if lower { 1.0 } else { -1.0 } } else { 0.0 };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let v = if parent_spread > bound || spread(c1, cm, c3) > bound {
        if all_better {
            "better"
        } else {
            "unresolved"
        }
    } else if worse_by > bound {
        "worse"
    } else if -worse_by > parent_spread && wins * 10 >= pairs * 9 && pairs > 0 {
        "better"
    } else {
        "no worse"
    };
    (v, wins, pairs)
}

pub fn main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut claim = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--claim" => claim = it.next().cloned(),
            _ => files.push(a.clone()),
        }
    }
    let [parent, change] = files.as_slice() else {
        eprintln!(
            "usage: cupid-ledger compare <parent.jsonl> <change.jsonl> [--claim <metric>@<workload>]"
        );
        return ExitCode::from(2);
    };
    let (parent, change, bounds) = match (load(parent), load(change), bounds("BENCHMARK.json")) {
        (Ok(p), Ok(c), Ok(b)) => (p, c, b),
        (p, c, b) => {
            for e in [p.err(), c.err(), b.err()].into_iter().flatten() {
                eprintln!("ledger compare: {e}");
            }
            return ExitCode::from(2);
        }
    };
    let claim = claim.and_then(|c| c.split_once('@').map(|(m, w)| (m.to_string(), w.to_string())));
    println!(
        "{:<18} {:<12} {:>34} {:>34} {:>8} {:>6}  verdict",
        "metric",
        "workload",
        "parent median [q1, q3] (n)",
        "change median [q1, q3] (n)",
        "delta",
        "wins"
    );
    let mut worse = false;
    let mut claim_met = claim.is_none();
    for ((metric, workload), p) in &parent {
        let (Some(c), Some(&(lower, bound))) =
            (change.get(&(metric.clone(), workload.clone())), bounds.get(metric))
        else {
            continue;
        };
        let (p1, pm, p3) = quartiles(p);
        let (c1, cm, c3) = quartiles(c);
        let (v, wins, pairs) = verdict(p, c, lower, bound);
        worse |= v == "worse";
        let claimed = claim.as_ref() == Some(&(metric.clone(), workload.clone()));
        if claimed {
            claim_met = v == "better";
        }
        println!(
            "{:<18} {:<12} {:>34} {:>34} {:>+7.2}% {:>6}  {}{}",
            metric,
            workload,
            format!("{pm:.4} [{p1:.4}, {p3:.4}] ({})", p.len()),
            format!("{cm:.4} [{c1:.4}, {c3:.4}] ({})", c.len()),
            if pm != 0.0 { (cm - pm) / pm.abs() * 100.0 } else { 0.0 },
            format!("{wins}/{pairs}"),
            v,
            if claimed { "  (claimed)" } else { "" }
        );
    }
    if let Some((m, w)) = &claim {
        println!("claim {m}@{w}: {}", if claim_met { "met" } else { "not met" });
    }
    if worse || !claim_met {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
