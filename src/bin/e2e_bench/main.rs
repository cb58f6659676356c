//! End-to-end benchmark of the sample warehouse.
//!
//! ```text
//! e2e_bench [run] --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//!                 [--trace-dir <dir>] [--store-dir <dir>]
//! e2e_bench spread --workload <name> --runs <N> --seed <S> [--seconds <s>] [--trace 0|1]
//! ```
//!
//! `run` prints every metric with its unit and, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics of `BENCHMARK.json`, or with `--trace 1` its per-layer metrics
//! (plus `spans.json`, `layers.json` and `profile.json` in the trace
//! directory). `spread` runs `run` as a child process once per seed and
//! reports each metric's median and spread against its bound. See
//! README.md beside this file.

mod pool;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workload::{find_mix, Outcome, MIXES, REFERENCE_SECONDS};

/// The benchmark definition this binary must agree with.
const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// A traced run fails when the layer spans leave more than this share of
/// the measured wall clock unaccounted for.
const MAX_UNATTRIBUTED: f64 = 0.10;

const USAGE: &str = "usage:
  e2e_bench [run] --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--trace-dir <dir>] [--store-dir <dir>]
  e2e_bench spread --workload <name> --runs <N> --seed <S> [--seconds <s>] [--trace 0|1]";

/// Workload names and metric bounds read from `BENCHMARK.json`.
#[derive(Debug)]
struct Spec {
    workloads: Vec<String>,
    /// `(name, bound)` of every end-to-end metric.
    end_to_end: Vec<(String, f64)>,
    per_layer: Vec<String>,
}

fn spec() -> Result<Spec, String> {
    let doc = swh_obs::json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .map(|v| v.items())
            .unwrap_or_default()
            .iter()
            .filter_map(|m| m.get("name").and_then(|n| n.as_str()).map(str::to_string))
            .collect()
    };
    let bounds = doc
        .get("end_to_end")
        .map(|v| v.items())
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            Some((name, m.get("bound")?.as_f64()?))
        })
        .collect();
    Ok(Spec {
        workloads: names("workloads"),
        end_to_end: bounds,
        per_layer: names("per_layer"),
    })
}

/// `--key value` pairs.
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.insert(key.to_string(), value.clone());
    }
    Ok(out)
}

fn required<'a>(f: &'a BTreeMap<String, String>, key: &str) -> Result<&'a str, String> {
    f.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("--{key} is required"))
}

fn parsed<T: std::str::FromStr>(
    f: &BTreeMap<String, String>,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match f.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        None => default.ok_or_else(|| format!("--{key} is required")),
    }
}

fn trace_flag(f: &BTreeMap<String, String>) -> Result<bool, String> {
    match f.get("trace").map(String::as_str) {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(v) => Err(format!("--trace takes 0 or 1, not {v:?}")),
    }
}

fn seconds_flag(f: &BTreeMap<String, String>) -> Result<f64, String> {
    let s: f64 = parsed(f, "seconds", Some(REFERENCE_SECONDS))?;
    if !(s > 0.0 && s <= 3600.0) {
        return Err(format!("--seconds must lie in (0, 3600], got {s}"));
    }
    Ok(s)
}

/// Filesystem type and options of the mount holding `path`.
fn store_fs(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() >= 4 && path.starts_with(f[1]))
                .then(|| (f[1].len(), format!("{} ({})", f[2], f[3])))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    )
}

/// Write the traced pass to `dir` and print the per-layer self-time table.
fn write_trace(out: &Outcome, dir: &Path) -> Result<(), String> {
    let Some(tr) = &out.tracer else {
        return Ok(());
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |name: &str, text: String| {
        std::fs::write(dir.join(name), text).map_err(|e| format!("{name}: {e}"))
    };
    write("spans.json", tr.spans_json())?;
    write("layers.json", tr.layers_json(out.wall_ns))?;
    write("profile.json", swh_obs::profile::snapshot().to_json())?;
    println!("layer                         calls    total_ms     self_ms   self_%");
    let wall_ms = out.wall_ns as f64 / 1e6;
    for (name, t) in tr.layer_totals() {
        let self_ms = t.self_ns as f64 / 1e6;
        println!(
            "{name:<28} {:>6} {:>11.3} {:>11.3} {:>7.2}",
            t.calls,
            t.total_ns as f64 / 1e6,
            self_ms,
            100.0 * self_ms / wall_ms
        );
    }
    let unattributed = out.wall_ns.saturating_sub(tr.attributed_ns()) as f64 / 1e6;
    println!(
        "{:<28} {:>6} {:>11.3} {:>11.3} {:>7.2}",
        "unattributed",
        "",
        wall_ms,
        unattributed,
        100.0 * unattributed / wall_ms
    );
    println!("trace written to {}", dir.display());
    Ok(())
}

fn run_cmd(f: &BTreeMap<String, String>) -> Result<ExitCode, String> {
    let name = required(f, "workload")?;
    let mix = find_mix(name).ok_or_else(|| {
        let names: Vec<&str> = MIXES.iter().map(|m| m.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    let seed: u64 = parsed(f, "seed", None)?;
    let seconds = seconds_flag(f)?;
    let traced = trace_flag(f)?;
    let store_root = PathBuf::from(
        f.get("store-dir")
            .map_or(".e2e_bench/store", String::as_str),
    );
    let trace_dir = f.get("trace-dir").map_or_else(
        || PathBuf::from(format!(".e2e_bench/trace/{name}-seed{seed}")),
        PathBuf::from,
    );
    let spec = spec()?;
    if !spec.workloads.iter().any(|w| w == name) {
        return Err(format!("BENCHMARK.json does not list workload {name:?}"));
    }
    let sizes = mix.sizes(seconds);
    let out = workload::run(mix, &sizes, seed, traced, &store_root)?;
    let mut want: Vec<&str> = if traced {
        spec.per_layer.iter().map(String::as_str).collect()
    } else {
        spec.end_to_end.iter().map(|(n, _)| n.as_str()).collect()
    };
    let mut got: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
    want.sort_unstable();
    got.sort_unstable();
    if got != want {
        return Err(format!(
            "emitted metrics {got:?} differ from BENCHMARK.json's {want:?}"
        ));
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "env workload={name} seed={seed} cores={cores} store_fs={}",
        store_fs(&store_root)
    );
    println!("measured_s = {:.3}", out.wall_ns as f64 / 1e9);
    for (metric, unit, v) in &out.metrics {
        println!("metric {metric} = {v} {unit}");
    }
    write_trace(&out, &trace_dir)?;
    println!("{}", result_json(&out));
    let unattributed = out
        .metrics
        .iter()
        .find(|(n, _, _)| *n == "bench.unattributed_frac")
        .map(|m| m.2);
    if let Some(u) = unattributed.filter(|u| *u > MAX_UNATTRIBUTED) {
        eprintln!("e2e_bench: layer spans leave {u:.3} of the wall clock unattributed (> {MAX_UNATTRIBUTED})");
        return Ok(ExitCode::from(3));
    }
    Ok(ExitCode::SUCCESS)
}

/// Median, IQR / median and (max - min) / median of each metric over the
/// runs that reported it.
fn spread_rows(runs: &[BTreeMap<String, f64>]) -> Vec<(String, f64, f64, f64)> {
    let mut names: Vec<&String> = runs.iter().flat_map(|r| r.keys()).collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .filter_map(|name| {
            let values: Vec<f64> = runs.iter().filter_map(|r| r.get(name).copied()).collect();
            let med = stats::median(&values)?;
            let (q1, q3) = stats::quartiles(&values).unwrap_or((med, med));
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                    (lo.min(*v), hi.max(*v))
                });
            let rel = |d: f64| if med == 0.0 { 0.0 } else { d / med.abs() };
            Some((name.clone(), med, rel(q3 - q1), rel(hi - lo)))
        })
        .collect()
}

fn spread_cmd(f: &BTreeMap<String, String>) -> Result<ExitCode, String> {
    let name = required(f, "workload")?;
    find_mix(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let runs: u64 = parsed(f, "runs", None)?;
    let seed: u64 = parsed(f, "seed", None)?;
    let seconds = seconds_flag(f)?;
    let trace = if trace_flag(f)? { "1" } else { "0" };
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    let mut broken = false;
    for i in 0..runs {
        let s = (seed + i).to_string();
        let secs = seconds.to_string();
        let args = [
            "run",
            "--workload",
            name,
            "--seed",
            &s,
            "--seconds",
            &secs,
            "--trace",
            trace,
        ];
        let child = Command::new(&exe)
            .args(args)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let last = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        let doc = swh_obs::json::parse(last).ok();
        let correct = doc
            .as_ref()
            .and_then(|d| d.get("correct"))
            .and_then(|v| v.as_bool());
        if !child.status.success() || correct != Some(true) {
            eprintln!("run seed {s}: status {}, correct {correct:?}", child.status);
            broken = true;
        }
        let metrics: BTreeMap<String, f64> = doc
            .as_ref()
            .and_then(|d| d.get("metrics"))
            .map(|m| m.entries())
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        println!("run seed {s}: {} metrics", metrics.len());
        results.push(metrics);
    }
    let bounds: BTreeMap<String, f64> = spec()?.end_to_end.into_iter().collect();
    println!(
        "{:<34} {:>14} {:>9} {:>10} {:>7}",
        "metric", "median", "iqr/med", "range/med", "bound"
    );
    let mut flagged = false;
    let rows = spread_rows(&results);
    for (metric, med, iqr, range) in &rows {
        let bound = bounds.get(metric).copied();
        let over = bound.is_some_and(|b| *iqr > b);
        flagged |= over;
        println!(
            "{metric:<34} {med:>14.6} {iqr:>9.4} {range:>10.4} {:>7} {}",
            bound.map_or_else(|| "-".into(), |b| b.to_string()),
            if over { "SPREAD>BOUND" } else { "" }
        );
    }
    println!("values by seed:");
    for (metric, _, _, _) in &rows {
        let values: Vec<String> = results
            .iter()
            .map(|r| {
                r.get(metric)
                    .map_or_else(|| "-".into(), |v| format!("{v:.5}"))
            })
            .collect();
        println!("  {metric}: {}", values.join(" "));
    }
    Ok(if broken || flagged {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("spread") => flags(&args[1..]).and_then(|f| spread_cmd(&f)),
        Some("run") => flags(&args[1..]).and_then(|f| run_cmd(&f)),
        Some("-h" | "--help") | None => Err("no workload given".into()),
        Some(_) => flags(&args).and_then(|f| run_cmd(&f)),
    };
    result.unwrap_or_else(|msg| {
        eprintln!("e2e_bench: {msg}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("swh-e2e-bench-{tag}-{}", std::process::id()))
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_names_the_binarys_workloads() {
        let spec = spec().unwrap();
        let mixes: Vec<&str> = MIXES.iter().map(|m| m.name).collect();
        assert_eq!(spec.workloads, mixes);
        assert!(!spec.end_to_end.is_empty() && !spec.per_layer.is_empty());
    }

    /// Every workload at a tiny size, untraced and traced: nothing fails,
    /// and exactly the metrics `BENCHMARK.json` names are emitted, finite
    /// and well named.
    #[test]
    fn smoke_every_workload_tiny() {
        let spec = spec().unwrap();
        let mut e2e: Vec<&str> = spec.end_to_end.iter().map(|(n, _)| n.as_str()).collect();
        let mut layers: Vec<&str> = spec.per_layer.iter().map(String::as_str).collect();
        e2e.sort_unstable();
        layers.sort_unstable();
        let root = scratch("smoke");
        for mix in &MIXES {
            for traced in [false, true] {
                let out = workload::run(mix, &mix.tiny_sizes(), 1, traced, &root.join("store"))
                    .unwrap_or_else(|e| panic!("{}: {e}", mix.name));
                assert_eq!(out.failed, 0, "{} traced={traced}", mix.name);
                assert!(out.attempted > 0);
                let mut names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
                names.sort_unstable();
                let want = if traced { &layers } else { &e2e };
                assert_eq!(&names, want, "{} traced={traced}", mix.name);
                for (name, unit, v) in &out.metrics {
                    assert!(v.is_finite(), "{}: {name} = {v}", mix.name);
                    assert!(valid_name(name) && !unit.is_empty(), "{name}");
                }
                if traced {
                    let dir = root.join("trace").join(mix.name);
                    write_trace(&out, &dir).unwrap();
                    for file in ["spans.json", "layers.json", "profile.json"] {
                        let text = std::fs::read_to_string(dir.join(file)).unwrap();
                        assert!(swh_obs::json::parse(&text).is_ok(), "{file}");
                    }
                }
                let json = swh_obs::json::parse(&result_json(&out)).unwrap();
                assert_eq!(json.get("correct").and_then(|v| v.as_bool()), Some(true));
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn spread_rows_report_median_and_relative_spreads() {
        let runs: Vec<BTreeMap<String, f64>> = [10.0, 12.0, 11.0, 9.0]
            .iter()
            .map(|v| BTreeMap::from([("m".to_string(), *v)]))
            .collect();
        let rows = spread_rows(&runs);
        assert_eq!(rows.len(), 1);
        let (name, med, iqr, range) = &rows[0];
        assert_eq!((name.as_str(), *med), ("m", 10.5));
        // quantiles([9, 10, 11, 12], n=4) == [9.25, 10.5, 11.75]
        assert!((iqr - 2.5 / 10.5).abs() < 1e-12);
        assert!((range - 3.0 / 10.5).abs() < 1e-12);
    }
}
