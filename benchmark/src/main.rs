//! The repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! wsrc-benchmark --workload W --seed N --seconds S --trace 0|1   one pass of one workload
//! wsrc-benchmark [--seed N] [--seconds S]                        every workload, both passes
//! wsrc-benchmark --smoke                                         the same at 1/1000, checked
//! wsrc-benchmark --aa [--seed N] [--seconds S]                   the end-to-end set as sides A and B, compared
//! ```
//!
//! With `--workload` the process is the measurement; without, it starts
//! one process per workload and pass, so `peak_rss_mib` is per workload
//! and no pass inherits another's heap.

mod fixtures;
mod isolated;
mod json;
mod metrics;
mod rng;
mod run;
mod stack;
mod stats;
mod sys;
mod trace;
mod window;
mod workloads;

use json::Json;
use metrics::{Metric, Outcome, Values};
use run::{Options, Size};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Spec, WORKLOADS};

const USAGE: &str = "usage: wsrc-benchmark [--workload NAME [--trace 0|1]] [--seed N] \
[--seconds S | --smoke] [--aa]
  (a run starts itself again with --workload NAME --setup-only to time set-up in a fresh process)";

/// Set-up is timed in fresh processes until it has been timed for about
/// this many seconds (times the scale of a smoke run), at least
/// [`SETUPS`]`.0` and at most [`SETUPS`]`.1` times in all: it is short
/// next to the window and so the least steady number of a run. `setup_s`
/// is the median.
const SETUP_SECONDS: f64 = 4.0;
const SETUPS: (usize, usize) = (3, 15);

#[derive(Debug, Clone)]
struct Args {
    workload: Option<&'static Spec>,
    seed: u64,
    size: Size,
    trace: bool,
    setup_only: bool,
    aa: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        size: Size::Full,
        trace: false,
        setup_only: false,
        aa: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(workloads::find(name).ok_or_else(|| format!("no workload named {name}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is not within (0, 3600]"));
                }
                parsed.size = Size::Seconds(s);
            }
            "--trace" => {
                parsed.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => parsed.size = Size::Smoke,
            "--setup-only" => parsed.setup_only = true,
            "--aa" => parsed.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.setup_only && parsed.workload.is_none() {
        return Err("--setup-only needs --workload".to_string());
    }
    Ok(parsed)
}

fn catalogue(trace: bool) -> Vec<Metric> {
    if trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    }
}

/// Starts this program again on `spec` with the seed and size of `args`
/// plus `more`, and returns what it printed and whether it succeeded.
fn spawn_self(spec: &Spec, args: &Args, more: &[&str]) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name, "--seed", &args.seed.to_string()]);
    match args.size {
        Size::Full => {}
        Size::Smoke => {
            cmd.arg("--smoke");
        }
        Size::Seconds(s) => {
            cmd.args(["--seconds", &s.to_string()]);
        }
    }
    let output = cmd
        .args(more)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", spec.name))?;
    Ok((
        String::from_utf8_lossy(&output.stdout).into_owned(),
        output.status.success(),
    ))
}

/// `setup_s` of a run whose own set-up took `first` seconds: the median
/// of that and of the set-ups of fresh processes, each timed from its
/// start to where its first measured op would begin.
fn median_setup(spec: &Spec, args: &Args, first: f64) -> Result<f64, String> {
    let mut setups = vec![first];
    let budget = SETUP_SECONDS * args.size.scale();
    let total = ((budget / first).ceil() as usize).clamp(SETUPS.0, SETUPS.1);
    while setups.len() < total {
        let (text, ok) = spawn_self(spec, args, &["--setup-only"])?;
        let seconds = text.lines().last().and_then(|l| l.trim().parse().ok());
        match seconds {
            Some(s) if ok => setups.push(s),
            _ => return Err(format!("{}: a set-up of its own failed", spec.name)),
        }
    }
    println!("  set-ups: {setups:.3?} s");
    Ok(stats::median(&mut setups))
}

/// The process is the measurement: runs one pass of one workload and
/// prints the result line last.
fn run_one(spec: &Spec, args: &Args, process_start: Instant) -> ExitCode {
    let opts = Options {
        seed: args.seed,
        size: args.size,
        trace: args.trace,
    };
    if args.setup_only {
        let (seconds, ok) = run::set_up_only(spec, &opts, process_start);
        println!("{seconds}");
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    println!(
        "{} seed={} {:?} trace={} ({})",
        spec.name,
        opts.seed,
        opts.size,
        u8::from(opts.trace),
        sys::host_description()
    );
    let mut outcome = run::run(spec, &opts, process_start);
    if let Some(first) = outcome.values.get("setup_s") {
        match median_setup(spec, args, first) {
            Ok(median) => outcome.values.set("setup_s", median),
            Err(e) => {
                eprintln!("{e}");
                outcome.failed += 1;
                outcome.correct = false;
            }
        }
    }
    let listed = catalogue(args.trace);
    for m in &listed {
        let v = outcome.values.get(&m.name).unwrap_or(f64::NAN);
        println!("  {:<40} {:>16.4} {}", m.name, v, m.unit);
    }
    println!(
        "  ops_attempted {}  ops_failed {}",
        outcome.attempted, outcome.failed
    );
    println!("{}", outcome.to_json(&listed));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{}: {} ops failed or answered wrongly",
            spec.name, outcome.failed
        );
        ExitCode::FAILURE
    }
}

/// Starts this program again for one pass of one workload, relays what it
/// prints, and reads its result line.
fn spawn_pass(spec: &Spec, args: &Args, trace: bool) -> Result<Outcome, String> {
    let (text, ok) = spawn_self(spec, args, &["--trace", if trace { "1" } else { "0" }])?;
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in &lines {
        let detail = ["segment", "window", "set-ups"];
        if !line.starts_with("  ") || detail.iter().any(|d| line.contains(d)) {
            println!("    {line}");
        }
    }
    let json = Json::parse(last).map_err(|e| format!("{}: no result line ({e})", spec.name))?;
    let field = |k: &str| json.get(k).ok_or_else(|| format!("{}: no {k}", spec.name));
    let mut values = Values::default();
    for (name, m) in field("metrics")?
        .as_object()
        .ok_or("metrics is no object")?
    {
        let v = m.get("value").and_then(Json::as_f64);
        values.set(
            name.clone(),
            v.ok_or_else(|| format!("{name} has no value"))?,
        );
    }
    Ok(Outcome {
        correct: field("correct")?.as_bool() == Some(true) && ok,
        attempted: field("attempted")?.as_f64().unwrap_or(0.0) as u64,
        failed: field("failed")?.as_f64().unwrap_or(0.0) as u64,
        values,
    })
}

fn print_table(title: &str, rows: &[Metric], columns: &[(&str, &Values)]) {
    println!("\n{title}");
    print!("  {:<40}", "metric");
    for (name, _) in columns {
        print!(" {name:>14}");
    }
    println!("  unit");
    for m in rows {
        if columns.iter().all(|(_, v)| v.get(&m.name).is_none()) {
            continue;
        }
        print!("  {:<40}", m.name);
        for (_, values) in columns {
            match values.get(&m.name) {
                Some(v) => print!(" {v:>14.3}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!("  {}", m.unit);
    }
}

/// Every workload, both passes. Returns the
/// combined outcome with metric names prefixed `workload:`.
fn run_all(args: &Args) -> Result<Outcome, String> {
    println!("host: {}", sys::host_description());
    println!("{}", fixtures::describe_sizes());
    let mut combined = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        values: Values::default(),
    };
    let mut end_to_end = Vec::new();
    let mut per_layer = Vec::new();
    for spec in &WORKLOADS {
        println!("\n== {} — {}", spec.name, spec.why);
        for trace in [false, true] {
            let outcome = spawn_pass(spec, args, trace)?;
            println!(
                "    {} trace={}: ops_attempted {} ops_failed {}",
                spec.name,
                u8::from(trace),
                outcome.attempted,
                outcome.failed
            );
            combined.correct &= outcome.correct;
            combined.attempted += outcome.attempted;
            combined.failed += outcome.failed;
            for m in catalogue(trace) {
                if let Some(v) = outcome.values.get(&m.name) {
                    combined.values.set(format!("{}:{}", spec.name, m.name), v);
                }
            }
            if trace {
                per_layer.push(outcome.values);
            } else {
                end_to_end.push(outcome.values);
            }
        }
    }
    fn columns(passes: &[Values]) -> Vec<(&'static str, &Values)> {
        WORKLOADS.iter().map(|w| w.name).zip(passes).collect()
    }
    print_table(
        "end-to-end (untraced pass)",
        &metrics::end_to_end(),
        &columns(&end_to_end),
    );
    let isolated = metrics::isolated();
    let mut per_workload = metrics::per_layer();
    per_workload.truncate(per_workload.len() - isolated.len());
    print_table(
        "per layer: counts of the reference window, self times of the traced window",
        &per_workload,
        &columns(&per_layer),
    );
    // Every traced pass makes them; the first workload's makes them in
    // full.
    print_table(
        "per layer: isolated calls on the shared search fixture",
        &isolated,
        &[(WORKLOADS[0].name, &per_layer[0])],
    );
    Ok(combined)
}

fn combined_json(outcome: &Outcome) -> String {
    let mut listed = Vec::new();
    for spec in &WORKLOADS {
        for m in metrics::end_to_end()
            .into_iter()
            .chain(metrics::per_layer())
        {
            let name = format!("{}:{}", spec.name, m.name);
            if outcome.values.get(&name).is_some() {
                listed.push(Metric { name, ..m });
            }
        }
    }
    outcome.to_json(&listed)
}

/// `--smoke`: every metric `BENCHMARK.json` names is emitted with a
/// finite value on every workload, and no op failed.
fn check_smoke(outcome: &Outcome) -> Result<(), String> {
    let mut missing = Vec::new();
    for spec in &WORKLOADS {
        for m in metrics::end_to_end()
            .into_iter()
            .chain(metrics::per_layer())
        {
            let name = format!("{}:{}", spec.name, m.name);
            if !outcome.values.get(&name).is_some_and(f64::is_finite) {
                missing.push(name);
            }
        }
    }
    if !missing.is_empty() {
        return Err(format!("not emitted or not finite: {}", missing.join(" ")));
    }
    if outcome.failed != 0 || !outcome.correct {
        return Err(format!("{} ops failed", outcome.failed));
    }
    Ok(())
}

/// `--aa`: the end-to-end set twice over the same code — sides A and B
/// alternating, workload by workload — and for each metric how far the
/// two are apart, as a share of A, next to its bound.
fn run_aa(args: &Args) -> Result<bool, String> {
    println!("host: {}", sys::host_description());
    println!(
        "\n  {:<14} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "apart", "bound"
    );
    let mut within = true;
    for spec in &WORKLOADS {
        let mut sides = Vec::new();
        for side in ["A", "B"] {
            let outcome = spawn_pass(spec, args, false)?;
            if !outcome.correct {
                return Err(format!(
                    "{} {side}: {} ops failed",
                    spec.name, outcome.failed
                ));
            }
            sides.push(outcome.values);
        }
        for m in metrics::end_to_end() {
            let side = |i: usize| sides[i].get(&m.name).unwrap_or(f64::NAN);
            let (a, b) = (side(0), side(1));
            let apart = (a - b).abs() / a;
            let bound = m.bound.unwrap_or(0.0);
            // A value that is no number is within no bound.
            let exceeded = apart.is_nan() || apart > bound;
            within &= !exceeded;
            println!(
                "  {:<14} {:<20} {a:>14.3} {b:>14.3} {:>8.2}% {:>6.0}%{}",
                spec.name,
                m.name,
                100.0 * apart,
                100.0 * bound,
                if exceeded { "  EXCEEDED" } else { "" }
            );
        }
    }
    Ok(within)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(spec) = args.workload {
        return run_one(spec, &args, process_start);
    }
    let result = if args.aa {
        run_aa(&args).inspect(|&within| {
            println!(
                "\nA/A: every end-to-end metric {} its bound",
                if within { "within" } else { "NOT within" }
            );
        })
    } else {
        run_all(&args).and_then(|outcome| {
            let smoke = if args.size == Size::Smoke {
                check_smoke(&outcome)
            } else {
                Ok(())
            };
            println!("\n{}", combined_json(&outcome));
            smoke.map(|()| outcome.correct)
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("wsrc-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_s_command_line_parses() {
        let a = args(&[
            "--workload",
            "portal-zipf",
            "--seed",
            "17",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.map(|w| w.name), Some("portal-zipf"));
        assert_eq!(a.seed, 17);
        assert_eq!(a.size, Size::Seconds(10.0));
        assert!(a.trace && !a.setup_only && !a.aa);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "-1"],
            &["--setup-only"],
            &["--trace", "2"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn smoke_is_a_thousandth() {
        let size = args(&["--smoke"]).unwrap().size;
        assert_eq!((size, size.scale()), (Size::Smoke, 0.001));
    }
}
