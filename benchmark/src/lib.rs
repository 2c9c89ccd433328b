//! The repo's benchmark. Every number is taken from outside the BMX crates:
//! by timing calls into their public functions and by reading counters they
//! already expose. See `README.md` for the workloads, the metrics and how
//! they interact.
//!
//! ```text
//! bmx-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bmx-benchmark run    [--seed <n>] [--seconds <s>] [--smoke]
//! bmx-benchmark repeat [--seed <n>] [--seconds <s>] [--smoke]
//! ```
//!
//! The first form measures one workload in this process and prints, as the
//! last line of its standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `run` does that for
//! every workload, untraced then traced, each in a child process of its
//! own; `repeat` runs two such sets and compares them.

mod counters;
pub mod json;
mod layers;
mod par;
mod sim;
pub mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Value;
use spec::{Metrics, Sizes, END_TO_END, PER_LAYER, WORKLOADS};

/// `--seconds` when `run`/`repeat` are not told otherwise; the value
/// `BENCHMARK.json` gives the driver.
const DEFAULT_SECONDS: u64 = 20;

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Sample counts and check failures, for the human reader.
    pub notes: Vec<String>,
    pub metrics: Metrics,
    /// Traced pass: the spans, for the trace file.
    pub recorders: Vec<trace::Recorder>,
}

impl Outcome {
    /// Records a failed check (counted as one failed operation).
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.notes.push(why);
    }
}

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    lose_one_increment: bool,
    out_dir: PathBuf,
}

impl Args {
    fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::smoke()
        } else {
            Sizes::full(self.seconds)
        }
    }
}

/// What a workload is run with.
pub struct RunArgs<'a> {
    pub sizes: &'a Sizes,
    pub seed: u64,
    pub traced: bool,
    /// `--inject-lost-increment`: the conservation check's own test.
    pub lose_one_increment: bool,
    /// Where RVM scratch directories go.
    pub out_dir: &'a Path,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        lose_one_increment: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "run" | "repeat" if args.command.is_none() => args.command = Some(a.clone()),
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: u64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1..=60".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--out" => args.out_dir = PathBuf::from(value("--out")?),
            "--smoke" => args.smoke = true,
            // The conservation check's own test (see tests/smoke.rs).
            "--inject-lost-increment" => args.lose_one_increment = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `VmHWM` of this process, in MB.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn host_block(args: &Args, sizes: &Sizes) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    json::obj([
        ("nproc", json::num(nproc as f64)),
        // The load is 2 nodes + 2 load-generator threads and is not scaled
        // down: on fewer than 2 cores the parallel numbers mean little.
        ("undersized", Value::Bool(nproc < 2)),
        ("rustc", json::string(command_line("rustc", &["-V"]))),
        (
            "profile",
            json::string(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "git_commit",
            json::string(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", json::num(args.seed as f64)),
        ("seconds", json::num(args.seconds as f64)),
        ("smoke", Value::Bool(args.smoke)),
        ("sizes", json::string(format!("{sizes:?}"))),
        (
            "sync_primitives",
            json::string(
                "parking_lot and crossbeam are the repo's vendor/ shims over \
                 std::sync::{Mutex, mpsc}; that is what the parallel numbers measure",
            ),
        ),
    ])
}

/// Runs one workload in this process and prints its result.
fn run_single(args: &Args, workload: &str) -> Result<(), String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let sizes = args.sizes();
    let run_args = RunArgs {
        sizes: &sizes,
        seed: args.seed,
        traced: args.traced,
        lose_one_increment: args.lose_one_increment,
        out_dir: &args.out_dir,
    };
    let mut out = match workload {
        "private_par" => par::run(par::Workload::Private, &run_args),
        "contended_par" => par::run(par::Workload::Contended, &run_args),
        "readmostly_par" => par::run(par::Workload::ReadMostly, &run_args),
        "gc_interference_par" => par::run(par::Workload::GcInterference, &run_args),
        "gc_churn_sim" => sim::run(sim::Workload::GcChurn, &run_args),
        _ => sim::run(sim::Workload::PersistRecover, &run_args),
    };
    if args.traced {
        for problem in layers::budget(&mut out.metrics, sizes.budget_divisor, &args.out_dir) {
            out.fail(problem);
        }
        let solo_ns = out.metrics.get("parallel.incr_ns").copied().unwrap_or(0.0);
        if workload.ends_with("_par") && solo_ns > 0.0 {
            let ops_per_s = out.metrics.get("ops_per_s").copied().unwrap_or(0.0);
            out.metrics
                .insert("parallel.solo_ratio", ops_per_s * solo_ns / 1e9);
        }
        let path = args.out_dir.join(format!("{workload}.trace.json"));
        if let Err(e) = trace::write_trace(&path, &out.recorders) {
            out.fail(format!("cannot write {}: {e}", path.display()));
        }
    }

    // With tracing off the result holds the end-to-end metrics, with
    // tracing on the per-layer ones.
    let listed: &[(&str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in listed {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        let measured = value.is_finite() && value > 0.0;
        if !args.traced && !measured {
            out.fail(format!("end-to-end metric {name} has no value"));
        }
        println!("{workload} {name} {value} {unit}");
        metrics.push((
            name,
            json::obj([("value", json::num(value)), ("unit", json::string(unit))]),
        ));
    }
    println!(
        "{workload} ops_attempted {} count\n{workload} ops_failed {} count",
        out.attempted.max(1),
        out.failed
    );
    for note in &out.notes {
        println!("# {workload}: {note}");
    }
    let result = json::obj([
        ("correct", Value::Bool(out.failed == 0)),
        ("attempted", json::num(out.attempted.max(1) as f64)),
        ("failed", json::num(out.failed as f64)),
        ("metrics", json::obj(metrics)),
    ]);
    let pass = if args.traced { "traced" } else { "untraced" };
    let full = json::obj([
        ("workload", json::string(workload)),
        ("pass", json::string(pass)),
        ("host", host_block(args, &sizes)),
        (
            "notes",
            Value::Arr(out.notes.iter().map(json::string).collect()),
        ),
        ("result", result.clone()),
    ]);
    let path = args.out_dir.join(format!("{workload}.{pass}.json"));
    std::fs::write(&path, full.to_json() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{}", result.to_json());
    Ok(())
}

/// Runs `workload` in a child process of its own (so its peak memory is
/// its own and a crash takes nothing else down) and parses its result.
fn run_child(args: &Args, workload: &str, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in lines {
        println!("{l}");
    }
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    json::parse(last).map_err(|e| format!("{workload} printed no result: {e}"))
}

/// One set: every workload, untraced then traced. A workload that printed
/// no result is reported and skipped; it does not stop the set.
fn run_set(args: &Args) -> (BTreeMap<String, Value>, bool) {
    let mut results = BTreeMap::new();
    let mut all_ran = true;
    for workload in WORKLOADS {
        for traced in [false, true] {
            match run_child(args, workload, traced) {
                Ok(v) => {
                    let pass = if traced { "traced" } else { "untraced" };
                    results.insert(format!("{workload}.{pass}"), v);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    all_ran = false;
                }
            }
        }
    }
    (results, all_ran)
}

fn run_all(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    let (results, all_ran) = run_set(args);
    let doc = json::obj([
        ("host", host_block(args, &args.sizes())),
        ("results", json::obj(results)),
    ]);
    let path = args.out_dir.join("result.json");
    std::fs::write(&path, doc.to_json() + "\n").map_err(|e| e.to_string())?;
    println!("# wrote {}", path.display());
    Ok(all_ran)
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// What `BENCHMARK.json` gates.
struct Gates {
    /// The workloads it lists.
    workloads: Vec<String>,
    /// `(name, bound, lower is better)` of every end-to-end metric.
    bounds: Vec<(String, f64, bool)>,
}

fn gates(path: &Path) -> Result<Gates, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no workloads list")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect();
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without bound")?;
            let lower = m.get("better").and_then(Value::as_str) == Some("lower");
            Ok((name.to_string(), bound, lower))
        })
        .collect::<Result<_, String>>()
        .map(|bounds| Gates { workloads, bounds })
}

/// Two sets of the same binary and seed. Prints, per workload and
/// end-to-end metric, how far the second set is from the first beside the
/// metric's bound; a gap over the bound fails the workloads `BENCHMARK.json`
/// lists and is only shown for the others. On the sim workloads every exact
/// count must be equal.
fn repeat(args: &Args) -> Result<bool, String> {
    let Gates {
        workloads: gated,
        bounds,
    } = gates(Path::new("BENCHMARK.json"))?;
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    let (first, ran_a) = run_set(args);
    let (second, ran_b) = run_set(args);
    let mut ok = ran_a && ran_b;
    println!("workload metric first second gap bound verdict");
    for workload in WORKLOADS {
        let key = format!("{workload}.untraced");
        let (Some(a), Some(b)) = (first.get(&key), second.get(&key)) else {
            continue; // already reported by `run_set`
        };
        for (name, bound, lower) in &bounds {
            let (Some(x), Some(y)) = (metric_value(a, name), metric_value(b, name)) else {
                println!("{workload} {name} missing");
                ok = false;
                continue;
            };
            let worse = if *lower { y - x } else { x - y };
            let gap = if x != 0.0 { worse / x } else { f64::INFINITY };
            let within = gap <= *bound;
            let is_gated = gated.iter().any(|g| g == workload);
            ok &= within || !is_gated;
            let verdict = match (within, is_gated) {
                (true, _) => "ok",
                (false, true) => "OVER",
                (false, false) => "over (not gated)",
            };
            println!("{workload} {name} {x} {y} {gap:+.4} {bound} {verdict}");
        }
    }
    for workload in WORKLOADS.iter().filter(|w| w.ends_with("_sim")) {
        let key = format!("{workload}.traced");
        let (Some(a), Some(b)) = (first.get(&key), second.get(&key)) else {
            continue;
        };
        for (name, unit) in PER_LAYER {
            if !matches!(unit, "count" | "words" | "B" | "ticks") {
                continue;
            }
            let (x, y) = (metric_value(a, name), metric_value(b, name));
            if x != y {
                println!("{workload} {name} {x:?} {y:?} COUNTS DIFFER");
                ok = false;
            }
        }
    }
    println!(
        "# repeat: {}",
        if ok {
            "within bounds"
        } else {
            "NOT within bounds"
        }
    );
    Ok(ok)
}

/// The command line; `main` is only this.
pub fn cli() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: bmx-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       bmx-benchmark run|repeat [--seed <n>] [--seconds <s>] [--smoke]");
            return ExitCode::from(2);
        }
    };
    let done = match (args.command.as_deref(), args.workload.as_deref()) {
        (None, Some(w)) => run_single(&args, w).map(|()| true),
        (Some("run"), None) => run_all(&args),
        (Some("repeat"), None) => repeat(&args),
        _ => Err("give either --workload <name>, or run, or repeat".into()),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
