//! Smoke tests: the benchmark binary at its smallest sizes. They check the
//! shape of what it prints and that its correctness checks run, not its
//! numbers.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use bmx_benchmark::json::{self, Value};
use bmx_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};

/// Each test gets a directory of its own under `benchmark/out/`.
fn out_dir(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{tag}-{}", std::process::id()))
}

/// Runs one workload in smoke mode; returns its standard output and the
/// parsed result line.
fn smoke(workload: &str, traced: bool, out: &Path, extra: &[&str]) -> (String, Value) {
    let output = Command::new(env!("CARGO_BIN_EXE_bmx-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args([
            "--trace",
            if traced { "1" } else { "0" },
            "--smoke",
            "--out",
        ])
        .arg(out)
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    assert!(
        output.status.success(),
        "{workload} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"));
    (stdout, result)
}

fn names(list: &[(&'static str, &'static str)]) -> BTreeSet<String> {
    list.iter().map(|(n, _)| n.to_string()).collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_lists_what_the_binary_emits() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
    let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
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
    assert_eq!(
        doc.get("paths").unwrap().as_arr().unwrap(),
        [json::string("benchmark")]
    );

    let listed =
        |key: &str| -> Vec<&Value> { doc.get(key).unwrap().as_arr().unwrap().iter().collect() };
    let name_of = |v: &Value| v.get("name").unwrap().as_str().unwrap().to_string();
    // Every workload but the one whose wall clock is the disk's (README,
    // "Why five gated workloads").
    let workloads: Vec<String> = listed("workloads").into_iter().map(name_of).collect();
    let gated: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .filter(|w| *w != "persist_recover_sim")
        .collect();
    assert_eq!(workloads, gated);
    for w in listed("workloads") {
        let why = w.get("why").unwrap().as_str().unwrap();
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }

    for (key, spec) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let got: Vec<(String, String)> = listed(key)
            .into_iter()
            .map(|m| {
                (
                    name_of(m),
                    m.get("unit").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect();
        let want: Vec<(String, String)> = spec
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(got, want, "{key}");
        for m in listed(key) {
            assert!(valid_name(&name_of(m)), "{}", name_of(m));
            let better = m.get("better").unwrap().as_str().unwrap();
            assert!(better == "lower" || better == "higher");
        }
    }
    let mut all = names(&END_TO_END);
    all.extend(names(&PER_LAYER));
    all.extend(WORKLOADS.iter().map(|w| w.to_string()));
    assert_eq!(
        all.len(),
        END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len(),
        "a name is used twice"
    );

    for m in listed("end_to_end") {
        let bound = m.get("bound").unwrap().as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = listed("end_to_end")
        .into_iter()
        .find(|m| name_of(m) == "setup_s")
        .unwrap();
    assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    assert_eq!(setup.get("better").unwrap().as_str(), Some("lower"));
}

#[test]
fn every_workload_runs_its_checks_and_emits_each_metric_once() {
    let out = out_dir("all");
    for workload in WORKLOADS {
        for traced in [false, true] {
            let (stdout, result) = smoke(workload, traced, &out, &[]);
            assert_eq!(
                result.get("correct").unwrap().as_bool(),
                Some(true),
                "{stdout}"
            );
            assert_eq!(
                result.get("failed").unwrap().as_f64(),
                Some(0.0),
                "{stdout}"
            );
            assert!(result.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
            let keys: Vec<&str> = result
                .as_obj()
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);

            let spec = if traced {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let metrics = result.get("metrics").unwrap().as_obj().unwrap();
            let got: BTreeSet<String> = metrics.keys().cloned().collect();
            assert_eq!(got, names(spec), "{workload} traced={traced}");
            for (name, unit) in spec {
                let m = &metrics[*name];
                assert_eq!(m.get("unit").unwrap().as_str(), Some(*unit));
                let value = m.get("value").unwrap().as_f64().unwrap();
                assert!(value.is_finite());
                if !traced {
                    assert!(value > 0.0, "{workload} {name} is {value}");
                }
                let line = format!("{workload} {name} ");
                let printed = stdout.lines().filter(|l| l.starts_with(&line)).count();
                assert_eq!(printed, 1, "{workload} {name} printed {printed} times");
            }
            assert!(stdout.contains(&format!("{workload} ops_attempted ")));
            assert!(stdout.contains(&format!("{workload} ops_failed 0 ")));
            if traced {
                let trace = std::fs::read_to_string(out.join(format!("{workload}.trace.json")))
                    .expect("a trace file");
                let events = json::parse(&trace).expect("trace is json");
                assert!(!events
                    .get("traceEvents")
                    .unwrap()
                    .as_arr()
                    .unwrap()
                    .is_empty());
            }
        }
    }
    // RVM scratch directories are removed after each repetition.
    let left: Vec<_> = std::fs::read_dir(&out)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("rvm-"))
        .collect();
    assert!(left.is_empty(), "left behind: {left:?}");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn sim_counters_repeat_exactly() {
    let out = out_dir("counters");
    for workload in ["gc_churn_sim", "persist_recover_sim"] {
        // Inside one run the repetitions are compared (`correct`); here two
        // runs of the same seed are.
        let (_, a) = smoke(workload, true, &out, &[]);
        let (_, b) = smoke(workload, true, &out, &[]);
        for (name, unit) in PER_LAYER {
            if !matches!(unit, "count" | "words" | "B" | "ticks") {
                continue;
            }
            let value = |r: &Value| {
                r.get("metrics")
                    .unwrap()
                    .get(name)
                    .unwrap()
                    .get("value")
                    .unwrap()
                    .as_f64()
            };
            assert_eq!(value(&a), value(&b), "{workload} {name}");
        }
        let reclaimed = a.get("metrics").unwrap().get("gc.reclaimed_objs").unwrap();
        assert!(reclaimed.get("value").unwrap().as_f64().unwrap() > 0.0);
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn a_lost_increment_is_reported_as_failed_not_as_a_panic() {
    let out = out_dir("lost");
    for workload in ["private_par", "readmostly_par", "gc_churn_sim"] {
        let (stdout, result) = smoke(workload, false, &out, &["--inject-lost-increment"]);
        assert_eq!(
            result.get("correct").unwrap().as_bool(),
            Some(false),
            "{stdout}"
        );
        assert!(
            result.get("failed").unwrap().as_f64().unwrap() >= 1.0,
            "{stdout}"
        );
        // The check's own words: a sum on the parallel runtime, part by
        // part on the sim.
        assert!(
            stdout.contains("counters sum to") || stdout.contains("are off by"),
            "{stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&out);
}
