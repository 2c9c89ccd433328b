//! The delivery schedules the invariant suites run under.
//!
//! `SCHEDULE_SEEDS` (comma-separated, `0x`-prefixed hex or decimal) names
//! one `Schedule::Seeded` per seed; unset, a suite runs under
//! `Schedule::Due` alone, the simulator's default order. The nightly chaos
//! job sets it. A failure prints its schedule, and
//! `SCHEDULE_SEEDS=<seed> cargo test --test <suite>` replays it. A test that
//! compares a run against one order (a replay or bit-identity check) builds
//! its network with `Due` and does not come here.

// Each suite that includes this module uses part of it.
#![allow(dead_code)]

use bmx_repro::prelude::*;

/// Parses a comma-separated seed list: `0x`-prefixed hex or decimal.
pub fn parse_seeds(list: &str) -> Vec<u64> {
    list.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| match t.strip_prefix("0x") {
            Some(h) => u64::from_str_radix(h, 16).expect("hex seed"),
            None => t.parse().expect("decimal seed"),
        })
        .collect()
}

/// The seeds in the variable `var`, or `default` when it is unset.
pub fn seeds_from_env(var: &str, default: &[u64]) -> Vec<u64> {
    match std::env::var(var) {
        Ok(list) => parse_seeds(&list),
        Err(_) => default.to_vec(),
    }
}

/// The schedules `SCHEDULE_SEEDS` names, or `Due` alone.
pub fn schedules() -> Vec<Schedule> {
    match std::env::var("SCHEDULE_SEEDS") {
        Ok(list) => parse_seeds(&list)
            .into_iter()
            .map(Schedule::Seeded)
            .collect(),
        Err(_) => vec![Schedule::Due],
    }
}

/// What a replay command sets so that it runs under `schedule`.
pub fn replay_prefix(schedule: Schedule) -> String {
    match schedule {
        Schedule::Due => String::new(),
        Schedule::Seeded(seed) => format!("SCHEDULE_SEEDS={seed:#x} "),
    }
}

/// Runs `body` under each of [`schedules`]; a failure names its schedule.
pub fn each(mut body: impl FnMut(Schedule)) {
    for schedule in schedules() {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(schedule)));
        if let Err(panic) = run {
            eprintln!("failed under {schedule:?}");
            std::panic::resume_unwind(panic);
        }
    }
}

/// A cluster of `nodes` with the default configuration but `schedule`.
pub fn cluster(nodes: u32, schedule: Schedule) -> Cluster {
    let mut cfg = ClusterConfig::with_nodes(nodes);
    cfg.net.schedule = schedule;
    Cluster::new(cfg)
}
