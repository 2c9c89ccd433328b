//! `bmx-top`: a live terminal dashboard over the metrics plane.
//!
//! Installs the metrics registry, drives a 3-node churning cluster through
//! a mildly faulty network (drops, duplicates, a timed partition, a crash/
//! restart), and redraws a `top`-style screen every few simulation rounds:
//! per-node GC and DSM health, the link traffic matrix, and any watchdog
//! alarms. Everything on screen is read back from the same
//! [`bmx_repro::metrics`] registry the blackbox and the chaos soaks
//! snapshot as JSON (see DESIGN.md §9).
//!
//! Run with: `cargo run --example bmx_top [frames]`
//! (default 12 frames; set `BMX_TOP_FAST=1` to skip the inter-frame sleep,
//! which CI does).
//!
//! Pass `--parallel` (or set `BMX_TOP_PARALLEL=1`) to watch the *real
//! parallelism* runtime instead: a [`ParallelCluster`] with one driver
//! thread per node and racing mutator threads. Rates (ops/sec and
//! envelopes/sec) and the latency columns are derived by diffing
//! consecutive [`Registry::snapshot`]s — per-interval readings, not
//! monotonic totals — including a last-interval p99 over the wall-clock
//! acquire and protocol-mutex histograms ([`Hst::AcquireReadMicros`],
//! [`Hst::AcquireWriteMicros`], [`Hst::MutexWaitMicros`]) — same
//! registry, different execution mode.

use bmx_repro::metrics::{self, Ctr, Gge, Hst, LinkCtr, Registry, Snapshot};
use bmx_repro::prelude::*;
use bmx_repro::trace;
use bmx_repro::workloads::churn;

const NODES: u32 = 3;

/// Approximate quantile from a power-of-two histogram: the upper bound of
/// the first bucket whose cumulative count reaches `q` of the total.
fn quantile(reg: &Registry, node: u32, h: Hst, q: f64) -> String {
    let scope = reg.node(node);
    let hist = scope.hist(h);
    let total = hist.count();
    if total == 0 {
        return "-".to_string();
    }
    let need = (total as f64 * q).ceil() as u64;
    let mut seen = 0;
    for (bound, cum) in hist.cumulative() {
        seen = cum;
        if seen >= need {
            return match bound {
                Some(b) => format!("≤{b}"),
                None => "inf".to_string(),
            };
        }
    }
    let _ = seen;
    "inf".to_string()
}

/// Approximate quantile over the *last interval only*: reconstructs the
/// interval's bucket counts by diffing the cumulative `le_*` readings of
/// two consecutive snapshots. Cumulative quantiles converge to the
/// steady-state mix and stop moving; the interval quantile is what a
/// dashboard actually wants — "how slow were acquires *just now*".
fn interval_quantile(prev: &Snapshot, cur: &Snapshot, node: u32, hist: &str, q: f64) -> String {
    let base = format!("node{node}/hist/{hist}");
    let total = cur
        .get(&format!("{base}/count"))
        .saturating_sub(prev.get(&format!("{base}/count")));
    if total == 0 {
        return "-".to_string();
    }
    let need = (total as f64 * q).ceil() as u64;
    // Bucket bounds, in order, recovered from the snapshot's own paths
    // (the `le_inf` overflow bucket sorts last by construction).
    let le_prefix = format!("{base}/le_");
    let mut bounds: Vec<u64> = cur
        .entries
        .keys()
        .filter_map(|k| k.strip_prefix(&le_prefix))
        .filter_map(|b| b.parse().ok())
        .collect();
    bounds.sort_unstable();
    for b in bounds {
        let key = format!("{base}/le_{b}");
        if cur.get(&key).saturating_sub(prev.get(&key)) >= need {
            return format!("≤{b}");
        }
    }
    "inf".to_string()
}

/// Per-second rate of a counter path between two snapshots.
fn rate(prev: &Snapshot, cur: &Snapshot, path: &str, dt: f64) -> u64 {
    (cur.get(path).saturating_sub(prev.get(path)) as f64 / dt) as u64
}

fn frame(c: &Cluster, reg: &Registry, round: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "bmx-top — tick {:>6}  round {:>4}  alarms {}\n\n",
        c.net.now(),
        round,
        reg.total_alarms(),
    ));

    out.push_str(
        "node  bgc  pause_p50(us)  acq_rd_p50  acq_wr_p50  inflight_B  \
         fromspace_W  scions  stubs  retryq\n",
    );
    for i in 0..NODES {
        let scope = reg.node(i);
        out.push_str(&format!(
            "{:>4}  {:>3}  {:>13}  {:>10}  {:>10}  {:>10}  {:>11}  {:>6}  {:>5}  {:>6}\n",
            i,
            scope.ctr(Ctr::BgcCollections),
            quantile(reg, i, Hst::BgcPauseMicros, 0.5),
            quantile(reg, i, Hst::AcquireReadTicks, 0.5),
            quantile(reg, i, Hst::AcquireWriteTicks, 0.5),
            scope.gauge(Gge::InflightBytes),
            scope.gauge(Gge::FromSpaceRetainedWords),
            scope.gauge(Gge::ScionTableSize),
            scope.gauge(Gge::StubTableSize),
            scope.gauge(Gge::RetryQueueDepth),
        ));
    }

    out.push_str("\nlink        sent      bytes   dropped  duplicated  retried\n");
    for s in 0..NODES {
        for d in 0..NODES {
            if s == d {
                continue;
            }
            let l = reg.link(s, d);
            if l.ctr(LinkCtr::Send) == 0 && l.ctr(LinkCtr::Drop) == 0 {
                continue;
            }
            out.push_str(&format!(
                "{s}→{d}   {:>9}  {:>9}  {:>8}  {:>10}  {:>7}\n",
                l.ctr(LinkCtr::Send),
                l.ctr(LinkCtr::Bytes),
                l.ctr(LinkCtr::Drop),
                l.ctr(LinkCtr::Duplicate),
                l.ctr(LinkCtr::Retry),
            ));
        }
    }
    out
}

/// The `--parallel` dashboard: real threads, wall-clock histograms.
fn run_parallel(frames: u64, fast: bool) -> Result<()> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let reg = metrics::install();
    // Crash-amnesia recovery replays the RVM store; without it a revived
    // node comes back knowing nothing (its bunches unmapped, every op an
    // error). Give the cluster a store and cut a checkpoint after setup.
    let persist_dir = std::env::temp_dir().join(format!("bmx-top-parallel-{}", std::process::id()));
    let mut cfg = ClusterConfig::with_nodes(NODES);
    cfg.persist = Some(PersistConfig::at(&persist_dir));
    // A modest fault plan so the dashboard has failure-domain state to
    // show: up to a pulse of jitter on every link, plus a supervisor that
    // restarts crashed drivers live (an injected crash below demos the
    // down -> recovering -> alive arc).
    cfg.net = NetworkConfig::lossless(1).with_fault(FaultPlan::none().all_links(LinkFault {
        jitter: 1,
        ..Default::default()
    }));
    cfg.net.seed = 0xB070_5EED;
    let pc = bmx::ParallelCluster::spawn_with_chaos(cfg, bmx::ChaosConfig::default());
    let h0 = pc.handle(NodeId(0));
    let bunch = h0.create_bunch()?;
    let objs: Vec<Addr> = (0..4)
        .map(|_| {
            let o = h0.alloc(bunch, &ObjSpec::with_refs(2, &[0]))?;
            h0.add_root(o)?;
            Ok(o)
        })
        .collect::<Result<_>>()?;
    for i in 1..NODES {
        let h = pc.handle(NodeId(i));
        h.map_bunch(bunch, NodeId(0))?;
        for &o in &objs {
            h.add_root(o)?;
        }
    }
    // Checkpoints are cut at collections: one per node so the RVM store
    // holds the mapped bunch before any crash.
    for i in 0..NODES {
        pc.handle(NodeId(i)).run_bgc(bunch)?;
    }
    assert!(
        pc.quiesce(Duration::from_secs(10)),
        "setup failed to quiesce"
    );

    let stop = Arc::new(AtomicBool::new(false));
    let mutators: Vec<_> = (0..NODES)
        .map(|i| {
            let h = pc.handle(NodeId(i));
            let objs = objs.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                h.bind_metrics();
                let mut k = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let o = objs[k % objs.len()];
                    k += 1;
                    let step = || -> Result<()> {
                        if k.is_multiple_of(3) {
                            h.acquire_read(o)?;
                            let _ = h.read_data(o, 1)?;
                        } else {
                            h.acquire_write(o)?;
                            let v = h.read_data(o, 1)?;
                            h.write_data(o, 1, v + 1)?;
                        }
                        h.release(o)
                    };
                    if step().is_err() {
                        // A NodeDown/WouldBlock while a peer is crashed or
                        // recovering: back off and retry — the supervisor
                        // restarts the node live.
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            })
        })
        .collect();

    // Rates and "just now" latency come from *snapshot diffs*: each frame
    // takes a full registry snapshot and compares it against the previous
    // frame's. Raw counters only ever grow; the diff is what moves.
    let mut last_snap = reg.snapshot();
    let mut last_t = Instant::now();
    for f in 0..frames {
        if !fast {
            std::thread::sleep(Duration::from_millis(250));
        } else {
            std::thread::sleep(Duration::from_millis(20));
        }
        // A third of the way in, crash a node on purpose: the next frames
        // show its failure domain go down, recover, and rejoin while the
        // survivors keep serving.
        if f == frames / 3 {
            pc.inject_crash(NodeId(NODES - 1));
        }
        let snap = reg.snapshot();
        let dt = last_t.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
        last_t = Instant::now();
        let total_rate = |ctr: &str| -> u64 {
            (0..NODES)
                .map(|i| rate(&last_snap, &snap, &format!("node{i}/ctr/{ctr}"), dt))
                .sum()
        };

        let mut out = format!(
            "bmx-top (parallel) — frame {:>3}  ops {:>9}  ops/sec {:>8}  env/sec {:>8}  in-flight {}\n\n",
            f,
            pc.ops(),
            total_rate("parallel_ops"),
            total_rate("parallel_deliveries"),
            pc.in_flight(),
        );
        out.push_str(
            "node  status      restarts  last_alarm     ops/s   env/s  \
             acq_rd_p99(us)  acq_wr_p99(us)  mtx_wait_p99(us)\n",
        );
        let liveness = pc.liveness();
        for i in 0..NODES {
            let lv = &liveness[i as usize];
            let status = match lv.status {
                bmx::NodeStatus::Alive => "alive",
                bmx::NodeStatus::Recovering => "recovering",
                bmx::NodeStatus::Down => "down",
            };
            let alarm = reg
                .last_alarm(i)
                .map_or_else(|| "-".to_string(), |k| format!("{k:?}"));
            out.push_str(&format!(
                "{:>4}  {:<10}  {:>8}  {:<13}  {:>6}  {:>6}  {:>14}  {:>14}  {:>16}\n",
                i,
                status,
                lv.restarts,
                alarm,
                rate(&last_snap, &snap, &format!("node{i}/ctr/parallel_ops"), dt),
                rate(
                    &last_snap,
                    &snap,
                    &format!("node{i}/ctr/parallel_deliveries"),
                    dt
                ),
                interval_quantile(&last_snap, &snap, i, "acquire_read_micros", 0.99),
                interval_quantile(&last_snap, &snap, i, "acquire_write_micros", 0.99),
                interval_quantile(&last_snap, &snap, i, "mutex_wait_micros", 0.99),
            ));
        }
        last_snap = snap;
        print!("\x1b[2J\x1b[H{out}");
    }

    stop.store(true, Ordering::Relaxed);
    for m in mutators {
        let _ = m.join();
    }
    assert!(pc.quiesce(Duration::from_secs(10)), "failed to quiesce");
    let (cluster, report) = pc.shutdown(Shutdown::Drain)?;
    cluster.assert_gc_acquired_no_tokens();
    println!(
        "\nshutdown: sent {} delivered {} dropped {} restarts {}",
        report.sent, report.delivered, report.dropped, report.restarts
    );
    let _ = std::fs::remove_dir_all(&persist_dir);
    Ok(())
}

fn main() -> Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parallel = args.iter().any(|a| a == "--parallel")
        || std::env::var("BMX_TOP_PARALLEL").is_ok_and(|v| v == "1");
    let frames: u64 = args.iter().find_map(|s| s.parse().ok()).unwrap_or(12);
    let fast = std::env::var("BMX_TOP_FAST").is_ok_and(|v| v == "1");
    if parallel {
        return run_parallel(frames, fast);
    }

    let reg = metrics::install();
    trace::install_ring(4096);

    let plan = FaultPlan::none()
        .all_links(LinkFault {
            drop: 0.08,
            duplicate: 0.15,
            jitter: 2,
        })
        .partition(vec![NodeId(0)], vec![NodeId(1), NodeId(2)], 400, 650)
        .crash(NodeId(2), 900, 1080);
    let mut net = NetworkConfig::lossless(1).with_fault(plan);
    net.seed = 0x70_D0;
    let mut c = Cluster::new(ClusterConfig {
        nodes: NODES,
        net,
        retry: Some(RetryPolicy::default()),
        ..Default::default()
    });

    let mut sites = Vec::new();
    for i in 0..NODES {
        let node = NodeId(i);
        let b = c.create_bunch(node)?;
        let reg_obj = c.alloc(node, b, &ObjSpec::with_refs(1, &[0]))?;
        c.add_root(node, reg_obj);
        sites.push((node, b, reg_obj));
    }
    let shared = c.create_bunch(NodeId(0))?;
    let migrate: Vec<Addr> = (0..3)
        .map(|_| {
            let o = c.alloc(NodeId(0), shared, &ObjSpec::with_refs(2, &[0]))?;
            c.add_root(NodeId(0), o);
            Ok(o)
        })
        .collect::<Result<_>>()?;
    c.map_bunch(NodeId(1), shared, NodeId(0))?;
    c.map_bunch(NodeId(2), shared, NodeId(0))?;

    let mut round = 0u64;
    for _ in 0..frames {
        for _ in 0..4 {
            churn::chaos_round(&mut c, &sites, &migrate, round as usize, 0x70_D0)?;
            c.run_bgc(NodeId(0), shared)?;
            round += 1;
        }
        // Clear screen + home, then the frame. Plain prints, no TUI deps.
        print!("\x1b[2J\x1b[H{}", frame(&c, &reg, round));
        if !fast {
            std::thread::sleep(std::time::Duration::from_millis(250));
        }
    }
    c.settle(3_000)?;

    println!("\nfinal snapshot (JSON excerpt):");
    let snap = metrics::snapshot();
    for (k, v) in snap
        .diff(&metrics::Snapshot::default())
        .iter()
        .filter(|(k, _)| k.contains("bgc_collections") || k.starts_with("alarm/"))
    {
        println!("  {k} = {v}");
    }
    Ok(())
}
