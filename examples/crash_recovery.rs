//! Crash-recovery demo: kill a node with total amnesia, recover it through
//! the RVM store and the epoch-based rejoin handshake, verify nothing live
//! was lost.
//!
//! A 3-node cluster replicates a shared bunch; ownership of a working set
//! migrates continuously. Mid-workload, node 2 suffers an amnesia crash —
//! a power failure that loses every piece of volatile state (memory image,
//! directory, DSM token caches, scion/stub tables, cleaner epochs). It comes
//! back with only its last post-BGC checkpoint on disk, replays the RVM
//! redo log, broadcasts a rejoin request, reconciles ownership with the
//! surviving peers under a fresh epoch, and regenerates its scion/stub
//! state from their idempotent reachability reports. The demo prints the
//! recovery pipeline's outcome and proves the victim is a full cluster
//! member again.
//!
//! Run with: `cargo run --example crash_recovery [seed]`

use bmx::audit;
use bmx_repro::prelude::*;

const CRASH_START: u64 = 600;
const CRASH_END: u64 = 800;
const RUN_UNTIL: u64 = 1300;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("numeric seed"))
        .unwrap_or(0xC0FFEE);
    let victim = NodeId(2);
    let dir = std::env::temp_dir().join(format!("bmx-crash-recovery-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // The kill: an amnesia crash window for node 2, on an otherwise
    // lossless network so the recovery pipeline is the only thing at work.
    let mut net = NetworkConfig::lossless(1).with_fault(FaultPlan::none().crash_amnesia(
        victim,
        CRASH_START,
        CRASH_END,
    ));
    net.seed = seed;
    let mut c = Cluster::new(ClusterConfig {
        nodes: 3,
        net,
        persist: Some(PersistConfig {
            dir: dir.clone(),
            truncate_log_bytes: Some(1 << 18),
        }),
        ..Default::default()
    });
    let (n0, n1, n2) = (NodeId(0), NodeId(1), NodeId(2));

    // A shared bunch replicated everywhere: an anchor with a payload plus a
    // working set whose ownership keeps moving.
    let shared = c.create_bunch(n0).expect("bunch");
    let anchor = c.alloc(n0, shared, &ObjSpec::data(1)).expect("alloc");
    c.write_data(n0, anchor, 0, 4242).expect("write");
    c.add_root(n0, anchor);
    let working: Vec<Addr> = (0..4)
        .map(|_| {
            let o = c
                .alloc(n0, shared, &ObjSpec::with_refs(2, &[0]))
                .expect("alloc");
            c.add_root(n0, o);
            o
        })
        .collect();
    c.map_bunch(n1, shared, n0).expect("map");
    c.map_bunch(n2, shared, n0).expect("map");

    println!("=== kill -> recover -> verify (seed {seed:#x}) ===\n");
    println!(
        "workload: 3 nodes, shared bunch, ownership migrating; node {} \
         loses all volatile state in ticks [{CRASH_START}, {CRASH_END})\n",
        victim.0
    );

    // Drive the workload straight through the outage. Collections rotate
    // across the up nodes, so the victim checkpoints the shared bunch
    // (post-BGC) before it dies — that checkpoint is what it replays.
    let mut round = 0usize;
    while c.net.now() < RUN_UNTIL {
        let up: Vec<NodeId> = (0..c.nodes())
            .map(NodeId)
            .filter(|&p| !c.net.is_down(p) && !c.in_recovery(p))
            .collect();
        for (i, &obj) in working.iter().enumerate() {
            let site = up[(round + i) % up.len()];
            match c.acquire_write(site, obj) {
                Ok(()) => c.release(site, obj).expect("release"),
                Err(BmxError::WouldBlock { .. }) | Err(BmxError::OwnerUnknown { .. }) => {}
                Err(e) => panic!("migration hop failed: {e}"),
            }
        }
        let collector = up[round % up.len()];
        c.run_bgc(collector, shared).expect("bgc");
        c.step(40).expect("step");
        round += 1;
    }
    c.settle(5_000).expect("settle");

    // The recovery pipeline's own record of what happened.
    let rec = c
        .recovery_log
        .iter()
        .find(|r| r.node == victim)
        .expect("the victim recovered");
    println!("recovery outcome at node {}:", victim.0);
    println!("  rejoin epoch        {}", rec.epoch);
    println!(
        "  rejoin latency      {} ticks (restart {} -> complete {})",
        rec.complete_tick - rec.restart_tick,
        rec.restart_tick,
        rec.complete_tick
    );
    println!("  rvm replay          {} us wall", rec.replay_micros);
    println!("  objects recovered   {}", rec.objects_recovered);
    println!("  orphans re-homed    {}", rec.orphans_adopted);
    println!("  peer reports applied {}", rec.reports_applied);

    // Verify: nothing live was reclaimed, and the victim is a working
    // member again — it can take a write token and its writes are seen.
    let expected_live: Vec<(NodeId, Addr)> = [(n0, anchor)]
        .into_iter()
        .chain(working.iter().map(|&o| (n0, o)))
        .collect();
    audit::assert_no_premature_reclamation(&c, &expected_live);
    c.acquire_write(n2, anchor).expect("acquire at the victim");
    c.write_data(n2, anchor, 0, 4243)
        .expect("write at the victim");
    c.release(n2, anchor).expect("release");
    c.acquire_read(n0, anchor).expect("acquire");
    assert_eq!(c.read_data(n0, anchor, 0).expect("read"), 4243);
    c.release(n0, anchor).expect("release");

    let s = &c.stats[victim.0 as usize];
    println!("\nverification:");
    println!("  premature reclamation   none (full-cluster audit)");
    println!("  victim write-after-rejoin  visible at node 0");
    println!(
        "  counters                amnesia_wipes={} restarts={} recoveries={}",
        s.get(StatKind::AmnesiaWipes),
        s.get(StatKind::NodeRestarts),
        s.get(StatKind::RecoveriesCompleted)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
