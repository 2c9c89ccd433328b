//! Regression test for the (former) ROADMAP open item "Replica-site
//! collection under migration".
//!
//! The shape that used to fail: a shared bunch replicated on three nodes,
//! ownership of its objects migrating between the non-root replicas, with
//! `run_bgc` of the bunch *rotating across the replica nodes* (not the
//! root holder) and `reuse_from_space` retiring each collection's
//! from-space. Re-acquiring by a pre-collection address then tripped
//! `NotAnObject` on a lossless network.
//!
//! The fixes this pins down:
//! - `Directory::record_move` refuses divergent edges (same `from`,
//!   different `to`) instead of clobbering the local chain;
//! - the segment server's retired-range routing preserves forwarding
//!   knowledge past `forget_range` for the range's grace, and every node's
//!   sweep points its roots and fields past the released ranges, so an
//!   address the application holds in a root stays good after every replica
//!   wiped;
//! - a forwarding chain that ends in a released range is followed on
//!   through the routing;
//! - a ghost copy the collector finds dead does not take the live replica's
//!   protocol record with it;
//! - `handle_copy_request` does not settle a retire round with an indexed
//!   relocation that dead-ends inside the retiring ranges;
//! - relocation gossip only carries a node's *current* copy (ghosts of
//!   older generations are left for the wipe);
//! - the wipe performs a final local settle (copy-out) of any remaining
//!   current resident, because per-node address divergence (Section 4.2)
//!   means remote relocation gossip alone cannot settle every replica.
//!
//! The run keeps a flight recorder; on failure the tail is dumped to
//! `target/chaos/replica-bgc-regression-*` (per-node timelines + merged
//! Chrome trace) so the causal order can be read directly.

use bmx_repro::prelude::*;
use bmx_repro::trace;
use bmx_repro::workloads::{churn, lists};

fn n(i: u32) -> NodeId {
    NodeId(i)
}

fn dump_flight_recorders(tag: &str) {
    let records = trace::take();
    trace::disable();
    let dir = std::path::Path::new("target/chaos");
    let _ = std::fs::create_dir_all(dir);
    for node in [n(0), n(1), n(2)] {
        let lines: Vec<String> = trace::query::node_order(&records, node)
            .iter()
            .map(|r| r.to_string())
            .collect();
        let _ = std::fs::write(
            dir.join(format!("{tag}-node{}.trace.txt", node.0)),
            lines.join("\n") + "\n",
        );
    }
    let _ = std::fs::write(
        dir.join(format!("{tag}.trace.json")),
        trace::chrome::export(&records),
    );
}

#[test]
fn rotating_replica_bgc_under_migration_survives_reacquire() {
    trace::install(16_384);
    // The chaos workload on a LOSSLESS network: the rotation alone is what
    // trips the open item, not the fault plane.
    let cfg = ClusterConfig::with_nodes(3);
    let mut c = Cluster::new(cfg);
    let (n0, n1, n2) = (n(0), n(1), n(2));

    // Every address is held as a root and read back each round: a held
    // pre-collection address resolves only through its range's grace.
    let mut sites = Vec::new();
    for &node in &[n0, n1, n2] {
        let b = c.create_bunch(node).unwrap();
        let reg = c.alloc(node, b, &ObjSpec::with_refs(1, &[0])).unwrap();
        sites.push((node, b, c.add_root(node, reg)));
    }
    let shared = c.create_bunch(n0).unwrap();
    let list = lists::build_list(&mut c, n0, shared, 6, 0).unwrap();
    let head = c.add_root(n0, list.head);
    // A churn registry IN the shared bunch: the root holder keeps creating
    // garbage in the very bunch the replicas collect.
    let shared_reg = c.alloc(n0, shared, &ObjSpec::with_refs(1, &[0])).unwrap();
    let shared_reg = c.add_root(n0, shared_reg);
    let migrate: Vec<u64> = (0..3)
        .map(|_| {
            let o = c.alloc(n0, shared, &ObjSpec::with_refs(2, &[0])).unwrap();
            c.add_root(n0, o)
        })
        .collect();
    c.map_bunch(n1, shared, n0).unwrap();
    c.map_bunch(n2, shared, n0).unwrap();
    let at = |c: &Cluster, node: NodeId, root: u64| c.root(node, root).expect("root");

    let mut run = move || -> Result<()> {
        for round in 0..25usize {
            let now_sites: Vec<(NodeId, BunchId, Addr)> = sites
                .iter()
                .map(|&(node, b, reg)| (node, b, at(&c, node, reg)))
                .collect();
            let moving: Vec<Addr> = migrate.iter().map(|&o| at(&c, n0, o)).collect();
            churn::chaos_round(&mut c, &now_sites, &moving, round, 0xBAD_5EED)?;
            let reg = at(&c, n0, shared_reg);
            churn::register_churn(&mut c, n0, shared, reg, 2)?;
            // Collect the shared bunch at a NON-ROOT replica node — the
            // rotation the chaos suite avoids — and retire its from-space
            // there. The reuse step is what turns a legitimately dropped
            // replica's stale address into a landmine.
            let collector = if round % 2 == 0 { n1 } else { n2 };
            c.run_bgc(collector, shared)?;
            c.reuse_from_space(collector, shared)?;
            // Re-acquire everywhere: the open item trips NotAnObject here.
            let moving: Vec<Addr> = migrate.iter().map(|&o| at(&c, n0, o)).collect();
            for &o in &moving {
                for &site in &[n0, n1, n2] {
                    c.acquire_write(site, o)?;
                    c.release(site, o)?;
                }
            }
        }
        let head = at(&c, n0, head);
        assert_eq!(lists::read_payloads(&c, n0, head)?.len(), 6);
        Ok(())
    };
    if let Err(e) = run() {
        dump_flight_recorders("replica-bgc-regression");
        panic!(
            "replica-site collection under migration failed (flight \
             recorder dumped to target/chaos/replica-bgc-regression-*): {e}"
        );
    }
    trace::disable();
}
