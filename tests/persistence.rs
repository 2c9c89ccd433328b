//! Persistence by reachability, end to end: only reachable objects reach
//! the disk; crash recovery restores them; torn logs are survived.

use bmx_repro::bmx::persist;
use bmx_repro::prelude::*;
use bmx_repro::rvm::{Rvm, RvmOptions};
use bmx_repro::workloads::lists;
use std::path::PathBuf;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bmx-persist-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Garbage never reaches the disk: a reachability checkpoint of a heap
/// that is mostly garbage is much smaller than a naive checkpoint, and
/// after recovery the garbage is simply absent.
#[test]
fn unreachable_objects_are_not_persisted() {
    let n0 = n(0);
    let build = |c: &mut Cluster| {
        let b = c.create_bunch(n0).unwrap();
        let list = lists::build_list(c, n0, b, 10, 0).unwrap();
        let root = c.add_root(n0, list.head);
        // 200 unreachable objects dwarf the live list.
        for _ in 0..200 {
            c.alloc(n0, b, &ObjSpec::data(6)).unwrap();
        }
        (b, list, root)
    };

    // Naive checkpoint (garbage still resident).
    let naive_bytes = {
        let dir = fresh_dir("naive");
        let mut c = Cluster::new(ClusterConfig::with_nodes(1));
        let (b, _, _) = build(&mut c);
        let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
        persist::checkpoint_bunch(&mut c, n0, b, &mut rvm).unwrap();
        rvm.log_bytes()
    };

    // Reachability checkpoint.
    let dir = fresh_dir("reach");
    let (reach_bytes, b, head) = {
        let mut c = Cluster::new(ClusterConfig::with_nodes(1));
        let (b, _list, root) = build(&mut c);
        let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
        persist::checkpoint_reachable(&mut c, n0, b, &mut rvm).unwrap();
        // The compaction (and the from-space reuse inside
        // checkpoint_reachable) rewrote the root; read the head through it.
        let head = c.root(n0, root).unwrap();
        (rvm.log_bytes(), b, head)
    };
    assert!(
        reach_bytes * 3 < naive_bytes,
        "reachability checkpoint must be much smaller: {reach_bytes} vs {naive_bytes}"
    );

    // Recovery: the live list is whole; the garbage was never written.
    let mut c = Cluster::new(ClusterConfig::with_nodes(1));
    let b2 = c.create_bunch(n0).unwrap();
    assert_eq!(b2, b);
    let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
    persist::recover_bunch(&mut c, n0, b2, &mut rvm).unwrap();
    let payloads = lists::read_payloads(&c, n0, head).unwrap();
    assert_eq!(payloads, (0..10).collect::<Vec<_>>());
}

/// Checkpoints are atomic: a crash between two checkpoints recovers the
/// earlier one, never a mixture.
#[test]
fn checkpoints_are_atomic_versions() {
    let dir = fresh_dir("versions");
    let n0 = n(0);
    let (b, cell) = {
        let mut c = Cluster::new(ClusterConfig::with_nodes(1));
        let b = c.create_bunch(n0).unwrap();
        let list = lists::build_list(&mut c, n0, b, 4, 0).unwrap();
        c.add_root(n0, list.head);
        let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
        persist::checkpoint_bunch(&mut c, n0, b, &mut rvm).unwrap();
        // Mutate and checkpoint again.
        c.write_data(n0, list.cells[2], lists::PAYLOAD, 777)
            .unwrap();
        persist::checkpoint_bunch(&mut c, n0, b, &mut rvm).unwrap();
        (b, list.cells[2])
    };
    // Recover: the *second* checkpoint's value is visible (both committed;
    // the log replays in order).
    let mut c = Cluster::new(ClusterConfig::with_nodes(1));
    let b2 = c.create_bunch(n0).unwrap();
    let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
    persist::recover_bunch(&mut c, n0, b2, &mut rvm).unwrap();
    assert_eq!(c.read_data(n0, cell, lists::PAYLOAD).unwrap(), 777);
    let _ = b;
}

/// A torn tail in the log (crash mid-append) is detected and discarded;
/// the previous committed state recovers.
#[test]
fn torn_log_tail_recovers_previous_checkpoint() {
    let dir = fresh_dir("torn");
    let n0 = n(0);
    let (b, cell) = {
        let mut c = Cluster::new(ClusterConfig::with_nodes(1));
        let b = c.create_bunch(n0).unwrap();
        let list = lists::build_list(&mut c, n0, b, 3, 0).unwrap();
        c.add_root(n0, list.head);
        let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
        persist::checkpoint_bunch(&mut c, n0, b, &mut rvm).unwrap();
        (b, list.cells[1])
    };
    // Corrupt: append half a record by hand (simulated crash mid-write).
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("rvm.log"))
            .unwrap();
        f.write_all(&[0x52, 0x56, 0x4D, 0x31, 0x01, 0x00, 0x00])
            .unwrap();
    }
    let mut c = Cluster::new(ClusterConfig::with_nodes(1));
    let b2 = c.create_bunch(n0).unwrap();
    let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
    persist::recover_bunch(&mut c, n0, b2, &mut rvm).unwrap();
    assert_eq!(c.read_data(n0, cell, lists::PAYLOAD).unwrap(), 1);
    let _ = b;
}

/// Checkpoint -> run more mutations and collections -> checkpoint again ->
/// crash -> recover: the second image wins, forwarding state included.
#[test]
fn checkpoint_after_collection_round_trips_forwarding() {
    let dir = fresh_dir("fwd");
    let n0 = n(0);
    let (b, old_head, payloads_expected) = {
        let mut c = Cluster::new(ClusterConfig::with_nodes(1));
        let b = c.create_bunch(n0).unwrap();
        let list = lists::build_list(&mut c, n0, b, 6, 100).unwrap();
        c.add_root(n0, list.head);
        c.run_bgc(n0, b).unwrap(); // relocates everything; from-space keeps headers
        let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
        persist::checkpoint_bunch(&mut c, n0, b, &mut rvm).unwrap();
        (b, list.head, (100..106).collect::<Vec<u64>>())
    };
    let mut c = Cluster::new(ClusterConfig::with_nodes(1));
    let b2 = c.create_bunch(n0).unwrap();
    let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
    persist::recover_bunch(&mut c, n0, b2, &mut rvm).unwrap();
    // The OLD head address still works: recovery rebuilt the forwarding
    // knowledge from the persisted headers.
    assert_eq!(
        lists::read_payloads(&c, n0, old_head).unwrap(),
        payloads_expected
    );
    let _ = b;
}

/// A manifest write is a cut across *every* locally mapped bunch, not only
/// the collected group (the root cause of ROADMAP 2(f)). N2 holds a
/// private `k` pointing at `x` in a shared bunch. N0's collection moves
/// `x`; N2's next acquire applies that relocation, so N2's replica of the
/// shared bunch gains a to-space segment and `k.0`/N2's root now name the
/// new address. N2 then collects only its *private* bunch: the checkpoint
/// must also re-store the shared bunch, or an amnesia restart recovers
/// pointers into a to-space the stored image never had.
#[test]
fn checkpoint_stores_every_bunch_changed_since_its_last_image() {
    let dir = fresh_dir("cut");
    let (n0, n2) = (n(0), n(2));
    let mut cfg = ClusterConfig::with_nodes(3);
    cfg.persist = Some(PersistConfig::at(&dir));
    let mut c = Cluster::new(cfg);
    let shared = c.create_bunch(n0).unwrap();
    let x = c.alloc(n0, shared, &ObjSpec::with_refs(2, &[0])).unwrap();
    c.add_root(n0, x);
    c.map_bunch(n2, shared, n0).unwrap();
    let x_root = c.add_root(n2, x);
    let private = c.create_bunch(n2).unwrap();
    let k = c.alloc(n2, private, &ObjSpec::with_refs(2, &[0])).unwrap();
    let k_root = c.add_root(n2, k);
    c.write_ref(n2, k, 0, x).unwrap();

    c.run_bgc(n2, private).unwrap();
    c.run_bgc(n2, shared).unwrap();
    c.run_bgc(n0, shared).unwrap(); // moves x at its owner
    c.acquire_write(n2, x).unwrap(); // N2 learns the move, maps the to-space
    c.release(n2, x).unwrap();
    c.run_bgc(n2, private).unwrap(); // checkpoint names x's new address

    c.restart_with_amnesia(n2).unwrap();
    c.settle(10_000).unwrap();
    assert!(!c.in_recovery(n2), "rejoin completed");
    let findings = bmx_repro::bmx::audit::audit(&c);
    assert!(findings.is_empty(), "audit after recovery: {findings:#?}");
    let k = c.root(n2, k_root).expect("k's root recovered");
    let x = c.root(n2, x_root).expect("x's root recovered");
    assert!(c.ptr_eq(n2, c.read_ref(n2, k, 0).unwrap(), x));
    c.acquire_read(n2, x)
        .expect("the recovered replica of x is usable");
    c.release(n2, x).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Nobody *reporting* ownership is not nobody owning. N1's write request
/// reaches the owner N0 in the same tick as N2's rejoin request: N0 grants
/// first and answers "not the owner any more", N1 answers "not the owner
/// yet", and the grant lands a tick later. N2 must read the handoff counts
/// — N0 made the last handoff, to N1 — and come back as a plain replica;
/// claiming the object would make two owners.
#[test]
fn rejoin_does_not_claim_an_object_whose_ownership_is_in_flight() {
    let dir = fresh_dir("inflight");
    let (n0, n1, n2) = (n(0), n(1), n(2));
    let mut cfg = ClusterConfig::with_nodes(3);
    cfg.persist = Some(PersistConfig::at(&dir));
    let mut c = Cluster::new(cfg);
    let b = c.create_bunch(n0).unwrap();
    let x = c.alloc(n0, b, &ObjSpec::with_refs(2, &[0])).unwrap();
    c.add_root(n0, x);
    for node in [n1, n2] {
        c.map_bunch(node, b, n0).unwrap();
        c.add_root(node, x);
    }
    c.run_bgc(n2, b).unwrap(); // N2's checkpoint holds x
    c.settle(1_000).unwrap();

    c.restart_with_amnesia(n2).unwrap(); // rejoin requests staged, not delivered
    assert!(c.poll_acquire(n1, x, true).unwrap(), "N1 got the token");
    c.release(n1, x).unwrap();
    c.settle(10_000).unwrap();
    assert!(!c.in_recovery(n2), "rejoin completed");
    let findings = bmx_repro::bmx::audit::audit(&c);
    assert!(findings.is_empty(), "audit after recovery: {findings:#?}");
    let oid = c.oid_at(n1, x).unwrap();
    assert!(c.engine.is_owner(n1, oid) && !c.engine.is_owner(n2, oid));

    // The opposite case still recovers: ownership moves to N2, N2 crashes
    // as the owner, and the survivors' last handoff names it.
    c.acquire_write(n2, x).unwrap();
    c.write_data(n2, x, 1, 7).unwrap();
    c.release(n2, x).unwrap();
    c.run_bgc(n2, b).unwrap();
    c.restart_with_amnesia(n2).unwrap();
    c.settle(10_000).unwrap();
    let findings = bmx_repro::bmx::audit::audit(&c);
    assert!(
        findings.is_empty(),
        "audit after the second recovery: {findings:#?}"
    );
    assert!(c.engine.is_owner(n2, oid), "N2 claims what died with it");
    c.acquire_read(n0, x).unwrap();
    assert_eq!(c.read_data(n0, x, 1).unwrap(), 7);
    c.release(n0, x).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
