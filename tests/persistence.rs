//! Persistence by reachability, end to end: only reachable objects reach
//! the disk; crash recovery restores them; torn logs are survived.

use bmx_repro::bmx::persist;
use bmx_repro::common::Epoch;
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

/// A restarted source does not answer for a table it lost. N0's rooted
/// object points into N1's bunch; N0 checkpoints, crashes and comes back
/// from its store with the pointer but without the stub table, which is
/// not checkpointed. N1 holds the scion that pointer justifies and, hearing
/// no table from N0, asks for one. An empty answer would cut the scion and
/// let N1 reclaim an object N0 still points to.
#[test]
fn a_restarted_source_does_not_answer_with_a_table_it_lost() {
    let dir = fresh_dir("lost-table");
    let mut c = Cluster::new(ClusterConfig {
        nodes: 2,
        persist: Some(PersistConfig::at(&dir)),
        ..Default::default()
    });
    let (n0, n1) = (n(0), n(1));
    let b0 = c.create_bunch(n0).unwrap();
    let b1 = c.create_bunch(n1).unwrap();
    let src = c.alloc(n0, b0, &ObjSpec::with_refs(1, &[0])).unwrap();
    c.add_root(n0, src);
    let tgt = c.alloc(n1, b1, &ObjSpec::data(1)).unwrap();
    c.write_data(n1, tgt, 0, 77).unwrap();
    c.write_ref(n0, src, 0, tgt).unwrap();
    c.run_bgc(n0, b0).unwrap();
    c.restart_with_amnesia(n0).unwrap();
    c.settle(100).unwrap();
    assert!(!c.in_recovery(n0), "the rejoin completed");
    // N0 collects again: a fresh epoch of a table without the stub.
    c.run_bgc(n0, b0).unwrap();
    c.step(64).unwrap();
    c.run_bgc(n1, b1).unwrap();
    let src = c.root(n0, 1).expect("the root came back");
    assert!(
        !c.read_ref(n0, src, 0).unwrap().is_null(),
        "N0 still points at it"
    );
    assert_eq!(
        c.read_data(n1, tgt, 0).unwrap(),
        77,
        "the target survived at N1"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A token request that lands at a node still rejoining is dropped as if
/// lost; the requester asks again. N1 owns x and restarts; N0's write
/// request reaches N1 before the rejoin replies do, so that acquire gives
/// up with `WouldBlock`. The rejoin completes inside the same pump, and the
/// next acquire is served from N1's reconciled state.
#[test]
fn a_request_to_a_rejoining_owner_is_dropped_and_asked_again() {
    let dir = fresh_dir("mid-rejoin");
    let (n0, n1) = (n(0), n(1));
    let mut c = Cluster::new(ClusterConfig {
        nodes: 2,
        persist: Some(PersistConfig::at(&dir)),
        ..Default::default()
    });
    let b = c.create_bunch(n1).unwrap();
    let x = c.alloc(n1, b, &ObjSpec::data(1)).unwrap();
    c.write_data(n1, x, 0, 5).unwrap();
    c.add_root(n1, x);
    c.map_bunch(n0, b, n1).unwrap();
    c.add_root(n0, x);
    c.run_bgc(n1, b).unwrap(); // N1's checkpoint holds x
    c.settle(1_000).unwrap();

    c.restart_with_amnesia(n1).unwrap(); // rejoin requests staged, not delivered
    assert!(matches!(
        c.acquire_write(n0, x),
        Err(BmxError::WouldBlock { .. })
    ));
    assert!(!c.in_recovery(n1), "the rejoin completed");
    c.acquire_write(n0, x).unwrap();
    assert_eq!(c.read_data(n0, x, 0).unwrap(), 5);
    c.write_data(n0, x, 0, 6).unwrap();
    c.release(n0, x).unwrap();
    let findings = bmx_repro::bmx::audit::audit(&c);
    assert!(findings.is_empty(), "audit after the retry: {findings:#?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A peer that crashes while another node is rejoining does not wedge that
/// rejoin. N1 restarts at tick 20 and asks N0 and N2; N2 crashes at tick 21
/// with the request, or its answer, in flight. N1 stops waiting for a peer
/// that is down, and N2's own rejoin later asks N1 like any peer.
#[test]
fn a_second_crash_does_not_wedge_a_rejoin() {
    let (n1, n2) = (n(1), n(2));
    let plan = FaultPlan::none()
        .crash_amnesia(n1, 10, 20)
        .crash_amnesia(n2, 21, 40);
    let mut c = Cluster::new(ClusterConfig {
        nodes: 3,
        net: NetworkConfig::lossless(1).with_fault(plan),
        ..Default::default()
    });
    c.step(300).unwrap();
    assert!(!c.in_recovery(n2), "N2 rejoined");
    assert!(!c.in_recovery(n1), "N1's rejoin did not wait for N2");
    for node in [n1, n2] {
        assert!(c.recovery_log.iter().any(|r| r.node == node));
    }
}

/// The same overlap over replicated data: four checkpointed objects, their
/// ownership spread over all three nodes, N1 crashing and N2 crashing while
/// N1 rejoins. Every object ends with one owner, every replica reads the
/// value its owner checkpointed, and the audit is clean.
#[test]
fn overlapping_rejoins_keep_replicated_objects_consistent() {
    let dir = fresh_dir("overlap");
    let (n0, n1, n2) = (n(0), n(1), n(2));
    let plan = FaultPlan::none()
        .crash_amnesia(n1, 200, 210)
        .crash_amnesia(n2, 211, 230);
    let mut c = Cluster::new(ClusterConfig {
        nodes: 3,
        net: NetworkConfig::lossless(1).with_fault(plan),
        persist: Some(PersistConfig::at(&dir)),
        ..Default::default()
    });
    let b = c.create_bunch(n0).unwrap();
    let objs: Vec<Addr> = (0..4)
        .map(|_| c.alloc(n0, b, &ObjSpec::data(1)).unwrap())
        .collect();
    for &o in &objs {
        c.add_root(n0, o);
    }
    for node in [n1, n2] {
        c.map_bunch(node, b, n0).unwrap();
        for &o in &objs {
            c.add_root(node, o);
        }
    }
    let owners = [n0, n1, n2, n1];
    for (i, (&o, &owner)) in objs.iter().zip(&owners).enumerate() {
        c.acquire_write(owner, o).unwrap();
        c.write_data(owner, o, 0, 10 + i as u64).unwrap();
        c.release(owner, o).unwrap();
    }
    for node in [n0, n1, n2] {
        c.run_bgc(node, b).unwrap(); // each node's checkpoint holds all four
    }
    c.settle(1_000).unwrap();
    assert!(c.net.now() < 200, "setup ran into the crashes");

    c.step(400).unwrap();
    assert!(
        !c.in_recovery(n1) && !c.in_recovery(n2),
        "both rejoins completed"
    );
    let findings = bmx_repro::bmx::audit::audit(&c);
    assert!(
        findings.is_empty(),
        "audit after the rejoins: {findings:#?}"
    );
    for (i, &o) in objs.iter().enumerate() {
        for node in [n0, n1, n2] {
            c.acquire_read(node, o).unwrap();
            assert_eq!(c.read_data(node, o, 0).unwrap(), 10 + i as u64);
            c.release(node, o).unwrap();
        }
        let oid = c.oid_at(n0, o).unwrap();
        let owned = [n0, n1, n2]
            .iter()
            .filter(|&&p| c.engine.is_owner(p, oid))
            .count();
        assert_eq!(owned, 1, "object {i} has one owner");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// N0 checkpoints, then stores a pointer into N1's bunch and clears it
/// again. Every table travels on the lossy `StubTable` lane, here lost, so
/// N1 keeps the scion of that first SSP. `restart_n0` restarts N0 from its
/// checkpoint, whose SSP counter predates that SSP; then N0 stores a new
/// pointer into N1's bunch, N1 collects and releases its from-space, and
/// N0's pointer is read at N1.
fn read_through_a_pointer_stored_after_a_restart(restart_n0: bool) -> Result<u64> {
    let dir = fresh_dir(&format!("ssp-ids-{restart_n0}"));
    let (n0, n1) = (n(0), n(1));
    let mut c = Cluster::new(ClusterConfig {
        nodes: 2,
        net: NetworkConfig::lossless(1).with_drop(MsgClass::StubTable, 1.0),
        persist: Some(PersistConfig::at(&dir)),
        ..Default::default()
    });
    let b0 = c.create_bunch(n0)?;
    let b1 = c.create_bunch(n1)?;
    let src = c.alloc(n0, b0, &ObjSpec::with_refs(1, &[0]))?;
    let root = c.add_root(n0, src);
    let old = c.alloc(n1, b1, &ObjSpec::data(1))?;
    let new = c.alloc(n1, b1, &ObjSpec::data(1))?;
    c.write_data(n1, new, 0, 88)?;
    c.run_bgc(n0, b0)?; // N0's checkpoint
    c.write_ref(n0, src, 0, old)?; // the first SSP N0 mints
    c.write_ref(n0, src, 0, Addr::NULL)?;
    if restart_n0 {
        c.restart_with_amnesia(n0)?;
        c.settle(100)?;
        assert!(!c.in_recovery(n0), "the rejoin completed");
    }
    let src = c.root(n0, root).expect("the root came back");
    c.write_ref(n0, src, 0, new)?;
    c.settle(100)?;
    c.run_bgc(n1, b1)?;
    c.reuse_from_space(n1, b1)?;
    c.settle(100)?;
    let p = c.read_ref(n0, src, 0)?;
    let v = c.read_data(n1, p, 0);
    let _ = std::fs::remove_dir_all(&dir);
    v
}

/// A restarted node mints no SSP id its crashed incarnation used: the
/// target still holds the dead incarnation's scion under that id and drops
/// a scion-create that repeats it, so the new reference would justify
/// nothing.
#[test]
fn a_restarted_node_mints_fresh_ssp_ids() {
    assert_eq!(
        read_through_a_pointer_stored_after_a_restart(false).unwrap(),
        88
    );
    assert_eq!(
        read_through_a_pointer_stored_after_a_restart(true).unwrap(),
        88
    );
}

/// Nor does it mint an OID again that its crashed incarnation minted after
/// the last checkpoint: a peer may hold a replica under it.
#[test]
fn a_restarted_node_mints_fresh_oids() {
    let dir = fresh_dir("oids");
    let (n0, n1) = (n(0), n(1));
    let mut c = Cluster::new(ClusterConfig {
        nodes: 2,
        persist: Some(PersistConfig::at(&dir)),
        ..Default::default()
    });
    let b0 = c.create_bunch(n0).unwrap();
    let first = c.alloc(n0, b0, &ObjSpec::data(1)).unwrap();
    c.add_root(n0, first);
    c.run_bgc(n0, b0).unwrap(); // N0's checkpoint
    let lost = c.alloc(n0, b0, &ObjSpec::data(1)).unwrap();
    let lost = c.oid_at(n0, lost).unwrap();
    c.restart_with_amnesia(n0).unwrap();
    c.settle(100).unwrap();
    assert!(!c.in_recovery(n0) && !c.in_recovery(n1));
    let again = c.alloc(n0, b0, &ObjSpec::data(1)).unwrap();
    assert_ne!(c.oid_at(n0, again).unwrap(), lost);
    let _ = std::fs::remove_dir_all(&dir);
}

/// N0 points into N1's bunch; `restart_n0` restarts N0 from its checkpoint
/// first. Then N1 restarts, collects and releases its from-space, and N0's
/// pointer is read at N1.
fn read_through_a_restored_pointer(restart_n0: bool) -> Result<u64> {
    let dir = fresh_dir(&format!("restored-stub-{restart_n0}"));
    let (n0, n1) = (n(0), n(1));
    let mut c = Cluster::new(ClusterConfig {
        nodes: 2,
        persist: Some(PersistConfig::at(&dir)),
        ..Default::default()
    });
    let b0 = c.create_bunch(n0)?;
    let b1 = c.create_bunch(n1)?;
    let src = c.alloc(n0, b0, &ObjSpec::with_refs(1, &[0]))?;
    let root = c.add_root(n0, src);
    let tgt = c.alloc(n1, b1, &ObjSpec::data(1))?;
    c.write_data(n1, tgt, 0, 77)?;
    c.write_ref(n0, src, 0, tgt)?;
    c.run_bgc(n0, b0)?;
    c.run_bgc(n1, b1)?; // N1's checkpoint holds the target
    c.settle(100)?;
    if restart_n0 {
        c.restart_with_amnesia(n0)?;
        c.settle(100)?;
    }
    c.restart_with_amnesia(n1)?;
    c.settle(100)?;
    assert!(
        !c.in_recovery(n0) && !c.in_recovery(n1),
        "the rejoins completed"
    );
    c.run_bgc(n1, b1)?;
    c.reuse_from_space(n1, b1)?;
    c.settle(100)?;
    let src = c.root(n0, root).expect("the root came back");
    let p = c.read_ref(n0, src, 0)?;
    let v = c.read_data(n1, p, 0);
    let _ = std::fs::remove_dir_all(&dir);
    v
}

/// A pointer restored from a checkpoint comes back with its stub. Stub
/// tables are not checkpointed; without the stub, the restarted N0's rejoin
/// answer to a later-restarting N1 carries a table that does not justify
/// N1's scion, and N1 reclaims the target.
#[test]
fn a_restored_pointer_comes_back_with_its_stub() {
    assert_eq!(read_through_a_restored_pointer(false).unwrap(), 77);
    assert_eq!(read_through_a_restored_pointer(true).unwrap(), 77);
}

/// The cleaner epoch N1 has applied from N0 for `bunch`.
fn applied_from_n0(c: &Cluster, bunch: BunchId) -> Epoch {
    c.gc.node(n(1)).cleaner_epochs[&(n(0), bunch)]
}

/// A bunch a restarted node maps again, without having recovered it,
/// publishes tables its peers apply. N0 maps N1's bunch and collects it
/// five times, so N1 has applied N0's epoch 5; N0 restarts with no store,
/// maps the bunch again and collects it. The new replica's epochs start
/// above every epoch the dead incarnation published, so N1 applies the
/// new table instead of discarding it as stale.
#[test]
fn a_bunch_mapped_again_after_a_restart_publishes_fresh_epochs() {
    let (n0, n1) = (n(0), n(1));
    let mut c = Cluster::new(ClusterConfig::with_nodes(2));
    let b = c.create_bunch(n1).unwrap();
    let x = c.alloc(n1, b, &ObjSpec::data(1)).unwrap();
    c.add_root(n1, x);
    c.map_bunch(n0, b, n1).unwrap();
    for _ in 0..5 {
        c.run_bgc(n0, b).unwrap();
    }
    c.settle(1_000).unwrap();
    assert_eq!(applied_from_n0(&c, b), Epoch(5));

    c.restart_with_amnesia(n0).unwrap();
    c.settle(1_000).unwrap();
    assert!(!c.in_recovery(n0), "the rejoin completed");
    c.map_bunch(n0, b, n1).unwrap();
    c.run_bgc(n0, b).unwrap();
    c.settle(1_000).unwrap();
    assert!(
        applied_from_n0(&c, b) > Epoch(5),
        "N1 discarded the restarted N0's table as stale (applied {:?})",
        applied_from_n0(&c, b)
    );
}

/// A restarted node answers a table request for a bunch its manifest
/// replayed, from the stubs it restored. N0's rooted object points into
/// N1's bunch; N0 checkpoints, restarts from its store and does not
/// collect again. N1 asks for the table behind its scion, applies N0's
/// answer, and keeps the target the restored pointer needs.
#[test]
fn a_restarted_source_answers_a_table_request_for_a_replayed_bunch() {
    let dir = fresh_dir("replayed-table");
    let (n0, n1) = (n(0), n(1));
    let mut c = Cluster::new(ClusterConfig {
        nodes: 2,
        persist: Some(PersistConfig::at(&dir)),
        ..Default::default()
    });
    let b0 = c.create_bunch(n0).unwrap();
    let b1 = c.create_bunch(n1).unwrap();
    let src = c.alloc(n0, b0, &ObjSpec::with_refs(1, &[0])).unwrap();
    c.add_root(n0, src);
    let tgt = c.alloc(n1, b1, &ObjSpec::data(1)).unwrap();
    c.write_data(n1, tgt, 0, 77).unwrap();
    c.write_ref(n0, src, 0, tgt).unwrap();
    c.run_bgc(n0, b0).unwrap(); // N0's checkpoint
    c.settle(100).unwrap();
    let before = applied_from_n0(&c, b0);

    c.restart_with_amnesia(n0).unwrap();
    c.settle(100).unwrap();
    assert!(!c.in_recovery(n0), "the rejoin completed");
    c.step(64).unwrap();
    assert!(
        applied_from_n0(&c, b0) > before,
        "N1 applied no table of the restarted N0: {:?}",
        applied_from_n0(&c, b0)
    );
    c.run_bgc(n1, b1).unwrap();
    assert_eq!(
        c.read_data(n1, tgt, 0).unwrap(),
        77,
        "the target survived at N1"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
