//! Property-based whole-system tests: random mutation / ownership /
//! collection interleavings must never violate the collector's safety
//! (no live object reclaimed, payloads intact) and must eventually satisfy
//! liveness (unreachable objects reclaimed everywhere).

use std::collections::BTreeSet;

use bmx_repro::prelude::*;
use proptest::prelude::*;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// Number of data objects in the random pool.
const POOL: usize = 16;
/// Pointer fields per object.
const FIELDS: u64 = 2;

/// A step of the random schedule.
#[derive(Clone, Debug)]
enum Op {
    /// `objs[src].field = objs[dst]` (or null), performed at node 0 under a
    /// write token.
    Link {
        src: usize,
        field: u64,
        dst: Option<usize>,
    },
    /// Registry slot `slot` points at `objs[dst]` (or null).
    Root { slot: u64, dst: Option<usize> },
    /// Node 1 takes ownership of `objs[i]`.
    Steal { i: usize },
    /// Run the BGC at a node.
    Collect { node: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..POOL, 0..FIELDS, proptest::option::of(0..POOL))
            .prop_map(|(src, field, dst)| Op::Link { src, field, dst }),
        (0..4u64, proptest::option::of(0..POOL)).prop_map(|(slot, dst)| Op::Root { slot, dst }),
        (0..POOL).prop_map(|i| Op::Steal { i }),
        (0..2u32).prop_map(|node| Op::Collect { node }),
    ]
}

/// Mirror of the mutator-visible graph.
struct Model {
    /// Field targets per object (by pool index).
    fields: Vec<[Option<usize>; FIELDS as usize]>,
    /// Registry slots (the root set).
    roots: [Option<usize>; 4],
}

impl Model {
    fn new() -> Model {
        Model {
            fields: vec![[None; FIELDS as usize]; POOL],
            roots: [None; 4],
        }
    }

    fn reachable(&self) -> BTreeSet<usize> {
        let mut seen = BTreeSet::new();
        let mut stack: Vec<usize> = self.roots.iter().flatten().copied().collect();
        while let Some(i) = stack.pop() {
            if !seen.insert(i) {
                continue;
            }
            stack.extend(self.fields[i].iter().flatten().copied());
        }
        seen
    }
}

/// Is pool object `i` still nameable at `node`? A `false` is only legal for
/// model-unreachable objects (the collector must never take a live one).
fn alive(c: &Cluster, node: NodeId, model: &Model, objs: &[Addr], i: usize) -> bool {
    let present = c.oid_at_local(node, objs[i]).is_ok();
    if !present {
        assert!(
            !model.reachable().contains(&i),
            "object {i} reclaimed while model-reachable"
        );
    }
    present
}

fn run_schedule(ops: &[Op]) -> Result<()> {
    let mut c = Cluster::new(ClusterConfig::with_nodes(2));
    let (n0, n1) = (n(0), n(1));
    let b = c.create_bunch(n0)?;
    // The registry holds the root slots; the pool holds the data objects.
    let registry = c.alloc(n0, b, &ObjSpec::with_refs(4, &[0, 1, 2, 3]))?;
    c.add_root(n0, registry);
    let mut objs = Vec::with_capacity(POOL);
    for i in 0..POOL {
        let o = c.alloc(n0, b, &ObjSpec::with_refs(FIELDS + 1, &[0, 1]))?;
        c.write_data(n0, o, FIELDS, 1000 + i as u64)?;
        objs.push(o);
    }
    c.map_bunch(n1, b, n0)?;

    let mut model = Model::new();
    for op in ops {
        match *op {
            Op::Link { src, field, dst } => {
                // Mutate under the write token, as an entry-consistency
                // program would. A real program cannot name a reclaimed
                // object, so skip sources/targets that are already dead at
                // node 0 — asserting the model agrees they were garbage.
                if !alive(&c, n0, &model, &objs, src) {
                    continue;
                }
                if let Some(d) = dst {
                    if !alive(&c, n0, &model, &objs, d) {
                        continue;
                    }
                }
                let src_addr = objs[src];
                if c.acquire_write(n0, src_addr).is_err() {
                    continue;
                }
                let target = dst.map(|d| objs[d]).unwrap_or(Addr::NULL);
                let wrote = c.write_ref(n0, src_addr, field, target).is_ok();
                c.release(n0, src_addr)?;
                if wrote {
                    model.fields[src][field as usize] = dst;
                }
            }
            Op::Root { slot, dst } => {
                if let Some(d) = dst {
                    if !alive(&c, n0, &model, &objs, d) {
                        continue;
                    }
                }
                let target = dst.map(|d| objs[d]).unwrap_or(Addr::NULL);
                if c.write_ref(n0, registry, slot, target).is_ok() {
                    model.roots[slot as usize] = dst;
                }
            }
            Op::Steal { i } => {
                if alive(&c, n0, &model, &objs, i) && c.acquire_write(n1, objs[i]).is_ok() {
                    c.release(n1, objs[i])?;
                }
            }
            Op::Collect { node } => {
                c.run_bgc(n(node), b)?;
            }
        }
        // SAFETY INVARIANT after every step: every model-reachable object
        // is readable at node 0 with its payload intact.
        for &i in &model.reachable() {
            c.acquire_read(n0, objs[i])?;
            let v = c.read_data(n0, objs[i], FIELDS)?;
            c.release(n0, objs[i])?;
            assert_eq!(v, 1000 + i as u64, "payload of pool object {i}");
        }
        c.assert_gc_acquired_no_tokens();
    }

    // LIVENESS: dead cycles whose members are owned on different nodes are
    // kept alive by a cross-site loop of entering ownerPtrs — the garbage
    // class the paper's per-site collection admittedly cannot reach without
    // ownership movement (Section 7). Apply the paper's remedy first:
    // consolidate ownership of everything still present at node 0.
    for &o in &objs {
        if c.oid_at_local(n0, o).is_ok() && c.acquire_write(n0, o).is_ok() {
            c.release(n0, o)?;
        }
    }
    // Then, after enough collection rounds everywhere, every
    // model-unreachable pool object is reclaimed at node 0.
    for _ in 0..3 {
        c.run_bgc(n1, b)?;
        c.run_bgc(n0, b)?;
    }
    bmx_repro::bmx::audit::assert_clean(&c);
    let live = model.reachable();
    for (i, &o) in objs.iter().enumerate() {
        let present = c.oid_at_local(n0, o).is_ok();
        if live.contains(&i) {
            assert!(present, "live object {i} vanished at node 0");
        } else {
            assert!(!present, "garbage object {i} survived at node 0");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn random_schedules_preserve_safety_and_liveness(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        run_schedule(&ops).expect("schedule must execute cleanly");
    }
}

/// A collection with no intervening mutation is idempotent: the second run
/// reclaims nothing and copies nothing new at the same node.
#[test]
fn back_to_back_collections_are_idempotent() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(1));
    let n0 = n(0);
    let b = c.create_bunch(n0).unwrap();
    let root_obj = c.alloc(n0, b, &ObjSpec::with_refs(2, &[0, 1])).unwrap();
    let kid = c.alloc(n0, b, &ObjSpec::data(1)).unwrap();
    let _junk = c.alloc(n0, b, &ObjSpec::data(1)).unwrap();
    c.write_ref(n0, root_obj, 0, kid).unwrap();
    c.add_root(n0, root_obj);
    let s1 = c.run_bgc(n0, b).unwrap();
    assert_eq!(s1.reclaimed, 1);
    assert_eq!(s1.copied, 2);
    let s2 = c.run_bgc(n0, b).unwrap();
    assert_eq!(s2.reclaimed, 0, "nothing left to reclaim");
    assert_eq!(s2.live, 2);
}

/// `ptr_eq` is an equivalence consistent with object identity across any
/// number of relocations.
#[test]
fn ptr_eq_stable_across_relocations() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(1));
    let n0 = n(0);
    let b = c.create_bunch(n0).unwrap();
    let a = c.alloc(n0, b, &ObjSpec::data(1)).unwrap();
    let x = c.alloc(n0, b, &ObjSpec::data(1)).unwrap();
    c.add_root(n0, a);
    c.add_root(n0, x);
    let mut a_names = vec![a];
    let mut x_names = vec![x];
    for _ in 0..4 {
        c.run_bgc(n0, b).unwrap();
        a_names.push(c.gc.node(n0).directory.resolve(a));
        x_names.push(c.gc.node(n0).directory.resolve(x));
    }
    for &p in &a_names {
        for &q in &a_names {
            assert!(c.ptr_eq(n0, p, q), "all names of A are equal");
        }
        for &q in &x_names {
            assert!(!c.ptr_eq(n0, p, q), "A is never X");
        }
    }
}

/// One step of a random history of one node's view of held addresses.
#[derive(Clone, Debug)]
enum HeldOp {
    /// The node's own collection moves its copy of object `i` to a fresh
    /// segment of the object's bunch.
    MoveOwn(usize),
    /// Another node moves its copy of object `i` to a fresh segment the
    /// node does not map; with `true` the node learns the record.
    MoveElsewhere(usize, bool),
    /// The `k`-th registered segment (mod their number) retires: its
    /// relocation records are registered and the node drops its replica and
    /// its forwarding out of it.
    Retire(usize),
    /// The `k`-th retiring segment is released.
    Release(usize),
    /// The node sweeps and the cut holds: released ranges lose their routes.
    Sweep,
}

fn held_op_strategy() -> impl Strategy<Value = HeldOp> {
    const OBJS: usize = 4;
    prop_oneof![
        (0..OBJS).prop_map(HeldOp::MoveOwn),
        (0..OBJS, any::<bool>()).prop_map(|(i, learn)| HeldOp::MoveElsewhere(i, learn)),
        (0..8usize).prop_map(HeldOp::Retire),
        (0..8usize).prop_map(HeldOp::Release),
        Just(HeldOp::Sweep),
    ]
}

/// Where a segment is in its life, as the model tracks it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SegLife {
    Registered,
    Retiring,
    Released,
    Swept,
}

/// Runs a history against one node's memory and directory and the segment
/// server, and after every step compares `bmx_gc::held` with a brute-force
/// answer for every address the history ever gave an object, as held and
/// through the node's forwarding: the model keeps its own copy of every
/// route the retired ranges registered (the later record winning per
/// from-address) and walks it, finds the node's own copy by scanning the
/// headers it holds, and takes bunches from its own list of the segments
/// the server still registers.
fn run_held_history(ops: &[HeldOp]) {
    use bmx_repro::addr::{object, NodeMemory, SegmentInfo, SegmentServer, Sweep};
    use bmx_repro::gc::{held, Directory, Held, SharedServer};
    use std::collections::BTreeMap;

    const WORDS: u64 = 16;
    let node = n(0);
    let srv = SharedServer::new(SegmentServer::new(WORDS));
    let mut mem = NodeMemory::new(node);
    let mut dir = Directory::new();
    let mut segs: Vec<(SegmentInfo, SegLife)> = Vec::new();
    let bunches: Vec<BunchId> = (0..2)
        .map(|_| srv.borrow_mut().create_bunch(n(1), Protection::default()))
        .collect();
    // The node maps one segment per bunch and allocates the objects there.
    let mut objs: Vec<(Oid, BunchId)> = Vec::new();
    let mut elsewhere: Vec<Addr> = Vec::new();
    for &b in &bunches {
        let info = srv.borrow_mut().alloc_segment(b).unwrap();
        mem.map_segment(info);
        segs.push((info, SegLife::Registered));
        for _ in 0..2 {
            let oid = Oid(objs.len() as u64 + 1);
            let seg = mem.segment_mut(info.id).unwrap();
            let a = object::alloc_in_segment(seg, oid, 1, &[]).unwrap();
            dir.set_addr(oid, a);
            objs.push((oid, b));
            elsewhere.push(a);
        }
    }
    let mut probes: Vec<Addr> = elsewhere.clone();
    let mut relocs: Vec<(Oid, Addr, Addr)> = Vec::new();
    let mut routes: BTreeMap<Addr, (Oid, Addr)> = BTreeMap::new();
    let life_of = |segs: &[(SegmentInfo, SegLife)], a: Addr| {
        segs.iter()
            .find(|(info, _)| info.contains(a))
            .map(|&(_, life)| life)
    };
    let fresh = |segs: &mut Vec<(SegmentInfo, SegLife)>, b: BunchId| {
        let info = srv.borrow_mut().alloc_segment(b).unwrap();
        segs.push((info, SegLife::Registered));
        info
    };
    for (step, op) in ops.iter().enumerate() {
        match *op {
            HeldOp::MoveOwn(i) => {
                let (oid, b) = objs[i];
                let Some(own) = dir
                    .addr_of(oid)
                    .filter(|&a| object::view(&mem, a).is_ok_and(|v| v.oid == oid))
                    .filter(|&a| !dir.is_forwarded_from(a))
                else {
                    continue;
                };
                let info = fresh(&mut segs, b);
                mem.map_segment(info);
                let seg = mem.segment_mut(info.id).unwrap();
                let to = object::alloc_in_segment(seg, oid, 1, &[]).unwrap();
                object::set_forwarding(&mut mem, own, to).unwrap();
                assert!(dir.record_move(oid, own, to));
                relocs.push((oid, own, to));
                probes.push(to);
            }
            HeldOp::MoveElsewhere(i, learn) => {
                let (oid, b) = objs[i];
                let from = elsewhere[i];
                if life_of(&segs, from) != Some(SegLife::Registered) {
                    continue;
                }
                let to = fresh(&mut segs, b).base;
                if learn {
                    dir.record_move(oid, from, to);
                }
                relocs.push((oid, from, to));
                elsewhere[i] = to;
                probes.push(to);
            }
            HeldOp::Retire(k) => {
                let live: Vec<usize> = (0..segs.len())
                    .filter(|&s| segs[s].1 == SegLife::Registered)
                    .collect();
                if live.is_empty() {
                    continue;
                }
                let s = live[k % live.len()];
                let info = segs[s].0;
                let out: Vec<(Oid, Addr, Addr)> = relocs
                    .iter()
                    .copied()
                    .filter(|&(_, from, _)| info.contains(from))
                    .collect();
                for &(oid, from, to) in &out {
                    routes.insert(from, (oid, to));
                }
                srv.borrow_mut().note_retired(info.base, WORDS, out);
                if mem.has_segment(info.id) {
                    mem.unmap_segment(info.id).unwrap();
                }
                dir.forget_range(info.base, WORDS);
                segs[s].1 = SegLife::Retiring;
            }
            HeldOp::Release(k) => {
                let retiring: Vec<usize> = (0..segs.len())
                    .filter(|&s| segs[s].1 == SegLife::Retiring)
                    .collect();
                if retiring.is_empty() {
                    continue;
                }
                let s = retiring[k % retiring.len()];
                srv.borrow_mut().release_segments(&[segs[s].0.id]);
                segs[s].1 = SegLife::Released;
            }
            HeldOp::Sweep => {
                let seen = srv.borrow().release_clock();
                let sweep = Sweep {
                    seen,
                    sent: vec![0],
                    applied: vec![0],
                    durable: true,
                };
                srv.borrow_mut().note_sweep(node, sweep);
                for (info, life) in &mut segs {
                    if *life == SegLife::Released {
                        routes.retain(|&from, _| !info.contains(from));
                        *life = SegLife::Swept;
                    }
                }
            }
        }
        let registered = |a: Addr| {
            segs.iter()
                .find(|(info, life)| {
                    info.contains(a) && matches!(life, SegLife::Registered | SegLife::Retiring)
                })
                .map(|(info, _)| info.bunch)
        };
        let brute = |p: Addr| {
            if let Ok((s, off)) = mem.position(p) {
                if mem.segments()[s].object_map.get(off) {
                    return Held::Local((s, off));
                }
            }
            let mut found = None;
            let mut cur = p;
            while let Some(&(oid, to)) = routes.get(&cur) {
                found = Some((oid, to));
                cur = to;
            }
            let Some((oid, end)) = found else {
                return registered(p).map_or(Held::Unknown, Held::Remote);
            };
            let own = dir.addr_of(oid).filter(|&a| {
                mem.segments()
                    .iter()
                    .flat_map(object::views_in)
                    .any(|v| v.addr == a && v.oid == oid)
            });
            let to = own.unwrap_or_else(|| dir.resolve(end));
            match registered(to).or_else(|| registered(p)) {
                Some(bunch) => Held::Routed { oid, to, bunch },
                None => Held::Unknown,
            }
        };
        for &p in &probes {
            for p in [p, dir.resolve(p)] {
                assert_eq!(
                    held(&mem, &dir, &srv, p),
                    brute(p),
                    "step {step} ({op:?}) at {p}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn held_matches_a_brute_force_walk_over_random_histories(
        ops in proptest::collection::vec(held_op_strategy(), 1..80)
    ) {
        run_held_history(&ops);
    }
}
