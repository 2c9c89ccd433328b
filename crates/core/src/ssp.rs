//! Stub–scion pairs (SSPs).
//!
//! SSPs make every bunch replica self-sufficient for reachability decisions
//! (paper, Section 3.1). They are simpler than RPC-system SSPs: they are not
//! indirections and do no marshaling — just auxiliary records.
//!
//! *Inter-bunch* SSPs describe references crossing bunch boundaries; the
//! stub sits with the source object (at the node that created the
//! reference — it is **not** replicated with the bunch, a single SSP keeps
//! the target alive system-wide), the scion with the target bunch.
//!
//! *Intra-bunch* SSPs run opposite to the ownerPtr: when ownership of an
//! object leaves a node that holds stubs for it, the new owner gets an
//! intra-bunch *stub* and the old owner keeps an intra-bunch *scion*, which
//! preserves the old owner's replica — and therefore the inter-bunch stubs
//! stored there — until the object dies everywhere (Section 3.2, 6.2).
//!
//! # Representation
//!
//! Each table keeps two structures in lockstep: an ordered `Vec` (the
//! deterministic view — reports, wire images, and BGC root scans iterate
//! it, so replay stays bit-exact) and hashed membership indexes that answer
//! the dedup queries of `add_*` without an O(n) scan. The indexes are only
//! ever probed, never iterated, so the hasher's per-process seed cannot
//! reach replay. Every table belongs to one node and is reached through
//! `&mut`, so plain `std` sets suffice. Mutation goes through methods —
//! `add_*`, `retain_*`, `replace` — to keep the two in step; the ordered
//! views are exposed read-only via [`StubTable::inter`]-style accessors.

use std::collections::HashSet;

use bmx_common::{Addr, BunchId, NodeId, Oid};

/// Globally unique identifier of one stub–scion pair.
///
/// Minted at the node that creates the reference; both halves carry it, so
/// the scion cleaner can match scions against reported stub tables exactly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SspId {
    /// The node that created the pair.
    pub node: NodeId,
    /// Creation counter at that node.
    pub seq: u64,
}

/// Source half of an inter-bunch SSP: "this bunch replica holds a reference
/// into another bunch".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterStub {
    /// Pair identity.
    pub id: SspId,
    /// Bunch of the source object.
    pub source_bunch: BunchId,
    /// Source object (the one containing the reference).
    pub source_oid: Oid,
    /// Bunch of the target object.
    pub target_bunch: BunchId,
    /// Address of the target as known when the stub was (re)recorded.
    pub target_addr: Addr,
    /// Target OID if it was resolvable at creation.
    pub target_oid: Option<Oid>,
    /// The node holding the matching scion.
    pub scion_at: NodeId,
}

/// Target half of an inter-bunch SSP: "an object of this bunch is referenced
/// from another bunch". A root of the bunch garbage collector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterScion {
    /// Pair identity.
    pub id: SspId,
    /// Node holding the stub.
    pub source_node: NodeId,
    /// Bunch of the source object.
    pub source_bunch: BunchId,
    /// Bunch of the target object (the bunch this scion protects).
    pub target_bunch: BunchId,
    /// Local current address of the target (updated by the local BGC).
    pub target_addr: Addr,
    /// Target OID if known.
    pub target_oid: Option<Oid>,
}

/// Stub half of an intra-bunch SSP, held by the (once-)new owner; forwards
/// liveness to the inter-bunch stubs kept at `scion_at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntraStub {
    /// The object whose ownership moved.
    pub oid: Oid,
    /// Its bunch.
    pub bunch: BunchId,
    /// The old owner holding the matching scion (and the preserved stubs).
    pub scion_at: NodeId,
}

/// Scion half of an intra-bunch SSP, held by the old owner; preserves the
/// local replica (a root of the local BGC — but one that suppresses the
/// exiting ownerPtr, Section 6.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntraScion {
    /// The object whose ownership moved.
    pub oid: Oid,
    /// Its bunch.
    pub bunch: BunchId,
    /// The node holding the matching stub (the then-new owner).
    pub stub_at: NodeId,
}

/// The stub table of one bunch replica: outgoing reachability it asserts.
#[derive(Clone, Debug, Default)]
pub struct StubTable {
    /// Inter-bunch stubs created at this node (ordered, deterministic).
    inter: Vec<InterStub>,
    /// Intra-bunch stubs held at this node (ordered, deterministic).
    intra: Vec<IntraStub>,
    /// Membership index over `(source_oid, target_addr)`.
    addr_index: HashSet<(Oid, Addr)>,
    /// Membership index over `(source_oid, target_oid)` for stubs whose
    /// target OID was resolvable.
    oid_index: HashSet<(Oid, Oid)>,
    /// Membership index over `(oid, scion_at)` for intra stubs.
    intra_index: HashSet<(Oid, NodeId)>,
}

impl StubTable {
    /// Inter-bunch stubs, in insertion order.
    #[inline]
    pub fn inter(&self) -> &[InterStub] {
        &self.inter
    }

    /// Intra-bunch stubs, in insertion order.
    #[inline]
    pub fn intra(&self) -> &[IntraStub] {
        &self.intra
    }

    /// Adds an inter-bunch stub unless an equivalent one (same source object
    /// and same resolved target) is already present. Returns whether it was
    /// added. The duplicate check is two index probes, not a table scan.
    pub fn add_inter(&mut self, stub: InterStub) -> bool {
        let dup = self
            .addr_index
            .contains(&(stub.source_oid, stub.target_addr))
            || stub
                .target_oid
                .is_some_and(|t| self.oid_index.contains(&(stub.source_oid, t)));
        if dup {
            return false;
        }
        self.index_inter(&stub);
        self.inter.push(stub);
        true
    }

    fn index_inter(&mut self, stub: &InterStub) {
        self.addr_index.insert((stub.source_oid, stub.target_addr));
        if let Some(t) = stub.target_oid {
            self.oid_index.insert((stub.source_oid, t));
        }
    }

    /// Adds an intra-bunch stub, deduplicating by `(oid, scion_at)`.
    /// Returns whether it was added.
    pub fn add_intra(&mut self, stub: IntraStub) -> bool {
        if !self.intra_index.insert((stub.oid, stub.scion_at)) {
            return false;
        }
        self.intra.push(stub);
        true
    }

    /// Keeps only the inter-bunch stubs satisfying `f`; dropped entries
    /// leave the membership index.
    pub fn retain_inter(&mut self, mut f: impl FnMut(&InterStub) -> bool) {
        let (addr_index, oid_index) = (&mut self.addr_index, &mut self.oid_index);
        self.inter.retain(|s| {
            let keep = f(s);
            if !keep {
                addr_index.remove(&(s.source_oid, s.target_addr));
                if let Some(t) = s.target_oid {
                    oid_index.remove(&(s.source_oid, t));
                }
            }
            keep
        });
    }

    /// Keeps only the intra-bunch stubs satisfying `f`.
    pub fn retain_intra(&mut self, mut f: impl FnMut(&IntraStub) -> bool) {
        let intra_index = &mut self.intra_index;
        self.intra.retain(|s| {
            let keep = f(s);
            if !keep {
                intra_index.remove(&(s.oid, s.scion_at));
            }
            keep
        });
    }

    /// Replaces the whole table (a BGC publication regenerates it) and
    /// rebuilds the index from the new entries.
    pub fn replace(&mut self, inter: Vec<InterStub>, intra: Vec<IntraStub>) {
        self.addr_index.clear();
        self.oid_index.clear();
        self.intra_index = intra.iter().map(|s| (s.oid, s.scion_at)).collect();
        for s in &inter {
            self.index_inter(s);
        }
        self.inter = inter;
        self.intra = intra;
    }

    /// Inter-bunch stubs whose source is `oid`.
    pub fn inter_for(&self, oid: Oid) -> impl Iterator<Item = &InterStub> {
        self.inter().iter().filter(move |s| s.source_oid == oid)
    }

    /// Whether any stub (inter or intra) concerns `oid`.
    pub fn mentions(&self, oid: Oid) -> bool {
        self.inter().iter().any(|s| s.source_oid == oid)
            || self.intra().iter().any(|s| s.oid == oid)
    }

    /// Total entries.
    pub fn len(&self) -> usize {
        self.inter().len() + self.intra().len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.inter().is_empty() && self.intra().is_empty()
    }
}

/// The scion table of one bunch replica: incoming reachability it honours.
#[derive(Clone, Debug, Default)]
pub struct ScionTable {
    /// Inter-bunch scions protecting objects of this bunch (ordered).
    inter: Vec<InterScion>,
    /// Intra-bunch scions preserving local replicas for remote stub sites.
    intra: Vec<IntraScion>,
    /// Membership index over pair ids.
    id_index: HashSet<SspId>,
    /// Membership index over `(oid, stub_at)` for intra scions.
    intra_index: HashSet<(Oid, NodeId)>,
}

impl ScionTable {
    /// Inter-bunch scions, in insertion order.
    #[inline]
    pub fn inter(&self) -> &[InterScion] {
        &self.inter
    }

    /// Mutable view of the inter-bunch scions for in-place `target_addr`
    /// rewrites (BGC reference update, from-space retirement). Identity
    /// fields (`id`) must not be changed through this — the membership
    /// index keys on them.
    #[inline]
    pub fn inter_mut(&mut self) -> &mut [InterScion] {
        &mut self.inter
    }

    /// Intra-bunch scions, in insertion order.
    #[inline]
    pub fn intra(&self) -> &[IntraScion] {
        &self.intra
    }

    /// Adds an inter-bunch scion, deduplicating by pair id. Returns whether
    /// it was added. The duplicate check is one index probe.
    pub fn add_inter(&mut self, scion: InterScion) -> bool {
        if !self.id_index.insert(scion.id) {
            return false;
        }
        self.inter.push(scion);
        true
    }

    /// Adds an intra-bunch scion, deduplicating by `(oid, stub_at)`.
    /// Returns whether it was added.
    pub fn add_intra(&mut self, scion: IntraScion) -> bool {
        if !self.intra_index.insert((scion.oid, scion.stub_at)) {
            return false;
        }
        self.intra.push(scion);
        true
    }

    /// Keeps only the inter-bunch scions satisfying `f` (the cleaner's
    /// retirement path); dropped ids leave the index.
    pub fn retain_inter(&mut self, mut f: impl FnMut(&InterScion) -> bool) {
        let id_index = &mut self.id_index;
        self.inter.retain(|s| {
            let keep = f(s);
            if !keep {
                id_index.remove(&s.id);
            }
            keep
        });
    }

    /// Keeps only the intra-bunch scions satisfying `f`.
    pub fn retain_intra(&mut self, mut f: impl FnMut(&IntraScion) -> bool) {
        let intra_index = &mut self.intra_index;
        self.intra.retain(|s| {
            let keep = f(s);
            if !keep {
                intra_index.remove(&(s.oid, s.stub_at));
            }
            keep
        });
    }

    /// Total entries.
    pub fn len(&self) -> usize {
        self.inter().len() + self.intra().len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.inter().is_empty() && self.intra().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn stub(seq: u64, src: u64, tgt_addr: u64) -> InterStub {
        InterStub {
            id: SspId {
                node: NodeId(0),
                seq,
            },
            source_bunch: BunchId(1),
            source_oid: Oid(src),
            target_bunch: BunchId(2),
            target_addr: Addr(tgt_addr),
            target_oid: None,
            scion_at: NodeId(1),
        }
    }

    fn scion(node: u32, seq: u64) -> InterScion {
        InterScion {
            id: SspId {
                node: NodeId(node),
                seq,
            },
            source_node: NodeId(node),
            source_bunch: BunchId(1),
            target_bunch: BunchId(2),
            target_addr: Addr(0x100),
            target_oid: None,
        }
    }

    /// Both tables beside a naive model — plain `Vec`s, duplicates found by
    /// linear scan. Every mutation goes to both; the accept/reject answer
    /// and the resulting order must agree.
    #[derive(Default)]
    struct Checked {
        stubs: StubTable,
        scions: ScionTable,
        inter_stubs: Vec<InterStub>,
        intra_stubs: Vec<IntraStub>,
        inter_scions: Vec<InterScion>,
        intra_scions: Vec<IntraScion>,
    }

    impl Checked {
        fn assert_same_order(&self) {
            assert_eq!(self.stubs.inter(), &self.inter_stubs[..]);
            assert_eq!(self.stubs.intra(), &self.intra_stubs[..]);
            assert_eq!(self.scions.inter(), &self.inter_scions[..]);
            assert_eq!(self.scions.intra(), &self.intra_scions[..]);
        }

        fn agree(&self, table: bool, model: bool) -> bool {
            assert_eq!(table, model, "table and scan model answer differently");
            self.assert_same_order();
            table
        }

        fn add_inter_stub(&mut self, s: InterStub) -> bool {
            let fresh = !self.inter_stubs.iter().any(|e| {
                e.source_oid == s.source_oid
                    && (e.target_addr == s.target_addr
                        || (s.target_oid.is_some() && e.target_oid == s.target_oid))
            });
            if fresh {
                self.inter_stubs.push(s.clone());
            }
            let added = self.stubs.add_inter(s);
            self.agree(added, fresh)
        }

        fn add_intra_stub(&mut self, s: IntraStub) -> bool {
            let fresh = !self
                .intra_stubs
                .iter()
                .any(|e| e.oid == s.oid && e.scion_at == s.scion_at);
            if fresh {
                self.intra_stubs.push(s);
            }
            let added = self.stubs.add_intra(s);
            self.agree(added, fresh)
        }

        fn add_inter_scion(&mut self, s: InterScion) -> bool {
            let fresh = !self.inter_scions.iter().any(|e| e.id == s.id);
            if fresh {
                self.inter_scions.push(s.clone());
            }
            let added = self.scions.add_inter(s);
            self.agree(added, fresh)
        }

        fn add_intra_scion(&mut self, s: IntraScion) -> bool {
            let fresh = !self
                .intra_scions
                .iter()
                .any(|e| e.oid == s.oid && e.stub_at == s.stub_at);
            if fresh {
                self.intra_scions.push(s);
            }
            let added = self.scions.add_intra(s);
            self.agree(added, fresh)
        }

        fn retain_inter(
            &mut self,
            stubs: impl Fn(&InterStub) -> bool,
            scions: impl Fn(&InterScion) -> bool,
        ) {
            self.inter_stubs.retain(&stubs);
            self.stubs.retain_inter(&stubs);
            self.inter_scions.retain(&scions);
            self.scions.retain_inter(&scions);
            self.assert_same_order();
        }

        fn retain_intra(
            &mut self,
            stubs: impl Fn(&IntraStub) -> bool,
            scions: impl Fn(&IntraScion) -> bool,
        ) {
            self.intra_stubs.retain(&stubs);
            self.stubs.retain_intra(&stubs);
            self.intra_scions.retain(&scions);
            self.scions.retain_intra(&scions);
            self.assert_same_order();
        }

        fn replace_stubs(&mut self, inter: Vec<InterStub>, intra: Vec<IntraStub>) {
            self.stubs.replace(inter.clone(), intra.clone());
            self.inter_stubs = inter;
            self.intra_stubs = intra;
            self.assert_same_order();
        }

        /// Continues on clones of both tables, dropping the originals.
        fn continue_on_clones(&mut self) {
            self.stubs = self.stubs.clone();
            self.scions = self.scions.clone();
            self.assert_same_order();
        }
    }

    #[test]
    fn inter_stub_dedupes_by_source_and_target() {
        let mut t = Checked::default();
        assert!(t.add_inter_stub(stub(1, 10, 0x100)));
        assert!(
            !t.add_inter_stub(stub(2, 10, 0x100)),
            "same ref, new id: duplicate"
        );
        assert!(
            t.add_inter_stub(stub(3, 10, 0x200)),
            "same source, new target: distinct"
        );
        assert!(t.add_inter_stub(stub(4, 11, 0x100)), "new source: distinct");
        assert_eq!(t.stubs.inter().len(), 3);
        assert_eq!(t.stubs.inter_for(Oid(10)).count(), 2);
    }

    #[test]
    fn inter_stub_dedupes_by_target_oid_when_known() {
        let mut t = Checked::default();
        let mut a = stub(1, 10, 0x100);
        a.target_oid = Some(Oid(5));
        let mut b = stub(2, 10, 0x900); // different addr (target moved)...
        b.target_oid = Some(Oid(5)); // ...but same object
        assert!(t.add_inter_stub(a));
        assert!(!t.add_inter_stub(b));
    }

    #[test]
    fn intra_stub_dedupe() {
        let mut t = Checked::default();
        let s = IntraStub {
            oid: Oid(1),
            bunch: BunchId(1),
            scion_at: NodeId(2),
        };
        assert!(t.add_intra_stub(s));
        assert!(!t.add_intra_stub(s));
        assert!(t.add_intra_stub(IntraStub {
            scion_at: NodeId(3),
            ..s
        }));
        assert_eq!(t.stubs.len(), 2);
        assert!(t.stubs.mentions(Oid(1)));
        assert!(!t.stubs.mentions(Oid(9)));
    }

    #[test]
    fn scion_table_dedupe() {
        let mut t = Checked::default();
        let sc = InterScion {
            target_oid: Some(Oid(5)),
            ..scion(0, 1)
        };
        assert!(t.add_inter_scion(sc.clone()));
        assert!(!t.add_inter_scion(sc));
        let ic = IntraScion {
            oid: Oid(1),
            bunch: BunchId(2),
            stub_at: NodeId(4),
        };
        assert!(t.add_intra_scion(ic));
        assert!(!t.add_intra_scion(ic));
        assert_eq!(t.scions.len(), 2);
        assert!(!t.scions.is_empty());
    }

    #[test]
    fn retain_retires_index_entries_and_readds_cleanly() {
        let mut t = Checked::default();
        assert!(t.add_inter_stub(stub(1, 10, 0x100)));
        assert!(t.add_inter_stub(stub(2, 11, 0x200)));
        assert!(t.add_inter_scion(scion(0, 1)));
        assert!(t.add_inter_scion(scion(0, 2)));
        t.retain_inter(|s| s.source_oid != Oid(10), |s| s.id.seq != 1);
        assert_eq!(t.stubs.inter().len(), 1);
        assert!(
            t.add_inter_stub(stub(3, 10, 0x100)),
            "dropped key must be re-insertable"
        );
        assert_eq!(t.scions.inter().len(), 1);
        assert!(t.add_inter_scion(scion(0, 1)), "dropped id re-insertable");
    }

    #[test]
    fn replace_rebuilds_the_index() {
        let mut t = Checked::default();
        assert!(t.add_inter_stub(stub(1, 10, 0x100)));
        t.replace_stubs(vec![stub(7, 20, 0x700)], Vec::new());
        assert!(t.add_inter_stub(stub(8, 10, 0x100)), "old entries gone");
        assert!(!t.add_inter_stub(stub(9, 20, 0x700)), "new entries indexed");
        t.continue_on_clones();
        assert!(
            !t.add_inter_stub(stub(10, 20, 0x700)),
            "the clone carries the index"
        );
    }

    // The values the cases above use, so the random sequences below walk
    // through and around them.
    const OIDS: [u64; 3] = [10, 11, 20];
    const ADDRS: [u64; 4] = [0x100, 0x200, 0x700, 0x900];
    const TARGET_OIDS: [Option<Oid>; 2] = [None, Some(Oid(5))];

    proptest! {
        #[test]
        fn random_mutations_agree_with_the_scan_model(
            ops in proptest::collection::vec((0u8..9, 0usize..3, 0usize..4, 0usize..2), 0..150),
        ) {
            let mut t = Checked::default();
            for (step, (kind, a, b, c)) in ops.into_iter().enumerate() {
                let inter_stub = |seq: usize, a: usize| InterStub {
                    target_oid: TARGET_OIDS[c],
                    ..stub(seq as u64, OIDS[a], ADDRS[b])
                };
                let intra_stub = IntraStub {
                    oid: Oid(OIDS[a]),
                    bunch: BunchId(1),
                    scion_at: NodeId(2 + c as u32),
                };
                match kind {
                    0 | 1 => {
                        t.add_inter_stub(inter_stub(step, a));
                    }
                    2 => {
                        t.add_intra_stub(intra_stub);
                    }
                    3 => {
                        t.add_inter_scion(scion(c as u32, b as u64));
                    }
                    4 => {
                        t.add_intra_scion(IntraScion {
                            oid: Oid(OIDS[a]),
                            bunch: BunchId(2),
                            stub_at: NodeId(2 + c as u32),
                        });
                    }
                    5 => t.retain_inter(
                        |s| s.source_oid != Oid(OIDS[a]),
                        |s| s.id.seq != b as u64,
                    ),
                    6 => t.retain_intra(
                        |s| s.oid != Oid(OIDS[a]),
                        |s| s.stub_at != NodeId(2 + c as u32),
                    ),
                    7 => {
                        // `replace` installs what it is given unchecked, so
                        // hand it entries the scan model accepts as distinct.
                        let mut fresh = Checked::default();
                        fresh.add_inter_stub(inter_stub(step, a));
                        fresh.add_inter_stub(inter_stub(step, (a + 1) % OIDS.len()));
                        fresh.add_inter_stub(stub(step as u64, OIDS[a], ADDRS[(b + 1) % ADDRS.len()]));
                        fresh.add_intra_stub(intra_stub);
                        t.replace_stubs(fresh.inter_stubs, fresh.intra_stubs);
                    }
                    _ => t.continue_on_clones(),
                }
            }
        }
    }
}
