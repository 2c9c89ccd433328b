//! Collector state containers.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bmx_addr::{object, NodeMemory, SegmentServer};
use bmx_common::{Addr, BunchId, Epoch, NodeId, Oid, SegmentId};
use bmx_dsm::Relocation;
use bmx_net::PiggybackBuffer;
use parking_lot::{Mutex, MutexGuard};

use crate::directory::Directory;
use crate::ssp::{ScionTable, StubTable};

/// The segment server shared by the simulated cluster (the BMX-server role).
///
/// Historically `Rc<RefCell<SegmentServer>>` — cheap for the deterministic
/// single-threaded simulation. The parallel runtime (`bmx::parallel`) runs
/// protocol code from per-node OS threads, so the handle is now an
/// `Arc<Mutex<_>>` (non-poisoning `parking_lot` mutex, uncontended in sim
/// mode). The `borrow`/`borrow_mut` method names are kept so the ~40
/// protocol call sites read unchanged.
#[derive(Clone)]
pub struct SharedServer(Arc<Mutex<SegmentServer>>);

impl SharedServer {
    /// Wraps a server for sharing across nodes (and, in parallel mode,
    /// across threads).
    pub fn new(server: SegmentServer) -> Self {
        SharedServer(Arc::new(Mutex::new(server)))
    }

    /// Locks the server for shared reading (same guard as `borrow_mut`;
    /// the name preserves the old `RefCell` call sites).
    pub fn borrow(&self) -> MutexGuard<'_, SegmentServer> {
        self.0.lock()
    }

    /// Locks the server for mutation.
    pub fn borrow_mut(&self) -> MutexGuard<'_, SegmentServer> {
        self.0.lock()
    }
}

/// How relocation records propagate to other nodes — the knob of
/// experiment E3.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RelocMode {
    /// Piggy-back on consistency-protocol messages (the paper's design:
    /// zero extra messages).
    #[default]
    Piggyback,
    /// Send explicit background messages immediately (the ablation the
    /// paper argues against in Section 4.4).
    Explicit,
}

/// Per-(node, bunch) collector state.
#[derive(Clone)]
pub struct BunchReplicaGc {
    /// The bunch.
    pub bunch: BunchId,
    /// Local collection epoch (bumped per BGC run on this replica).
    pub epoch: Epoch,
    /// Outgoing reachability this replica asserts.
    pub stub_table: StubTable,
    /// Incoming reachability this replica honours (BGC roots).
    pub scion_table: ScionTable,
    /// Segments new objects are allocated from (the current space).
    pub alloc_segments: Vec<SegmentId>,
    /// Retired from-space segments awaiting the reuse protocol: they may
    /// still hold live non-owned objects and forwarding headers.
    pub pending_from: Vec<SegmentId>,
    /// Relocations this node performed locally, retained until the
    /// from-space reuse protocol retires their from-addresses.
    pub relocations: Vec<Relocation>,
    /// In-flight reuse protocol at this node as the *initiator*, if any.
    pub reuse: Option<ReuseState>,
    /// In-flight retire request at this node as a *receiver*, if any.
    pub retire: Option<RetireState>,
}

/// Progress of an in-flight from-space reuse at the initiator
/// (Section 4.5).
#[derive(Clone, Debug)]
pub struct ReuseState {
    /// Segments being reclaimed.
    pub segments: Vec<SegmentId>,
    /// Current phase.
    pub phase: ReusePhase,
}

/// The initiator's phase.
#[derive(Clone, Debug)]
pub enum ReusePhase {
    /// Waiting for owners to copy live objects out of the doomed segments.
    CopyOut {
        /// Objects whose relocation is still outstanding.
        awaiting_oids: BTreeSet<Oid>,
    },
    /// Waiting for every replica holder to acknowledge the retirement.
    Retire {
        /// Nodes whose ack is still outstanding.
        awaiting_acks: BTreeSet<NodeId>,
    },
}

/// A receiver's in-flight handling of a retire request: it may have to copy
/// out (or have copied out) live objects of its own replica first.
#[derive(Clone, Debug)]
pub struct RetireState {
    /// The initiating node to acknowledge.
    pub requester: NodeId,
    /// Segments being retired.
    pub segments: Vec<SegmentId>,
    /// Objects whose relocation this receiver still awaits.
    pub awaiting_oids: BTreeSet<Oid>,
}

impl BunchReplicaGc {
    /// Fresh state for a replica of `bunch` whose current segments are
    /// `alloc_segments`.
    pub fn new(bunch: BunchId, alloc_segments: Vec<SegmentId>) -> Self {
        BunchReplicaGc {
            bunch,
            epoch: Epoch::default(),
            stub_table: StubTable::default(),
            scion_table: ScionTable::default(),
            alloc_segments,
            pending_from: Vec::new(),
            relocations: Vec::new(),
            reuse: None,
            retire: None,
        }
    }
}

/// The table-request schedule of one `(source node, bunch)` pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pull {
    /// The pair's cleaner epoch when the schedule was last looked at: a
    /// higher one since means a fresh table arrived.
    pub epoch: Epoch,
    /// Tick at which the next request goes out.
    pub due: u64,
    /// Ticks between requests while no fresh table arrives.
    pub wait: u64,
}

/// All collector state of one node.
pub struct GcNodeState {
    /// The node.
    pub node: NodeId,
    /// Per-bunch replica state, for every locally mapped bunch.
    pub bunches: BTreeMap<BunchId, BunchReplicaGc>,
    /// Local object directory and forwarding knowledge.
    pub directory: Directory,
    /// Relocations buffered per destination for piggy-backing.
    pub piggy: PiggybackBuffer<Relocation>,
    /// Mutator roots (the paper's "local root includes mutator stacks"),
    /// keyed by a stable root id so the BGC can rewrite them after copies.
    pub roots: BTreeMap<u64, Addr>,
    next_root: u64,
    /// SSP-id counter for pairs created at this node.
    pub next_ssp: u64,
    /// The collection epoch every bunch replica created here starts at:
    /// the node's incarnation in the high bits, so every table this
    /// incarnation publishes is newer than any a dead one published.
    pub epoch_base: Epoch,
    /// Latest reachability epoch consumed per `(source node, bunch)` —
    /// makes table processing idempotent and orders duplicates.
    pub cleaner_epochs: BTreeMap<(NodeId, BunchId), Epoch>,
    /// When to ask each `(source node, bunch)` that justifies a scion here
    /// for its table again ([`crate::cleaner::table_requests`]).
    pub pulls: BTreeMap<(NodeId, BunchId), Pull>,
    /// Bunches currently under an incremental collection at this node: the
    /// write barrier grays pointer-store targets in these bunches.
    pub active_groups: BTreeSet<BunchId>,
    /// Gray backlog: addresses the mutator made reachable while a
    /// collection of their bunch was running; that collection's next
    /// step or flip absorbs them.
    pub grayed: Vec<(BunchId, Addr)>,
    /// A sweep of the released ranges this node made that its driver has
    /// not yet reported to the server with the node's link watermarks
    /// (`SegmentServer::note_sweep`): the release clock it began at.
    pub swept: Option<u64>,
}

impl GcNodeState {
    /// Creates empty state for `node`.
    pub fn new(node: NodeId) -> Self {
        GcNodeState {
            node,
            bunches: BTreeMap::new(),
            directory: Directory::new(),
            piggy: PiggybackBuffer::new(),
            roots: BTreeMap::new(),
            next_root: 1,
            next_ssp: 1,
            epoch_base: Epoch::default(),
            cleaner_epochs: BTreeMap::new(),
            pulls: BTreeMap::new(),
            active_groups: BTreeSet::new(),
            grayed: Vec::new(),
            swept: None,
        }
    }

    /// Grays an address for an active incremental collection, if its bunch
    /// is under collection (no-op otherwise). Called by the write barrier
    /// and the root hooks.
    pub fn gray_if_active(&mut self, bunch: Option<BunchId>, addr: Addr) {
        if let Some(b) = bunch {
            if self.active_groups.contains(&b) {
                self.grayed.push((b, addr));
            }
        }
    }

    /// Registers a mutator root; returns its id.
    pub fn add_root(&mut self, addr: Addr) -> u64 {
        let id = self.next_root;
        self.next_root += 1;
        self.roots.insert(id, addr);
        id
    }

    /// Reads a root slot.
    pub fn root(&self, id: u64) -> Option<Addr> {
        self.roots.get(&id).copied()
    }

    /// Overwrites a root slot (the mutator re-pointed a stack variable).
    pub fn set_root(&mut self, id: u64, addr: Addr) {
        self.roots.insert(id, addr);
    }

    /// Drops a root slot (the stack frame died).
    pub fn remove_root(&mut self, id: u64) -> Option<Addr> {
        self.roots.remove(&id)
    }

    /// State of the given bunch replica, if mapped here.
    pub fn bunch(&self, bunch: BunchId) -> Option<&BunchReplicaGc> {
        self.bunches.get(&bunch)
    }

    /// Mutable state of the given bunch replica, if mapped here.
    pub fn bunch_mut(&mut self, bunch: BunchId) -> Option<&mut BunchReplicaGc> {
        self.bunches.get_mut(&bunch)
    }

    /// State of the given bunch replica, created on demand.
    pub fn bunch_or_default(&mut self, bunch: BunchId) -> &mut BunchReplicaGc {
        let epoch = self.epoch_base;
        self.bunches.entry(bunch).or_insert_with(|| BunchReplicaGc {
            epoch,
            ..BunchReplicaGc::new(bunch, Vec::new())
        })
    }

    /// Mints a fresh SSP sequence number.
    pub fn next_ssp_seq(&mut self) -> u64 {
        let s = self.next_ssp;
        self.next_ssp += 1;
        s
    }
}

/// The whole collector's state, plus shared infrastructure handles.
pub struct GcState {
    /// Per-node state, indexed by `NodeId`.
    pub nodes: Vec<GcNodeState>,
    /// The shared segment server (to map to-space segments on demand).
    pub server: SharedServer,
    /// How relocations travel (experiment E3 knob).
    pub reloc_mode: RelocMode,
    /// Relocations awaiting explicit transmission (only used in
    /// [`RelocMode::Explicit`]); drained by the cluster driver.
    pub explicit_queue: Vec<(NodeId, NodeId, Vec<Relocation>)>,
}

impl GcState {
    /// Creates collector state for an `n`-node cluster sharing `server`.
    pub fn new(n: usize, server: SharedServer) -> Self {
        GcState {
            nodes: (0..n).map(|i| GcNodeState::new(NodeId(i as u32))).collect(),
            server,
            reloc_mode: RelocMode::default(),
            explicit_queue: Vec::new(),
        }
    }

    /// Borrows one node's state.
    pub fn node(&self, node: NodeId) -> &GcNodeState {
        &self.nodes[node.0 as usize]
    }

    /// Mutably borrows one node's state.
    pub fn node_mut(&mut self, node: NodeId) -> &mut GcNodeState {
        &mut self.nodes[node.0 as usize]
    }

    /// Records at the shared server that `node` has `bunch` mapped.
    pub fn note_mapping(&mut self, bunch: BunchId, node: NodeId) {
        self.server.borrow_mut().note_mapping(bunch, node);
    }

    /// Nodes that currently have `bunch` mapped (report destinations).
    pub fn mapped_nodes(&self, bunch: BunchId) -> Vec<NodeId> {
        self.server.borrow().mapped_nodes(bunch)
    }

    /// The bunch containing `addr`, from the shared server.
    pub fn bunch_of(&self, addr: Addr) -> Option<BunchId> {
        self.server.borrow().bunch_of(addr)
    }
}

/// [`held`]'s answer: where the object a held address names is, for one
/// node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Held {
    /// The node holds an object header there ([`NodeMemory::position`]).
    Local((usize, usize)),
    /// A segment the server registers to this bunch, where the node holds
    /// no object.
    Remote(BunchId),
    /// A retired range's route names `oid`, of `bunch`; the node finds it
    /// at `to`.
    Routed { oid: Oid, to: Addr, bunch: BunchId },
    /// Nothing the node holds, and nothing the server registers or routes.
    Unknown,
}

impl Held {
    /// The object's bunch, if anyone knows it.
    pub fn bunch(self, mem: &NodeMemory) -> Option<BunchId> {
        match self {
            Held::Local((seg, _)) => Some(mem.segments()[seg].info.bunch),
            Held::Remote(bunch) | Held::Routed { bunch, .. } => Some(bunch),
            Held::Unknown => None,
        }
    }
}

/// Where the node with memory `mem` and forwarding `dir` finds the object
/// that `addr`, an address it holds (through its forwarding), names: the
/// one rule every path that places a held address asks. The node's own
/// copy wins: a header it holds at `addr` answers without a lock. Only a
/// miss reads the server, once. A route ([`SegmentServer::route`]) crosses
/// every retired range, retiring or released, to its youngest address; the
/// object is then at the node's own copy, the address `dir` gives it if
/// the header the node holds there names it (replicas diverge, Section
/// 4.2), else at the route's end through `dir`, and its bunch is the
/// server's for that address, else for `addr`. With no route a registered
/// segment answers its bunch.
#[inline]
pub fn held(mem: &NodeMemory, dir: &Directory, srv: &SharedServer, addr: Addr) -> Held {
    match mem.position(addr) {
        Ok((seg, off)) if mem.segments()[seg].object_map.get(off) => Held::Local((seg, off)),
        _ => held_elsewhere(mem, dir, &srv.borrow(), addr),
    }
}

/// [`held`]'s bunch for `addr`: a segment the node maps answers it whether
/// or not the node holds a header there, as the server would (a route never
/// leaves its bunch), so a mapped address reads no more than its segment.
#[inline]
pub fn held_bunch(
    mem: &NodeMemory,
    dir: &Directory,
    srv: &SharedServer,
    addr: Addr,
) -> Option<BunchId> {
    match mem.position(addr) {
        Ok((seg, _)) => Some(mem.segments()[seg].info.bunch),
        Err(_) => held_elsewhere(mem, dir, &srv.borrow(), addr).bunch(mem),
    }
}

#[cold]
fn held_elsewhere(mem: &NodeMemory, dir: &Directory, srv: &SegmentServer, addr: Addr) -> Held {
    let Some((oid, end)) = srv.route(addr) else {
        return srv.bunch_of(addr).map_or(Held::Unknown, Held::Remote);
    };
    let to = dir
        .addr_of(oid)
        .filter(|&own| object::view(mem, own).is_ok_and(|v| v.oid == oid))
        .unwrap_or_else(|| dir.resolve(end));
    let bunch = srv.bunch_of(to).or_else(|| srv.bunch_of(addr));
    bunch.map_or(Held::Unknown, |bunch| Held::Routed { oid, to, bunch })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmx_addr::server::Protection;

    fn shared_server() -> SharedServer {
        SharedServer::new(SegmentServer::new(64))
    }

    #[test]
    fn roots_add_set_remove() {
        let mut ns = GcNodeState::new(NodeId(0));
        let r1 = ns.add_root(Addr(0x100));
        let r2 = ns.add_root(Addr(0x200));
        assert_ne!(r1, r2);
        assert_eq!(ns.root(r1), Some(Addr(0x100)));
        ns.set_root(r1, Addr(0x300));
        assert_eq!(ns.root(r1), Some(Addr(0x300)));
        assert_eq!(ns.remove_root(r2), Some(Addr(0x200)));
        assert_eq!(ns.root(r2), None);
    }

    #[test]
    fn ssp_seqs_are_unique() {
        let mut ns = GcNodeState::new(NodeId(0));
        let a = ns.next_ssp_seq();
        let b = ns.next_ssp_seq();
        assert_ne!(a, b);
    }

    #[test]
    fn mappings_registry() {
        let mut gc = GcState::new(3, shared_server());
        let b = BunchId(1);
        gc.note_mapping(b, NodeId(0));
        gc.note_mapping(b, NodeId(2));
        gc.note_mapping(b, NodeId(0));
        assert_eq!(gc.mapped_nodes(b), vec![NodeId(0), NodeId(2)]);
        assert!(gc.mapped_nodes(BunchId(9)).is_empty());
    }

    #[test]
    fn bunch_of_consults_server() {
        let server = shared_server();
        let b = server
            .borrow_mut()
            .create_bunch(NodeId(0), Protection::default());
        let seg = server.borrow_mut().alloc_segment(b).unwrap();
        let gc = GcState::new(1, server);
        assert_eq!(gc.bunch_of(seg.base), Some(b));
        assert_eq!(gc.bunch_of(Addr(1)), None);
    }

    #[test]
    fn bunch_or_default_creates_state() {
        let mut ns = GcNodeState::new(NodeId(1));
        assert!(ns.bunch(BunchId(5)).is_none());
        ns.bunch_or_default(BunchId(5))
            .stub_table
            .add_intra(crate::ssp::IntraStub {
                oid: Oid(1),
                bunch: BunchId(5),
                scion_at: NodeId(0),
            });
        assert_eq!(ns.bunch(BunchId(5)).unwrap().stub_table.len(), 1);
    }
}
