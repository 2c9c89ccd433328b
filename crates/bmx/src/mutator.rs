//! The mutator API.
//!
//! Applications (the *mutator*, in GC terms) see: allocation within bunches,
//! barriered pointer stores, entry-consistency acquire/release brackets, and
//! explicit stack roots. They never send messages themselves — communication
//! happens purely through the DSM (paper, Section 2.2).

use bmx_addr::{object, Protection};
use bmx_common::{Addr, BmxError, BunchId, NodeId, Oid, Result, StatKind};
use bmx_dsm::{AcquireStart, Token};
use bmx_metrics::{self as metrics, Ctr, Hst};
use bmx_trace::{self as trace, TraceEvent};

use crate::cluster::Cluster;

/// Shape of an object to allocate.
#[derive(Clone, Debug)]
pub struct ObjSpec {
    /// Data words.
    pub size: u64,
    /// Which fields hold pointers.
    pub refs: Vec<u64>,
}

impl ObjSpec {
    /// `size` data words, none of them pointers.
    pub fn data(size: u64) -> Self {
        ObjSpec {
            size,
            refs: Vec::new(),
        }
    }

    /// `size` data words with the given pointer fields.
    pub fn with_refs(size: u64, refs: &[u64]) -> Self {
        ObjSpec {
            size,
            refs: refs.to_vec(),
        }
    }
}

/// What a mutator call wants of the object it names.
#[derive(Clone, Copy, PartialEq)]
enum Access {
    Read,
    Write,
    /// The header only (`oid_at_local`, `release`): protection does not
    /// apply and no access is traced.
    Header,
}

impl Access {
    /// Enforces the bunch protection attributes (paper, Section 2.1).
    fn allowed_by(self, bunch: BunchId, prot: Protection) -> Result<()> {
        let write = self == Access::Write;
        if (write && !prot.write) || (self == Access::Read && !prot.read) {
            return Err(BmxError::AccessDenied { bunch, write });
        }
        Ok(())
    }
}

impl Cluster {
    // ------------------------------------------------------------------
    // Allocation.
    // ------------------------------------------------------------------

    /// Allocates an object in `bunch` at `node`.
    ///
    /// Only the bunch's creator node allocates in it (the prototype's
    /// constraint, which keeps replica allocation cursors from colliding;
    /// see DESIGN.md).
    pub fn alloc(&mut self, node: NodeId, bunch: BunchId, spec: &ObjSpec) -> Result<Addr> {
        let need = bmx_addr::HEADER_WORDS + spec.size;
        // A current-space segment with room, if the bunch has one here.
        let found = {
            let mem = &self.mems[node.0 as usize];
            let pool = self
                .gc
                .node(node)
                .bunch(bunch)
                .map_or(&[][..], |b| &b.alloc_segments);
            // The pool is the current space only: reclaimed from-space is
            // released (Section 4.5), never pooled, so every entry is
            // mapped and at most the bunch's first segment is still empty.
            debug_assert!(
                pool.iter()
                    .filter(|&&s| mem.segment(s).map_or(true, |x| x.alloc_cursor == 0))
                    .count()
                    <= 1,
                "reclaimed or unmapped segment in the allocation pool of {bunch} at {node}"
            );
            pool.iter()
                .filter_map(|&s| mem.segment(s).ok())
                .find(|seg| seg.free_words() >= need)
                .map(|seg| seg.info)
        };
        // The creator is on every segment descriptor of the bunch; the
        // server is asked only when the bunch has to grow anyway.
        let creator = match found {
            Some(info) => info.creator,
            None => self.server.borrow().bunch(bunch)?.creator,
        };
        if creator != node {
            return Err(BmxError::Protocol(format!(
                "node {node} may not allocate in bunch {bunch} created by {creator}"
            )));
        }
        let oid = self.mint_oid(node);
        let seg_id = match found {
            Some(info) => info.id,
            None => {
                let info = self.server.borrow_mut().alloc_segment(bunch)?;
                if need > info.words {
                    return Err(BmxError::OutOfMemory {
                        bunch,
                        words: spec.size,
                    });
                }
                self.mems[node.0 as usize].map_segment(info);
                self.gc
                    .node_mut(node)
                    .bunch_or_default(bunch)
                    .alloc_segments
                    .push(info.id);
                info.id
            }
        };
        let addr = {
            let seg = self.mems[node.0 as usize].segment_mut(seg_id)?;
            object::alloc_in_segment(seg, oid, spec.size, &spec.refs)?
        };
        self.gc.node_mut(node).directory.set_addr(oid, addr);
        self.engine.register_alloc(node, oid, bunch);
        Ok(addr)
    }

    // ------------------------------------------------------------------
    // Field access (through local forwarding).
    // ------------------------------------------------------------------

    /// The one address resolution of a mutator call. Follows local
    /// forwarding from `addr`, finds the segment holding the current copy
    /// once, judges the access by the protection on that segment's own
    /// descriptor (to-space belongs to the same bunch, so every name of an
    /// object is judged alike), checks the header bit and traces the
    /// access. Answers like [`bmx_addr::NodeMemory::position`]: the
    /// segment's index and the word offset of the object's header, which
    /// the accessor hands to the segment-relative form of its operation.
    ///
    /// The cold tail: forwarding may dead-end at an address holding no
    /// object (the range was released by from-space reuse and the edges
    /// dropped with it, Section 4.5). The segment server's retired-range
    /// routing then supplies the object identity, and the node's own
    /// replica of it is preferred.
    fn locate(&self, node: NodeId, addr: Addr, access: Access) -> Result<(usize, usize)> {
        let mem = &self.mems[node.0 as usize];
        let dir = &self.gc.node(node).directory;
        let (mut cur, hops) = dir.resolve_hops(addr);
        metrics::observe(node, Hst::ForwardingChainLen, hops as u64);
        let is_header = |&(seg, off): &(usize, usize)| mem.segments()[seg].object_map.get(off);
        let mut at = mem.position(cur);
        match at {
            Ok((seg, _)) => {
                let info = &mem.segments()[seg].info;
                access.allowed_by(info.bunch, info.protection)?;
            }
            // Nothing is mapped where forwarding ends: what the server
            // knows of the held address decides, and an address it does
            // not know either fails as unmapped below.
            Err(_) if access != Access::Header => {
                let srv = self.server.borrow();
                if let Some(bunch) = srv.bunch_of_held(addr) {
                    access.allowed_by(bunch, srv.bunch(bunch)?.protection)?;
                }
            }
            Err(_) => {}
        }
        let mut found = at.as_ref().is_ok_and(is_header);
        if !found {
            if let Some((oid, to)) = self.server.borrow().resolve_retired(addr) {
                metrics::bump(node, Ctr::RetiredRouteHits);
                cur = match dir.addr_of(oid) {
                    Some(a) if object::view(mem, a).is_ok_and(|v| v.oid == oid) => a,
                    _ => dir.resolve(to),
                };
                at = mem.position(cur);
                found = at.as_ref().is_ok_and(is_header);
            }
        }
        if access != Access::Header {
            trace::emit(
                node,
                TraceEvent::MutatorAccess {
                    requested: addr,
                    resolved: cur,
                    write: access == Access::Write,
                },
            );
        }
        let at = at?;
        if !found {
            return Err(BmxError::NotAnObject { addr: cur });
        }
        Ok(at)
    }

    /// Barriered pointer store: `(*obj).field = target`.
    pub fn write_ref(&mut self, node: NodeId, obj: Addr, field: u64, target: Addr) -> Result<()> {
        let src = self.locate(node, obj, Access::Write)?;
        let out = {
            let Cluster {
                gc, mems, stats, ..
            } = self;
            bmx_gc::barrier::write_ref(
                gc,
                node,
                &mut mems[node.0 as usize],
                &mut stats[node.0 as usize],
                src,
                field,
                target,
            )?
        };
        if let Some((dst, msg)) = out {
            self.send_gc(node, dst, msg);
            self.pump()?;
        }
        Ok(())
    }

    /// Non-pointer store: `(*obj).field = value`.
    pub fn write_data(&mut self, node: NodeId, obj: Addr, field: u64, value: u64) -> Result<()> {
        let (seg, off) = self.locate(node, obj, Access::Write)?;
        let seg = &mut self.mems[node.0 as usize].segments_mut()[seg];
        object::write_data_field_at(seg, off, field, value)
    }

    /// Non-pointer load.
    pub fn read_data(&self, node: NodeId, obj: Addr, field: u64) -> Result<u64> {
        let (seg, off) = self.locate(node, obj, Access::Read)?;
        object::read_field_at(&self.mems[node.0 as usize].segments()[seg], off, field)
    }

    /// Pointer load.
    pub fn read_ref(&self, node: NodeId, obj: Addr, field: u64) -> Result<Addr> {
        let (seg, off) = self.locate(node, obj, Access::Read)?;
        object::read_ref_field_at(&self.mems[node.0 as usize].segments()[seg], off, field)
    }

    /// Local-only address-to-OID resolution (header read through local
    /// forwarding).
    pub fn oid_at_local(&self, node: NodeId, addr: Addr) -> Result<Oid> {
        let (seg, off) = self.locate(node, addr, Access::Header)?;
        Ok(object::view_at(&self.mems[node.0 as usize].segments()[seg], off).oid)
    }

    /// The pointer-comparison operation (Section 4.2): are `a` and `b` the
    /// same object at `node`, accounting for forwarding pointers?
    pub fn ptr_eq(&self, node: NodeId, a: Addr, b: Addr) -> bool {
        self.gc.node(node).directory.ptr_eq(a, b)
    }

    // ------------------------------------------------------------------
    // Entry-consistency brackets.
    // ------------------------------------------------------------------

    /// Resolves the OID of the object at `addr` for `node`.
    ///
    /// Fast path: the local header. If the object's data never reached this
    /// node, the header is fetched from the bunch creator — a stand-in for
    /// the address-keyed routing of the original system (see DESIGN.md), and
    /// accounted as one protocol round-trip. If the creator's replica lost
    /// the trail too — every copy of the forwarding knowledge dies when a
    /// from-space range is released (Section 4.5) — the segment
    /// server's retired-range routing resolves the stale pointer.
    pub fn oid_at(&mut self, node: NodeId, addr: Addr) -> Result<Oid> {
        if let Ok(oid) = self.oid_at_local(node, addr) {
            return Ok(oid);
        }
        let bunch = self
            .server
            .borrow()
            .bunch_of_held(addr)
            .ok_or(BmxError::Unmapped { node, addr })?;
        let creator = self.server.borrow().bunch(bunch)?.creator;
        if !self.is_resident(creator) {
            // Nothing has been changed yet: the caller can simply run the
            // operation again once it holds the creator's slot too.
            return Err(BmxError::NeedsNode { node: creator });
        }
        let (oid, retired_to) = match self.oid_at_local(creator, addr) {
            Ok(oid) => (oid, None),
            Err(err) => {
                let Some((oid, cur)) = self.server.borrow().resolve_retired(addr) else {
                    return Err(err);
                };
                metrics::bump(node, Ctr::RetiredRouteHits);
                // Prefer an address some replica demonstrably populated:
                // this node's own copy first, then the creator's; the
                // routing target is only a last resort (the data lands
                // there at grant time).
                let local = self.gc.node(node).directory.addr_of(oid).filter(|&a| {
                    object::view(&self.mems[node.0 as usize], a).is_ok_and(|v| v.oid == oid)
                });
                let at_creator = self.gc.node(creator).directory.addr_of(oid).filter(|&a| {
                    object::view(&self.mems[creator.0 as usize], a).is_ok_and(|v| v.oid == oid)
                });
                (oid, Some((local, local.or(at_creator).unwrap_or(cur))))
            }
        };
        self.stats[node.0 as usize].add(StatKind::MessagesSent, 2);
        self.stats[node.0 as usize].add(StatKind::DsmProtocolMessages, 2);
        self.stats[node.0 as usize].add(StatKind::DsmLogicalMessages, 2);
        match retired_to {
            // The node now knows where this object lives locally (same
            // address until relocations say otherwise) and who to ask for
            // tokens.
            None => self.gc.node_mut(node).directory.set_addr(oid, addr),
            Some((local, cur)) => {
                // Teach the local directory the retired address, so later
                // brackets (release, field access) resolve without routing.
                let dir = &mut self.gc.node_mut(node).directory;
                if !dir.is_forwarded_from(addr) {
                    dir.record_move(oid, addr, cur);
                }
                if local.is_none() {
                    let cur = dir.resolve(cur);
                    dir.set_addr(oid, cur);
                }
            }
        }
        if self.engine.obj_state(node, oid).is_none() {
            let hint = match self.engine.obj_state(creator, oid) {
                Some(st) if st.is_owner => creator,
                Some(st) => st.owner_hint,
                None => creator,
            };
            self.with_engine(|e, sh, send| {
                e.register_mapped_replica(node, oid, bunch, hint, sh, send)
            });
            self.pump()?;
        }
        Ok(oid)
    }

    /// Acquires a read token for the object at `addr` and enters the
    /// critical section.
    pub fn acquire_read(&mut self, node: NodeId, addr: Addr) -> Result<()> {
        let oid = self.oid_at(node, addr)?;
        let t0 = self.net.now();
        let started = self.with_engine(|e, sh, send| e.start_read(node, oid, sh, send))?;
        if started == AcquireStart::Requested {
            self.pump()?;
            if self.engine.token(node, oid) == Token::None {
                // Give up cleanly: leaving the wait latched would turn the
                // grant that eventually lands into a reservation for a
                // waiter that is gone.
                self.cancel_acquire(node, addr)?;
                return Err(BmxError::WouldBlock { oid });
            }
            metrics::observe(node, Hst::AcquireReadTicks, self.net.now() - t0);
        }
        self.engine.lock(node, oid)
    }

    /// Acquires the write token for the object at `addr` and enters the
    /// critical section.
    pub fn acquire_write(&mut self, node: NodeId, addr: Addr) -> Result<()> {
        let oid = self.oid_at(node, addr)?;
        let t0 = self.net.now();
        let started = self.with_engine(|e, sh, send| e.start_write(node, oid, sh, send))?;
        if started == AcquireStart::Requested {
            self.pump()?;
            if self.engine.token(node, oid) != Token::Write {
                // Same as the read path: abandon the wait so a late grant
                // is absorbed unreserved instead of held for nobody.
                self.cancel_acquire(node, addr)?;
                return Err(BmxError::WouldBlock { oid });
            }
            metrics::observe(node, Hst::AcquireWriteTicks, self.net.now() - t0);
        }
        self.engine.lock(node, oid)
    }

    /// One step of a split-phase acquire, for drivers that cannot block
    /// inside the protocol (the parallel runtime's per-node handles).
    ///
    /// Returns `Ok(true)` when the token is held and the critical section
    /// entered; `Ok(false)` when a request is outstanding — the caller
    /// should release the node's lock, let its driver thread deliver the
    /// grant, and poll again. Unlike [`Cluster::acquire_write`], an
    /// outstanding request is *not* re-sent on re-poll (channels are
    /// lossless in parallel mode, so a hot poll loop would only fan out
    /// redundant traffic); a caller that has waited long enough to suspect
    /// the request died with a crashed node re-sends it explicitly via
    /// [`Cluster::nudge_acquire`].
    pub fn poll_acquire(&mut self, node: NodeId, addr: Addr, write: bool) -> Result<bool> {
        let oid = self.oid_at(node, addr)?;
        if self.engine.try_lock(node, oid, write) {
            return Ok(true);
        }
        if self.engine.is_waiting(node, oid) {
            return Ok(false);
        }
        let started = self.with_engine(|e, sh, send| {
            if write {
                e.start_write(node, oid, sh, send)
            } else {
                e.start_read(node, oid, sh, send)
            }
        })?;
        self.pump()?;
        match started {
            AcquireStart::Satisfied => self.engine.lock(node, oid).map(|()| true),
            // In sim mode the pump above completed the exchange; in
            // parallel mode the request is now in the transport.
            AcquireStart::Requested => Ok(self.engine.try_lock(node, oid, write)),
        }
    }

    /// Re-sends the outstanding token request behind a split-phase acquire
    /// toward the current owner hint; a no-op when nothing is outstanding.
    /// The parallel runtime calls this when a poll has backed off to its
    /// ceiling — long enough that the request may have died with a crashed
    /// node (purged inbox, amnesia-wiped queue, or a drop during the
    /// recovery window). See [`bmx_dsm::DsmEngine::nudge_wait`] for why a
    /// duplicate request cannot double-grant.
    pub fn nudge_acquire(&mut self, node: NodeId, addr: Addr) -> Result<()> {
        let oid = self.oid_at(node, addr)?;
        self.with_engine(|e, sh, send| e.nudge_wait(node, oid, sh, send));
        self.pump()
    }

    /// Abandons the outstanding acquire of the object at `addr` (the caller
    /// gave up: timeout, or the owner is down). Releases any reservation a
    /// grant may already have placed so parked remote requests proceed.
    pub fn cancel_acquire(&mut self, node: NodeId, addr: Addr) -> Result<()> {
        let oid = self.oid_at(node, addr)?;
        self.with_engine(|e, sh, send| e.cancel_wait(node, oid, sh, send))?;
        self.pump()
    }

    /// Releases the token bracket for the object at `addr`.
    pub fn release(&mut self, node: NodeId, addr: Addr) -> Result<()> {
        let oid = self.oid_at_local(node, addr)?;
        self.with_engine(|e, sh, send| e.unlock(node, oid, sh, send))?;
        self.pump()
    }

    // ------------------------------------------------------------------
    // Sequentially-consistent convenience brackets (experiment E11).
    // ------------------------------------------------------------------

    /// A sequentially-consistent load: acquire-read, load, release.
    ///
    /// This is the per-operation coherence style the paper's Section 1
    /// contrasts weak consistency against; entry-consistency programs hold
    /// tokens across whole critical sections instead.
    pub fn sc_read_data(&mut self, node: NodeId, obj: Addr, field: u64) -> Result<u64> {
        self.acquire_read(node, obj)?;
        let v = self.read_data(node, obj, field);
        self.release(node, obj)?;
        v
    }

    /// A sequentially-consistent store: acquire-write, store, release.
    pub fn sc_write_data(&mut self, node: NodeId, obj: Addr, field: u64, value: u64) -> Result<()> {
        self.acquire_write(node, obj)?;
        let r = self.write_data(node, obj, field, value);
        self.release(node, obj)?;
        r
    }

    // ------------------------------------------------------------------
    // Roots.
    // ------------------------------------------------------------------

    /// Registers a mutator stack root at `node`.
    pub fn add_root(&mut self, node: NodeId, addr: Addr) -> u64 {
        // A root created during an incremental collection makes its target
        // reachable: gray it.
        let bunch = self.gc.local_bunch_of(&self.mems[node.0 as usize], addr);
        self.gc.node_mut(node).gray_if_active(bunch, addr);
        self.gc.node_mut(node).add_root(addr)
    }

    /// Reads a root slot (the BGC may have rewritten it).
    pub fn root(&self, node: NodeId, id: u64) -> Option<Addr> {
        self.gc.node(node).root(id)
    }

    /// Re-points a root slot.
    pub fn set_root(&mut self, node: NodeId, id: u64, addr: Addr) {
        let bunch = self.gc.local_bunch_of(&self.mems[node.0 as usize], addr);
        self.gc.node_mut(node).gray_if_active(bunch, addr);
        self.gc.node_mut(node).set_root(id, addr);
    }

    /// Drops a root slot.
    pub fn remove_root(&mut self, node: NodeId, id: u64) -> Option<Addr> {
        self.gc.node_mut(node).remove_root(id)
    }
}
