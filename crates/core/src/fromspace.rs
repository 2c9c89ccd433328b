//! The from-space reuse protocol (paper, Section 4.5).
//!
//! After a bunch collection, the retired from-space segments may still hold
//! forwarding headers and live non-owned objects, so they cannot be reused
//! immediately — and they do not need to be until the to-space fills up.
//! Reclaiming them is the only part of the design that sends explicit GC
//! messages, and it runs entirely in the background:
//!
//! 1. **Copy-out** — the initiator asks the owner of each live non-owned
//!    object remaining in the doomed segments to copy it out (the owner
//!    copies into *its* current space — never into a doomed segment — and
//!    replies with the relocations); objects the initiator itself owns are
//!    copied out locally.
//! 2. **Retire round** — once the initiator's replica holds nothing live,
//!    every other replica holder is told the ranges are retiring, with the
//!    full relocation set. Each receiver applies the relocations, evacuates
//!    any live objects *its own* replica still has there (copying owned
//!    ones out itself, copy-requesting non-owned ones from their owners —
//!    the initiator cannot know about replicas it already reclaimed
//!    locally), rewrites its local references and roots away from the
//!    ranges, unmaps its replica of the segments, drops the forwarding
//!    knowledge, and acknowledges.
//! 3. **Release** — with every ack in, the initiator rewrites its own
//!    references, unmaps the segments, and tells the segment server the
//!    ranges are released. No replica anywhere still holds live data or
//!    needs a forwarding pointer into them, and nothing ever will again:
//!    released ranges are never refilled (to-space and allocation growth
//!    always take fresh ranges from the server), so a relocation record
//!    that outlived the round finds no segment to land in and is dropped,
//!    and what a node maps is bounded by what is live, not by how long it
//!    has been running.

use std::collections::{BTreeMap, BTreeSet};

use bmx_addr::object::{self, CopyBuf, ObjectView};
use bmx_addr::{MappedSegment, NodeMemory};
use bmx_common::{Addr, BmxError, BunchId, NodeId, NodeStats, Oid, Result, SegmentId, StatKind};
use bmx_dsm::{DsmEngine, Relocation};
use bmx_trace::{self as trace, ReuseStep, TraceEvent};

use crate::integration::apply_relocations_at;
use crate::msg::GcMsg;
use crate::state::{GcState, RetireState, ReusePhase, ReuseState};

/// Begins reclaiming the pending from-space segments of `bunch` at `node`.
///
/// Returns the background messages to transmit. If nothing blocks reuse
/// (no live residents, no other replica holders), the segments are
/// reclaimed immediately and no messages are produced.
pub fn start_reuse(
    gc: &mut GcState,
    engine: &DsmEngine,
    mem: &mut NodeMemory,
    stats: &mut NodeStats,
    node: NodeId,
    bunch: BunchId,
) -> Result<Vec<(NodeId, GcMsg)>> {
    let segments = {
        let brs = gc
            .node(node)
            .bunch(bunch)
            .ok_or(BmxError::BunchUnmapped { node, bunch })?;
        if brs.reuse.is_some() {
            return Err(BmxError::CollectorBusy { bunch });
        }
        brs.pending_from.clone()
    };
    if segments.is_empty() {
        return Ok(Vec::new());
    }
    trace::emit(
        node,
        TraceEvent::Reuse {
            bunch,
            step: ReuseStep::Start,
        },
    );
    let (by_owner, awaiting_oids) =
        evacuate_locally_and_group(gc, engine, mem, stats, node, bunch, &segments)?;

    gc.node_mut(node).bunch_mut(bunch).expect("checked").reuse = Some(ReuseState {
        segments: segments.clone(),
        phase: ReusePhase::CopyOut { awaiting_oids },
    });
    trace::emit(
        node,
        TraceEvent::Reuse {
            bunch,
            step: ReuseStep::CopyOut,
        },
    );

    let mut msgs = Vec::new();
    for (owner, oids) in by_owner {
        msgs.push((
            owner,
            GcMsg::CopyRequest {
                bunch,
                oids,
                avoid: segments.clone(),
                reply_to: node,
            },
        ));
        stats.bump(StatKind::BackgroundGcMessages);
    }
    if msgs.is_empty() {
        msgs.extend(advance_to_retire(gc, engine, mem, stats, node, bunch)?);
    }
    Ok(msgs)
}

/// Result of scanning doomed segments: copy-requests grouped by owner,
/// plus the set of object ids whose relocation is awaited.
type Evacuation = (BTreeMap<NodeId, Vec<Oid>>, BTreeSet<Oid>);

/// Scans `segments` in the local replica: locally owned live residents are
/// copied out on the spot; non-owned live residents are grouped by their
/// ownerPtr for copy requests.
fn evacuate_locally_and_group(
    gc: &mut GcState,
    engine: &DsmEngine,
    mem: &mut NodeMemory,
    stats: &mut NodeStats,
    node: NodeId,
    bunch: BunchId,
    segments: &[SegmentId],
) -> Result<Evacuation> {
    let mut by_owner: BTreeMap<NodeId, Vec<Oid>> = BTreeMap::new();
    let mut awaiting = BTreeSet::new();
    // Locally owned residents (e.g. acquired after the collection) are
    // copied out by this node itself, once the borrowed walk is over.
    let mut own = Vec::new();
    for &seg_id in segments {
        let Ok(seg) = mem.segment(seg_id) else {
            continue;
        };
        for v in current_residents(gc, node, seg) {
            match engine.obj_state(node, v.oid) {
                Some(st) if !st.is_owner => {
                    by_owner.entry(st.owner_hint).or_default().push(v.oid);
                    awaiting.insert(v.oid);
                }
                Some(_) => own.push(v.addr),
                None => {
                    // No replica record: dead resident that predates the
                    // sweep (or a record dropped since); nothing keeps it.
                }
            }
        }
    }
    for addr in own {
        copy_out_locally(gc, mem, stats, node, bunch, addr, segments)?;
    }
    Ok((by_owner, awaiting))
}

/// The residents of `seg` that are `node`'s *current* copy of their object.
/// Bytes at any other address are a ghost of an older generation (a replica
/// the DSM re-installed elsewhere since, or a forwarded header) and go
/// with the segment — copying them out would resurrect stale state.
fn current_residents<'a>(
    gc: &'a GcState,
    node: NodeId,
    seg: &'a MappedSegment,
) -> impl Iterator<Item = ObjectView> + 'a {
    let dir = &gc.node(node).directory;
    object::views_in(seg).filter(move |v| {
        let a0 = dir.addr_of(v.oid);
        !v.is_forwarded() && (a0 == Some(v.addr) || a0.map(|a| dir.resolve(a)) == Some(v.addr))
    })
}

/// Copies one locally owned object out of a doomed segment into the local
/// current space, never into `avoid`.
fn copy_out_locally(
    gc: &mut GcState,
    mem: &mut NodeMemory,
    stats: &mut NodeStats,
    node: NodeId,
    bunch: BunchId,
    from: Addr,
    avoid: &[SegmentId],
) -> Result<Relocation> {
    let need = object::view(mem, from)?.footprint();
    let seg_id = alloc_target_with_space(gc, mem, node, bunch, need, avoid)?;
    let dst = {
        let seg = mem.segment(seg_id)?;
        seg.info.base.add_words(seg.alloc_cursor)
    };
    let oid = object::copy_object(mem, from, dst, &mut CopyBuf::default())?.oid;
    object::set_forwarding(mem, from, dst)?;
    gc.node_mut(node).directory.record_move(oid, from, dst);
    let r = Relocation { oid, from, to: dst };
    if let Some(brs) = gc.node_mut(node).bunch_mut(bunch) {
        brs.relocations.push(r);
    }
    stats.bump(StatKind::ObjectsCopied);
    stats.add(StatKind::WordsCopied, need);
    Ok(r)
}

/// Finds (or allocates) a current-space segment of `bunch` with room for
/// `need` words, skipping the `avoid` list (doomed segments must never be
/// copy targets).
fn alloc_target_with_space(
    gc: &mut GcState,
    mem: &mut NodeMemory,
    node: NodeId,
    bunch: BunchId,
    need: u64,
    avoid: &[SegmentId],
) -> Result<SegmentId> {
    let pool = gc.node(node).bunch(bunch).map(|b| &b.alloc_segments[..]);
    let fits = |id: &&SegmentId| {
        !avoid.contains(id) && mem.segment(**id).is_ok_and(|s| s.free_words() >= need)
    };
    if let Some(&id) = pool.unwrap_or_default().iter().find(fits) {
        return Ok(id);
    }
    let info = gc.server.borrow_mut().alloc_segment(bunch)?;
    if need > info.words {
        return Err(BmxError::OutOfMemory { bunch, words: need });
    }
    mem.map_segment(info);
    gc.node_mut(node)
        .bunch_or_default(bunch)
        .alloc_segments
        .push(info.id);
    Ok(info.id)
}

/// Handles a `CopyRequest` at the (presumed) owner: copies each owned
/// object into the local current space, forwards the request for objects
/// whose ownership moved on, and returns the reply plus any forwards.
#[allow(clippy::too_many_arguments)]
pub fn handle_copy_request(
    gc: &mut GcState,
    engine: &DsmEngine,
    mem: &mut NodeMemory,
    stats: &mut NodeStats,
    at: NodeId,
    bunch: BunchId,
    oids: &[Oid],
    avoid: &[SegmentId],
    reply_to: NodeId,
) -> Result<Vec<(NodeId, GcMsg)>> {
    let mut relocs = Vec::new();
    let mut forwards: BTreeMap<NodeId, Vec<Oid>> = BTreeMap::new();
    // Never copy into the requester's doomed segments, nor into segments
    // pending retirement at this node.
    let mut local_doomed: Vec<SegmentId> = gc
        .node(at)
        .bunch(bunch)
        .map(|b| b.pending_from.clone())
        .unwrap_or_default();
    local_doomed.extend_from_slice(avoid);
    let doomed_ranges: Vec<(Addr, u64)> = {
        let srv = gc.server.borrow();
        local_doomed
            .iter()
            .filter_map(|&s| srv.segment(s).ok().map(|i| (i.base, i.words)))
            .collect()
    };
    for &oid in oids {
        if let Some(r) = gc.node(at).directory.reloc_of(oid) {
            // An indexed relocation whose chain dead-ends inside the very
            // ranges being retired (it may predate a later move *into*
            // them) cannot settle the requester; fall through to a fresh
            // copy-out instead.
            let dest = gc.node(at).directory.resolve(r.to);
            if !doomed_ranges.iter().any(|&(b, w)| dest.in_range(b, w)) {
                relocs.push(r);
                continue;
            }
        }
        match engine.obj_state(at, oid) {
            Some(st) if st.is_owner => {
                let Some(from) = gc.node(at).directory.addr_of(oid) else {
                    continue;
                };
                let r = copy_out_locally(gc, mem, stats, at, bunch, from, &local_doomed)?;
                relocs.push(r);
            }
            Some(st) => {
                forwards.entry(st.owner_hint).or_default().push(oid);
            }
            None => {
                // The object died globally as far as this node knows;
                // nothing to relocate. The requester treats the oid as
                // settled via its own next collection.
            }
        }
    }
    let mut msgs = Vec::new();
    msgs.push((
        reply_to,
        GcMsg::CopyReply {
            bunch,
            relocations: relocs,
            from: at,
        },
    ));
    stats.bump(StatKind::BackgroundGcMessages);
    for (owner, oids) in forwards {
        msgs.push((
            owner,
            GcMsg::CopyRequest {
                bunch,
                oids,
                avoid: avoid.to_vec(),
                reply_to,
            },
        ));
        stats.bump(StatKind::BackgroundGcMessages);
    }
    Ok(msgs)
}

/// Handles a `CopyReply` at a node: applies the relocations and advances
/// whichever protocol (initiator reuse or receiver retire) was waiting.
pub fn handle_copy_reply(
    gc: &mut GcState,
    engine: &DsmEngine,
    mems: &mut [NodeMemory],
    stats: &mut NodeStats,
    at: NodeId,
    bunch: BunchId,
    relocations: &[Relocation],
) -> Result<Vec<(NodeId, GcMsg)>> {
    apply_relocations_at(gc, at, relocations, mems);
    let mut msgs = Vec::new();
    // Initiator in copy-out phase?
    let copyout_done = {
        let brs = gc.node_mut(at).bunch_mut(bunch);
        match brs.and_then(|b| b.reuse.as_mut()) {
            Some(ReuseState {
                phase: ReusePhase::CopyOut { awaiting_oids },
                ..
            }) => {
                for r in relocations {
                    awaiting_oids.remove(&r.oid);
                }
                awaiting_oids.is_empty()
            }
            _ => false,
        }
    };
    if copyout_done {
        msgs.extend(advance_to_retire(
            gc,
            engine,
            &mut mems[at.0 as usize],
            stats,
            at,
            bunch,
        )?);
    }
    // Receiver in retire handling?
    let retire_done = {
        let brs = gc.node_mut(at).bunch_mut(bunch);
        match brs.and_then(|b| b.retire.as_mut()) {
            Some(rt) => {
                for r in relocations {
                    rt.awaiting_oids.remove(&r.oid);
                }
                rt.awaiting_oids.is_empty()
            }
            None => false,
        }
    };
    if retire_done {
        msgs.extend(complete_retire(
            gc,
            engine,
            &mut mems[at.0 as usize],
            stats,
            at,
            bunch,
        )?);
    }
    Ok(msgs)
}

/// Phase two: the initiator's replica is clean; announce the retirement to
/// every other replica holder (or finish immediately if there are none).
fn advance_to_retire(
    gc: &mut GcState,
    engine: &DsmEngine,
    mem: &mut NodeMemory,
    stats: &mut NodeStats,
    node: NodeId,
    bunch: BunchId,
) -> Result<Vec<(NodeId, GcMsg)>> {
    let segments = {
        let brs = gc
            .node(node)
            .bunch(bunch)
            .ok_or(BmxError::BunchUnmapped { node, bunch })?;
        match &brs.reuse {
            Some(r) => r.segments.clone(),
            None => return Ok(Vec::new()),
        }
    };
    let relocations = relocs_out_of(gc, mem, node, &segments);
    let dests: Vec<NodeId> = gc
        .mapped_nodes(bunch)
        .into_iter()
        .filter(|&d| d != node)
        .collect();
    if dests.is_empty() {
        finish_local(gc, engine, mem, stats, node, bunch)?;
        return Ok(Vec::new());
    }
    {
        let brs = gc.node_mut(node).bunch_mut(bunch).expect("checked");
        if let Some(r) = brs.reuse.as_mut() {
            r.phase = ReusePhase::Retire {
                awaiting_acks: dests.iter().copied().collect(),
            };
        }
    }
    trace::emit(
        node,
        TraceEvent::Reuse {
            bunch,
            step: ReuseStep::Retire,
        },
    );
    let mut msgs = Vec::new();
    for d in dests {
        stats.bump(StatKind::ExplicitRelocationMessages);
        msgs.push((
            d,
            GcMsg::Retire {
                bunch,
                segments: segments.clone(),
                relocations: relocations.clone(),
                reply_to: node,
            },
        ));
    }
    Ok(msgs)
}

/// Every relocation the directory retains out of the given segments.
fn relocs_out_of(
    gc: &GcState,
    mem: &NodeMemory,
    node: NodeId,
    segments: &[SegmentId],
) -> Vec<Relocation> {
    let mut out = Vec::new();
    for &sid in segments {
        if let Ok(seg) = mem.segment(sid) {
            out.extend(
                gc.node(node)
                    .directory
                    .relocs_from_range(seg.info.base, seg.info.words),
            );
        }
    }
    out
}

/// Handles a `Retire` at a replica holder.
#[allow(clippy::too_many_arguments)]
pub fn handle_retire(
    gc: &mut GcState,
    engine: &DsmEngine,
    mems: &mut [NodeMemory],
    stats: &mut NodeStats,
    at: NodeId,
    bunch: BunchId,
    segments: &[SegmentId],
    relocations: &[Relocation],
    reply_to: NodeId,
) -> Result<Vec<(NodeId, GcMsg)>> {
    apply_relocations_at(gc, at, relocations, mems);
    let mem = &mut mems[at.0 as usize];
    // Evacuate whatever *this* replica still has alive in the ranges: the
    // initiator cannot know about replicas it reclaimed locally long ago.
    let (by_owner, awaiting_oids) =
        evacuate_locally_and_group(gc, engine, mem, stats, at, bunch, segments)?;
    gc.node_mut(at).bunch_or_default(bunch).retire = Some(RetireState {
        requester: reply_to,
        segments: segments.to_vec(),
        awaiting_oids,
    });
    let mut msgs = Vec::new();
    for (owner, oids) in by_owner {
        msgs.push((
            owner,
            GcMsg::CopyRequest {
                bunch,
                oids,
                avoid: segments.to_vec(),
                reply_to: at,
            },
        ));
        stats.bump(StatKind::BackgroundGcMessages);
    }
    if msgs.is_empty() {
        msgs.extend(complete_retire(gc, engine, mem, stats, at, bunch)?);
    }
    Ok(msgs)
}

/// Completes a receiver's retire handling: releases the local replica of
/// the ranges and acknowledges to the initiator.
fn complete_retire(
    gc: &mut GcState,
    engine: &DsmEngine,
    mem: &mut NodeMemory,
    stats: &mut NodeStats,
    at: NodeId,
    bunch: BunchId,
) -> Result<Vec<(NodeId, GcMsg)>> {
    let Some(rt) = gc.node_mut(at).bunch_or_default(bunch).retire.take() else {
        return Ok(Vec::new());
    };
    release_segments(gc, engine, mem, stats, at, bunch, &rt.segments)?;
    stats.bump(StatKind::BackgroundGcMessages);
    Ok(vec![(rt.requester, GcMsg::RetireAck { bunch, from: at })])
}

/// Handles a `RetireAck` at the initiator; finishes once all are in.
pub fn handle_retire_ack(
    gc: &mut GcState,
    engine: &DsmEngine,
    mem: &mut NodeMemory,
    stats: &mut NodeStats,
    at: NodeId,
    bunch: BunchId,
    from: NodeId,
) -> Result<()> {
    let done = {
        let brs = gc.node_mut(at).bunch_mut(bunch);
        match brs.and_then(|b| b.reuse.as_mut()) {
            Some(ReuseState {
                phase: ReusePhase::Retire { awaiting_acks },
                ..
            }) => {
                awaiting_acks.remove(&from);
                trace::emit(
                    at,
                    TraceEvent::Reuse {
                        bunch,
                        step: ReuseStep::Ack,
                    },
                );
                awaiting_acks.is_empty()
            }
            _ => false,
        }
    };
    if done {
        finish_local(gc, engine, mem, stats, at, bunch)?;
    }
    Ok(())
}

/// Phase three at the initiator: release the local replica, then the
/// ranges themselves at the segment server.
fn finish_local(
    gc: &mut GcState,
    engine: &DsmEngine,
    mem: &mut NodeMemory,
    stats: &mut NodeStats,
    node: NodeId,
    bunch: BunchId,
) -> Result<()> {
    let Some(reuse) = gc.node_mut(node).bunch_or_default(bunch).reuse.take() else {
        return Ok(());
    };
    let ranges = release_segments(gc, engine, mem, stats, node, bunch, &reuse.segments)?;
    let brs = gc.node_mut(node).bunch_mut(bunch).expect("mapped");
    brs.relocations
        .retain(|r| !ranges.iter().any(|&(b, w)| r.from.in_range(b, w)));
    gc.server.borrow_mut().release_segments(&reuse.segments);
    trace::emit(
        node,
        TraceEvent::Reuse {
            bunch,
            step: ReuseStep::Done,
        },
    );
    Ok(())
}

/// Releases `at`'s replica of the doomed segments: rewrites local
/// references and roots away from the ranges, hands the forwarding
/// knowledge to the server's retired-range routing, unmaps the segments and
/// drops them from the bunch's pools. Returns the released ranges.
fn release_segments(
    gc: &mut GcState,
    engine: &DsmEngine,
    mem: &mut NodeMemory,
    stats: &mut NodeStats,
    at: NodeId,
    bunch: BunchId,
    segments: &[SegmentId],
) -> Result<Vec<(Addr, u64)>> {
    let ranges: Vec<(Addr, u64)> = segments
        .iter()
        .filter_map(|&s| {
            mem.segment(s)
                .ok()
                .map(|seg| (seg.info.base, seg.info.words))
        })
        .collect();
    let in_doomed = |a: Addr| ranges.iter().any(|&(b, w)| a.in_range(b, w));
    // Final local settle. Per-node divergence (Section 4.2) means the
    // retire round's relocation gossip cannot always settle *this*
    // replica's copy: its local address may match no advertised edge, or
    // the only chain it knows may dead-end inside the very ranges being
    // retired (the knowledge past that hop was dropped by an earlier
    // reuse). The node itself is the sole authority on where its copy
    // lives, so any still-current tracked resident is copied out locally
    // here. Residents the DSM no longer tracks, or whose current copy is
    // established elsewhere, are ghosts — bytes a collection dropped as
    // locally dead (`drop_replica`) or a superseded install — and are
    // exactly what the release exists to clear.
    let mut unsettled = Vec::new();
    for &sid in segments {
        if let Ok(seg) = mem.segment(sid) {
            unsettled.extend(
                current_residents(gc, at, seg)
                    .filter(|v| engine.obj_state(at, v.oid).is_some())
                    .map(|v| v.addr),
            );
        }
    }
    for addr in unsettled {
        copy_out_locally(gc, mem, stats, at, bunch, addr, segments)?;
    }
    // Rewrite references in every other mapped segment that still point
    // into the ranges, then the roots.
    {
        let dir = &gc.node(at).directory;
        for seg in mem.segments_mut() {
            if !segments.contains(&seg.info.id) {
                object::rewrite_refs_in(seg, |t| if in_doomed(t) { dir.resolve(t) } else { t });
            }
        }
    }
    let root_updates: Vec<(u64, Addr)> = {
        let ns = gc.node(at);
        ns.roots
            .iter()
            .filter(|&(_, &a)| in_doomed(a))
            .map(|(&id, &a)| (id, ns.directory.resolve(a)))
            .collect()
    };
    for (id, a) in root_updates {
        gc.node_mut(at).set_root(id, a);
    }
    // Update scion target addresses that still point into the ranges.
    {
        let ns = gc.node_mut(at);
        for brs in ns.bunches.values_mut() {
            for s in brs.scion_table.inter_mut() {
                if in_doomed(s.target_addr) {
                    s.target_addr = ns.directory.resolve(s.target_addr);
                }
            }
        }
    }
    // Hand the forwarding knowledge this node is about to drop to the
    // segment server's retired-range routing: a mutator anywhere that still
    // holds a pre-collection pointer (a register-resident root, in the
    // paper's terms) resolves it there once every replica has let go.
    {
        let relocs = relocs_out_of(gc, mem, at, segments);
        gc.server
            .borrow_mut()
            .note_retired(relocs.into_iter().map(|r| (r.oid, r.from, r.to)));
    }
    // Drop the replicas, the forwarding knowledge and the pool entries.
    for &sid in segments {
        let _ = mem.unmap_segment(sid);
    }
    let ns = gc.node_mut(at);
    for &(base, words) in &ranges {
        ns.directory.forget_range(base, words);
        stats.add(StatKind::WordsReclaimed, words);
    }
    if let Some(brs) = ns.bunch_mut(bunch) {
        brs.pending_from.retain(|s| !segments.contains(s));
        brs.alloc_segments.retain(|s| !segments.contains(s));
    }
    crate::collect::refresh_node_gauges(gc, at);
    Ok(ranges)
}
