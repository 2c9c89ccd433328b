//! The scion cleaner (paper, Section 6).
//!
//! One cleaner service per node processes the reachability reports produced
//! by remote (and local-peer) bunch collections. Against the report from
//! `(source node, bunch)` it:
//!
//! * deletes local inter-bunch scions attributed to that source that no
//!   reported stub matches — and (re)creates scions for reported stubs whose
//!   scion site is this node, which makes a lost scion-message recoverable
//!   from the next table (the tables are the ground truth; that is what
//!   makes them re-sendable without a reliable transport);
//! * deletes local intra-bunch scions whose stub holder is the source node
//!   and whose stub is gone;
//! * deletes entering ownerPtrs from the source node that the report's
//!   exiting list no longer justifies (Section 6.2) — and adds ones it
//!   newly asserts.
//!
//! Reports are consumed at most once per epoch per `(source, bunch)`:
//! duplicates and stale retransmissions are ignored, so processing is
//! idempotent. FIFO per channel (message numbering) plus the epoch check
//! gives exactly the ordering Section 6.1 requires.
//!
//! A lost table only delays collection (Section 6.1) because the cleaner
//! asks for it again: [`table_requests`] names every `(source, bunch)`
//! whose table justifies a scion or an entering ownerPtr here and that has
//! sent no fresh table for a while, and the source answers with its
//! current one. The recovery state lives where the scions are; the
//! publisher keeps none per destination.

use std::collections::BTreeSet;

use bmx_common::{BunchId, NodeId, NodeStats, StatKind};
use bmx_dsm::DsmEngine;
use bmx_trace::{self as trace, TraceEvent};

use crate::msg::{GcMsg, ReachabilityReport};
use crate::ssp::InterScion;
use crate::state::{GcState, Pull};

/// A node looks at its pairs on the ticks divisible by this, all nodes on
/// the same ticks, and asks a pair that has brought no fresh table for at
/// least this long.
pub const PULL_SILENCE: u64 = 4;
/// The longest wait between two requests to one pair. Each request doubles
/// the wait up to here, and a fresh table resets it, so while answers
/// repeat `have` a pair is asked on the ticks divisible by this: the
/// exchanges of all pairs fall in the same few ticks and leave the network
/// idle in between. It bounds how long a lost table goes unnoticed.
pub const PULL_MAX_WAIT: u64 = 8;

/// The table requests `at` sends at tick `now`: one [`GcMsg::TableReq`] to
/// each pair whose table justifies something the cleaner would cut here
/// (inter scions by source node and bunch, intra scions by stub holder and
/// bunch, entering ownerPtrs by replica holder and bunch) and is due.
/// Forgets the schedule of pairs that justify nothing any more, so the
/// requests stop once the last thing a pair justified is cut.
pub fn table_requests(
    gc: &mut GcState,
    engine: &DsmEngine,
    at: NodeId,
    now: u64,
) -> Vec<(NodeId, GcMsg)> {
    #[allow(clippy::manual_is_multiple_of)] // `is_multiple_of` is newer than the MSRV
    if now % PULL_SILENCE != 0 {
        return Vec::new();
    }
    let ns = gc.node_mut(at);
    let mut pairs: BTreeSet<(NodeId, BunchId)> = BTreeSet::new();
    for (&bunch, brs) in &ns.bunches {
        let inter = brs.scion_table.inter().iter();
        pairs.extend(inter.map(|s| (s.source_node, s.source_bunch)));
        pairs.extend(brs.scion_table.intra().iter().map(|s| (s.stub_at, bunch)));
    }
    for (_, st) in engine.replicas_where(at, |st| !st.entering.is_empty()) {
        pairs.extend(st.entering.iter().map(|holder| (holder, st.bunch)));
    }
    // This node's own tables reach its cleaner synchronously.
    pairs.retain(|&(source, _)| source != at);
    ns.pulls.retain(|pair, _| pairs.contains(pair));
    let mut out = Vec::new();
    for pair in pairs {
        let have = ns.cleaner_epochs.get(&pair).copied().unwrap_or_default();
        let quiet = Pull {
            epoch: have,
            due: now + PULL_SILENCE,
            wait: PULL_SILENCE,
        };
        let pull = ns.pulls.entry(pair).or_insert(quiet);
        if pull.epoch != have {
            *pull = quiet;
        } else if now >= pull.due {
            out.push((
                pair.0,
                GcMsg::TableReq {
                    bunch: pair.1,
                    have,
                },
            ));
            pull.wait = (2 * pull.wait).min(PULL_MAX_WAIT);
            // The next tick divisible by the wait.
            pull.due = (now / pull.wait + 1) * pull.wait;
        }
    }
    out
}

/// Outcome of processing one report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CleanOutcome {
    /// The report was fresh (not a duplicate or stale retransmission).
    pub applied: bool,
    /// Inter- and intra-bunch scions removed.
    pub scions_removed: u64,
    /// Scions created from reported stubs (lost scion-message recovery).
    pub scions_created: u64,
    /// Entering ownerPtrs removed.
    pub owner_ptrs_removed: u64,
}

/// Processes `report` at node `at`.
pub fn process_report(
    gc: &mut GcState,
    engine: &mut DsmEngine,
    stats: &mut NodeStats,
    at: NodeId,
    report: &ReachabilityReport,
) -> CleanOutcome {
    let mut out = CleanOutcome::default();
    let key = (report.from, report.bunch);
    {
        let ns = gc.node_mut(at);
        if ns
            .cleaner_epochs
            .get(&key)
            .is_some_and(|&e| e >= report.epoch)
        {
            return out; // duplicate or stale: idempotent no-op
        }
        ns.cleaner_epochs.insert(key, report.epoch);
    }
    out.applied = true;
    // The apply event precedes every retirement below, which is exactly
    // the ordering the trace query asserts: no retirement without a prior
    // covering epoch.
    trace::emit(
        at,
        TraceEvent::ReportApply {
            source: report.from,
            bunch: report.bunch,
            epoch: report.epoch,
        },
    );

    // Index the report once: the cleaner must stay linear even for large
    // tables (it runs on every collection's publication).
    let reported_ids: std::collections::BTreeSet<crate::ssp::SspId> =
        report.inter_stubs.iter().map(|st| st.id).collect();
    let reported_intra: std::collections::BTreeSet<(bmx_common::Oid, NodeId)> = report
        .intra_stubs
        .iter()
        .map(|st| (st.oid, st.scion_at))
        .collect();

    // Inter-bunch scions: the reported stub table is authoritative for this
    // (source node, source bunch).
    let ns = gc.node_mut(at);
    for brs in ns.bunches.values_mut() {
        let before = brs.scion_table.inter().len();
        brs.scion_table.retain_inter(|s| {
            s.source_node != report.from
                || s.source_bunch != report.bunch
                || reported_ids.contains(&s.id)
        });
        out.scions_removed += (before - brs.scion_table.inter().len()) as u64;
    }
    // Recreate scions this node should hold but lost (e.g. dropped
    // scion-message). `add_inter` dedups through the table's sharded
    // membership index, so this stays linear for large tables.
    for stub in &report.inter_stubs {
        if stub.scion_at != at {
            continue;
        }
        let created = ns
            .bunch_or_default(stub.target_bunch)
            .scion_table
            .add_inter(InterScion {
                id: stub.id,
                source_node: report.from,
                source_bunch: stub.source_bunch,
                target_bunch: stub.target_bunch,
                target_addr: stub.target_addr,
                target_oid: stub.target_oid,
            });
        if created {
            out.scions_created += 1;
        }
    }

    // Intra-bunch scions of this bunch whose stub holder is the reporter.
    if let Some(brs) = ns.bunch_mut(report.bunch) {
        let before = brs.scion_table.intra().len();
        brs.scion_table
            .retain_intra(|s| s.stub_at != report.from || reported_intra.contains(&(s.oid, at)));
        out.scions_removed += (before - brs.scion_table.intra().len()) as u64;
    }
    // Create (or re-key) intra scions the report asserts: after an
    // ownership-transfer chain compression the stub may have moved to a
    // node this site never exchanged an intra SSP with directly.
    for stub in &report.intra_stubs {
        if stub.scion_at != at {
            continue;
        }
        let created =
            ns.bunch_or_default(stub.bunch)
                .scion_table
                .add_intra(crate::ssp::IntraScion {
                    oid: stub.oid,
                    bunch: stub.bunch,
                    stub_at: report.from,
                });
        if created {
            out.scions_created += 1;
        }
    }

    // Entering ownerPtrs from the reporter: remove those the exiting list
    // no longer justifies, add those it newly asserts.
    let justified: std::collections::BTreeSet<bmx_common::Oid> = report
        .exiting
        .iter()
        .filter(|&&(_, tgt)| tgt == at)
        .map(|&(oid, _)| oid)
        .collect();
    let stale: Vec<_> = engine
        .replicas_where(at, |st| {
            st.bunch == report.bunch && st.entering.contains(report.from)
        })
        .into_iter()
        .map(|(oid, _)| oid)
        .filter(|oid| !justified.contains(oid))
        .collect();
    for oid in stale {
        engine.remove_entering(at, oid, report.from);
        out.owner_ptrs_removed += 1;
    }
    for &(oid, tgt) in &report.exiting {
        if tgt == at {
            engine.add_entering(at, oid, report.from);
        }
    }

    stats.add(StatKind::ScionsCleaned, out.scions_removed);
    stats.add(StatKind::OwnerPtrsCleaned, out.owner_ptrs_removed);
    crate::collect::refresh_node_gauges(gc, at);
    // Aggregate counts keep the cleaner allocation-free under tracing.
    if out.scions_removed > 0 {
        trace::emit(
            at,
            TraceEvent::ScionRetired {
                source: report.from,
                bunch: report.bunch,
                epoch: report.epoch,
                count: out.scions_removed,
            },
        );
    }
    if out.owner_ptrs_removed > 0 {
        trace::emit(
            at,
            TraceEvent::OwnerPtrRetired {
                source: report.from,
                bunch: report.bunch,
                epoch: report.epoch,
                count: out.owner_ptrs_removed,
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssp::{InterStub, IntraScion, IntraStub, SspId};
    use bmx_addr::server::Protection;
    use bmx_addr::SegmentServer;
    use bmx_common::{Addr, BunchId, Epoch, Oid};

    fn gc_with(n: usize) -> GcState {
        let server = crate::state::SharedServer::new(SegmentServer::new(64));
        server
            .borrow_mut()
            .create_bunch(NodeId(0), Protection::default());
        GcState::new(n, server)
    }

    fn report(from: u32, bunch: u32, epoch: u64) -> ReachabilityReport {
        ReachabilityReport {
            from: NodeId(from),
            bunch: BunchId(bunch),
            epoch: Epoch(epoch),
            inter_stubs: vec![],
            intra_stubs: vec![],
            exiting: vec![],
        }
    }

    fn scion(id_seq: u64, src_node: u32, src_bunch: u32, tgt_bunch: u32) -> InterScion {
        InterScion {
            id: SspId {
                node: NodeId(src_node),
                seq: id_seq,
            },
            source_node: NodeId(src_node),
            source_bunch: BunchId(src_bunch),
            target_bunch: BunchId(tgt_bunch),
            target_addr: Addr(0x2_0000),
            target_oid: Some(Oid(5)),
        }
    }

    #[test]
    fn unmatched_scion_is_removed() {
        let mut gc = gc_with(2);
        let mut engine = DsmEngine::new(2);
        let mut stats = NodeStats::new();
        gc.node_mut(NodeId(1))
            .bunch_or_default(BunchId(2))
            .scion_table
            .add_inter(scion(1, 0, 1, 2));
        let out = process_report(
            &mut gc,
            &mut engine,
            &mut stats,
            NodeId(1),
            &report(0, 1, 1),
        );
        assert!(out.applied);
        assert_eq!(out.scions_removed, 1);
        assert!(gc
            .node(NodeId(1))
            .bunch(BunchId(2))
            .unwrap()
            .scion_table
            .inter()
            .is_empty());
        assert_eq!(stats.get(StatKind::ScionsCleaned), 1);
    }

    #[test]
    fn matched_scion_survives() {
        let mut gc = gc_with(2);
        let mut engine = DsmEngine::new(2);
        let mut stats = NodeStats::new();
        let sc = scion(1, 0, 1, 2);
        gc.node_mut(NodeId(1))
            .bunch_or_default(BunchId(2))
            .scion_table
            .add_inter(sc.clone());
        let mut rep = report(0, 1, 1);
        rep.inter_stubs.push(InterStub {
            id: sc.id,
            source_bunch: BunchId(1),
            source_oid: Oid(9),
            target_bunch: BunchId(2),
            target_addr: sc.target_addr,
            target_oid: sc.target_oid,
            scion_at: NodeId(1),
        });
        let out = process_report(&mut gc, &mut engine, &mut stats, NodeId(1), &rep);
        assert_eq!(out.scions_removed, 0);
        assert_eq!(out.scions_created, 0, "already present");
        assert_eq!(
            gc.node(NodeId(1))
                .bunch(BunchId(2))
                .unwrap()
                .scion_table
                .inter()
                .len(),
            1
        );
    }

    #[test]
    fn lost_scion_message_recovered_from_table() {
        let mut gc = gc_with(2);
        let mut engine = DsmEngine::new(2);
        let mut stats = NodeStats::new();
        // The scion never arrived, but the stub table reports it.
        let mut rep = report(0, 1, 1);
        rep.inter_stubs.push(InterStub {
            id: SspId {
                node: NodeId(0),
                seq: 7,
            },
            source_bunch: BunchId(1),
            source_oid: Oid(3),
            target_bunch: BunchId(2),
            target_addr: Addr(0x2_0000),
            target_oid: None,
            scion_at: NodeId(1),
        });
        let out = process_report(&mut gc, &mut engine, &mut stats, NodeId(1), &rep);
        assert_eq!(out.scions_created, 1);
        assert_eq!(
            gc.node(NodeId(1))
                .bunch(BunchId(2))
                .unwrap()
                .scion_table
                .inter()
                .len(),
            1
        );
    }

    #[test]
    fn duplicate_and_stale_reports_are_ignored() {
        let mut gc = gc_with(2);
        let mut engine = DsmEngine::new(2);
        let mut stats = NodeStats::new();
        let out1 = process_report(
            &mut gc,
            &mut engine,
            &mut stats,
            NodeId(1),
            &report(0, 1, 3),
        );
        assert!(out1.applied);
        let out2 = process_report(
            &mut gc,
            &mut engine,
            &mut stats,
            NodeId(1),
            &report(0, 1, 3),
        );
        assert!(!out2.applied, "same epoch: duplicate");
        let out3 = process_report(
            &mut gc,
            &mut engine,
            &mut stats,
            NodeId(1),
            &report(0, 1, 2),
        );
        assert!(!out3.applied, "older epoch: stale");
        let out4 = process_report(
            &mut gc,
            &mut engine,
            &mut stats,
            NodeId(1),
            &report(0, 1, 4),
        );
        assert!(out4.applied);
    }

    #[test]
    fn reports_from_different_sources_do_not_interfere() {
        let mut gc = gc_with(3);
        let mut engine = DsmEngine::new(3);
        let mut stats = NodeStats::new();
        // Scions from two different source nodes for the same bunch.
        let t = gc.node_mut(NodeId(2)).bunch_or_default(BunchId(2));
        t.scion_table.add_inter(scion(1, 0, 1, 2));
        t.scion_table.add_inter(scion(1, 1, 1, 2));
        // An empty report from node 0 must only prune node 0's scion.
        process_report(
            &mut gc,
            &mut engine,
            &mut stats,
            NodeId(2),
            &report(0, 1, 1),
        );
        let remaining = &gc
            .node(NodeId(2))
            .bunch(BunchId(2))
            .unwrap()
            .scion_table
            .inter();
        assert_eq!(remaining.len(), 1);
        assert_eq!(remaining[0].source_node, NodeId(1));
    }

    #[test]
    fn intra_scion_cleaning_follows_stub_holder() {
        let mut gc = gc_with(3);
        let mut engine = DsmEngine::new(3);
        let mut stats = NodeStats::new();
        let t = gc.node_mut(NodeId(1)).bunch_or_default(BunchId(1));
        t.scion_table.add_intra(IntraScion {
            oid: Oid(4),
            bunch: BunchId(1),
            stub_at: NodeId(0),
        });
        t.scion_table.add_intra(IntraScion {
            oid: Oid(5),
            bunch: BunchId(1),
            stub_at: NodeId(0),
        });
        let mut rep = report(0, 1, 1);
        // Node 0 still holds the stub for O4 (pointing at our scion) but
        // dropped the one for O5.
        rep.intra_stubs.push(IntraStub {
            oid: Oid(4),
            bunch: BunchId(1),
            scion_at: NodeId(1),
        });
        let out = process_report(&mut gc, &mut engine, &mut stats, NodeId(1), &rep);
        assert_eq!(out.scions_removed, 1);
        let intra = &gc
            .node(NodeId(1))
            .bunch(BunchId(1))
            .unwrap()
            .scion_table
            .intra();
        assert_eq!(intra.len(), 1);
        assert_eq!(intra[0].oid, Oid(4));
    }

    #[test]
    fn entering_owner_ptrs_follow_exiting_lists() {
        let mut gc = gc_with(2);
        let mut engine = DsmEngine::new(2);
        let mut stats = NodeStats::new();
        engine.register_alloc(NodeId(1), Oid(7), BunchId(1));
        engine.add_entering(NodeId(1), Oid(7), NodeId(0));
        // Report from node 0 with no exiting entry for O7: entering removed.
        let out = process_report(
            &mut gc,
            &mut engine,
            &mut stats,
            NodeId(1),
            &report(0, 1, 1),
        );
        assert_eq!(out.owner_ptrs_removed, 1);
        assert!(engine
            .obj_state(NodeId(1), Oid(7))
            .unwrap()
            .entering
            .is_empty());
        // A later report asserting the pointer re-adds it.
        let mut rep = report(0, 1, 2);
        rep.exiting.push((Oid(7), NodeId(1)));
        process_report(&mut gc, &mut engine, &mut stats, NodeId(1), &rep);
        assert!(engine
            .obj_state(NodeId(1), Oid(7))
            .unwrap()
            .entering
            .contains(NodeId(0)));
    }

    #[test]
    fn exiting_ptr_to_third_party_does_not_protect_here() {
        let mut gc = gc_with(3);
        let mut engine = DsmEngine::new(3);
        let mut stats = NodeStats::new();
        engine.register_alloc(NodeId(1), Oid(7), BunchId(1));
        engine.add_entering(NodeId(1), Oid(7), NodeId(0));
        // Node 0's ownerPtr now enters node 2, not node 1.
        let mut rep = report(0, 1, 1);
        rep.exiting.push((Oid(7), NodeId(2)));
        let out = process_report(&mut gc, &mut engine, &mut stats, NodeId(1), &rep);
        assert_eq!(out.owner_ptrs_removed, 1);
    }

    /// The bunches of `at`'s requests at `now`, for the tests below.
    fn asked(gc: &mut GcState, engine: &DsmEngine, at: u32, now: u64) -> Vec<(NodeId, BunchId)> {
        table_requests(gc, engine, NodeId(at), now)
            .into_iter()
            .map(|(to, m)| match m {
                GcMsg::TableReq { bunch, .. } => (to, bunch),
                other => panic!("not a table request: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn table_requests_back_off_to_the_cap() {
        let mut gc = gc_with(2);
        let engine = DsmEngine::new(2);
        let add = gc.node_mut(NodeId(1)).bunch_or_default(BunchId(2));
        add.scion_table.add_inter(scion(1, 0, 1, 2));
        let pair = (NodeId(0), BunchId(1));
        // Looks happen on ticks divisible by PULL_SILENCE only.
        assert!(asked(&mut gc, &engine, 1, 3).is_empty());
        assert!(asked(&mut gc, &engine, 1, 4).is_empty(), "silence starts");
        assert_eq!(asked(&mut gc, &engine, 1, 8), vec![pair]);
        assert!(
            asked(&mut gc, &engine, 1, 12).is_empty(),
            "the wait doubled"
        );
        assert_eq!(asked(&mut gc, &engine, 1, 16), vec![pair]);
        assert!(asked(&mut gc, &engine, 1, 20).is_empty(), "capped");
        assert_eq!(asked(&mut gc, &engine, 1, 24), vec![pair]);
    }

    #[test]
    fn a_fresh_table_resets_the_schedule() {
        let mut gc = gc_with(2);
        let mut engine = DsmEngine::new(2);
        let mut stats = NodeStats::new();
        let add = gc.node_mut(NodeId(1)).bunch_or_default(BunchId(2));
        add.scion_table.add_inter(scion(1, 0, 1, 2));
        asked(&mut gc, &engine, 1, 0);
        assert_eq!(asked(&mut gc, &engine, 1, 4).len(), 1);
        // The answer arrives at a fresh epoch and keeps the scion.
        let mut rep = report(0, 1, 1);
        rep.inter_stubs.push(crate::ssp::InterStub {
            id: scion(1, 0, 1, 2).id,
            source_oid: Oid(9),
            source_bunch: BunchId(1),
            target_bunch: BunchId(2),
            target_addr: Addr(0x2_0000),
            target_oid: Some(Oid(5)),
            scion_at: NodeId(1),
        });
        process_report(&mut gc, &mut engine, &mut stats, NodeId(1), &rep);
        assert!(asked(&mut gc, &engine, 1, 8).is_empty(), "heard just now");
        let have = match table_requests(&mut gc, &engine, NodeId(1), 12).pop() {
            Some((_, GcMsg::TableReq { have, .. })) => have,
            other => panic!("expected one request, got {other:?}"),
        };
        assert_eq!(have, Epoch(1), "the request names the epoch applied");
    }

    #[test]
    fn no_request_for_own_tables_or_once_nothing_is_justified() {
        let mut gc = gc_with(2);
        let engine = DsmEngine::new(2);
        let add = gc.node_mut(NodeId(1)).bunch_or_default(BunchId(2));
        // A scion justified by this node's own table, and one by node 0's.
        add.scion_table.add_inter(scion(1, 1, 3, 2));
        add.scion_table.add_inter(scion(2, 0, 1, 2));
        asked(&mut gc, &engine, 1, 0);
        assert_eq!(asked(&mut gc, &engine, 1, 4), vec![(NodeId(0), BunchId(1))]);
        let brs = gc.node_mut(NodeId(1)).bunch_mut(BunchId(2)).unwrap();
        brs.scion_table.retain_inter(|s| s.source_node != NodeId(0));
        assert!(asked(&mut gc, &engine, 1, 8).is_empty());
        assert!(
            gc.node(NodeId(1)).pulls.is_empty(),
            "the schedule is forgotten"
        );
    }
}
