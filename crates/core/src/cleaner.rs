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

use bmx_common::{NodeId, NodeStats, StatKind};
use bmx_dsm::DsmEngine;
use bmx_trace::{self as trace, TraceEvent};

use crate::msg::ReachabilityReport;
use crate::ssp::InterScion;
use crate::state::GcState;

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
}
