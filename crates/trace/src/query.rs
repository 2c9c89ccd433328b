//! Temporal invariants, checked directly on a captured trace.
//!
//! Every query takes the raw (unordered) record slice, merges it into the
//! happens-before-consistent total order, and returns the records that
//! *violate* the invariant — empty means the trace is clean, and a
//! non-empty result carries the offending records so the caller can print
//! them with their full causal context.
//!
//! Two ordering notions appear below:
//!
//! * **per-node order** — records of one node sorted by `lamport` (each
//!   emit strictly ticks the node clock, so this is exactly program
//!   order at that node);
//! * **causal precedence** — `a` happened-before `b` is *implied* by
//!   `a.lamport < b.lamport` never holding in reverse: Lamport clocks
//!   guarantee `a → b ⇒ L(a) < L(b)`, so any `b` with no candidate `a`
//!   at a smaller stamp provably lacks a causally-prior `a`.

use crate::event::{SspKind, TraceEvent, TraceRecord};
use bmx_common::NodeId;

/// Sort a captured trace into a total order consistent with
/// happens-before: `(lamport, node, seq)`. Because each emit strictly
/// increases the emitting node's clock and delivery merges the sender's
/// piggy-backed stamp, `a → b` implies `L(a) < L(b)`, so every linear
/// extension of the `lamport` sort — ties broken arbitrarily but
/// deterministically — is a valid topological order of the causal DAG.
pub fn merged_order(records: &[TraceRecord]) -> Vec<TraceRecord> {
    let mut out = records.to_vec();
    out.sort_by_key(|r| (r.lamport, r.node.0, r.seq));
    out
}

/// The records of one node, in its program order.
pub fn node_order(records: &[TraceRecord], node: NodeId) -> Vec<TraceRecord> {
    let mut out: Vec<TraceRecord> = records.iter().filter(|r| r.node == node).copied().collect();
    out.sort_by_key(|r| (r.lamport, r.seq));
    out
}

/// Render the merged happens-before timeline, one record per line.
pub fn human_timeline(records: &[TraceRecord]) -> String {
    let lines = merged_order(records)
        .into_iter()
        .map(|rec| format!("{rec}\n"));
    lines.collect()
}

/// **Scion-retirement ordering** (the paper's central safety rule): the
/// cleaner may retire scions or entering ownerPtrs only under a covering
/// reachability epoch — so every `ScionRetired`/`OwnerPtrRetired` at a
/// node must be preceded, in that node's program order, by the
/// `ReportApply` of the same `(source, bunch, epoch)` report. Returns the
/// retirement records with no such prior apply.
pub fn scion_retirement_violations(records: &[TraceRecord]) -> Vec<TraceRecord> {
    let mut bad = Vec::new();
    for node in nodes_of(records) {
        let order = node_order(records, node);
        for (i, rec) in order.iter().enumerate() {
            let (source, bunch, epoch) = match rec.event {
                TraceEvent::ScionRetired {
                    source,
                    bunch,
                    epoch,
                    ..
                }
                | TraceEvent::OwnerPtrRetired {
                    source,
                    bunch,
                    epoch,
                    ..
                } => (source, bunch, epoch),
                _ => continue,
            };
            let covered = order[..i].iter().any(|p| {
                matches!(
                    p.event,
                    TraceEvent::ReportApply {
                        source: s,
                        bunch: b,
                        epoch: e,
                    } if s == source && b == bunch && e == epoch
                )
            });
            if !covered {
                bad.push(*rec);
            }
        }
    }
    bad
}

/// **Address-update happens-before**: a mutator access that resolved
/// through forwarding (`requested != resolved`) must be preceded, at that
/// node, by the knowledge that the object moved — either the node
/// relocated it itself (`Relocate`) or a lazy `AddrUpdate` landed there.
/// Each such event contributes one forwarding hop; successive collections
/// chain them, so the check replays the node's learned hops and demands
/// that `requested` reaches `resolved` through hops learned *before* the
/// access. Returns the forwarded accesses with no such path.
pub fn address_update_violations(records: &[TraceRecord]) -> Vec<TraceRecord> {
    let mut bad = Vec::new();
    for node in nodes_of(records) {
        let mut hops: std::collections::BTreeMap<_, _> = std::collections::BTreeMap::new();
        for rec in node_order(records, node) {
            match rec.event {
                TraceEvent::Relocate { from, to, .. } | TraceEvent::AddrUpdate { from, to, .. } => {
                    hops.insert(from, to);
                }
                TraceEvent::MutatorAccess {
                    requested,
                    resolved,
                    ..
                } if requested != resolved => {
                    let mut cur = requested;
                    // Bounded walk: a hop map this size can't need more steps.
                    for _ in 0..=hops.len() {
                        match hops.get(&cur) {
                            Some(&next) => cur = next,
                            None => break,
                        }
                        if cur == resolved {
                            break;
                        }
                    }
                    if cur != resolved {
                        bad.push(rec);
                    }
                }
                _ => {}
            }
        }
    }
    bad
}

/// **Acquire invariants** (paper, Section 5): the three temporal rules
/// that make token acquisition safe against a concurrent collector.
///
/// 1. *Granted before complete*: every `AcquireComplete` at node `n` has
///    a causally-prior `TokenGrant { to: n }` for the same object at some
///    other node (remote completions are only emitted on the grant path).
/// 2. *No update without a relocation*: every `AddrUpdate` has a
///    causally-prior `Relocate` with the same object and addresses — a
///    node can only learn of a move the collector actually performed.
/// 3. *Scion before stub* (intra-bunch SSP): an `IntraStub` half at the
///    new owner is created only after the covering `IntraScion` half
///    exists at the old owner, so the chain is never dangling.
///
/// Causal precedence is checked through the Lamport order (`a → b ⇒
/// L(a) < L(b)`, so requiring a matching event at a strictly smaller —
/// or, same-node, not-later — stamp is sound). Returns every record that
/// breaks one of the three rules.
pub fn acquire_invariant_violations(records: &[TraceRecord]) -> Vec<TraceRecord> {
    let ordered = merged_order(records);
    let mut bad = Vec::new();
    for (i, rec) in ordered.iter().enumerate() {
        let prior = &ordered[..i];
        match rec.event {
            TraceEvent::AcquireComplete { oid, mode } => {
                let granted = prior.iter().any(|p| {
                    p.lamport < rec.lamport
                        && matches!(
                            p.event,
                            TraceEvent::TokenGrant { oid: o, to, mode: m }
                                if o == oid && to == rec.node && m == mode
                        )
                });
                if !granted {
                    bad.push(*rec);
                }
            }
            TraceEvent::AddrUpdate { oid, from, to } => {
                let relocated = prior.iter().any(|p| {
                    (p.node == rec.node || p.lamport < rec.lamport)
                        && matches!(
                            p.event,
                            TraceEvent::Relocate { oid: o, from: f, to: t }
                                if o == oid && f == from && t == to
                        )
                });
                if !relocated {
                    bad.push(*rec);
                }
            }
            TraceEvent::SspCreate {
                kind: SspKind::IntraStub,
                oid: Some(oid),
                ..
            } => {
                let scion_first = prior.iter().any(|p| {
                    p.lamport < rec.lamport
                        && matches!(
                            p.event,
                            TraceEvent::SspCreate {
                                kind: SspKind::IntraScion,
                                oid: Some(o),
                                ..
                            } if o == oid
                        )
                });
                if !scion_first {
                    bad.push(*rec);
                }
            }
            _ => {}
        }
    }
    bad
}

/// **Post-crash epoch monotonicity** (crash-amnesia recovery rule): once a
/// node `X` begins recovery from an amnesia crash (`RecoveryBegin` at `X`),
/// every later scion/ownerPtr retirement justified by one of `X`'s reports
/// must carry an epoch *strictly greater* than the highest epoch any node
/// had applied from `X` for that bunch before the recovery. The rejoin
/// handshake resumes `X`'s per-bunch epoch counters at the surviving
/// cluster-wide maximum, so a retirement under a pre-crash epoch after a
/// restart means a stale (possibly amnesia-forgotten) report was replayed
/// as if fresh — exactly the confusion the idempotent cleaner design is
/// supposed to rule out. Returns the offending retirement records.
///
/// The pass walks the merged happens-before order once: it tracks, per
/// `(source, bunch)`, the maximum epoch seen in any `ReportApply`,
/// `ScionRetired`, or `OwnerPtrRetired`; at each `RecoveryBegin` at `X` it
/// freezes that maximum as `X`'s floor; any subsequent retirement with
/// source `X` at an epoch `<=` the floor is flagged. A second recovery at
/// the same node re-freezes the floor at the then-current maximum.
pub fn post_crash_epoch_violations(records: &[TraceRecord]) -> Vec<TraceRecord> {
    use std::collections::BTreeMap;
    let mut max_epoch: BTreeMap<(NodeId, bmx_common::BunchId), u64> = BTreeMap::new();
    let mut floors: BTreeMap<(NodeId, bmx_common::BunchId), u64> = BTreeMap::new();
    let mut bad = Vec::new();
    for rec in merged_order(records) {
        match rec.event {
            TraceEvent::ReportApply {
                source,
                bunch,
                epoch,
            } => {
                let slot = max_epoch.entry((source, bunch)).or_insert(0);
                *slot = (*slot).max(epoch.0);
            }
            TraceEvent::ScionRetired {
                source,
                bunch,
                epoch,
                ..
            }
            | TraceEvent::OwnerPtrRetired {
                source,
                bunch,
                epoch,
                ..
            } => {
                if let Some(&floor) = floors.get(&(source, bunch)) {
                    if epoch.0 <= floor {
                        bad.push(rec);
                    }
                }
                let slot = max_epoch.entry((source, bunch)).or_insert(0);
                *slot = (*slot).max(epoch.0);
            }
            TraceEvent::RecoveryBegin { .. } => {
                // Freeze this node's floors at the epochs the cluster had
                // already applied from it, for every bunch it ever reported.
                for (&(source, bunch), &m) in max_epoch.iter() {
                    if source == rec.node {
                        floors.insert((source, bunch), m);
                    }
                }
            }
            _ => {}
        }
    }
    bad
}

/// **Metric-alarm happens-before justification**: a watchdog alarm is a
/// claim *about* the trace — "the events up to my witness show a leak" —
/// so every `MetricAlarm` must be causally anchored in the window it
/// accuses. Three rules, violations of any returned:
///
/// 1. *Witnessed*: the alarm cites a `witness_lamport` that actually
///    exists at the alarming node — some non-alarm event of that node
///    carries exactly that stamp. An alarm with `witness_lamport == 0`
///    (or citing a stamp the node never produced) is unjustified: the
///    watchdog observed no evidence, or cites evidence outside the
///    captured window.
/// 2. *After its evidence*: the alarm's own stamp is strictly greater
///    than the witness stamp (`a → b ⇒ L(a) < L(b)`; the alarm must
///    happen-after the newest event it is justified by).
/// 3. *Window sanity*: the condition's start (`since_tick`) does not lie
///    in the alarm's future — `since_tick <= tick`.
pub fn metric_alarm_hb_violations(records: &[TraceRecord]) -> Vec<TraceRecord> {
    let mut bad = Vec::new();
    for node in nodes_of(records) {
        let order = node_order(records, node);
        for rec in &order {
            let TraceEvent::MetricAlarm {
                witness_lamport,
                since_tick,
                ..
            } = rec.event
            else {
                continue;
            };
            let witnessed = witness_lamport != 0
                && order.iter().any(|p| {
                    p.lamport == witness_lamport
                        && !matches!(p.event, TraceEvent::MetricAlarm { .. })
                });
            if !witnessed || witness_lamport >= rec.lamport || since_tick > rec.tick {
                bad.push(*rec);
            }
        }
    }
    bad
}

fn nodes_of(records: &[TraceRecord]) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = records.iter().map(|r| r.node).collect();
    nodes.sort_by_key(|n| n.0);
    nodes.dedup();
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessMode, MsgLane, TraceEvent};
    use bmx_common::{Addr, BunchId, Epoch, NodeId, Oid};

    fn r(node: u32, lamport: u64, seq: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            node: NodeId(node),
            thread: "",
            tick: lamport,
            lamport,
            seq,
            wall_us: None,
            event,
        }
    }

    /// Replaying a send/deliver pair through the real recorder, with the
    /// capture arriving out of order, still merges into an order where
    /// the send precedes the delivery.
    #[test]
    fn lamport_merge_orders_send_before_delivery_under_reordering() {
        crate::install(crate::UNBOUNDED);
        let n0 = NodeId(0);
        let n1 = NodeId(1);
        // n1 does some local work first so its raw clock runs ahead.
        for _ in 0..5 {
            crate::emit(n1, TraceEvent::TokenRelease { oid: Oid(1) });
        }
        let sent = crate::emit(
            n0,
            TraceEvent::MsgSend {
                dst: n1,
                seq: 1,
                lane: MsgLane::Dsm,
            },
        );
        crate::observe(n1, sent);
        crate::emit(
            n1,
            TraceEvent::MsgDeliver {
                src: n0,
                seq: 1,
                lane: MsgLane::Dsm,
                sent_lamport: sent,
            },
        );
        let mut captured = crate::take();
        crate::disable();
        captured.reverse(); // adversarial capture order
        let ordered = merged_order(&captured);
        let send_pos = ordered
            .iter()
            .position(|r| matches!(r.event, TraceEvent::MsgSend { .. }))
            .unwrap();
        let deliver_pos = ordered
            .iter()
            .position(|r| matches!(r.event, TraceEvent::MsgDeliver { .. }))
            .unwrap();
        assert!(send_pos < deliver_pos, "send must sort before its delivery");
        // And the order is a permutation of the capture.
        assert_eq!(ordered.len(), captured.len());
    }

    #[test]
    fn scion_retirement_query_catches_uncovered_retire() {
        let apply = TraceEvent::ReportApply {
            source: NodeId(0),
            bunch: BunchId(1),
            epoch: Epoch(3),
        };
        let retire = TraceEvent::ScionRetired {
            source: NodeId(0),
            bunch: BunchId(1),
            epoch: Epoch(3),
            count: 2,
        };
        let good = vec![r(1, 1, 1, apply), r(1, 2, 2, retire)];
        assert!(scion_retirement_violations(&good).is_empty());
        let bad = vec![r(1, 1, 1, retire), r(1, 2, 2, apply)];
        assert_eq!(scion_retirement_violations(&bad).len(), 1);
        let wrong_epoch = vec![
            r(
                1,
                1,
                1,
                TraceEvent::ReportApply {
                    source: NodeId(0),
                    bunch: BunchId(1),
                    epoch: Epoch(2),
                },
            ),
            r(1, 2, 2, retire),
        ];
        assert_eq!(
            scion_retirement_violations(&wrong_epoch).len(),
            1,
            "a stale epoch does not cover the retirement"
        );
    }

    #[test]
    fn address_update_query_requires_prior_move_knowledge() {
        let access = TraceEvent::MutatorAccess {
            requested: Addr(100),
            resolved: Addr(200),
            write: false,
        };
        let update = TraceEvent::AddrUpdate {
            oid: Oid(5),
            from: Addr(100),
            to: Addr(200),
        };
        let good = vec![r(0, 1, 1, update), r(0, 2, 2, access)];
        assert!(address_update_violations(&good).is_empty());
        let bad = vec![r(0, 1, 1, access), r(0, 2, 2, update)];
        assert_eq!(address_update_violations(&bad).len(), 1);
        // An un-forwarded access needs no prior knowledge.
        let plain = vec![r(
            0,
            1,
            1,
            TraceEvent::MutatorAccess {
                requested: Addr(100),
                resolved: Addr(100),
                write: true,
            },
        )];
        assert!(address_update_violations(&plain).is_empty());
        // Two collections chain the hops: 100 -> 200 -> 300.
        let second_hop = TraceEvent::AddrUpdate {
            oid: Oid(5),
            from: Addr(200),
            to: Addr(300),
        };
        let far_access = TraceEvent::MutatorAccess {
            requested: Addr(100),
            resolved: Addr(300),
            write: false,
        };
        let chained = vec![
            r(0, 1, 1, update),
            r(0, 2, 2, second_hop),
            r(0, 3, 3, far_access),
        ];
        assert!(
            address_update_violations(&chained).is_empty(),
            "resolution through a forwarding chain is covered hop by hop"
        );
        let half_chain = vec![r(0, 1, 1, update), r(0, 2, 2, far_access)];
        assert_eq!(
            address_update_violations(&half_chain).len(),
            1,
            "a missing hop breaks the path"
        );
    }

    #[test]
    fn acquire_invariants_catch_grant_and_ssp_order() {
        let grant = TraceEvent::TokenGrant {
            oid: Oid(7),
            to: NodeId(1),
            mode: AccessMode::Write,
        };
        let complete = TraceEvent::AcquireComplete {
            oid: Oid(7),
            mode: AccessMode::Write,
        };
        let good = vec![r(0, 1, 1, grant), r(1, 2, 2, complete)];
        assert!(acquire_invariant_violations(&good).is_empty());
        let ungranted = vec![r(1, 2, 2, complete)];
        assert_eq!(acquire_invariant_violations(&ungranted).len(), 1);

        let scion = TraceEvent::SspCreate {
            kind: SspKind::IntraScion,
            oid: Some(Oid(9)),
            peer: NodeId(1),
        };
        let stub = TraceEvent::SspCreate {
            kind: SspKind::IntraStub,
            oid: Some(Oid(9)),
            peer: NodeId(0),
        };
        let ordered = vec![r(0, 1, 1, scion), r(1, 2, 2, stub)];
        assert!(acquire_invariant_violations(&ordered).is_empty());
        let dangling = vec![r(1, 1, 1, stub), r(0, 2, 2, scion)];
        assert_eq!(acquire_invariant_violations(&dangling).len(), 1);
    }

    #[test]
    fn post_crash_epoch_query_flags_pre_crash_epoch_retirement() {
        let apply = |epoch: u64| TraceEvent::ReportApply {
            source: NodeId(2),
            bunch: BunchId(1),
            epoch: Epoch(epoch),
        };
        let retire = |epoch: u64| TraceEvent::ScionRetired {
            source: NodeId(2),
            bunch: BunchId(1),
            epoch: Epoch(epoch),
            count: 1,
        };
        // Pre-crash: the cluster applied node 2's epoch-3 report. After node
        // 2's amnesia recovery, retirements under its reports must be > 3.
        let good = vec![
            r(0, 1, 1, apply(3)),
            r(0, 2, 2, retire(3)),
            r(2, 3, 3, TraceEvent::RecoveryBegin { epoch: 1 }),
            r(0, 4, 4, apply(4)),
            r(0, 5, 5, retire(4)),
        ];
        assert!(post_crash_epoch_violations(&good).is_empty());
        let bad = vec![
            r(0, 1, 1, apply(3)),
            r(2, 2, 2, TraceEvent::RecoveryBegin { epoch: 1 }),
            r(0, 3, 3, retire(3)),
        ];
        assert_eq!(
            post_crash_epoch_violations(&bad).len(),
            1,
            "a retirement at the pre-crash epoch after RecoveryBegin is stale"
        );
        // Another source's retirements are unaffected by node 2's crash.
        let other = vec![
            r(
                0,
                1,
                1,
                TraceEvent::ReportApply {
                    source: NodeId(1),
                    bunch: BunchId(1),
                    epoch: Epoch(3),
                },
            ),
            r(2, 2, 2, TraceEvent::RecoveryBegin { epoch: 1 }),
            r(
                0,
                3,
                3,
                TraceEvent::ScionRetired {
                    source: NodeId(1),
                    bunch: BunchId(1),
                    epoch: Epoch(3),
                    count: 1,
                },
            ),
        ];
        assert!(post_crash_epoch_violations(&other).is_empty());
    }

    #[test]
    fn metric_alarm_query_demands_a_causal_witness() {
        use crate::event::AlarmKind;
        let alarm = |witness: u64, since: u64| TraceEvent::MetricAlarm {
            kind: AlarmKind::FromSpaceLeak,
            value: 4096,
            since_tick: since,
            witness_lamport: witness,
        };
        let evidence = TraceEvent::ReportPublish {
            bunch: BunchId(1),
            epoch: Epoch(2),
        };
        // Justified: the alarm cites the publish (L=3) and fires after it.
        let good = vec![r(0, 3, 1, evidence), r(0, 7, 2, alarm(3, 1))];
        assert!(metric_alarm_hb_violations(&good).is_empty());
        // No event at the cited stamp: unjustified.
        let unwitnessed = vec![r(0, 3, 1, evidence), r(0, 7, 2, alarm(4, 1))];
        assert_eq!(metric_alarm_hb_violations(&unwitnessed).len(), 1);
        // A zero witness means the watchdog saw nothing at all.
        let blind = vec![r(0, 7, 1, alarm(0, 1))];
        assert_eq!(metric_alarm_hb_violations(&blind).len(), 1);
        // The alarm may not be stamped at-or-before its own evidence.
        let premature = vec![r(0, 3, 1, evidence), r(0, 3, 2, alarm(3, 1))];
        assert_eq!(metric_alarm_hb_violations(&premature).len(), 1);
        // Another alarm cannot serve as the witness.
        let circular = vec![r(0, 3, 1, alarm(0, 1)), r(0, 7, 2, alarm(3, 1))];
        assert_eq!(
            metric_alarm_hb_violations(&circular).len(),
            2,
            "the blind alarm and the one citing it are both flagged"
        );
        // since_tick in the future of the alarm's own tick is nonsense.
        let future = vec![r(0, 3, 1, evidence), r(0, 7, 2, alarm(3, 99))];
        assert_eq!(metric_alarm_hb_violations(&future).len(), 1);
    }

    #[test]
    fn human_timeline_is_one_line_per_record() {
        let recs = vec![
            r(0, 1, 1, TraceEvent::TokenRelease { oid: Oid(1) }),
            r(1, 2, 2, TraceEvent::TokenRelease { oid: Oid(2) }),
        ];
        let text = human_timeline(&recs);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("TokenRelease"));
    }
}
