//! The incremental bunch collector — O'Toole-style bounded-work collection
//! with a short flip.
//!
//! The paper bases its BGC on O'Toole et al. explicitly because "the time
//! to flip is very small and therefore not disruptive to applications"
//! (Section 4.1, reason (i)). This module is the collector's one driver:
//! the phase sequence of a collection, in bounded increments that
//! interleave with mutator work ([`crate::collect()`] is the same three
//! calls with nothing in between):
//!
//! * [`IncrementalBgc::start`] snapshots the roots;
//! * [`IncrementalBgc::step`] traces (and copies) a bounded number of
//!   objects; between steps the mutator runs freely — its pointer stores
//!   *gray* their targets through the write barrier (an incremental-update
//!   barrier: a reference written into an already-scanned object would
//!   otherwise escape the trace), and re-pointed roots gray likewise;
//! * [`IncrementalBgc::flip`] drains the remaining gray backlog and runs
//!   the terminal phases (reference update, sweep, table regeneration).
//!   The flip is the only mutator-visible pause, and its length is bounded
//!   by the mutation backlog, not by the heap — which is what experiment
//!   E4b measures.
//!
//! Strength bookkeeping: objects grayed by the mutator are strongly
//! reachable; if one was previously found only through an intra-bunch
//! scion, its strength (and transitively its referents') is upgraded so
//! the exiting-ownerPtr omission rule of Section 6.2 never hides a
//! mutator-reachable replica.

use bmx_addr::object;
use bmx_addr::NodeMemory;
use bmx_common::{Addr, BmxError, BunchId, NodeId, NodeStats, Result};
use bmx_dsm::DsmEngine;
use bmx_metrics::Ctr;
use bmx_trace::{GcPhase, TraceEvent};

use crate::collect::{is_marked, refresh_node_gauges, CollectOutcome, Ctx, PhaseClock, TraceCore};
use crate::state::GcState;

/// Phase of an in-flight incremental collection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// Tracing strong roots (and grayed mutations).
    Strong,
    /// Strong trace drained; tracing intra-bunch-scion roots.
    Intra,
}

fn emit_phase(node: NodeId, lead: BunchId, phase: GcPhase) {
    bmx_trace::emit(node, TraceEvent::BgcPhase { bunch: lead, phase });
}

/// An in-flight incremental collection of a bunch group at one node.
pub struct IncrementalBgc {
    node: NodeId,
    group: Vec<BunchId>,
    core: TraceCore,
    strong_stack: Vec<Addr>,
    intra_stack: Vec<Addr>,
    phase: Phase,
    clock: PhaseClock,
}

impl IncrementalBgc {
    /// Starts an incremental collection: snapshots the roots and arms the
    /// graying barrier for the group's bunches.
    pub fn start(
        gc: &mut GcState,
        engine: &DsmEngine,
        mem: &mut NodeMemory,
        stats: &mut NodeStats,
        node: NodeId,
        group: &[BunchId],
    ) -> Result<IncrementalBgc> {
        for &b in group {
            if !gc.node(node).bunches.contains_key(&b) {
                return Err(BmxError::BunchUnmapped { node, bunch: b });
            }
            if gc.node(node).active_groups.contains(&b) {
                return Err(BmxError::CollectorBusy { bunch: b });
            }
        }
        let mut core = TraceCore::new(group);
        let mut clock = PhaseClock::start();
        emit_phase(node, group[0], GcPhase::Roots);
        let (strong_stack, intra_stack) = {
            let mut ctx = Ctx {
                gc,
                engine,
                mem,
                stats,
                node,
                core: &mut core,
            };
            ctx.clear_marks();
            ctx.gather_roots()
        };
        clock.lap(node, Ctr::BgcRootsMicros);
        for &b in group {
            gc.node_mut(node).active_groups.insert(b);
        }
        Ok(IncrementalBgc {
            node,
            group: group.to_vec(),
            core,
            strong_stack,
            intra_stack,
            phase: Phase::Strong,
            clock,
        })
    }

    /// The node this collection runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The collected group.
    pub fn group(&self) -> &[BunchId] {
        &self.group
    }

    /// Moves this group's share of the barrier's gray backlog into the
    /// strong work stack, upgrading the strength of anything previously
    /// found intra-only. What was grayed for another group's collection on
    /// this node stays for that one.
    fn absorb_grayed(&mut self, gc: &mut GcState, mem: &NodeMemory) -> Result<()> {
        let backlog = std::mem::take(&mut gc.node_mut(self.node).grayed);
        let (mine, others) = backlog
            .into_iter()
            .partition(|(b, _)| self.core.group.contains(b));
        gc.node_mut(self.node).grayed = others;
        for (_, g) in mine {
            self.upgrade_or_push(gc, mem, g)?;
        }
        Ok(())
    }

    /// If `addr` was already traced weakly, upgrade it (and its referents,
    /// transitively) to strong; otherwise queue it for a strong trace.
    fn upgrade_or_push(&mut self, gc: &GcState, mem: &NodeMemory, addr: Addr) -> Result<()> {
        let mut work = vec![addr];
        while let Some(a) = work.pop() {
            if a.is_null() {
                continue;
            }
            let cur = gc.node(self.node).directory.resolve(a);
            if let Some(i) = self.core.weak.remove(&cur) {
                self.core.live[i].strong = true;
                for (_, t) in object::ref_fields(mem, cur)? {
                    work.push(t);
                }
            } else if !is_marked(mem, cur) {
                self.strong_stack.push(cur);
            }
        }
        Ok(())
    }

    /// Performs up to `budget` objects' worth of tracing work. Returns
    /// `true` when no work remains (the collection is ready to flip).
    pub fn step(
        &mut self,
        gc: &mut GcState,
        engine: &DsmEngine,
        mem: &mut NodeMemory,
        stats: &mut NodeStats,
        budget: usize,
    ) -> Result<bool> {
        self.clock.resume();
        emit_phase(self.node, self.group[0], GcPhase::Trace);
        self.absorb_grayed(gc, mem)?;
        let mut remaining = budget.max(1);
        while remaining > 0 {
            if !self.strong_stack.is_empty() {
                let mut ctx = Ctx {
                    gc,
                    engine,
                    mem,
                    stats,
                    node: self.node,
                    core: &mut self.core,
                };
                let done = ctx.trace_bounded(&mut self.strong_stack, true, Some(remaining))?;
                remaining = remaining.saturating_sub(done.max(1));
            } else if self.phase == Phase::Strong {
                self.phase = Phase::Intra;
            } else if !self.intra_stack.is_empty() {
                let mut ctx = Ctx {
                    gc,
                    engine,
                    mem,
                    stats,
                    node: self.node,
                    core: &mut self.core,
                };
                let done = ctx.trace_bounded(&mut self.intra_stack, false, Some(remaining))?;
                remaining = remaining.saturating_sub(done.max(1));
            } else {
                break;
            }
        }
        self.clock.lap(self.node, Ctr::BgcTraceMicros);
        Ok(self.strong_stack.is_empty() && self.intra_stack.is_empty())
    }

    /// The flip: drains the residual gray backlog, then runs the terminal
    /// phases — the only mutator-visible pause of the collection.
    pub fn flip(
        mut self,
        gc: &mut GcState,
        engine: &DsmEngine,
        mem: &mut NodeMemory,
        stats: &mut NodeStats,
    ) -> Result<CollectOutcome> {
        self.clock.pause_from_now();
        emit_phase(self.node, self.group[0], GcPhase::Flip);
        self.finish(gc, engine, mem, stats)
    }

    /// The flip's work. The pause it records runs from where the clock
    /// says the mutator stopped: [`IncrementalBgc::flip`]'s entry, or — for
    /// [`crate::collect()`], which lets no mutator in — the collection's
    /// start.
    pub(crate) fn finish(
        mut self,
        gc: &mut GcState,
        engine: &DsmEngine,
        mem: &mut NodeMemory,
        stats: &mut NodeStats,
    ) -> Result<CollectOutcome> {
        let (node, lead) = (self.node, self.group[0]);
        // No mutator runs inside this call, so the barrier is disarmed
        // first: an error below leaves no collection latched as running.
        for &b in &self.group {
            gc.node_mut(node).active_groups.remove(&b);
        }
        // Drain everything: mutations may gray during nothing here (the
        // mutator is not running inside this call), but backlog from the
        // last inter-step window remains.
        loop {
            self.absorb_grayed(gc, mem)?;
            if self.strong_stack.is_empty() && self.intra_stack.is_empty() {
                break;
            }
            let mut ctx = Ctx {
                gc,
                engine,
                mem,
                stats,
                node: self.node,
                core: &mut self.core,
            };
            ctx.trace_bounded(&mut self.strong_stack, true, None)?;
            ctx.trace_bounded(&mut self.intra_stack, false, None)?;
        }
        let clock = &mut self.clock;
        clock.lap(node, Ctr::BgcTraceMicros);
        let mut ctx = Ctx {
            gc,
            engine,
            mem,
            stats,
            node,
            core: &mut self.core,
        };
        emit_phase(node, lead, GcPhase::Update);
        ctx.update_references()?;
        clock.lap(node, Ctr::BgcUpdateMicros);
        emit_phase(node, lead, GcPhase::Sweep);
        ctx.sweep()?;
        clock.lap(node, Ctr::BgcSweepMicros);
        emit_phase(node, lead, GcPhase::Publish);
        let reports = ctx.regenerate_and_publish()?;
        clock.lap(node, Ctr::BgcPublishMicros);
        clock.finish(node);
        refresh_node_gauges(gc, node);
        Ok(CollectOutcome {
            reports,
            dead: std::mem::take(&mut self.core.dead_oids),
            stats: self.core.out,
        })
    }

    /// Aborts the collection, disarming the barrier. Already-copied objects
    /// keep their forwarding state (harmless: the next collection resolves
    /// through it), but no space is swapped and no report is produced.
    pub fn abort(self, gc: &mut GcState) {
        let ns = gc.node_mut(self.node);
        for &b in &self.group {
            ns.active_groups.remove(&b);
        }
        ns.grayed.retain(|(b, _)| !self.core.group.contains(b));
    }
}
