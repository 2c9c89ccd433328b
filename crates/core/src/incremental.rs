//! The incremental bunch collector — O'Toole-style bounded-work collection
//! with a short flip.
//!
//! The paper bases its BGC on O'Toole et al. explicitly because "the time
//! to flip is very small and therefore not disruptive to applications"
//! (Section 4.1, reason (i)). [`crate::collect()`] runs a whole collection in
//! one call; this module splits the same algorithm into bounded increments
//! that interleave with mutator work:
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

use crate::collect::{is_marked, CollectOutcome, Ctx, TraceCore};
use crate::state::GcState;

/// Phase of an in-flight incremental collection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// Tracing strong roots (and grayed mutations).
    Strong,
    /// Strong trace drained; tracing intra-bunch-scion roots.
    Intra,
}

/// An in-flight incremental collection of a bunch group at one node.
pub struct IncrementalBgc {
    node: NodeId,
    group: Vec<BunchId>,
    core: TraceCore,
    strong_stack: Vec<Addr>,
    intra_stack: Vec<Addr>,
    phase: Phase,
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

    /// Moves the barrier's gray backlog into the strong work stack,
    /// upgrading the strength of anything previously found intra-only.
    fn absorb_grayed(&mut self, gc: &mut GcState, mem: &NodeMemory) -> Result<()> {
        let grayed = std::mem::take(&mut gc.node_mut(self.node).grayed);
        for g in grayed {
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
        Ok(self.is_quiescent(gc))
    }

    fn is_quiescent(&self, gc: &GcState) -> bool {
        self.strong_stack.is_empty()
            && self.intra_stack.is_empty()
            && gc.node(self.node).grayed.is_empty()
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
        let reports = {
            let mut ctx = Ctx {
                gc,
                engine,
                mem,
                stats,
                node: self.node,
                core: &mut self.core,
            };
            ctx.phase(self.group[0], bmx_trace::GcPhase::Flip);
            ctx.update_references()?;
            ctx.sweep()?;
            ctx.regenerate_and_publish()?
        };
        for &b in &self.group {
            gc.node_mut(self.node).active_groups.remove(&b);
        }
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
        for &b in &self.group {
            gc.node_mut(self.node).active_groups.remove(&b);
        }
        gc.node_mut(self.node).grayed.clear();
    }
}
