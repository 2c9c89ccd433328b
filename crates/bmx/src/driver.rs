//! The scheduler half of the transport seam: *drivers* move pending
//! envelopes into the protocol state machine.
//!
//! The protocol code in `crates/dsm` and `crates/core` never schedules
//! itself — it reacts to delivered messages. What varies between the two
//! execution modes is *who* delivers:
//!
//! * [`TickDriver`] — the deterministic mode. One driver advances the
//!   discrete-event clock and dispatches every due envelope, whichever
//!   node it addresses. Bit-exact, seed-replayable; what chaos replay,
//!   trace invariants, and CI run on.
//! * [`LinkDriver`] — the parallel mode. One driver *per node*, each
//!   polling only its own inboxes on a shared
//!   [`ChannelTransport`](bmx_net::ChannelTransport) and applying
//!   envelopes under the caller-held protocol state. `bmx::parallel`
//!   runs one of these per OS thread.
//!
//! The conformance suite (`tests/parallel_conformance.rs`) drives both
//! modes through this same trait, which is what makes the differential
//! comparison an apples-to-apples statement about the protocol rather
//! than about two unrelated event loops.

use std::sync::Arc;

use bmx_common::{NodeId, Result};
use bmx_net::Transport;
use bmx_profile::{self as profile, SpanKind};

use crate::cluster::Cluster;
use crate::msg::ClusterMsg;

/// A message-delivery engine for one execution mode.
pub trait Driver {
    /// Delivers some pending envelopes into `cluster`. Returns how many
    /// were applied; `0` means nothing was pending for this driver.
    fn poll(&mut self, cluster: &mut Cluster) -> Result<usize>;

    /// Whether no deliverable work remains for this driver.
    fn is_idle(&self, cluster: &Cluster) -> bool;
}

/// The deterministic tick-loop driver: one instance serves the whole
/// cluster by advancing the simulated clock.
#[derive(Default)]
pub struct TickDriver;

impl Driver for TickDriver {
    fn poll(&mut self, cluster: &mut Cluster) -> Result<usize> {
        if cluster.net.in_flight() == 0 {
            return Ok(0);
        }
        cluster.step(1)?;
        Ok(1)
    }

    fn is_idle(&self, cluster: &Cluster) -> bool {
        cluster.net.in_flight() == 0
    }
}

/// A per-node driver over a shared transport (plain channels or the
/// fault-injecting wrapper): polls only this node's inboxes and applies
/// one envelope per [`Driver::poll`] call.
pub struct LinkDriver {
    node: NodeId,
    transport: Arc<dyn Transport<ClusterMsg>>,
}

impl LinkDriver {
    /// A driver delivering into `node` from `transport`.
    pub fn new(node: NodeId, transport: Arc<dyn Transport<ClusterMsg>>) -> Self {
        LinkDriver { node, transport }
    }

    /// The node this driver serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Pops this node's next pending envelope without applying it (the
    /// parallel runtime separates pop from apply so it can take the
    /// node's lock only for the apply, and acks on the transport itself).
    pub fn next_pending(&self) -> Option<bmx_net::Envelope<ClusterMsg>> {
        self.transport.try_recv(self.node)
    }
}

impl Driver for LinkDriver {
    fn poll(&mut self, cluster: &mut Cluster) -> Result<usize> {
        match self.transport.try_recv(self.node) {
            Some(env) => {
                // Same apply attribution as the parallel runtime's own
                // driver loop: callers that poll a LinkDriver directly
                // (conformance harnesses) profile identically to
                // `bmx::parallel`.
                let _apply = profile::span_with_flow(SpanKind::DriverApply, self.node, env.span);
                let r = cluster.deliver(env);
                self.transport.ack_delivered();
                r.map(|()| 1)
            }
            None => Ok(0),
        }
    }

    fn is_idle(&self, _cluster: &Cluster) -> bool {
        self.transport.in_flight() == 0
    }
}
