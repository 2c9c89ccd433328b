//! The paper's contribution: copying garbage collection for persistent
//! distributed shared objects over weakly consistent DSM.
//!
//! Three cooperating sub-algorithms (paper, Section 3) are implemented here:
//!
//! * the **bunch garbage collector** ([`mod@collect`]) — collects one replica of
//!   one bunch, independently of every other bunch and of other replicas of
//!   the same bunch. It copies only *locally owned* live objects; non-owned
//!   (possibly inconsistent) replicas are merely scanned, which is safe
//!   because scanning stale data only makes reachability more conservative
//!   (Section 4.2). It acquires no tokens, ever.
//! * the **scion cleaner** ([`cleaner`]) — consumes the idempotent
//!   reachability tables (new stub tables and exiting-ownerPtr lists)
//!   produced by remote collections and prunes the local scions and entering
//!   ownerPtrs they no longer justify (Section 6).
//! * the **group garbage collector** — the same collector run over a *group*
//!   of locally mapped bunches with intra-group inter-bunch scions excluded
//!   from the roots, which is what reclaims inter-bunch cycles (Section 7).
//!   [`collect()`] is parameterized by the group, so BGC is the
//!   single-bunch case and GGC the locality-heuristic case.
//!
//! Supporting machinery: stub–scion pairs ([`ssp`]), the per-node relocation
//! directory and forwarding-pointer resolution ([`directory`]), the write
//! barrier ([`barrier`]), lazy reference updating and the Section-5 acquire
//! invariants ([`integration`] implements the DSM hooks), and the from-space
//! reuse protocol ([`fromspace`], Section 4.5).

#![forbid(unsafe_code)]

pub mod barrier;
pub mod cleaner;
pub mod collect;
pub mod directory;
pub mod fromspace;
pub mod grouping;
pub mod incremental;
pub mod integration;
pub mod msg;
pub mod ssp;
pub mod state;

pub use collect::{collect, refresh_node_gauges, CollectStats};
pub use directory::Directory;
pub use grouping::Heuristic;
pub use incremental::IncrementalBgc;
pub use msg::{GcMsg, ReachabilityReport};
pub use ssp::{InterScion, InterStub, IntraScion, IntraStub, ScionTable, SspId, StubTable};
pub use state::{
    held, held_bunch, BunchReplicaGc, GcNodeState, GcState, Held, RelocMode, SharedServer,
};
