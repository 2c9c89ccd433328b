//! Reproduction of *Garbage Collection and DSM Consistency* (Paulo Ferreira
//! and Marc Shapiro, OSDI 1994).
//!
//! This facade crate re-exports the whole workspace for convenient use in
//! examples and integration tests:
//!
//! * [`bmx`] — the integrated platform ([`bmx::Cluster`]);
//! * [`gc`] — the paper's collector (bunch GC, stub–scion pairs, scion
//!   cleaner, group GC, from-space reuse);
//! * [`dsm`] — the entry-consistency protocol;
//! * [`addr`] — the single-address-space memory substrate;
//! * [`net`] — the deterministic simulated network;
//! * [`rvm`] — recoverable virtual memory;
//! * [`trace`] — causal event tracing: flight recorder, Chrome-trace
//!   export, trace-backed invariant checking;
//! * [`profile`] — wall-clock span profiler: per-thread bounded rings,
//!   distributed flow stitching, Perfetto export, post-mortem blackbox
//!   source (see DESIGN.md §13);
//! * [`metrics`] — the cluster-wide metrics plane: allocation-free
//!   counters/gauges/histograms, leak watchdogs, JSON
//!   exposition (see DESIGN.md §9);
//! * [`baselines`] — the comparison systems the paper argues against;
//! * [`workloads`] — synthetic object-graph generators.
//!
//! See DESIGN.md for the system inventory and EXPERIMENTS.md for the
//! paper-vs-measured record of every reproduced figure and claim.

#![forbid(unsafe_code)]

pub use bmx;
pub use bmx_addr as addr;
pub use bmx_baselines as baselines;
pub use bmx_common as common;
pub use bmx_dsm as dsm;
pub use bmx_gc as gc;
pub use bmx_metrics as metrics;
pub use bmx_net as net;
pub use bmx_profile as profile;
pub use bmx_rvm as rvm;
pub use bmx_trace as trace;
pub use bmx_workloads as workloads;

/// A convenient prelude for examples and tests.
pub mod prelude {
    pub use bmx::{
        ChaosConfig, Cluster, ClusterConfig, NodeHandle, NodeLiveness, NodeStatus, ObjSpec,
        ParallelCluster, PersistConfig, RecoveryOutcome, RetryPolicy, Shutdown, ShutdownReport,
    };
    pub use bmx_addr::Protection;
    pub use bmx_common::{Addr, BmxError, BunchId, NodeId, Oid, Result, StatKind};
    pub use bmx_dsm::Token;
    pub use bmx_gc::RelocMode;
    pub use bmx_net::{FaultPlan, FaultStats, FaultyTransport, LinkFault, MsgClass, NetworkConfig};
}
