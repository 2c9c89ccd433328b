//! The integrated BMX platform.
//!
//! This crate assembles the substrates into the system the paper describes
//! (Section 8): a cluster of nodes sharing a 64-bit address space, bunches
//! of segments kept weakly consistent by the entry-consistency DSM, a
//! write-barrier-instrumented mutator API, the three collector services
//! (bunch GC, scion cleaner, group GC), the from-space reuse protocol, and
//! RVM-backed persistence by reachability.
//!
//! The [`Cluster`] is a deterministic discrete-event simulation: mutator
//! operations run synchronously, token acquires pump the simulated network
//! to quiescence, and every message is classed and counted — which is what
//! lets the experiment harness regenerate the paper's claims as numbers.
//!
//! # Examples
//!
//! Two nodes share a bunch; each collects its replica independently, and
//! the collector touches no tokens:
//!
//! ```
//! use bmx::{Cluster, ClusterConfig, ObjSpec};
//! use bmx_common::NodeId;
//!
//! # fn main() -> bmx_common::Result<()> {
//! let mut cluster = Cluster::new(ClusterConfig::with_nodes(2));
//! let (n1, n2) = (NodeId(0), NodeId(1));
//! let bunch = cluster.create_bunch(n1)?;
//! let obj = cluster.alloc(n1, bunch, &ObjSpec::with_refs(2, &[0]))?;
//! cluster.add_root(n1, obj);
//! cluster.map_bunch(n2, bunch, n1)?;
//!
//! // Entry-consistency bracket at the replica.
//! cluster.acquire_write(n2, obj)?;
//! cluster.write_data(n2, obj, 1, 42)?;
//! cluster.release(n2, obj)?;
//!
//! // Independent per-replica collections; zero GC token traffic.
//! cluster.run_bgc(n1, bunch)?;
//! cluster.run_bgc(n2, bunch)?;
//! cluster.assert_gc_acquired_no_tokens();
//!
//! // N1 synchronizes (acquire = consistency point) and sees the write.
//! cluster.acquire_read(n1, obj)?;
//! assert_eq!(cluster.read_data(n1, obj, 1)?, 42);
//! cluster.release(n1, obj)?;
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]

pub mod audit;
pub mod blackbox;
pub mod cluster;
pub mod msg;
pub mod mutator;
pub mod parallel;
pub mod persist;
pub mod recovery;
pub mod retry;

pub use cluster::{Cluster, ClusterConfig, PersistConfig};
pub use msg::ClusterMsg;
pub use mutator::ObjSpec;
pub use parallel::{
    ChaosConfig, NodeHandle, NodeLiveness, NodeStatus, ParallelCluster, Shutdown, ShutdownReport,
};
pub use recovery::RecoveryOutcome;
pub use retry::{RetryDaemon, RetryPolicy};
