//! Deterministic simulated network for the BMX reproduction.
//!
//! The paper targets a loosely coupled network of workstations. Its collector
//! needs exactly three properties from the transport (Sections 4.4, 6.1, 8):
//!
//! 1. **Point-to-point FIFO** — reachability tables must arrive in order per
//!    channel; this is achieved by numbering messages.
//! 2. **Unreliability is tolerated** for GC traffic — reachability tables are
//!    idempotent and may simply be re-sent, so no reliable protocol is
//!    required for them. (DSM protocol traffic, by contrast, is assumed
//!    reliable.)
//! 3. **Piggy-backing** — relocation records, intra-bunch SSP requests, and
//!    reachability tables can ride on messages the DSM protocol sends on
//!    behalf of applications, costing zero extra messages.
//!
//! This crate provides a discrete-event network with those three properties,
//! plus the accounting the experiments need: per-class message and byte
//! counts, and drop injection on the lossy classes. See DESIGN.md
//! ("Substitutions") for why a simulated network is the right substrate here.
//!
//! # Examples
//!
//! FIFO delivery with loss injection on a loss-tolerant class:
//!
//! ```
//! use bmx_common::NodeId;
//! use bmx_net::{MsgClass, Network, NetworkConfig, WireSize};
//!
//! #[derive(Clone)]
//! struct Ping(u64);
//! impl WireSize for Ping {
//!     fn wire_size(&self) -> u64 { 8 }
//! }
//!
//! let cfg = NetworkConfig::lossless(1).with_drop(MsgClass::StubTable, 1.0);
//! let mut net: Network<Ping> = Network::new(cfg);
//! net.send(NodeId(0), NodeId(1), MsgClass::Dsm, Ping(1));
//! net.send(NodeId(0), NodeId(1), MsgClass::StubTable, Ping(2)); // eaten
//! net.send(NodeId(0), NodeId(1), MsgClass::Dsm, Ping(3));
//! let got = net.tick();
//! let vals: Vec<u64> = got.iter().map(|e| e.payload.0).collect();
//! assert_eq!(vals, vec![1, 3], "survivors arrive in order");
//! assert_eq!(net.class_stats(MsgClass::StubTable).dropped, 1);
//! ```

#![forbid(unsafe_code)]

pub mod fault;
pub mod fault_transport;
pub mod network;
pub mod piggyback;
pub mod transport;

pub use fault::{
    CrashEvent, DropCause, Fate, FaultConfigError, FaultEvent, FaultPlan, FaultStats, LinkFault,
    Outage, Partition,
};
pub use fault_transport::FaultyTransport;
pub use network::{ClassStats, Egress, Envelope, MsgClass, Network, NetworkConfig, WireSize};
pub use piggyback::PiggybackBuffer;
pub use transport::{ChannelTransport, Transport};
