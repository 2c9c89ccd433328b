//! The BMX memory substrate.
//!
//! BMX offers a 64-bit single address space spanning all nodes of the network
//! including secondary storage; objects are contiguous byte runs identified
//! by their address, preceded by a header; objects are allocated within
//! *segments* (constant-size runs of pages with globally non-overlapping
//! addresses), and segments are logically grouped into *bunches*, each with
//! an owner and protection attributes (paper, Section 2.1).
//!
//! This crate implements that model:
//!
//! * [`server::SegmentServer`] — the BMX-server role: creates bunches and
//!   hands out non-overlapping segment address ranges;
//! * [`memory::NodeMemory`] — a node's view of the address space: the set of
//!   locally mapped segment replicas with their backing words, object-map and
//!   reference-map bit arrays (paper, Section 8);
//! * [`object`] — object layout and access: headers (size, stable OID,
//!   forwarding pointer), bounds-checked field access split into pointer and
//!   non-pointer words, and bump allocation.
//!
//! Nothing here knows about tokens or collection; the DSM layer and the
//! collector are built on top.

#![forbid(unsafe_code)]

pub mod layout;
pub mod memory;
pub mod object;
pub mod server;

pub use layout::{ObjFlags, HEADER_WORDS};
pub use memory::{MappedSegment, NodeMemory, SegmentImage};
pub use object::{ObjectImage, ObjectView};
pub use server::{BunchInfo, Protection, SegmentInfo, SegmentServer};
