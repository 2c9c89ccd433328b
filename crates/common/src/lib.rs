//! Shared primitives for the BMX reproduction.
//!
//! This crate hosts the vocabulary types used by every other crate in the
//! workspace: typed identifiers ([`ids`]), 64-bit single-address-space
//! addresses ([`addr`]), the bit arrays backing object-maps and
//! reference-maps ([`bitmap`]), instrumentation counters ([`stats`]), the
//! common error type ([`error`]), a small deterministic RNG ([`rng`]), a
//! seedless hasher for id-keyed maps built on its mixer ([`hash`]), a
//! one-word set of nodes ([`nodeset`]), the one JSON codec and Chrome-trace
//! writer ([`json`]) and the one recorder of the trace and profile planes
//! ([`recorder`]).
//!
//! Nothing here knows about the network, the DSM protocol or the collector;
//! keeping these types dependency-free lets the substrate crates share them
//! without cycles.

#![forbid(unsafe_code)]

pub mod addr;
pub mod bitmap;
pub mod error;
pub mod hash;
pub mod ids;
pub mod json;
pub mod nodeset;
pub mod recorder;
pub mod rng;
pub mod shared;
pub mod stats;

pub use addr::{Addr, WORD_BYTES};
pub use bitmap::Bitmap;
pub use error::{BmxError, Result};
pub use hash::IdHashMap;
pub use ids::{BunchId, Epoch, MsgSeq, NodeId, Oid, SegmentId};
pub use nodeset::NodeSet;
pub use rng::SplitMix64;
pub use shared::SharedWords;
pub use stats::{NodeStats, StatKind};
