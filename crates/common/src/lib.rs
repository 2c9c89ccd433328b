//! Shared primitives for the BMX reproduction.
//!
//! This crate hosts the vocabulary types used by every other crate in the
//! workspace: typed identifiers ([`ids`]), 64-bit single-address-space
//! addresses ([`addr`]), the bit arrays backing object-maps and
//! reference-maps ([`bitmap`]), instrumentation counters ([`stats`]), the
//! common error type ([`error`]), a small deterministic RNG ([`rng`]) and the
//! one JSON codec ([`json`]).
//!
//! Nothing here knows about the network, the DSM protocol or the collector;
//! keeping these types dependency-free lets the substrate crates share them
//! without cycles.

#![forbid(unsafe_code)]

pub mod addr;
pub mod bitmap;
pub mod error;
pub mod ids;
pub mod json;
pub mod rng;
pub mod shared;
pub mod stats;

pub use addr::{Addr, WORD_BYTES};
pub use bitmap::Bitmap;
pub use error::{BmxError, Result};
pub use ids::{BunchId, Epoch, MsgSeq, NodeId, Oid, SegmentId};
pub use rng::SplitMix64;
pub use shared::SharedWords;
pub use stats::{NodeStats, StatKind};
