//! Entry-consistency distributed shared memory for BMX.
//!
//! The BMX platform keeps bunches weakly consistent with the *entry
//! consistency* protocol (paper, Section 2.2): per object there are either
//! several read tokens or one exclusive write token. A node holding a read
//! token reads a consistent version; holding the write token means no other
//! consistent copy exists anywhere. Every object has an *owner* — the node
//! holding, or the last node to have held, the write token. Write tokens are
//! obtained from the owner; read tokens from any node already holding one.
//! Tokens are managed with an algorithm similar to Li's dynamic distributed
//! manager with distributed copy-sets: the copy-set of an object is spread
//! over the granting nodes, and *ownerPtr* forwarding pointers route
//! owner-bound requests.
//!
//! Crate layout:
//!
//! * [`state`] — per-node, per-object protocol state (token, owner flag,
//!   ownerPtr hint, copy-set, entering ownerPtrs, critical-section lock);
//! * [`msg`] — the protocol messages plus the [`msg::DsmPacket`] wrapper
//!   that carries piggy-backed GC payloads on every message;
//! * [`integration`] — the [`integration::GcIntegration`] trait through
//!   which the collector participates in the protocol (the three invariants
//!   of the paper's Section 5) *without ever acquiring a token*: the trait
//!   deliberately has no way to request one;
//! * [`engine`] — the protocol engine: acquire/release operations and the
//!   message handler, written against abstract send/memory/GC interfaces so
//!   the cluster driver in `bmx` (and the unit tests here) can pump it
//!   deterministically.

#![forbid(unsafe_code)]

pub mod engine;
pub mod integration;
pub mod msg;
pub mod state;

pub use engine::{AcquireStart, DsmEngine, DsmShared};
pub use integration::{GcIntegration, NullGcIntegration};
pub use msg::{DsmMsg, DsmPacket, IntraSspCreate, Relocation};
pub use state::{ObjState, Token};
