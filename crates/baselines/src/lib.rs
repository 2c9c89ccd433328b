//! Baseline systems the paper argues against, built to the same interfaces
//! so the experiments can compare like with like.
//!
//! * [`strong_copy`] — the "obvious solution" rejected in Section 4.2: a
//!   copying collector that acquires the write token of every live object
//!   before copying it. It triggers exactly the consistency actions the
//!   BMX design avoids: every readable replica is invalidated, and the
//!   mutators' working sets are disrupted (experiments E1 and E2).
//! * [`refcount`] — distributed reference counting with increment/decrement
//!   messages (Bevan 1987), the scheme Section 6.1 contrasts with
//!   idempotent reachability tables: inc/dec messages are *not* idempotent,
//!   so loss or duplication corrupts counts (experiment E5).
//! * [`replicated_ssp`] — the design alternative rejected in Section 3.2:
//!   replicating inter-bunch SSPs on every ownership transfer instead of
//!   creating intra-bunch SSPs, costing a scion-message per transfer and
//!   duplicated stub memory (experiment E6).

#![forbid(unsafe_code)]

pub mod refcount;
pub mod replicated_ssp;
pub mod strong_copy;

pub use refcount::{RefCountOutcome, RefCountSim};
pub use replicated_ssp::{MigrationTrace, SspCost, SspStrategy};
pub use strong_copy::strong_bgc;
