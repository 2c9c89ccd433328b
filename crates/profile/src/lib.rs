//! Empty. Wall-clock spans are trace records now: `bmx_trace` records
//! them (`span`, `record`, `mark`, the flow ids) and exports them with
//! the causal events. The crate stays only because the stand-alone
//! benchmark's lock file still names it.

#![forbid(unsafe_code)]
