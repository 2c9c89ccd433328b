//! Lightweight recoverable virtual memory (RVM).
//!
//! BMX bases recovery on the recoverable virtual memory techniques of
//! Satyanarayanan et al. (paper, Sections 2.1 and 8): after a bunch is mapped
//! into memory, every modification to its address range has an associated log
//! entry and can be recovered after a system failure. RVM provides *simple
//! recoverable transactions with no support for nesting, distribution, or
//! concurrency control*, implemented with a disk-based redo log. The paper's
//! prototype follows O'Toole et al. in backing the from-space and the
//! to-space each with a file, with changes atomically transferred to disk by
//! RVM.
//!
//! This crate reproduces that substrate:
//!
//! * a [`Rvm`] manager owns a directory containing one data file per mapped
//!   region plus a single append-only redo log;
//! * [`Rvm::begin`] / [`Rvm::set_range`] / [`Rvm::commit`] /
//!   [`Rvm::abort`] implement flat no-nesting transactions — modifications
//!   are applied in place in memory, *new values* are logged at commit, old
//!   values are kept in an in-memory undo buffer so abort can restore them;
//! * [`Rvm::truncate`] applies the committed log suffix to the data files and
//!   resets the log;
//! * on (re)mapping, committed log records are replayed onto the region
//!   image, so a crash at any point loses at most uncommitted transactions.
//!   Torn tail records (a crash mid-append) are detected by a per-record
//!   checksum and ignored.
//!
//! # Examples
//!
//! A committed write survives a crash; an uncommitted one does not:
//!
//! ```
//! use bmx_rvm::{RegionId, Rvm, RvmOptions};
//!
//! # fn main() -> bmx_common::Result<()> {
//! let dir = std::env::temp_dir().join(format!("rvm-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! {
//!     let mut rvm = Rvm::open(&dir, RvmOptions::default())?;
//!     rvm.map(RegionId(1), 64)?;
//!     let t = rvm.begin()?;
//!     rvm.set_range(t, RegionId(1), 0, b"durable")?;
//!     rvm.commit(t)?;
//!     let t = rvm.begin()?;
//!     rvm.set_range(t, RegionId(1), 32, b"volatile")?;
//!     // Crash: dropped without commit.
//! }
//! let mut rvm = Rvm::open(&dir, RvmOptions::default())?;
//! rvm.map(RegionId(1), 64)?;
//! assert_eq!(rvm.read(RegionId(1), 0, 7)?, b"durable");
//! assert_eq!(rvm.read(RegionId(1), 32, 8)?, &[0u8; 8]);
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]

pub mod codec;
pub mod log;
pub mod manager;

pub use log::{LogRecord, RecordKind};
pub use manager::{RegionId, Rvm, RvmOptions, Tid};
