//! The RVM manager: regions, flat transactions, recovery, truncation.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use bmx_common::{BmxError, Result};

use crate::log::{LogRecord, RedoLog};

/// Identifier of a recoverable region (one data file per region).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RegionId(pub u64);

/// Transaction identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Tid(pub u64);

/// Tunables for the manager.
#[derive(Clone, Debug, Default)]
pub struct RvmOptions {
    /// Truncate the log automatically once it exceeds this many bytes.
    pub auto_truncate_bytes: Option<u64>,
}

struct Region {
    path: PathBuf,
    mem: Vec<u8>,
}

struct ActiveTx {
    tid: Tid,
    /// Old values, pushed in modification order; abort replays them in
    /// reverse.
    undo: Vec<(RegionId, u64, Vec<u8>)>,
    /// New-value records to append at commit.
    redo: Vec<LogRecord>,
}

/// Recoverable virtual memory over a directory of data files plus one log.
///
/// Transactions are flat: one active transaction at a time, no nesting, no
/// distribution, no concurrency control — exactly the RVM feature set the
/// paper relies on (Section 8). A crash (dropping the manager without
/// [`Rvm::truncate`]) loses only uncommitted work; reopening replays the
/// committed log suffix.
pub struct Rvm {
    dir: PathBuf,
    log: RedoLog,
    regions: BTreeMap<RegionId, Region>,
    next_tid: u64,
    active: Option<ActiveTx>,
    opts: RvmOptions,
}

impl Rvm {
    /// Opens (creating if necessary) an RVM store rooted at `dir`.
    pub fn open(dir: &Path, opts: RvmOptions) -> Result<Rvm> {
        fs::create_dir_all(dir).map_err(|e| BmxError::Rvm(format!("mkdir {dir:?}: {e}")))?;
        let log = RedoLog::open(&dir.join("rvm.log"))?;
        Ok(Rvm {
            dir: dir.to_owned(),
            log,
            regions: BTreeMap::new(),
            next_tid: 1,
            active: None,
            opts,
        })
    }

    fn region_path(&self, id: RegionId) -> PathBuf {
        self.dir.join(format!("region_{}.dat", id.0))
    }

    /// Maps region `id` with at least `len` bytes, recovering committed state.
    ///
    /// The in-memory image is the data file (zero-extended to `len`) with
    /// every *committed* log record for this region replayed over it in log
    /// order.
    pub fn map(&mut self, id: RegionId, len: usize) -> Result<()> {
        if self.regions.contains_key(&id) {
            return Ok(());
        }
        let path = self.region_path(id);
        let mut mem = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(BmxError::Rvm(format!("read region {id:?}: {e}"))),
        };
        if mem.len() < len {
            mem.resize(len, 0);
        }
        Self::replay_committed(&self.dir, id, &mut mem)?;
        self.regions.insert(id, Region { path, mem });
        Ok(())
    }

    fn replay_committed(dir: &Path, id: RegionId, mem: &mut [u8]) -> Result<()> {
        let records = RedoLog::read_all(&dir.join("rvm.log"))?;
        let committed: BTreeSet<u64> = records
            .iter()
            .filter_map(|r| match r {
                LogRecord::Commit { tid } => Some(*tid),
                _ => None,
            })
            .collect();
        for r in &records {
            if let LogRecord::SetRange {
                tid,
                region,
                offset,
                data,
            } = r
            {
                if *region == id.0 && committed.contains(tid) {
                    let start = *offset as usize;
                    let end = start + data.len();
                    if end <= mem.len() {
                        mem[start..end].copy_from_slice(data);
                    }
                }
            }
        }
        Ok(())
    }

    /// Unmaps a region, discarding its in-memory image (data files and log
    /// are untouched, so the committed state remains recoverable).
    pub fn unmap(&mut self, id: RegionId) {
        self.regions.remove(&id);
    }

    /// Returns `true` if the region is currently mapped.
    pub fn is_mapped(&self, id: RegionId) -> bool {
        self.regions.contains_key(&id)
    }

    /// Begins a flat transaction.
    ///
    /// RVM has no concurrency control; beginning a second transaction while
    /// one is active is an error.
    pub fn begin(&mut self) -> Result<Tid> {
        if self.active.is_some() {
            return Err(BmxError::Rvm("a transaction is already active".into()));
        }
        let tid = Tid(self.next_tid);
        self.next_tid += 1;
        self.active = Some(ActiveTx {
            tid,
            undo: Vec::new(),
            redo: Vec::new(),
        });
        Ok(tid)
    }

    /// Declares and performs a recoverable write of `data` into `region` at
    /// byte `offset`, within transaction `tid`.
    ///
    /// This fuses RVM's `set_range` (declaration) with the modification
    /// itself: the old bytes go to the undo buffer, the new bytes are applied
    /// in place and queued as a redo record.
    pub fn set_range(
        &mut self,
        tid: Tid,
        region: RegionId,
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        let tx = self
            .active
            .as_mut()
            .filter(|t| t.tid == tid)
            .ok_or_else(|| BmxError::Rvm(format!("transaction {tid:?} is not active")))?;
        let reg = self
            .regions
            .get_mut(&region)
            .ok_or_else(|| BmxError::Rvm(format!("region {region:?} not mapped")))?;
        let start = offset as usize;
        let end = start
            .checked_add(data.len())
            .filter(|&e| e <= reg.mem.len())
            .ok_or_else(|| BmxError::Rvm(format!("write past end of region {region:?}")))?;
        tx.undo.push((region, offset, reg.mem[start..end].to_vec()));
        reg.mem[start..end].copy_from_slice(data);
        tx.redo.push(LogRecord::SetRange {
            tid: tid.0,
            region: region.0,
            offset,
            data: data.to_vec(),
        });
        Ok(())
    }

    /// Commits transaction `tid`: its new values and the commit marker go to
    /// the log in one flushed append.
    pub fn commit(&mut self, tid: Tid) -> Result<()> {
        let tx = self
            .active
            .take()
            .filter(|t| t.tid == tid)
            .ok_or_else(|| BmxError::Rvm(format!("transaction {tid:?} is not active")))?;
        let mut records = tx.redo;
        records.push(LogRecord::Commit { tid: tid.0 });
        self.log.append(&records)?;
        if let Some(limit) = self.opts.auto_truncate_bytes {
            if self.log.len_bytes() > limit {
                self.truncate()?;
            }
        }
        Ok(())
    }

    /// Aborts transaction `tid`, restoring every modified range.
    pub fn abort(&mut self, tid: Tid) -> Result<()> {
        let tx = self
            .active
            .take()
            .filter(|t| t.tid == tid)
            .ok_or_else(|| BmxError::Rvm(format!("transaction {tid:?} is not active")))?;
        for (region, offset, old) in tx.undo.into_iter().rev() {
            let reg = self
                .regions
                .get_mut(&region)
                .expect("undo for unmapped region");
            let start = offset as usize;
            reg.mem[start..start + old.len()].copy_from_slice(&old);
        }
        Ok(())
    }

    /// Reads `len` bytes from a mapped region.
    pub fn read(&self, region: RegionId, offset: u64, len: usize) -> Result<&[u8]> {
        let reg = self
            .regions
            .get(&region)
            .ok_or_else(|| BmxError::Rvm(format!("region {region:?} not mapped")))?;
        let start = offset as usize;
        let end = start
            .checked_add(len)
            .filter(|&e| e <= reg.mem.len())
            .ok_or_else(|| BmxError::Rvm(format!("read past end of region {region:?}")))?;
        Ok(&reg.mem[start..end])
    }

    /// Applies the committed log to the data files and resets the log.
    ///
    /// Each region image is written to a temporary file and renamed into
    /// place, so truncation itself is crash-safe: a crash mid-truncate leaves
    /// either the old file plus the full log, or the new file (replay of the
    /// already-applied log is idempotent).
    pub fn truncate(&mut self) -> Result<()> {
        if self.active.is_some() {
            return Err(BmxError::Rvm(
                "cannot truncate with an active transaction".into(),
            ));
        }
        for (id, reg) in &self.regions {
            let tmp = reg.path.with_extension("tmp");
            let mut f = fs::File::create(&tmp)
                .map_err(|e| BmxError::Rvm(format!("create {tmp:?}: {e}")))?;
            f.write_all(&reg.mem)
                .and_then(|()| f.sync_data())
                .map_err(|e| BmxError::Rvm(format!("write region {id:?}: {e}")))?;
            fs::rename(&tmp, &reg.path)
                .map_err(|e| BmxError::Rvm(format!("rename region {id:?}: {e}")))?;
        }
        self.log.reset()
    }

    /// Current log size in bytes (experiment E9 reads this).
    pub fn log_bytes(&self) -> u64 {
        self.log.len_bytes()
    }

    /// Directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bmx-rvm-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn committed_writes_survive_crash() {
        let dir = fresh_dir("crash");
        {
            let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
            rvm.map(RegionId(1), 64).unwrap();
            let t = rvm.begin().unwrap();
            rvm.set_range(t, RegionId(1), 8, &[1, 2, 3, 4]).unwrap();
            rvm.commit(t).unwrap();
            // Crash: drop without truncate.
        }
        let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
        rvm.map(RegionId(1), 64).unwrap();
        assert_eq!(rvm.read(RegionId(1), 8, 4).unwrap(), &[1, 2, 3, 4]);
    }

    #[test]
    fn uncommitted_writes_do_not_survive_crash() {
        let dir = fresh_dir("uncommitted");
        {
            let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
            rvm.map(RegionId(1), 64).unwrap();
            let t = rvm.begin().unwrap();
            rvm.set_range(t, RegionId(1), 0, &[9; 8]).unwrap();
            // Crash before commit.
        }
        let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
        rvm.map(RegionId(1), 64).unwrap();
        assert_eq!(rvm.read(RegionId(1), 0, 8).unwrap(), &[0; 8]);
    }

    #[test]
    fn abort_restores_old_values() {
        let dir = fresh_dir("abort");
        let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
        rvm.map(RegionId(1), 32).unwrap();
        let t = rvm.begin().unwrap();
        rvm.set_range(t, RegionId(1), 0, &[1, 1]).unwrap();
        rvm.set_range(t, RegionId(1), 1, &[2, 2]).unwrap();
        rvm.abort(t).unwrap();
        assert_eq!(rvm.read(RegionId(1), 0, 3).unwrap(), &[0, 0, 0]);
    }

    #[test]
    fn overlapping_undo_restores_in_reverse_order() {
        let dir = fresh_dir("overlap");
        let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
        rvm.map(RegionId(1), 8).unwrap();
        let t0 = rvm.begin().unwrap();
        rvm.set_range(t0, RegionId(1), 0, &[5; 8]).unwrap();
        rvm.commit(t0).unwrap();
        let t = rvm.begin().unwrap();
        rvm.set_range(t, RegionId(1), 0, &[7; 4]).unwrap();
        rvm.set_range(t, RegionId(1), 2, &[8; 4]).unwrap();
        rvm.abort(t).unwrap();
        assert_eq!(rvm.read(RegionId(1), 0, 8).unwrap(), &[5; 8]);
    }

    #[test]
    fn truncate_applies_and_empties_log() {
        let dir = fresh_dir("truncate");
        {
            let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
            rvm.map(RegionId(2), 16).unwrap();
            let t = rvm.begin().unwrap();
            rvm.set_range(t, RegionId(2), 4, &[7; 4]).unwrap();
            rvm.commit(t).unwrap();
            rvm.truncate().unwrap();
            assert_eq!(rvm.log_bytes(), 0);
        }
        // Reopen: data must come from the data file, not the (empty) log.
        let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
        rvm.map(RegionId(2), 16).unwrap();
        assert_eq!(rvm.read(RegionId(2), 4, 4).unwrap(), &[7; 4]);
    }

    #[test]
    fn auto_truncate_kicks_in() {
        let dir = fresh_dir("auto-trunc");
        let mut rvm = Rvm::open(
            &dir,
            RvmOptions {
                auto_truncate_bytes: Some(64),
            },
        )
        .unwrap();
        rvm.map(RegionId(1), 256).unwrap();
        for i in 0..4 {
            let t = rvm.begin().unwrap();
            rvm.set_range(t, RegionId(1), i * 32, &[i as u8; 32])
                .unwrap();
            rvm.commit(t).unwrap();
        }
        assert!(
            rvm.log_bytes() < 128,
            "log={} should have been truncated",
            rvm.log_bytes()
        );
    }

    #[test]
    fn nested_transactions_rejected() {
        let dir = fresh_dir("nested");
        let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
        let _t = rvm.begin().unwrap();
        assert!(rvm.begin().is_err());
    }

    #[test]
    fn write_requires_active_transaction() {
        let dir = fresh_dir("notx");
        let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
        rvm.map(RegionId(1), 8).unwrap();
        assert!(rvm.set_range(Tid(99), RegionId(1), 0, &[1]).is_err());
    }

    #[test]
    fn out_of_bounds_write_rejected() {
        let dir = fresh_dir("oob");
        let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
        rvm.map(RegionId(1), 8).unwrap();
        let t = rvm.begin().unwrap();
        assert!(rvm.set_range(t, RegionId(1), 6, &[1, 2, 3]).is_err());
    }

    #[test]
    fn multiple_regions_are_independent() {
        let dir = fresh_dir("multi");
        let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
        rvm.map(RegionId(1), 8).unwrap();
        rvm.map(RegionId(2), 8).unwrap();
        let t = rvm.begin().unwrap();
        rvm.set_range(t, RegionId(1), 0, &[1; 8]).unwrap();
        rvm.set_range(t, RegionId(2), 0, &[2; 8]).unwrap();
        rvm.commit(t).unwrap();
        assert_eq!(rvm.read(RegionId(1), 0, 8).unwrap(), &[1; 8]);
        assert_eq!(rvm.read(RegionId(2), 0, 8).unwrap(), &[2; 8]);
    }

    #[test]
    fn unmap_then_remap_recovers() {
        let dir = fresh_dir("remap");
        let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
        rvm.map(RegionId(3), 16).unwrap();
        let t = rvm.begin().unwrap();
        rvm.set_range(t, RegionId(3), 0, &[4; 16]).unwrap();
        rvm.commit(t).unwrap();
        rvm.unmap(RegionId(3));
        assert!(!rvm.is_mapped(RegionId(3)));
        rvm.map(RegionId(3), 16).unwrap();
        assert_eq!(rvm.read(RegionId(3), 0, 16).unwrap(), &[4; 16]);
    }
}
