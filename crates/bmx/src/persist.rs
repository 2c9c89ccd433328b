//! RVM-backed persistence by reachability.
//!
//! Persistence in BMX follows Atkinson's persistence-by-reachability: an
//! object is persistent iff it is reachable from the persistent root
//! (paper, Sections 1 and 2.1). The prototype associates each segment with
//! a file and transfers changes atomically through RVM (Section 8),
//! following O'Toole et al. in backing from-space and to-space each with a
//! file.
//!
//! [`checkpoint_bunch`] runs after a local BGC (which has compacted the live
//! objects into to-space) and writes each mapped segment image of the bunch
//! into an RVM region inside one recoverable transaction — a crash either
//! preserves the previous checkpoint or the new one. [`recover_bunch`]
//! rebuilds a node's replica (memory image, object directory, DSM ownership)
//! from the RVM store after a crash.

use bmx_addr::object;
use bmx_addr::MappedSegment;
use bmx_common::{Addr, BmxError, BunchId, NodeId, Result, SegmentId, StatKind};
use bmx_rvm::{RegionId, Rvm};

use crate::cluster::Cluster;

/// Byte capacity of a segment's RVM region (worst case: fully used).
fn region_capacity(words: usize) -> usize {
    let map_words = words.div_ceil(64);
    8 * (1 + words + 2 * map_words)
}

/// Encodes a mapped segment into the flat byte layout of its RVM region:
/// `[alloc_cursor u64][used words (cursor many)][object_map][ref_map]`.
///
/// Only the used prefix of the word array is serialized — after a
/// collection the to-space is compact, so the checkpoint scales with live
/// data, not segment capacity (persistence by reachability in byte form).
fn encode_segment(seg: &MappedSegment) -> Vec<u8> {
    let words = seg.info.words as usize;
    let used = seg.alloc_cursor as usize;
    let map_words = words.div_ceil(64);
    let mut out = Vec::with_capacity(8 * (1 + used + 2 * map_words));
    out.extend_from_slice(&seg.alloc_cursor.to_le_bytes());
    for w in &seg.words[..used] {
        out.extend_from_slice(&w.to_le_bytes());
    }
    let mut pack = |bits: &bmx_common::Bitmap| {
        let mut buf = vec![0u64; map_words];
        for i in bits.iter_ones() {
            buf[i / 64] |= 1 << (i % 64);
        }
        for w in buf {
            out.extend_from_slice(&w.to_le_bytes());
        }
    };
    pack(&seg.object_map);
    pack(&seg.ref_map);
    out
}

fn decode_segment(info: bmx_addr::SegmentInfo, bytes: &[u8]) -> Result<MappedSegment> {
    let words = info.words as usize;
    let map_words = words.div_ceil(64);
    if bytes.len() < 8 {
        return Err(BmxError::Rvm(format!(
            "segment region too short: {}",
            bytes.len()
        )));
    }
    let rd = |i: usize| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"));
    let mut seg = MappedSegment::new(info);
    seg.alloc_cursor = rd(0);
    let used = seg.alloc_cursor as usize;
    if used > words || bytes.len() < 8 * (1 + used + 2 * map_words) {
        return Err(BmxError::Rvm(format!(
            "segment region inconsistent: cursor {used}, {} bytes",
            bytes.len()
        )));
    }
    for i in 0..used {
        seg.words[i] = rd(1 + i);
    }
    for i in 0..words {
        if rd(1 + used + i / 64) & (1 << (i % 64)) != 0 {
            seg.object_map.set(i);
        }
        if rd(1 + used + map_words + i / 64) & (1 << (i % 64)) != 0 {
            seg.ref_map.set(i);
        }
    }
    Ok(seg)
}

/// Region id carrying the segment table of a bunch (ids, bases, lengths) so
/// recovery can re-register the layout with a fresh segment server.
fn meta_region(bunch: BunchId) -> RegionId {
    RegionId(u64::MAX - bunch.0 as u64)
}

/// Encodes the checkpointed segment table:
/// `[count][id base words]...` as little-endian u64s.
fn encode_meta(segs: &[bmx_addr::SegmentInfo]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 * (1 + 3 * segs.len()));
    out.extend_from_slice(&(segs.len() as u64).to_le_bytes());
    for s in segs {
        out.extend_from_slice(&s.id.0.to_le_bytes());
        out.extend_from_slice(&s.base.0.to_le_bytes());
        out.extend_from_slice(&s.words.to_le_bytes());
    }
    out
}

fn decode_meta(bytes: &[u8]) -> Vec<(SegmentId, Addr, u64)> {
    if bytes.len() < 8 {
        return Vec::new();
    }
    let rd = |i: usize| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"));
    let count = rd(0) as usize;
    (0..count)
        .filter(|i| 8 * (1 + 3 * (i + 1)) <= bytes.len())
        .map(|i| (SegmentId(rd(1 + 3 * i)), Addr(rd(2 + 3 * i)), rd(3 + 3 * i)))
        .collect()
}

/// Maximum segments a bunch's checkpoint metadata region can describe.
const META_CAP: usize = 1024;

// ---------------------------------------------------------------------
// Node metadata (crash-amnesia recovery manifest).
// ---------------------------------------------------------------------

/// Region id carrying a node's recovery manifest. Offset by `1 << 32` from
/// the top of the id space so it can never collide with a bunch's meta
/// region (`u64::MAX - bunch`) or a segment region (small ids counting up).
fn node_meta_region(node: NodeId) -> RegionId {
    RegionId(u64::MAX - (1u64 << 32) - node.0 as u64)
}

/// First word of a written node-meta region (an all-zero region means the
/// node never checkpointed).
const NODE_META_MAGIC: u64 = 0x424D_585F_4E4F_4432; // "BMX_NOD2"
/// Maximum mutator roots the manifest can carry.
const NODE_META_ROOTS_CAP: usize = 4096;
/// Maximum checkpointed bunches the manifest can list.
const NODE_META_BUNCH_CAP: usize = 1024;

fn node_meta_bytes() -> usize {
    8 * (6 + NODE_META_ROOTS_CAP + NODE_META_BUNCH_CAP)
}

/// Everything a node needs besides the bunch images to come back: the OID
/// and SSP-id mint cursors (so post-restart allocations and stubs cannot
/// collide with surviving pre-crash objects and scions), the rejoin epoch
/// (the incarnation, which also puts every post-restart collection epoch
/// above any the node published before), the mutator roots, and the list
/// of checkpointed bunches to replay.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeMeta {
    /// The node's OID mint counter at checkpoint time.
    pub next_oid: u64,
    /// Rejoin epochs completed before the checkpoint (restart resumes
    /// strictly above this).
    pub rejoin_epoch: u64,
    /// The node's SSP-id mint counter at checkpoint time
    /// ([`bmx_gc::GcNodeState::next_ssp`]).
    pub next_ssp: u64,
    /// The node's mutator roots (re-registered after replay).
    pub roots: Vec<Addr>,
    /// Every bunch with a checkpoint in this store.
    pub bunches: Vec<BunchId>,
}

fn encode_node_meta(meta: &NodeMeta) -> Vec<u8> {
    let roots = &meta.roots[..meta.roots.len().min(NODE_META_ROOTS_CAP)];
    let bunches = &meta.bunches[..meta.bunches.len().min(NODE_META_BUNCH_CAP)];
    let mut out = Vec::with_capacity(8 * (6 + roots.len() + bunches.len()));
    out.extend_from_slice(&NODE_META_MAGIC.to_le_bytes());
    out.extend_from_slice(&meta.next_oid.to_le_bytes());
    out.extend_from_slice(&meta.rejoin_epoch.to_le_bytes());
    out.extend_from_slice(&meta.next_ssp.to_le_bytes());
    out.extend_from_slice(&(roots.len() as u64).to_le_bytes());
    for r in roots {
        out.extend_from_slice(&r.0.to_le_bytes());
    }
    out.extend_from_slice(&(bunches.len() as u64).to_le_bytes());
    for b in bunches {
        out.extend_from_slice(&(b.0 as u64).to_le_bytes());
    }
    out
}

fn decode_node_meta(bytes: &[u8]) -> Option<NodeMeta> {
    if bytes.len() < 48 {
        return None;
    }
    let rd = |i: usize| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"));
    if rd(0) != NODE_META_MAGIC {
        return None;
    }
    let mut meta = NodeMeta {
        next_oid: rd(1),
        rejoin_epoch: rd(2),
        next_ssp: rd(3),
        ..NodeMeta::default()
    };
    let root_count = rd(4) as usize;
    if bytes.len() < 8 * (6 + root_count) {
        return None;
    }
    for i in 0..root_count {
        meta.roots.push(Addr(rd(5 + i)));
    }
    let bunch_count = rd(5 + root_count) as usize;
    if bytes.len() < 8 * (6 + root_count + bunch_count) {
        return None;
    }
    for i in 0..bunch_count {
        meta.bunches.push(BunchId(rd(6 + root_count + i) as u32));
    }
    Some(meta)
}

/// Writes the node's recovery manifest as one recoverable transaction.
/// Called after every post-BGC bunch checkpoint so the manifest always
/// names the freshest checkpointed set.
pub fn checkpoint_node_meta(
    cluster: &mut Cluster,
    node: NodeId,
    rvm: &mut Rvm,
    meta: &NodeMeta,
) -> Result<()> {
    rvm.map(node_meta_region(node), node_meta_bytes())?;
    let bytes = encode_node_meta(meta);
    let tid = rvm.begin()?;
    rvm.set_range(tid, node_meta_region(node), 0, &bytes)?;
    rvm.commit(tid)?;
    cluster.stats[node.0 as usize].bump(StatKind::RvmLogRecords);
    cluster.stats[node.0 as usize].add(StatKind::RvmBytesLogged, bytes.len() as u64);
    Ok(())
}

/// Reads the node's recovery manifest back; `None` when the node never
/// checkpointed (an all-zero or missing region).
pub fn recover_node_meta(node: NodeId, rvm: &mut Rvm) -> Result<Option<NodeMeta>> {
    rvm.map(node_meta_region(node), node_meta_bytes())?;
    let bytes = rvm.read(node_meta_region(node), 0, node_meta_bytes())?;
    Ok(decode_node_meta(bytes))
}

/// Writes every locally mapped segment of `bunch` at `node` into `rvm`,
/// together with the bunch's segment table, as one recoverable transaction.
/// Returns the segment ids checkpointed.
pub fn checkpoint_bunch(
    cluster: &mut Cluster,
    node: NodeId,
    bunch: BunchId,
    rvm: &mut Rvm,
) -> Result<Vec<SegmentId>> {
    let seg_infos: Vec<bmx_addr::SegmentInfo> = {
        let srv = cluster.server.borrow();
        srv.bunch(bunch)?
            .segments
            .iter()
            .filter(|&&s| cluster.mems[node.0 as usize].has_segment(s))
            .map(|&s| srv.segment(s))
            .collect::<Result<Vec<_>>>()?
    };
    if seg_infos.is_empty() {
        return Err(BmxError::BunchUnmapped { node, bunch });
    }
    // Map all regions first (sizing them from the images).
    rvm.map(meta_region(bunch), 8 * (1 + 3 * META_CAP))?;
    let mut images = Vec::new();
    for info in &seg_infos {
        let seg = cluster.mems[node.0 as usize].segment(info.id)?;
        let bytes = encode_segment(seg);
        rvm.map(RegionId(info.id.0), region_capacity(info.words as usize))?;
        images.push((info.id, bytes));
    }
    let tid = rvm.begin()?;
    rvm.set_range(tid, meta_region(bunch), 0, &encode_meta(&seg_infos))?;
    for (sid, bytes) in &images {
        rvm.set_range(tid, RegionId(sid.0), 0, bytes)?;
        cluster.stats[node.0 as usize].bump(StatKind::RvmLogRecords);
        cluster.stats[node.0 as usize].add(StatKind::RvmBytesLogged, bytes.len() as u64);
    }
    rvm.commit(tid)?;
    Ok(seg_infos.into_iter().map(|s| s.id).collect())
}

/// Persistence by reachability (paper, Sections 1 and 2.1): "objects that
/// are no longer reachable from the persistent root should not be stored
/// on disk".
///
/// Runs a bunch collection (compacting the live objects into to-space),
/// completes the from-space reuse protocol (so retired segments carry no
/// garbage bytes), and only then checkpoints — the disk image holds
/// exactly the reachable data. Returns the checkpointed segments.
pub fn checkpoint_reachable(
    cluster: &mut Cluster,
    node: NodeId,
    bunch: BunchId,
    rvm: &mut Rvm,
) -> Result<Vec<SegmentId>> {
    cluster.run_bgc(node, bunch)?;
    // Best effort: if remote replicas stall the reuse protocol the
    // checkpoint still proceeds (retired segments then carry forwarding
    // headers, which recovery understands).
    let _ = cluster.reuse_from_space(node, bunch);
    checkpoint_bunch(cluster, node, bunch, rvm)
}

/// Rebuilds `bunch` at `node` from `rvm` after a crash: reinstalls the
/// segment images, repopulates the object directory, and re-registers the
/// recovered objects with the DSM as locally owned.
///
/// Ownership recovery is node-local: the recovering node is made owner of
/// every object it recovered (the single-node recovery scenario of
/// experiment E9; cross-node ownership recovery would need the consistency
/// protocol's own crash story, which the paper does not give).
pub fn recover_bunch(
    cluster: &mut Cluster,
    node: NodeId,
    bunch: BunchId,
    rvm: &mut Rvm,
) -> Result<usize> {
    recover_bunch_inner(cluster, node, bunch, rvm, true).map(|(segs, _)| segs)
}

/// [`recover_bunch`] minus the node-local ownership claim: reinstalls the
/// images and directory but registers *nothing* with the DSM. Returns the
/// recovered segment count and the non-forwarded objects found, so the
/// epoch-based rejoin handshake can reconcile ownership with the surviving
/// peers instead of unilaterally claiming it (which would mint a second
/// owner whenever a survivor took the token over before the crash).
pub fn recover_bunch_live(
    cluster: &mut Cluster,
    node: NodeId,
    bunch: BunchId,
    rvm: &mut Rvm,
) -> Result<(usize, Vec<bmx_common::Oid>)> {
    recover_bunch_inner(cluster, node, bunch, rvm, false)
}

fn recover_bunch_inner(
    cluster: &mut Cluster,
    node: NodeId,
    bunch: BunchId,
    rvm: &mut Rvm,
    claim_ownership: bool,
) -> Result<(usize, Vec<bmx_common::Oid>)> {
    // Re-adopt the checkpointed segment layout into the (possibly fresh)
    // segment server before touching the images.
    rvm.map(meta_region(bunch), 8 * (1 + 3 * META_CAP))?;
    let meta = decode_meta(rvm.read(meta_region(bunch), 0, 8 * (1 + 3 * META_CAP))?);
    for (id, base, words) in meta {
        cluster
            .server
            .borrow_mut()
            .adopt_segment(bunch, id, base, words)?;
    }
    let seg_infos: Vec<_> = {
        let srv = cluster.server.borrow();
        srv.bunch(bunch)?
            .segments
            .iter()
            .map(|&s| srv.segment(s))
            .collect::<Result<Vec<_>>>()?
    };
    let mut recovered = 0;
    let mem = &mut cluster.mems[node.0 as usize];
    for info in seg_infos {
        let region = RegionId(info.id.0);
        let byte_len = region_capacity(info.words as usize);
        rvm.map(region, byte_len)?;
        let bytes = rvm.read(region, 0, byte_len)?;
        // A region of all zeroes means this segment was never checkpointed.
        if bytes.iter().all(|&b| b == 0) {
            continue;
        }
        let seg = decode_segment(info, bytes)?;
        mem.install_segment(seg);
        recovered += 1;
    }
    if recovered == 0 {
        return Ok((0, Vec::new()));
    }
    cluster.gc.note_mapping(bunch, node);
    let brs = cluster.gc.node_mut(node).bunch_or_default(bunch);
    if brs.alloc_segments.is_empty() {
        brs.alloc_segments = cluster
            .server
            .borrow()
            .bunch(bunch)?
            .segments
            .iter()
            .copied()
            .filter(|&s| cluster.mems[node.0 as usize].has_segment(s))
            .collect();
    }
    // Repopulate the directory and DSM records from the recovered headers.
    let seg_ids = cluster.mems[node.0 as usize].mapped_segments();
    let mut found: Vec<(bmx_common::Oid, Addr, Addr)> = Vec::new();
    for sid in seg_ids {
        let mem = &cluster.mems[node.0 as usize];
        let Ok(seg) = mem.segment(sid) else { continue };
        if seg.info.bunch != bunch {
            continue;
        }
        for addr in object::objects_in(seg) {
            let v = object::view(mem, addr)?;
            found.push((
                v.oid,
                addr,
                if v.is_forwarded() {
                    v.forwarding
                } else {
                    Addr::NULL
                },
            ));
        }
    }
    let mut live = Vec::new();
    for (oid, addr, fwd) in found {
        let dir = &mut cluster.gc.node_mut(node).directory;
        if fwd.is_null() {
            dir.set_addr(oid, addr);
            if claim_ownership {
                cluster.engine.register_alloc(node, oid, bunch);
            } else {
                live.push(oid);
            }
        } else {
            dir.record_move(oid, addr, fwd);
            let cur = dir.resolve(fwd);
            dir.set_addr(oid, cur);
        }
    }
    Ok((recovered, live))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::mutator::ObjSpec;
    use bmx_rvm::RvmOptions;
    use std::path::PathBuf;

    fn fresh_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bmx-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn checkpoint_then_crash_then_recover() {
        let dir = fresh_dir("roundtrip");
        let n0 = NodeId(0);
        let (bunch, a, b, val) = {
            let mut c = Cluster::new(ClusterConfig::with_nodes(1));
            let bunch = c.create_bunch(n0).unwrap();
            let a = c.alloc(n0, bunch, &ObjSpec::with_refs(2, &[1])).unwrap();
            let b = c.alloc(n0, bunch, &ObjSpec::data(1)).unwrap();
            c.write_data(n0, a, 0, 314).unwrap();
            c.write_ref(n0, a, 1, b).unwrap();
            let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
            checkpoint_bunch(&mut c, n0, bunch, &mut rvm).unwrap();
            // Crash: cluster and rvm are dropped without truncation.
            (bunch, a, b, 314)
        };
        // A fresh cluster sharing the same (recreated) address layout.
        let mut c2 = Cluster::new(ClusterConfig::with_nodes(1));
        let bunch2 = c2.create_bunch(n0).unwrap();
        assert_eq!(bunch2, bunch, "deterministic bunch numbering");
        let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
        let n = recover_bunch(&mut c2, n0, bunch2, &mut rvm).unwrap();
        assert!(n >= 1);
        assert_eq!(c2.read_data(n0, a, 0).unwrap(), val);
        assert_eq!(c2.read_ref(n0, a, 1).unwrap(), b);
    }

    #[test]
    fn uncheckpointed_changes_do_not_survive() {
        let dir = fresh_dir("lost");
        let n0 = NodeId(0);
        let (bunch, a) = {
            let mut c = Cluster::new(ClusterConfig::with_nodes(1));
            let bunch = c.create_bunch(n0).unwrap();
            let a = c.alloc(n0, bunch, &ObjSpec::data(1)).unwrap();
            c.write_data(n0, a, 0, 1).unwrap();
            let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
            checkpoint_bunch(&mut c, n0, bunch, &mut rvm).unwrap();
            // Post-checkpoint mutation, then crash without checkpointing.
            c.write_data(n0, a, 0, 2).unwrap();
            (bunch, a)
        };
        let mut c2 = Cluster::new(ClusterConfig::with_nodes(1));
        c2.create_bunch(n0).unwrap();
        let mut rvm = Rvm::open(&dir, RvmOptions::default()).unwrap();
        recover_bunch(&mut c2, n0, bunch, &mut rvm).unwrap();
        assert_eq!(c2.read_data(n0, a, 0).unwrap(), 1, "pre-checkpoint value");
    }
}
