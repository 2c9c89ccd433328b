//! Inter-bunch cycle workloads — the group collector's prey (Section 7).

use bmx::{Cluster, ObjSpec};
use bmx_common::{Addr, BunchId, NodeId, Result};

/// Builds a ring of `len` objects, each in its own fresh bunch created at
/// `node`, with each object pointing at the next bunch's object. Returns
/// `(bunches, objects)` in ring order.
///
/// Every link is an inter-bunch reference, so per-bunch collection alone can
/// never reclaim the ring: each bunch's object stays reachable from the
/// previous bunch's scion. Only a group collection over all of them can.
pub fn build_inter_bunch_ring(
    cluster: &mut Cluster,
    node: NodeId,
    len: usize,
) -> Result<(Vec<BunchId>, Vec<Addr>)> {
    assert!(len >= 2, "a ring needs at least two bunches");
    let mut bunches = Vec::with_capacity(len);
    let mut objs = Vec::with_capacity(len);
    for _ in 0..len {
        let b = cluster.create_bunch(node)?;
        let o = cluster.alloc(node, b, &ObjSpec::with_refs(2, &[0, 1]))?;
        bunches.push(b);
        objs.push(o);
    }
    for i in 0..len {
        cluster.write_ref(node, objs[i], 0, objs[(i + 1) % len])?;
    }
    Ok((bunches, objs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmx::ClusterConfig;

    #[test]
    fn per_bunch_collection_cannot_reclaim_the_ring() {
        let mut c = Cluster::new(ClusterConfig::with_nodes(1));
        let n0 = NodeId(0);
        let (bunches, _objs) = build_inter_bunch_ring(&mut c, n0, 4).unwrap();
        // No roots at all: the ring is garbage. Per-bunch BGCs keep each
        // object alive via the inter-bunch scion from its predecessor.
        for _round in 0..3 {
            let mut reclaimed = 0;
            for &b in &bunches {
                reclaimed += c.run_bgc(n0, b).unwrap().reclaimed;
            }
            assert_eq!(reclaimed, 0, "BGC alone must never reclaim the cycle");
        }
    }

    #[test]
    fn group_collection_reclaims_the_ring() {
        let mut c = Cluster::new(ClusterConfig::with_nodes(1));
        let n0 = NodeId(0);
        let (_bunches, objs) = build_inter_bunch_ring(&mut c, n0, 4).unwrap();
        let stats = c.run_ggc(n0).unwrap();
        assert_eq!(stats.reclaimed, objs.len() as u64);
        assert_eq!(stats.live, 0);
    }

    #[test]
    fn rooted_ring_survives_group_collection() {
        let mut c = Cluster::new(ClusterConfig::with_nodes(1));
        let n0 = NodeId(0);
        let (_bunches, objs) = build_inter_bunch_ring(&mut c, n0, 5).unwrap();
        c.add_root(n0, objs[2]);
        let stats = c.run_ggc(n0).unwrap();
        assert_eq!(stats.reclaimed, 0);
        assert_eq!(stats.live, 5);
        // The ring is still intact.
        let mut cur = objs[2];
        for _ in 0..5 {
            cur = c.read_ref(n0, cur, 0).unwrap();
        }
        assert!(c.ptr_eq(n0, cur, objs[2]));
    }
}
