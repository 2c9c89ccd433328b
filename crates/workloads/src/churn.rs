//! Churn traces: mutation workloads that create garbage and migrate
//! ownership, for steady-state collector measurements.

use bmx::{Cluster, ObjSpec};
use bmx_common::{Addr, BunchId, NodeId, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a churn run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChurnOutcome {
    /// Objects allocated during the run.
    pub allocated: u64,
    /// Objects detached (turned into garbage).
    pub detached: u64,
    /// Write-token acquisitions performed.
    pub writes: u64,
}

/// Repeatedly replaces the target of a rooted one-slot "registry" object
/// with freshly allocated small objects: each replacement detaches the
/// previous target. After `rounds` rounds, `rounds - 1` objects are
/// unreachable garbage.
pub fn register_churn(
    cluster: &mut Cluster,
    node: NodeId,
    bunch: BunchId,
    registry: Addr,
    rounds: usize,
) -> Result<ChurnOutcome> {
    let mut out = ChurnOutcome::default();
    for i in 0..rounds {
        let obj = cluster.alloc(node, bunch, &ObjSpec::data(2))?;
        cluster.write_data(node, obj, 0, i as u64)?;
        cluster.write_ref(node, registry, 0, obj)?;
        out.allocated += 1;
        if i > 0 {
            out.detached += 1;
        }
    }
    Ok(out)
}

/// Bounces the write token of each object in `objs` around the cluster's
/// nodes `hops` times, mutating a payload field every hop. Exercises
/// ownership migration (and, with stub-holding objects, intra-bunch SSP
/// creation).
pub fn ownership_migration(
    cluster: &mut Cluster,
    objs: &[Addr],
    hops: usize,
    seed: u64,
) -> Result<ChurnOutcome> {
    let mut out = ChurnOutcome::default();
    let n = cluster.nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    for &obj in objs {
        for _ in 0..hops {
            let node = NodeId(rng.gen_range(0..n));
            cluster.acquire_write(node, obj)?;
            let v = cluster.read_data(node, obj, 1)?;
            cluster.write_data(node, obj, 1, v + 1)?;
            cluster.release(node, obj)?;
            out.writes += 1;
        }
    }
    Ok(out)
}

/// One round of the mixed chaos workload: registry churn at every listed
/// `(node, bunch, registry)` site, one ownership-migration hop over
/// `migrate`, a collection at the round-robin-chosen site, and a slice of
/// background clock ([`Cluster::step`]) so fault transitions and the
/// cleaners' table requests run *between* mutator bursts.
///
/// Chaos soaks call this in a loop against a cluster whose network carries
/// a fault plan: the mutator keeps creating garbage and bouncing tokens
/// while links drop, duplicate, partition and crash under it. Everything is
/// deterministic in `(round, seed)`.
pub fn chaos_round(
    cluster: &mut Cluster,
    sites: &[(NodeId, BunchId, Addr)],
    migrate: &[Addr],
    round: usize,
    seed: u64,
) -> Result<ChurnOutcome> {
    let mut out = ChurnOutcome::default();
    for &(node, bunch, registry) in sites {
        let o = register_churn(cluster, node, bunch, registry, 2)?;
        out.allocated += o.allocated;
        out.detached += o.detached;
    }
    if !migrate.is_empty() {
        let o = ownership_migration(
            cluster,
            migrate,
            1,
            seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )?;
        out.writes += o.writes;
    }
    if !sites.is_empty() {
        let (node, bunch, _) = sites[round % sites.len()];
        cluster.run_bgc(node, bunch)?;
    }
    cluster.step(20)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmx::ClusterConfig;

    #[test]
    fn churn_creates_reclaimable_garbage() {
        let mut c = Cluster::new(ClusterConfig::with_nodes(1));
        let n0 = NodeId(0);
        let b = c.create_bunch(n0).unwrap();
        let registry = c.alloc(n0, b, &ObjSpec::with_refs(1, &[0])).unwrap();
        c.add_root(n0, registry);
        let out = register_churn(&mut c, n0, b, registry, 20).unwrap();
        assert_eq!(out.allocated, 20);
        assert_eq!(out.detached, 19);
        let stats = c.run_bgc(n0, b).unwrap();
        assert_eq!(stats.reclaimed, 19);
        assert_eq!(stats.live, 2, "registry plus the last object");
    }

    #[test]
    fn migration_counts_every_hop() {
        let mut c = Cluster::new(ClusterConfig::with_nodes(3));
        let n0 = NodeId(0);
        let b = c.create_bunch(n0).unwrap();
        let obj = c.alloc(n0, b, &ObjSpec::with_refs(2, &[0])).unwrap();
        c.map_bunch(NodeId(1), b, n0).unwrap();
        c.map_bunch(NodeId(2), b, n0).unwrap();
        let out = ownership_migration(&mut c, &[obj], 6, 99).unwrap();
        assert_eq!(out.writes, 6);
        // The payload saw every increment, wherever the token went.
        let holder = (0..3)
            .map(NodeId)
            .find(|&n| c.engine.is_owner(n, c.oid_at_local(n, obj).unwrap()))
            .expect("someone owns it");
        assert_eq!(c.read_data(holder, obj, 1).unwrap(), 6);
    }
}
