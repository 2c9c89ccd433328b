//! The layer budget: the cost of the same counter increment at each depth
//! of the stack, single-threaded, in nanoseconds per call — from a raw
//! word in `NodeMemory` up to a `NodeHandle` of the parallel runtime, with
//! the tick sim as the speed-of-light reference. Measured in every traced
//! pass; it does not depend on the workload.
//!
//! Per-call costs are taken over batches of 64 distinct objects (64
//! acquires, then 64 reads, ...), so the clock is read twice per batch and
//! not around every sub-100 ns call.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bmx::{Cluster, ClusterConfig, NodeHandle, ObjSpec, ParallelCluster, Shutdown};
use bmx_common::{Addr, BmxError, MsgSeq, NodeId, Result};
use bmx_dsm::{DsmPacket, DsmShared};
use bmx_net::{ChannelTransport, Envelope, MsgClass, Network, NetworkConfig, Transport, WireSize};
use bmx_rvm::{RegionId, Rvm, RvmOptions};

use crate::spec::Metrics;

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
const BATCH: usize = 64;
const FIELD: u64 = 1;

fn per_call(total: Duration, calls: u64) -> f64 {
    total.as_nanos() as f64 / calls.max(1) as f64
}

/// A 2-node sim cluster with `n` counters in one bunch at node 0.
fn sim_with_counters(n: usize) -> Result<(Cluster, bmx_common::BunchId, Vec<Addr>)> {
    let mut c = Cluster::new(ClusterConfig::with_nodes(2));
    let bunch = c.create_bunch(N0)?;
    let mut objs = Vec::with_capacity(n);
    for _ in 0..n {
        let o = c.alloc(N0, bunch, &ObjSpec::with_refs(2, &[0]))?;
        c.add_root(N0, o);
        objs.push(o);
    }
    Ok((c, bunch, objs))
}

fn raw_memory_and_engine(m: &mut Metrics, iters: u64) -> Result<()> {
    let (mut c, _, objs) = sim_with_counters(1)?;
    let obj = objs[0];
    // The counter's word: object header, then the data fields.
    let slot = obj.add_words(bmx_addr::HEADER_WORDS + FIELD);
    let t0 = Instant::now();
    for _ in 0..iters {
        let v = c.mems[0].read_word(slot)?;
        c.mems[0].write_word(slot, black_box(v + 1))?;
    }
    m.insert("addr.word_rw_ns", per_call(t0.elapsed(), iters));

    let oid = c.oid_at_local(N0, obj)?;
    let Cluster {
        engine,
        gc,
        mems,
        stats,
        ..
    } = &mut c;
    let mut sh = DsmShared { mems, stats, gc };
    // The object is owned here: nothing is ever sent.
    let mut send = |_: NodeId, _: NodeId, _: DsmPacket| {};
    let t0 = Instant::now();
    for _ in 0..iters {
        engine.start_write(N0, oid, &mut sh, &mut send)?;
        engine.lock(N0, oid)?;
        engine.unlock(N0, oid, &mut sh, &mut send)?;
    }
    m.insert("dsm.lock_unlock_ns", per_call(t0.elapsed(), iters));
    Ok(())
}

/// The four calls of an increment, on the sim or through a `NodeHandle`.
trait Mutator {
    fn acquire(&mut self, obj: Addr) -> Result<()>;
    fn read(&mut self, obj: Addr) -> Result<u64>;
    fn write(&mut self, obj: Addr, value: u64) -> Result<()>;
    fn release(&mut self, obj: Addr) -> Result<()>;
}

impl Mutator for Cluster {
    fn acquire(&mut self, obj: Addr) -> Result<()> {
        self.acquire_write(N0, obj)
    }
    fn read(&mut self, obj: Addr) -> Result<u64> {
        self.read_data(N0, obj, FIELD)
    }
    fn write(&mut self, obj: Addr, value: u64) -> Result<()> {
        self.write_data(N0, obj, FIELD, value)
    }
    fn release(&mut self, obj: Addr) -> Result<()> {
        Cluster::release(self, N0, obj)
    }
}

impl Mutator for &NodeHandle {
    fn acquire(&mut self, obj: Addr) -> Result<()> {
        self.acquire_write(obj)
    }
    fn read(&mut self, obj: Addr) -> Result<u64> {
        self.read_data(obj, FIELD)
    }
    fn write(&mut self, obj: Addr, value: u64) -> Result<()> {
        self.write_data(obj, FIELD, value)
    }
    fn release(&mut self, obj: Addr) -> Result<()> {
        NodeHandle::release(self, obj)
    }
}

/// Per-call costs over whole batches of `objs`: all acquires, then all
/// reads, all writes, all releases. Reported under `names`, in that order.
fn batched_calls(
    m: &mut Metrics,
    via: &mut impl Mutator,
    objs: &[Addr],
    iters: u64,
    names: [&'static str; 4],
) -> Result<()> {
    let batches = (iters / objs.len() as u64).max(1);
    let mut total = [Duration::ZERO; 4];
    let mut values = vec![0u64; objs.len()];
    for _ in 0..batches {
        let t0 = Instant::now();
        for &o in objs {
            via.acquire(o)?;
        }
        let t1 = Instant::now();
        for (v, &o) in values.iter_mut().zip(objs) {
            *v = via.read(o)?;
        }
        let t2 = Instant::now();
        for (v, &o) in values.iter().zip(objs) {
            via.write(o, v + 1)?;
        }
        let t3 = Instant::now();
        for &o in objs {
            via.release(o)?;
        }
        let t4 = Instant::now();
        for (sum, d) in total.iter_mut().zip([t1 - t0, t2 - t1, t3 - t2, t4 - t3]) {
            *sum += d;
        }
    }
    for (name, sum) in names.into_iter().zip(total) {
        m.insert(name, per_call(sum, batches * objs.len() as u64));
    }
    Ok(())
}

/// `iters` whole increments, round-robin over `objs`.
fn increments(via: &mut impl Mutator, objs: &[Addr], iters: u64) -> Result<Duration> {
    let t0 = Instant::now();
    for i in 0..iters {
        let o = objs[i as usize % objs.len()];
        via.acquire(o)?;
        let v = via.read(o)?;
        via.write(o, v + 1)?;
        via.release(o)?;
    }
    Ok(t0.elapsed())
}

/// The increment on the sim: the speed of light. Returns `mutator.incr_ns`.
fn sim_mutator(m: &mut Metrics, iters: u64) -> Result<f64> {
    let (mut c, _, objs) = sim_with_counters(BATCH)?;
    batched_calls(
        m,
        &mut c,
        &objs,
        iters,
        [
            "mutator.acquire_ns",
            "mutator.read_ns",
            "mutator.write_ns",
            "mutator.release_ns",
        ],
    )?;
    let incr = per_call(increments(&mut c, &objs, iters)?, iters);
    m.insert("mutator.incr_ns", incr);
    Ok(incr)
}

fn handle_counters(h: &NodeHandle) -> Result<Vec<Addr>> {
    let bunch = h.create_bunch()?;
    let mut objs = Vec::with_capacity(BATCH);
    for _ in 0..BATCH {
        let o = h.alloc(bunch, &ObjSpec::with_refs(2, &[0]))?;
        h.add_root(o)?;
        objs.push(o);
    }
    Ok(objs)
}

/// One `NodeHandle` alone, then two handles on node-private objects.
fn parallel_mutator(m: &mut Metrics, iters: u64, sim_incr_ns: f64) -> Result<()> {
    let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(2));
    let (h0, h1) = (pc.handle(N0), pc.handle(N1));
    let measured = (|| {
        let objs0 = handle_counters(&h0)?;
        let objs1 = handle_counters(&h1)?;
        batched_calls(
            m,
            &mut &h0,
            &objs0,
            iters,
            [
                "parallel.acquire_ns",
                "parallel.read_ns",
                "parallel.write_ns",
                "parallel.release_ns",
            ],
        )?;
        let solo = per_call(increments(&mut &h0, &objs0, iters)?, iters);
        m.insert("parallel.incr_ns", solo);
        if sim_incr_ns > 0.0 {
            m.insert("parallel.vs_sim_ratio", solo / sim_incr_ns);
        }
        // Two handles, each on its own node's objects, the same number of
        // increments each; throughput against the single handle's.
        let each = (iters / 4).max(1);
        let t0 = Instant::now();
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(|| increments(&mut &h1, &objs1, each));
            let mine = increments(&mut &h0, &objs0, each);
            (mine, other.join())
        });
        let wall = t0.elapsed();
        a?;
        b.map_err(|_| BmxError::Protocol("second handle panicked".into()))??;
        let duo_ns_per_incr = per_call(wall, 2 * each);
        if duo_ns_per_incr > 0.0 {
            m.insert("parallel.scaling_2h", solo / duo_ns_per_incr);
        }
        Ok(())
    })();
    let stopped = pc.shutdown(Shutdown::Drain).map(|_| ());
    measured.and(stopped)
}

/// The write token of one object bounced between two sim nodes: every
/// acquire is remote. Per acquire/release pair.
fn remote_acquire(m: &mut Metrics, iters: u64) -> Result<()> {
    let (mut c, bunch, objs) = sim_with_counters(1)?;
    c.map_bunch(N1, bunch, N0)?;
    let t0 = Instant::now();
    for i in 0..iters {
        let node = NodeId((i % 2) as u32);
        c.acquire_write(node, objs[0])?;
        c.release(node, objs[0])?;
    }
    m.insert("mutator.remote_acquire_ns", per_call(t0.elapsed(), iters));
    Ok(())
}

#[derive(Clone)]
struct Ping(u64);

impl WireSize for Ping {
    fn wire_size(&self) -> u64 {
        8
    }
}

const STOP: u64 = u64::MAX;

fn envelope(t: &ChannelTransport<Ping>, src: NodeId, dst: NodeId, v: u64) -> Envelope<Ping> {
    Envelope {
        src,
        dst,
        seq: MsgSeq(t.next_seq(src, dst)),
        class: MsgClass::Dsm,
        lamport: 0,
        span: 0,
        payload: Ping(v),
    }
}

fn recv_spinning(t: &ChannelTransport<Ping>, at: NodeId) -> u64 {
    loop {
        if let Some(env) = t.try_recv(at) {
            t.ack_delivered();
            return env.payload.0;
        }
        std::hint::spin_loop();
    }
}

fn network_and_transport(m: &mut Metrics, iters: u64) {
    let mut net: Network<Ping> = Network::new(NetworkConfig::lossless(1));
    let t0 = Instant::now();
    let mut delivered = 0u64;
    for i in 0..iters {
        net.send(N0, N1, MsgClass::Dsm, Ping(i));
        while net.in_flight() > 0 {
            delivered += net.tick().len() as u64;
        }
    }
    black_box(delivered);
    m.insert("net.send_deliver_ns", per_call(t0.elapsed(), iters));

    // Ping-pong over the channel transport between two threads.
    let rtts = (iters / 10).max(1);
    let t = Arc::new(ChannelTransport::<Ping>::new(2));
    let echo = {
        let t = Arc::clone(&t);
        std::thread::spawn(move || loop {
            let v = recv_spinning(&t, N1);
            if v == STOP {
                return;
            }
            t.send_env(envelope(&t, N1, N0, v));
        })
    };
    let t0 = Instant::now();
    for i in 0..rtts {
        t.send_env(envelope(&t, N0, N1, i));
        black_box(recv_spinning(&t, N0));
    }
    let total = t0.elapsed();
    t.send_env(envelope(&t, N0, N1, STOP));
    if echo.join().is_ok() {
        m.insert("net.transport_rtt_ns", per_call(total, rtts));
    }
}

fn alloc_and_barrier(m: &mut Metrics, iters: u64) -> Result<()> {
    let (mut c, bunch, objs) = sim_with_counters(2)?;
    // Allocation slows as the bunch grows segments, so fewer iterations.
    let n = (iters / 20).max(1);
    let t0 = Instant::now();
    for _ in 0..n {
        black_box(c.alloc(N0, bunch, &ObjSpec::data(2))?);
    }
    m.insert("mutator.alloc_ns", per_call(t0.elapsed(), n));

    // A store within the bunch: the barrier's fast path.
    let t0 = Instant::now();
    for i in 0..iters {
        c.write_ref(N0, objs[0], 0, objs[(i % 2) as usize])?;
    }
    m.insert("gc.barrier_intra_ns", per_call(t0.elapsed(), iters));

    // A store into another bunch, each from a fresh source object, so
    // every store creates a stub-scion pair. The cost grows with the stub
    // table, so the count is small.
    let n = (iters / 500).max(1) as usize;
    let other = c.create_bunch(N0)?;
    let target = c.alloc(N0, other, &ObjSpec::data(2))?;
    let mut sources = Vec::with_capacity(n);
    for _ in 0..n {
        sources.push(c.alloc(N0, bunch, &ObjSpec::with_refs(1, &[0]))?);
    }
    let t0 = Instant::now();
    for &s in &sources {
        c.write_ref(N0, s, 0, target)?;
    }
    m.insert("gc.barrier_inter_ns", per_call(t0.elapsed(), n as u64));
    Ok(())
}

fn rvm_commit(m: &mut Metrics, iters: u64, out_dir: &Path) -> Result<()> {
    const KIB: usize = 4;
    let dir = out_dir.join(format!("rvm-budget-{}", std::process::id()));
    let measured = (|| {
        let mut rvm = Rvm::open(&dir, RvmOptions::default())?;
        let region = RegionId(1);
        rvm.map(region, KIB * 1024)?;
        let mut page = vec![0u8; KIB * 1024];
        let n = (iters / 500).max(1);
        let t0 = Instant::now();
        for i in 0..n {
            page[0] = i as u8;
            let tid = rvm.begin()?;
            rvm.set_range(tid, region, 0, &page)?;
            rvm.commit(tid)?;
        }
        let us = t0.elapsed().as_secs_f64() * 1e6;
        m.insert("rvm.commit_us_per_kb", us / (n as f64 * KIB as f64));
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    measured
}

/// Measures every layer-budget metric into `m`. `divisor` shrinks the
/// iteration counts (smoke mode). Returns what went wrong, if anything.
pub fn budget(m: &mut Metrics, divisor: u64, out_dir: &Path) -> Vec<String> {
    let iters = (1_000_000 / divisor.max(1)).max(BATCH as u64);
    let mut problems = Vec::new();
    let mut note = |what: &str, r: Result<()>| {
        if let Err(e) = r {
            problems.push(format!("layer budget, {what}: {e}"));
        }
    };
    note("memory and engine", raw_memory_and_engine(m, iters));
    let sim_incr = sim_mutator(m, iters);
    let sim_incr_ns = *sim_incr.as_ref().unwrap_or(&0.0);
    note("sim mutator", sim_incr.map(|_| ()));
    note("parallel mutator", parallel_mutator(m, iters, sim_incr_ns));
    note("remote acquire", remote_acquire(m, iters / 5));
    network_and_transport(m, iters);
    note("alloc and barrier", alloc_and_barrier(m, iters));
    note("rvm commit", rvm_commit(m, iters, out_dir));
    problems
}
