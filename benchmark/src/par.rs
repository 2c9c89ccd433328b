//! The four workloads on the real-thread runtime (`bmx::ParallelCluster`):
//! 2 nodes and 2 load-generator threads, always. Every loop is closed (the
//! next op starts when the previous one completes) except the collector of
//! `gc_interference_par`, which runs on a fixed schedule and reports how
//! late it ran.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bmx::{ClusterConfig, NodeHandle, ObjSpec, ParallelCluster, Shutdown};
use bmx_common::{Addr, BmxError, BunchId, NodeId, Result, SplitMix64, StatKind};
use bmx_workloads::db;

use crate::counters::{self, Snapshot};
use crate::spec::{
    Sizes, BLOCKING_NS, CHURN_ALLOCS, CONTENDED_OBJECTS, DB_ASSEMBLIES, DB_PARTS, OBJECTS,
    PAR_NODES, WRITE_ONE_IN,
};
use crate::stats::{self, Hist};
use crate::trace::{self, Call, Recorder};
use crate::{Outcome, RunArgs};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Private,
    Contended,
    ReadMostly,
    GcInterference,
}

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
/// Counter objects: field 0 is a reference (so the collector has something
/// to trace), field 1 the counter.
const COUNTER_FIELD: u64 = 1;

/// After this many errors in a row a load generator gives up.
const MAX_CONSECUTIVE_ERRORS: u32 = 8;

/// One load-generator thread's share of the workload.
#[derive(Clone)]
struct MutatorPlan {
    node: NodeId,
    /// Objects this thread reads.
    objs: Vec<Addr>,
    /// Objects this thread increments (all of `objs`, or its share).
    own: Vec<Addr>,
    /// 1 = every op is the write increment; n = one in n is.
    write_one_in: u64,
}

/// Where `gc_interference_par`'s collector works.
#[derive(Clone, Copy)]
struct GcSite {
    bunch: BunchId,
    registry_root: u64,
    module_root: u64,
}

struct Heap {
    pc: ParallelCluster,
    mutators: Vec<MutatorPlan>,
    /// Every counter object as `(node it is rooted and read at, root id)`.
    counters: Vec<(NodeId, u64)>,
    gc: Option<GcSite>,
}

fn counter_spec() -> ObjSpec {
    ObjSpec::with_refs(2, &[0])
}

/// Allocates `n` rooted counters in a fresh bunch at `h`'s node.
fn rooted_counters(h: &NodeHandle, n: usize) -> Result<(BunchId, Vec<Addr>, Vec<u64>)> {
    let bunch = h.create_bunch()?;
    let mut objs = Vec::with_capacity(n);
    let mut roots = Vec::with_capacity(n);
    for _ in 0..n {
        let o = h.alloc(bunch, &counter_spec())?;
        roots.push(h.add_root(o)?);
        objs.push(o);
    }
    Ok((bunch, objs, roots))
}

fn build(workload: Workload) -> Result<Heap> {
    // A wedged acquire should cost a run two seconds, not the default ten.
    let cfg = ClusterConfig::with_nodes(PAR_NODES).with_acquire_timeout(Duration::from_secs(2));
    let pc = ParallelCluster::spawn(cfg);
    let (h0, h1) = (pc.handle(N0), pc.handle(N1));
    let mut heap = Heap {
        pc,
        mutators: Vec::new(),
        counters: Vec::new(),
        gc: None,
    };
    // A node's own bunch of counters and the thread that increments them.
    fn private_at(heap: &mut Heap, h: &NodeHandle) -> Result<()> {
        let (_, objs, roots) = rooted_counters(h, OBJECTS)?;
        heap.counters
            .extend(roots.into_iter().map(|r| (h.node(), r)));
        heap.mutators.push(MutatorPlan {
            node: h.node(),
            own: objs.clone(),
            objs,
            write_one_in: 1,
        });
        Ok(())
    }
    match workload {
        Workload::Private => {
            private_at(&mut heap, &h0)?;
            private_at(&mut heap, &h1)?;
        }
        Workload::Contended | Workload::ReadMostly => {
            let (n, write_one_in) = match workload {
                Workload::Contended => (CONTENDED_OBJECTS, 1),
                _ => (OBJECTS, WRITE_ONE_IN),
            };
            let (bunch, objs, roots) = rooted_counters(&h0, n)?;
            h1.map_bunch(bunch, N0)?;
            for &o in &objs {
                h1.add_root(o)?;
            }
            heap.counters.extend(roots.into_iter().map(|r| (N0, r)));
            for node in [N0, N1] {
                // `readmostly_par`: both nodes read every object, but each
                // object has one writer (even ones node 0, odd ones node 1),
                // so a write invalidates the other node's read copy and
                // ownership stays put. (With both nodes writing every
                // object the runtime loses increments today; see README,
                // baseline observations.)
                let own = match workload {
                    Workload::Contended => objs.clone(),
                    _ => objs
                        .iter()
                        .copied()
                        .skip(node.0 as usize)
                        .step_by(PAR_NODES as usize)
                        .collect(),
                };
                heap.mutators.push(MutatorPlan {
                    node,
                    objs: objs.clone(),
                    own,
                    write_one_in,
                });
            }
        }
        Workload::GcInterference => {
            private_at(&mut heap, &h0)?;
            let bunch = h1.create_bunch()?;
            let graph = h1.with(|c| db::build_db(c, N1, bunch, DB_ASSEMBLIES, DB_PARTS))?;
            let module_root = h1.add_root(graph.module)?;
            let registry = h1.alloc(bunch, &ObjSpec::with_refs(1, &[0]))?;
            let registry_root = h1.add_root(registry)?;
            heap.gc = Some(GcSite {
                bunch,
                registry_root,
                module_root,
            });
        }
    }
    if !heap.pc.quiesce(Duration::from_secs(10)) {
        return Err(BmxError::Protocol("set-up did not quiesce".into()));
    }
    Ok(heap)
}

/// The run's phases as offsets from one shared start: warm-up, an untraced
/// reference window (traced pass only), the measured window.
#[derive(Clone, Copy)]
struct Timeline {
    t0: Instant,
    warm_ns: u64,
    reference_ns: u64,
    main_ns: u64,
    slice_ns: u64,
    cycle_ns: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warm,
    Reference,
    Main,
    Done,
}

impl Timeline {
    fn new(sizes: &Sizes, traced: bool) -> Timeline {
        let slice_ns = (sizes.slice_s * 1e9) as u64;
        let reference = if traced { sizes.reference_slices } else { 0 };
        Timeline {
            // Leaves the threads time to start before the clock does.
            t0: Instant::now() + Duration::from_millis(20),
            warm_ns: (sizes.warm_s * 1e9) as u64,
            reference_ns: slice_ns * reference as u64,
            main_ns: slice_ns * sizes.slices as u64,
            slice_ns,
            cycle_ns: sizes.cycle_ms * 1_000_000,
        }
    }

    fn main_start_ns(&self) -> u64 {
        self.warm_ns + self.reference_ns
    }

    fn end_ns(&self) -> u64 {
        self.main_start_ns() + self.main_ns
    }

    /// The phase `t` falls in and its offset into that phase.
    fn locate(&self, t: Instant) -> (Phase, u64) {
        let off = t.saturating_duration_since(self.t0).as_nanos() as u64;
        if off < self.warm_ns {
            (Phase::Warm, off)
        } else if off < self.main_start_ns() {
            (Phase::Reference, off - self.warm_ns)
        } else if off < self.end_ns() {
            (Phase::Main, off - self.main_start_ns())
        } else {
            (Phase::Done, 0)
        }
    }

    fn sleep_until(&self, offset_ns: u64) {
        let due = self.t0 + Duration::from_nanos(offset_ns);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
    }

    fn cycles(&self) -> usize {
        (self.main_ns / self.cycle_ns) as usize
    }
}

/// What one load-generator thread measured.
struct MutatorOut {
    attempted: u64,
    failed: u64,
    /// Write increments that reported success, in every phase.
    increments: u64,
    slices: Vec<u64>,
    reference_slices: Vec<u64>,
    /// Acquires of the measured window: blocking ones and the rest.
    blocking: Hist,
    local: Hist,
    /// Longest op in each collector period of the measured window.
    cycle_max_ns: Vec<u64>,
    recorder: Recorder,
}

/// acquire, access, release on `obj`, which started at `start`; returns
/// when the acquire returned. With a recorder there is a span around every
/// call; without one the clock is read only that once.
fn one_op(
    h: &NodeHandle,
    obj: Addr,
    write: bool,
    start: Instant,
    op: u64,
    mut rec: Option<&mut Recorder>,
) -> Result<Instant> {
    if write {
        h.acquire_write(obj)?;
    } else {
        h.acquire_read(obj)?;
    }
    let acquired = Instant::now();
    // Closes the span of the call that just returned; it began when the
    // previous call's span ended.
    let mut last = start;
    let mut span = |call: Call, now: Option<Instant>| {
        if let Some(r) = rec.as_deref_mut() {
            let now = now.unwrap_or_else(Instant::now);
            r.span(call, op, last, now);
            last = now;
        }
    };
    span(Call::Acquire, Some(acquired));
    let body = (|| {
        let v = h.read_data(obj, COUNTER_FIELD)?;
        span(Call::Read, None);
        if write {
            h.write_data(obj, COUNTER_FIELD, v + 1)?;
            span(Call::Write, None);
        } else {
            black_box(v);
        }
        Ok(())
    })();
    // Release even when the access failed, so the object is not left locked.
    let released = h.release(obj);
    span(Call::Release, None);
    body.and(released).map(|()| acquired)
}

fn mutate(
    h: NodeHandle,
    plan: &MutatorPlan,
    tl: Timeline,
    traced: bool,
    seed: u64,
    lose_one_increment: bool,
    tid: u32,
) -> MutatorOut {
    let mut out = MutatorOut {
        attempted: 0,
        failed: 0,
        increments: 0,
        slices: vec![0; (tl.main_ns / tl.slice_ns) as usize],
        reference_slices: vec![0; (tl.reference_ns / tl.slice_ns) as usize],
        blocking: Hist::default(),
        local: Hist::default(),
        cycle_max_ns: vec![0; tl.cycles()],
        recorder: Recorder::new(tid, tl.t0),
    };
    let mut rng = SplitMix64::new(seed);
    if lose_one_increment {
        // The check's own test: an increment that claims success without
        // storing. The conservation check must report it, not panic.
        let obj = plan.own[0];
        out.attempted += 1;
        let lost = h
            .acquire_write(obj)
            .and_then(|()| h.read_data(obj, COUNTER_FIELD))
            .and_then(|_| h.release(obj));
        match lost {
            Ok(()) => out.increments += 1,
            Err(_) => out.failed += 1,
        }
    }
    tl.sleep_until(0);
    let mut errors_in_a_row = 0;
    let mut prev = Instant::now();
    let mut op: u64 = 0;
    loop {
        let (phase, _) = tl.locate(prev);
        if phase == Phase::Done {
            break;
        }
        let write = plan.write_one_in == 1 || rng.next_below(plan.write_one_in) == 0;
        let pool = if write { &plan.own } else { &plan.objs };
        let obj = pool[rng.next_below(pool.len() as u64) as usize];
        op += 1;
        out.attempted += 1;
        let rec = (traced && phase == Phase::Main).then_some(&mut out.recorder);
        let done = one_op(&h, obj, write, prev, op, rec);
        let end = Instant::now();
        match done {
            Ok(acquired) => {
                errors_in_a_row = 0;
                out.increments += u64::from(write);
                match tl.locate(end) {
                    (Phase::Main, off) => {
                        out.slices[(off / tl.slice_ns) as usize] += 1;
                        let acquire_ns = (acquired - prev).as_nanos() as u64;
                        if acquire_ns >= BLOCKING_NS {
                            out.blocking.record(acquire_ns);
                        } else {
                            out.local.record(acquire_ns);
                        }
                        let op_ns = (end - prev).as_nanos() as u64;
                        if let Some(m) = out.cycle_max_ns.get_mut((off / tl.cycle_ns) as usize) {
                            *m = (*m).max(op_ns);
                        }
                        if traced {
                            out.recorder.span(Call::Op, op, prev, end);
                        }
                    }
                    (Phase::Reference, off) => {
                        out.reference_slices[(off / tl.slice_ns) as usize] += 1;
                    }
                    _ => {}
                }
            }
            Err(_) => {
                out.failed += 1;
                errors_in_a_row += 1;
                if errors_in_a_row > MAX_CONSECUTIVE_ERRORS {
                    break;
                }
            }
        }
        prev = end;
    }
    out
}

/// What the collector thread of `gc_interference_par` measured, over the
/// cycles that started inside the measured window.
struct CollectorOut {
    attempted: u64,
    failed: u64,
    allocated: u64,
    reclaimed: u64,
    late_ms: Vec<f64>,
    bgc_ms: Vec<f64>,
    reuse_ms: Vec<f64>,
    recorder: Recorder,
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// One collector cycle: churn the registry, collect, reuse from-space.
/// Returns `(bgc ms, reuse ms, objects reclaimed)`.
fn collector_cycle(
    h: &NodeHandle,
    site: GcSite,
    op: u64,
    rec: Option<&mut Recorder>,
    allocated: &mut u64,
) -> Result<(f64, f64, u64)> {
    let node = h.node();
    // Root ids, not addresses: every collection moves the registry.
    let registry = h
        .with(|c| Ok(c.root(node, site.registry_root)))?
        .ok_or_else(|| BmxError::Protocol("registry root vanished".into()))?;
    for i in 0..CHURN_ALLOCS {
        let obj = h.alloc(site.bunch, &ObjSpec::data(2))?;
        h.write_data(obj, 0, i as u64)?;
        h.write_ref(registry, 0, obj)?;
        *allocated += 1;
    }
    let t0 = Instant::now();
    let collected = h.run_bgc(site.bunch)?;
    let t1 = Instant::now();
    h.with(|c| c.reuse_from_space(node, site.bunch))?;
    let t2 = Instant::now();
    if let Some(rec) = rec {
        rec.span(Call::Bgc, op, t0, t1);
        rec.span(Call::Reuse, op, t1, t2);
    }
    Ok((ms(t0, t1), ms(t1, t2), collected.reclaimed))
}

fn collect_on_schedule(h: NodeHandle, site: GcSite, tl: Timeline, traced: bool) -> CollectorOut {
    let mut out = CollectorOut {
        attempted: 0,
        failed: 0,
        allocated: 0,
        reclaimed: 0,
        late_ms: Vec::new(),
        bgc_ms: Vec::new(),
        reuse_ms: Vec::new(),
        recorder: Recorder::new(PAR_NODES, tl.t0),
    };
    let mut errors_in_a_row = 0;
    for k in 0.. {
        let due_ns = k * tl.cycle_ns;
        if due_ns >= tl.end_ns() {
            break;
        }
        tl.sleep_until(due_ns);
        let start = Instant::now();
        let measured = due_ns >= tl.main_start_ns();
        out.attempted += 1;
        let rec = (traced && measured).then_some(&mut out.recorder);
        match collector_cycle(&h, site, k, rec, &mut out.allocated) {
            Ok((bgc, reuse, reclaimed)) => {
                errors_in_a_row = 0;
                out.reclaimed += reclaimed;
                if measured {
                    out.late_ms
                        .push(ms(tl.t0 + Duration::from_nanos(due_ns), start));
                    out.bgc_ms.push(bgc);
                    out.reuse_ms.push(reuse);
                }
            }
            Err(_) => {
                out.failed += 1;
                errors_in_a_row += 1;
                if errors_in_a_row > MAX_CONSECUTIVE_ERRORS {
                    break;
                }
            }
        }
    }
    out
}

/// Sum of all counters, read under tokens on the drained cluster.
fn counter_sum(cluster: &mut bmx::Cluster, counters: &[(NodeId, u64)]) -> Result<u64> {
    let mut sum = 0;
    for &(node, root) in counters {
        let obj = cluster
            .root(node, root)
            .ok_or_else(|| BmxError::Protocol(format!("counter root {root} vanished")))?;
        cluster.acquire_read(node, obj)?;
        let v = cluster.read_data(node, obj, COUNTER_FIELD);
        cluster.release(node, obj)?;
        sum += v?;
    }
    Ok(sum)
}

/// Walks the collector's database from its root: every part still there.
fn db_parts_reachable(cluster: &bmx::Cluster, site: GcSite) -> Result<usize> {
    let module = cluster
        .root(N1, site.module_root)
        .ok_or_else(|| BmxError::Protocol("module root vanished".into()))?;
    let mut parts = 0;
    for a in 0..DB_ASSEMBLIES as u64 {
        let asm = cluster.read_ref(N1, module, a)?;
        for p in 0..DB_PARTS as u64 {
            let part = cluster.read_ref(N1, asm, p)?;
            let payload = cluster.read_data(N1, part, 1)?;
            parts += usize::from(payload == a * DB_PARTS as u64 + p);
        }
    }
    Ok(parts)
}

/// Sum of per-thread slice counts, slice by slice.
fn summed_slices<'a>(per_thread: impl Iterator<Item = &'a Vec<u64>>) -> Vec<f64> {
    let mut total: Vec<f64> = Vec::new();
    for slices in per_thread {
        total.resize(total.len().max(slices.len()), 0.0);
        for (t, &s) in total.iter_mut().zip(slices) {
            *t += s as f64;
        }
    }
    total
}

/// Sets the workload up `sizes.setups` times, keeps the last heap and
/// records the median set-up time.
fn set_up(workload: Workload, sizes: &Sizes, out: &mut Outcome) -> Option<Heap> {
    let setups = sizes.setups.max(1);
    let mut setup_s = Vec::new();
    let mut heap = None;
    for i in 0..setups {
        let t0 = Instant::now();
        let built = build(workload);
        setup_s.push(t0.elapsed().as_secs_f64());
        match built {
            Ok(h) if i + 1 == setups => heap = Some(h),
            Ok(h) => {
                if let Err(e) = h.pc.shutdown(Shutdown::Drain) {
                    out.fail(format!("set-up {i} did not shut down: {e}"));
                }
            }
            Err(e) => out.fail(format!("set-up {i} failed: {e}")),
        }
    }
    out.metrics.insert("setup_s", stats::median(&mut setup_s));
    heap
}

/// What the threads of one run measured.
struct Measured {
    mutators: Vec<MutatorOut>,
    collector: Option<CollectorOut>,
    /// Traced pass: the program's counters over the measured window.
    window: Option<Snapshot>,
}

/// Runs the load generators (and the collector, if the workload has one)
/// through the timeline.
fn drive(heap: &Heap, tl: Timeline, args: &RunArgs<'_>, out: &mut Outcome) -> Measured {
    let traced = args.traced;
    let h0 = heap.pc.handle(N0);
    let (mutators, collector, window) = std::thread::scope(|s| {
        let threads: Vec<_> = heap
            .mutators
            .iter()
            .enumerate()
            .map(|(i, plan)| {
                let h = heap.pc.handle(plan.node);
                let seed = args.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let lose = args.lose_one_increment && i == 0;
                s.spawn(move || mutate(h, plan, tl, traced, seed, lose, i as u32))
            })
            .collect();
        let collector = heap.gc.map(|site| {
            let h = heap.pc.handle(N1);
            s.spawn(move || collect_on_schedule(h, site, tl, traced))
        });
        // Counter snapshots at the window's edges: two lock acquisitions,
        // and only in the traced pass.
        let window = traced.then(|| {
            tl.sleep_until(tl.main_start_ns());
            let before = h0.with(|c| Ok(Snapshot::take(c)));
            tl.sleep_until(tl.end_ns());
            let after = h0.with(|c| Ok(Snapshot::take(c)));
            before.and_then(|b| after.map(|a| a.since(&b)))
        });
        let mutators: Vec<_> = threads.into_iter().map(|t| t.join()).collect();
        (mutators, collector.map(|c| c.join()), window)
    });
    let mut measured = Measured {
        mutators: Vec::new(),
        collector: None,
        window: None,
    };
    for m in mutators {
        match m {
            Ok(o) => measured.mutators.push(o),
            Err(_) => out.fail("a load-generator thread panicked".into()),
        }
    }
    match collector {
        Some(Ok(c)) => measured.collector = Some(c),
        Some(Err(_)) => out.fail("the collector thread panicked".into()),
        None => {}
    }
    match window {
        Some(Ok(delta)) => measured.window = Some(delta),
        Some(Err(e)) => out.fail(format!("counter snapshot failed: {e}")),
        None => {}
    }
    measured
}

/// Drains the runtime and checks what the program computed.
fn drain_and_check(heap: Heap, m: &Measured, out: &mut Outcome) {
    if !heap.pc.quiesce(Duration::from_secs(10)) {
        out.fail("did not quiesce after the window".into());
    }
    let issued: u64 = m.mutators.iter().map(|o| o.increments).sum();
    let Heap {
        pc, counters, gc, ..
    } = heap;
    let (mut cluster, report) = match pc.shutdown(Shutdown::Drain) {
        Ok(drained) => drained,
        Err(e) => {
            out.fail(format!("shutdown failed: {e}"));
            return;
        }
    };
    if report.dropped != 0 {
        out.fail(format!("drain dropped {} envelopes", report.dropped));
    }
    if let Err(e) = cluster.settle(50_000) {
        out.fail(format!("settle failed: {e}"));
    }
    match counter_sum(&mut cluster, &counters) {
        Ok(sum) if sum == issued => {}
        Ok(sum) => {
            // Lost (or phantom) increments are failed operations.
            let lost = issued.abs_diff(sum);
            out.failed += lost;
            out.metrics.insert("parallel.lost_updates", lost as f64);
            out.notes
                .push(format!("counters sum to {sum}, {issued} increments issued"));
        }
        Err(e) => out.fail(format!("reading the counters back failed: {e}")),
    }
    let gc_tokens = cluster.total_stat(StatKind::GcTokenAcquires);
    if gc_tokens != 0 {
        out.fail(format!("the collector acquired {gc_tokens} tokens"));
    }
    if let Some(site) = gc {
        match db_parts_reachable(&cluster, site) {
            Ok(n) if n == DB_ASSEMBLIES * DB_PARTS => {}
            Ok(n) => out.fail(format!("only {n} database parts survived collection")),
            Err(e) => out.fail(format!("walking the database failed: {e}")),
        }
    }
    if let Some(c) = &m.collector {
        // All but the last cycle's garbage must have been reclaimed.
        let detached = c.allocated.saturating_sub(1);
        if c.reclaimed + (CHURN_ALLOCS as u64) < detached {
            out.fail(format!(
                "reclaimed {} of {detached} detached objects",
                c.reclaimed
            ));
        }
    }
}

/// Turns what the threads measured into metrics.
fn report(m: Measured, tl: Timeline, args: &RunArgs<'_>, out: &mut Outcome) {
    let slice_s = args.sizes.slice_s;
    let outs = m.mutators;
    out.attempted += outs.iter().map(|o| o.attempted).sum::<u64>();
    out.failed += outs.iter().map(|o| o.failed).sum::<u64>();
    if let Some(c) = &m.collector {
        out.attempted += c.attempted;
        out.failed += c.failed;
    }

    let mut slices = summed_slices(outs.iter().map(|o| &o.slices));
    let ops: f64 = slices.iter().sum();
    out.notes
        .push(format!("ops per {slice_s} s slice: {slices:?}"));
    let ops_per_s = stats::median(&mut slices) / slice_s;
    out.metrics.insert("ops_per_s", ops_per_s);
    if let Some(c) = &m.collector {
        let pause_ms = stats::median(&mut c.bgc_ms.clone());
        out.metrics.insert("bgc_pause_ms", pause_ms);
        out.notes.push(format!(
            "bgc_pause_ms {pause_ms:.3} over {} collections",
            c.bgc_ms.len()
        ));
    }

    let mut blocking = Hist::default();
    let mut local = Hist::default();
    for o in &outs {
        blocking.merge(&o.blocking);
        local.merge(&o.local);
    }
    let acquire_p50_us = blocking.quantile(0.5) / 1e3;
    out.metrics.insert("acquire_p50_us", acquire_p50_us);
    out.notes.push(format!(
        "acquire_p50_us {acquire_p50_us:.3} over {} blocking acquires",
        blocking.count()
    ));
    // Longest op per collector period, over all load generators.
    let mut stalls_us: Vec<f64> = (0..tl.cycles())
        .map(|k| {
            let ns = outs.iter().map(|o| o.cycle_max_ns[k]).max().unwrap_or(0);
            ns as f64 / 1e3
        })
        .collect();
    let stall_per_gc_us = stats::median(&mut stalls_us);
    out.metrics.insert("stall_per_gc_us", stall_per_gc_us);
    out.notes.push(format!(
        "stall_per_gc_us {stall_per_gc_us:.1} over {} periods",
        stalls_us.len()
    ));
    if !args.traced {
        return;
    }

    let mut reference = summed_slices(outs.iter().map(|o| &o.reference_slices));
    let reference_ops_per_s = stats::median(&mut reference) / slice_s;
    if reference_ops_per_s > 0.0 {
        out.metrics.insert(
            "trace.overhead_share",
            1.0 - ops_per_s / reference_ops_per_s,
        );
    }
    let acquires = blocking.count() + local.count();
    if acquires > 0 {
        out.metrics.insert(
            "parallel.block_share",
            blocking.count() as f64 / acquires as f64,
        );
    }
    out.metrics
        .insert("parallel.acquire_local_p50_ns", local.quantile(0.5));
    out.metrics.insert(
        "parallel.acquire_block_p99_us",
        blocking.quantile(0.99) / 1e3,
    );
    out.metrics.insert(
        "parallel.stall_p90_us",
        stats::quantile(&mut stalls_us, 0.9),
    );
    let mut recorders: Vec<Recorder> = outs.into_iter().map(|o| o.recorder).collect();
    out.metrics.insert(
        "parallel.release_p50_ns",
        trace::merged(&recorders, Call::Release).quantile(0.5),
    );
    if let Some(delta) = &m.window {
        counters::layer_metrics(&mut out.metrics, delta, ops as u64);
    }
    if let Some(mut c) = m.collector {
        out.metrics
            .insert("gc.schedule_late_ms", stats::median(&mut c.late_ms));
        out.metrics
            .insert("gc.reuse_p50_ms", stats::median(&mut c.reuse_ms));
        recorders.push(c.recorder);
    }
    out.recorders = recorders;
}

pub fn run(workload: Workload, args: &RunArgs<'_>) -> Outcome {
    let mut out = Outcome::default();
    let Some(heap) = set_up(workload, args.sizes, &mut out) else {
        out.fail("no heap to measure".into());
        return out;
    };
    let tl = Timeline::new(args.sizes, args.traced);
    let measured = drive(&heap, tl, args, &mut out);
    // Memory the workload needed; the checks below are not part of it.
    out.metrics.insert("peak_rss_mb", crate::peak_rss_mb());
    drain_and_check(heap, &measured, &mut out);
    report(measured, tl, args, &mut out);
    out
}
