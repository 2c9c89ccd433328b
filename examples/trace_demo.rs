//! Trace demo: capture a causal event trace of a two-node migration plus
//! collection, check the temporal invariants on it, and export it.
//!
//! Writes `trace.json` (Chrome `trace_event` format — open it in
//! `chrome://tracing` or drop it on <https://ui.perfetto.dev>; one process
//! per node, one thread per subsystem) and prints the merged
//! happens-before timeline.
//!
//! Run with: `cargo run --example trace_demo`

use bmx_repro::prelude::*;
use bmx_repro::trace;

fn main() {
    // Unbounded capture: this run is short. Long-lived runs use
    // `trace::install(n)` — a bounded flight recorder.
    trace::install(trace::UNBOUNDED);

    let mut c = Cluster::new(ClusterConfig::with_nodes(2));
    let (n0, n1) = (NodeId(0), NodeId(1));

    // A shared bunch at n0 with a few rooted objects, replicated at n1.
    let shared = c.create_bunch(n0).expect("bunch");
    let objs: Vec<Addr> = (0..3)
        .map(|_| {
            let o = c
                .alloc(n0, shared, &ObjSpec::with_refs(2, &[0]))
                .expect("alloc");
            c.add_root(n0, o);
            o
        })
        .collect();
    c.map_bunch(n1, shared, n0).expect("map");

    // Migrate ownership to n1 (token traffic, intra-bunch SSPs), collect
    // at the root holder (relocations), then read back from both sides
    // (lazy address update on re-acquire).
    for (i, &o) in objs.iter().enumerate() {
        c.acquire_write(n1, o).expect("acquire");
        c.write_data(n1, o, 1, 10 + i as u64).expect("write");
        c.release(n1, o).expect("release");
    }
    c.run_bgc(n0, shared).expect("bgc");
    for &o in &objs {
        for &site in &[n1, n0] {
            c.acquire_read(site, o).expect("re-acquire");
            c.release(site, o).expect("release");
        }
    }

    let records = trace::take();
    trace::disable();

    println!("merged happens-before timeline ({} events):", records.len());
    print!("{}", trace::query::human_timeline(&records));

    // The trace-backed invariants the queries encode (all must be clean).
    let scion = trace::query::scion_retirement_violations(&records);
    let addr = trace::query::address_update_violations(&records);
    let acq = trace::query::acquire_invariant_violations(&records);
    println!(
        "\ninvariants: scion-retirement {} | address-update {} | acquire {}",
        if scion.is_empty() { "ok" } else { "VIOLATED" },
        if addr.is_empty() { "ok" } else { "VIOLATED" },
        if acq.is_empty() { "ok" } else { "VIOLATED" },
    );
    assert!(scion.is_empty() && addr.is_empty() && acq.is_empty());

    let json = trace::chrome::export(&records);
    trace::chrome::validate(&json).expect("well-formed Chrome trace");
    std::fs::write("trace.json", &json).expect("write trace.json");
    println!("wrote trace.json — load it in chrome://tracing or ui.perfetto.dev");
}
