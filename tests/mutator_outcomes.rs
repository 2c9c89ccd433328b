//! The outcome table of the mutator accessors: `read_data` / `write_data` /
//! `read_ref` / `write_ref` against every kind of address a mutator can
//! hold — live, forwarded, interior, unmapped, released — and every way the
//! access can be refused, with the exact `Result` each returns. The error
//! precedence is part of the contract: `AccessDenied` before
//! `Unmapped`/`NotAnObject`, then `FieldOutOfBounds`, then
//! `RefMapMismatch`; error payloads name the *resolved* address.

use bmx_repro::prelude::*;

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
/// The value every scenario stores in data field 1 before the access.
const VALUE: u64 = 41;

/// One address in one situation, ready to be accessed.
struct Sit {
    c: Cluster,
    /// The accessing node.
    node: NodeId,
    /// The address the mutator holds.
    held: Addr,
    /// Where that object lives at `node` now (what error payloads name).
    cur: Addr,
    /// What pointer field 0 holds, and what `write_ref` stores again.
    target: Addr,
    bunch: BunchId,
}

const READ_ONLY: Protection = Protection {
    read: true,
    write: false,
    execute: false,
};
const WRITE_ONLY: Protection = Protection {
    read: false,
    write: true,
    execute: false,
};

/// An object `[ref, data, data]` at node 0 pointing at a second object of
/// the same bunch, both rooted; `nodes` nodes, bunch protection `prot`
/// (the stores that set the scene need a writable bunch, so a
/// write-protected one keeps zeroes and a null pointer).
fn scene(nodes: u32, prot: Protection) -> Sit {
    let mut c = Cluster::new(ClusterConfig::with_nodes(nodes));
    let bunch = c.create_bunch_with(N0, prot).unwrap();
    let target = c.alloc(N0, bunch, &ObjSpec::data(1)).unwrap();
    let held = c.alloc(N0, bunch, &ObjSpec::with_refs(3, &[0])).unwrap();
    c.add_root(N0, held);
    c.add_root(N0, target);
    if prot.write {
        c.write_data(N0, held, 1, VALUE).unwrap();
        c.write_ref(N0, held, 0, target).unwrap();
    }
    Sit {
        c,
        node: N0,
        held,
        cur: held,
        target: if prot.write { target } else { Addr::NULL },
        bunch,
    }
}

fn live() -> Sit {
    scene(1, Protection::default())
}

/// `held` is a from-space address `hops` collections old.
fn forwarded(hops: u32) -> Sit {
    let mut s = live();
    for _ in 0..hops {
        s.c.run_bgc(N0, s.bunch).unwrap();
    }
    let dir = &s.c.gc.node(N0).directory;
    assert_eq!(dir.resolve_hops(s.held).1, hops);
    s.cur = dir.resolve(s.held);
    s.target = dir.resolve(s.target);
    assert_ne!(s.cur, s.held);
    s
}

fn interior(prot: Protection) -> Sit {
    let mut s = scene(1, prot);
    s.held = s.held.add_words(1);
    s.cur = s.held;
    s
}

/// An address no segment ever covered.
fn unmapped() -> Sit {
    let mut s = live();
    s.held = Addr(0x7000_0000);
    s.cur = s.held;
    s
}

/// A live object of a bunch the accessing node never mapped.
fn not_mapped_here(prot: Protection) -> Sit {
    let mut s = scene(2, prot);
    s.node = N1;
    s
}

/// `held` lies in a range from-space reuse released everywhere; node 0
/// keeps its replica (in to-space), node 1 never had one.
fn released(node: NodeId, prot: Protection) -> Sit {
    let mut s = scene(2, prot);
    s.c.run_bgc(N0, s.bunch).unwrap();
    let dir = &s.c.gc.node(N0).directory;
    s.cur = dir.resolve(s.held);
    s.target = dir.resolve(s.target);
    assert!(s.c.reuse_from_space(N0, s.bunch).unwrap());
    assert!(!s.c.mems[0].is_mapped(s.held), "the range is gone");
    assert!(!s.c.gc.node(N0).directory.is_forwarded_from(s.held));
    assert_eq!(s.c.server.borrow().segment_of(s.held), None);
    s.node = node;
    s
}

type Outcomes = (Result<u64>, Result<()>, Result<Addr>, Result<()>);

/// The four accessors on `held`: the data pair on `data_field`, the
/// pointer pair on `ref_field`.
fn access(s: &mut Sit, data_field: u64, ref_field: u64) -> Outcomes {
    (
        s.c.read_data(s.node, s.held, data_field),
        s.c.write_data(s.node, s.held, data_field, VALUE),
        s.c.read_ref(s.node, s.held, ref_field),
        s.c.write_ref(s.node, s.held, ref_field, s.target),
    )
}

fn all(e: BmxError) -> Outcomes {
    (Err(e.clone()), Err(e.clone()), Err(e.clone()), Err(e))
}

#[test]
fn every_address_kind_answers_exactly() {
    // (what, scene, data field, pointer field, expected outcomes)
    type Row = (&'static str, Sit, u64, u64, fn(&Sit) -> Outcomes);
    let ok: fn(&Sit) -> Outcomes = |s| (Ok(VALUE), Ok(()), Ok(s.target), Ok(()));
    let rows: Vec<Row> = vec![
        ("live", live(), 1, 0, ok),
        ("forwarded by 1 hop", forwarded(1), 1, 0, ok),
        ("forwarded by 3 hops", forwarded(3), 1, 0, ok),
        ("interior", interior(Protection::default()), 1, 0, |s| {
            all(BmxError::NotAnObject { addr: s.cur })
        }),
        ("unmapped", unmapped(), 1, 0, |s| {
            all(BmxError::Unmapped {
                node: s.node,
                addr: s.cur,
            })
        }),
        (
            "mapped elsewhere only",
            not_mapped_here(Protection::default()),
            1,
            0,
            |s| {
                all(BmxError::Unmapped {
                    node: s.node,
                    addr: s.cur,
                })
            },
        ),
        (
            "released, replica here",
            released(N0, Protection::default()),
            1,
            0,
            ok,
        ),
        (
            "released, no replica here",
            released(N1, Protection::default()),
            1,
            0,
            |s| {
                all(BmxError::Unmapped {
                    node: s.node,
                    addr: s.cur,
                })
            },
        ),
        ("read-denied", scene(1, WRITE_ONLY), 1, 0, |s| {
            let denied = BmxError::AccessDenied {
                bunch: s.bunch,
                write: false,
            };
            (Err(denied.clone()), Ok(()), Err(denied), Ok(()))
        }),
        ("write-denied", scene(1, READ_ONLY), 1, 0, |s| {
            let denied = BmxError::AccessDenied {
                bunch: s.bunch,
                write: true,
            };
            (Ok(0), Err(denied.clone()), Ok(Addr::NULL), Err(denied))
        }),
        ("field out of bounds", live(), 3, 3, |s| {
            all(BmxError::FieldOutOfBounds {
                addr: s.cur,
                field: 3,
                size: 3,
            })
        }),
        ("field out of bounds, forwarded", forwarded(1), 4, 5, |s| {
            let oob = |field| BmxError::FieldOutOfBounds {
                addr: s.cur,
                field,
                size: 3,
            };
            (Err(oob(4)), Err(oob(4)), Err(oob(5)), Err(oob(5)))
        }),
        // A load of a pointer slot as data is allowed (the collector and
        // the audit read raw words); the other three enforce the map.
        ("ref-map mismatch", live(), 0, 1, |s| {
            let mismatch = |field| BmxError::RefMapMismatch { addr: s.cur, field };
            (
                Ok(s.target.0),
                Err(mismatch(0)),
                Err(mismatch(1)),
                Err(mismatch(1)),
            )
        }),
        (
            "ref-map mismatch, released range",
            released(N0, Protection::default()),
            0,
            2,
            |s| {
                let mismatch = |field| BmxError::RefMapMismatch { addr: s.cur, field };
                (
                    Ok(s.target.0),
                    Err(mismatch(0)),
                    Err(mismatch(2)),
                    Err(mismatch(2)),
                )
            },
        ),
        // Precedence: protection is judged before the address is.
        ("write-denied + interior", interior(READ_ONLY), 1, 0, |s| {
            let denied = BmxError::AccessDenied {
                bunch: s.bunch,
                write: true,
            };
            let not_obj = BmxError::NotAnObject { addr: s.cur };
            (
                Err(not_obj.clone()),
                Err(denied.clone()),
                Err(not_obj),
                Err(denied),
            )
        }),
        (
            "write-denied + mapped elsewhere only",
            not_mapped_here(READ_ONLY),
            1,
            0,
            |s| {
                let denied = BmxError::AccessDenied {
                    bunch: s.bunch,
                    write: true,
                };
                let unmapped = BmxError::Unmapped {
                    node: s.node,
                    addr: s.cur,
                };
                (
                    Err(unmapped.clone()),
                    Err(denied.clone()),
                    Err(unmapped),
                    Err(denied),
                )
            },
        ),
        (
            "write-denied + released, no replica here",
            released(N1, READ_ONLY),
            1,
            0,
            |s| {
                let denied = BmxError::AccessDenied {
                    bunch: s.bunch,
                    write: true,
                };
                let unmapped = BmxError::Unmapped {
                    node: s.node,
                    addr: s.cur,
                };
                (
                    Err(unmapped.clone()),
                    Err(denied.clone()),
                    Err(unmapped),
                    Err(denied),
                )
            },
        ),
        (
            "write-denied + out of bounds",
            scene(1, READ_ONLY),
            3,
            3,
            |s| {
                let denied = BmxError::AccessDenied {
                    bunch: s.bunch,
                    write: true,
                };
                let oob = BmxError::FieldOutOfBounds {
                    addr: s.cur,
                    field: 3,
                    size: 3,
                };
                (Err(oob.clone()), Err(denied.clone()), Err(oob), Err(denied))
            },
        ),
        // ...and bounds before the reference map.
        ("write-denied + mismatch", scene(1, READ_ONLY), 0, 1, |s| {
            let denied = BmxError::AccessDenied {
                bunch: s.bunch,
                write: true,
            };
            (
                Ok(0),
                Err(denied.clone()),
                Err(BmxError::RefMapMismatch {
                    addr: s.cur,
                    field: 1,
                }),
                Err(denied),
            )
        }),
    ];
    for (what, mut s, data_field, ref_field, expect) in rows {
        let want = expect(&s);
        let got = access(&mut s, data_field, ref_field);
        assert_eq!(got, want, "{what}");
    }
}

/// A store through a stale address lands on the current copy, and a load
/// through it sees a store made through the current address.
#[test]
fn stale_and_current_addresses_name_the_same_words() {
    for mut s in [
        forwarded(1),
        forwarded(3),
        released(N0, Protection::default()),
    ] {
        s.c.write_data(N0, s.held, 2, 7).unwrap();
        assert_eq!(s.c.read_data(N0, s.cur, 2), Ok(7));
        s.c.write_data(N0, s.cur, 2, 8).unwrap();
        assert_eq!(s.c.read_data(N0, s.held, 2), Ok(8));
        s.c.write_ref(N0, s.held, 0, Addr::NULL).unwrap();
        assert_eq!(s.c.read_ref(N0, s.cur, 0), Ok(Addr::NULL));
        s.c.write_ref(N0, s.cur, 0, s.target).unwrap();
        assert_eq!(s.c.read_ref(N0, s.held, 0), Ok(s.target));
        assert_eq!(s.c.oid_at_local(N0, s.held), s.c.oid_at_local(N0, s.cur));
    }
}
