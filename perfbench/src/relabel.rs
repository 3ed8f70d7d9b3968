//! Isomorphic copies of a loop: the same dependence graph and memory
//! references under other operation ids and names, optionally relocated to
//! other array base addresses.

use multivliw::ir::{ArrayRef, DepEdge, DimId, Loop, OpId, OpKind};
use multivliw::workloads::rng::SplitMix64;

/// A random insertion order of `n` operations drawn from `rng`.
pub fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_index(i + 1));
    }
    order
}

/// Rebuilds `l` under `name`, inserting its operations in `order`
/// (`order[k]` is the original index of the `k`-th inserted operation) with
/// fresh operation names, and moving every array `base_shift` bytes up.
///
/// With `base_shift == 0` the copy is a relabelled isomorph: it has the same
/// canonical form as `l`, so the schedule cache serves it from `l`'s entry.
/// A shift that is a multiple of every cache's size keeps each address's
/// cache set, so the copy costs the same to schedule and simulate while
/// its cache key differs.
pub fn relabel(l: &Loop, name: String, order: &[usize], base_shift: u64) -> Loop {
    assert_eq!(order.len(), l.num_ops(), "an order covers every operation");
    let mut b = Loop::builder(name);
    for (i, d) in l.nest().dims().iter().enumerate() {
        b.dimension(format!("d{i}"), d.trip_count);
    }
    for a in l.arrays() {
        b.array(
            format!("a{}", a.id.index()),
            a.base_address + base_shift,
            a.size_bytes,
        );
    }
    let mut new_id = vec![OpId::from_index(0); l.num_ops()];
    for (k, &orig) in order.iter().enumerate() {
        let op = OpId::from_index(orig);
        let name = format!("o{k}");
        new_id[orig] = match l.memory_ref_of(op) {
            Some(r) => {
                let mut nr = ArrayRef::builder(r.array)
                    .offset(r.offset)
                    .element_bytes(r.element_bytes);
                for (j, &s) in r.strides.iter().enumerate() {
                    nr = nr.stride(DimId::from_index(j), s);
                }
                if l.op(op).is_load() {
                    b.load(name, nr.build())
                } else {
                    b.store(name, nr.build())
                }
            }
            None => match l.op(op).kind {
                OpKind::IntOp => b.int_op(name),
                _ => b.fp_op(name),
            },
        };
    }
    for e in l.edges() {
        b.edge(DepEdge {
            src: new_id[e.src.index()],
            dst: new_id[e.dst.index()],
            ..*e
        });
    }
    b.build()
        .expect("a relabelled copy of a valid loop is valid")
}
