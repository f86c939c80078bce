//! Property-based differential tests: arbitrary operation sequences —
//! including native range scans and atomic read-modify-writes — applied to
//! every structure and to a `BTreeMap` model must agree on every return
//! value, every scan result, and the final contents.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use mapapi::ConcurrentMap;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    Rmw(u64, u64),
    Scan(u64, usize),
}

/// Ops on the keys `stride·k`, `k` in `1..=key_range`.  With a stride of 61
/// the 48 keys span 23 of `ShardedMap`'s 128-key blocks instead of one, so a
/// sharded map's point ops reach several shards and its scans merge across
/// them.
fn op_strategy(key_range: u64, stride: u64) -> impl Strategy<Value = Op> {
    let key = move || (1..=key_range).prop_map(move |k| k * stride);
    prop_oneof![
        (key(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v & 0xFFFF_FFFF)),
        key().prop_map(Op::Remove),
        key().prop_map(Op::Get),
        (key(), 1..=0xFFFFu64).prop_map(|(k, d)| Op::Rmw(k, d)),
        (key(), 0..24usize).prop_map(|(k, n)| Op::Scan(k, n)),
    ]
}

fn run_differential<M: ConcurrentMap>(map: &M, ops: &[Op]) {
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(k, v) => {
                let expected = if let std::collections::btree_map::Entry::Vacant(e) = model.entry(k) {
                    e.insert(v);
                    true
                } else {
                    false
                };
                assert_eq!(map.insert(k, v), expected, "{}: insert({k}) at step {i}", map.name());
            }
            Op::Remove(k) => {
                assert_eq!(map.remove(k), model.remove(&k).is_some(), "{}: remove({k}) at step {i}", map.name());
            }
            Op::Get(k) => {
                assert_eq!(map.get(k), model.get(&k).copied(), "{}: get({k}) at step {i}", map.name());
            }
            Op::Rmw(k, d) => {
                let expected_prev = model.get(&k).copied();
                model.insert(k, expected_prev.unwrap_or(0).wrapping_add(d) & 0xFFFF_FFFF);
                assert_eq!(
                    map.rmw(k, &mut |v| v.unwrap_or(0).wrapping_add(d) & 0xFFFF_FFFF),
                    expected_prev.is_some(),
                    "{}: rmw({k}) at step {i}",
                    map.name()
                );
                assert_eq!(map.get(k), model.get(&k).copied(), "{}: rmw({k}) result at step {i}", map.name());
            }
            Op::Scan(start, len) => {
                let expected: Vec<(u64, u64)> =
                    model.range(start..).take(len).map(|(&k, &v)| (k, v)).collect();
                assert_eq!(
                    map.scan(start, len),
                    expected,
                    "{}: scan({start}, {len}) at step {i}",
                    map.name()
                );
            }
        }
    }
    let stats = map.stats();
    assert_eq!(stats.key_count, model.len() as u64, "{}: final size", map.name());
    assert_eq!(stats.key_sum, model.keys().map(|&k| k as u128).sum::<u128>(), "{}: final key sum", map.name());
}

/// [`run_differential`] on a sharded map, then the check that the case
/// reached at least two shards.  A case whose point ops name 24 or more
/// distinct spread keys must: no shard of the maps below owns more than 17
/// of the 48.  A case of a few ops may land on one shard by chance, so
/// smaller cases are held to the model only.
fn run_sharded_differential(map: &shard::ShardedMap, ops: &[Op]) {
    run_differential(map, ops);
    let keys: BTreeSet<u64> = ops
        .iter()
        .filter_map(|op| match *op {
            Op::Insert(k, _) | Op::Remove(k) | Op::Get(k) | Op::Rmw(k, _) => Some(k),
            Op::Scan(..) => None,
        })
        .collect();
    if keys.len() >= 24 {
        let reached = map.shard_loads().iter().filter(|l| l.point_ops > 0).count();
        assert!(reached >= 2, "{}: {} point-op keys reached one shard", map.name(), keys.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pathcas_bst_matches_model(ops in proptest::collection::vec(op_strategy(48, 1), 1..400)) {
        run_differential(&pathcas_ds::PathCasBst::new(), &ops);
    }

    #[test]
    fn pathcas_avl_matches_model(ops in proptest::collection::vec(op_strategy(48, 1), 1..400)) {
        let tree = pathcas_ds::PathCasAvl::new();
        run_differential(&tree, &ops);
        tree.check_invariants();
    }

    #[test]
    fn pathcas_list_matches_model(ops in proptest::collection::vec(op_strategy(32, 1), 1..300)) {
        let list = pathcas_ds::PathCasList::new();
        run_differential(&list, &ops);
        list.check_invariants();
    }

    #[test]
    fn pathcas_hashmap_matches_model(ops in proptest::collection::vec(op_strategy(48, 61), 1..400)) {
        // The hash table of lists, `shardN(list-pathcas)`, over handles the
        // test keeps so that every list's invariants can be checked after.
        let lists: Vec<Arc<pathcas_ds::PathCasList>> =
            (0..4).map(|_| Arc::new(pathcas_ds::PathCasList::new())).collect();
        let map = shard::ShardedMap::new(
            lists.iter().map(|l| Box::new(Arc::clone(l)) as Box<dyn ConcurrentMap>).collect(),
        );
        run_sharded_differential(&map, &ops);
        for list in &lists {
            list.check_invariants();
        }
    }

    #[test]
    fn ticket_bst_matches_model(ops in proptest::collection::vec(op_strategy(48, 1), 1..400)) {
        let tree = baselines::TicketBst::new();
        run_differential(&tree, &ops);
        tree.check_invariants();
    }

    #[test]
    fn mcms_bst_matches_model(ops in proptest::collection::vec(op_strategy(48, 1), 1..300)) {
        run_differential(&mcms::McmsBst::new(), &ops);
    }

    #[test]
    fn stm_avl_matches_model(ops in proptest::collection::vec(op_strategy(48, 1), 1..300)) {
        run_differential(&stm::TxAvl::new(stm::Norec::new()), &ops);
    }

    #[test]
    fn sharded_avl_matches_model(ops in proptest::collection::vec(op_strategy(48, 61), 1..400)) {
        // Keys over 23 blocks and 8 shards: scans constantly merge across
        // shard boundaries, the case the k-way merge must get exactly right.
        let map = shard::ShardedMap::from_fn(8, |_| {
            Box::new(pathcas_ds::PathCasAvl::new()) as Box<dyn ConcurrentMap>
        });
        run_sharded_differential(&map, &ops);
    }

    #[test]
    fn sharded_mixed_matches_model(ops in proptest::collection::vec(op_strategy(48, 61), 1..300)) {
        // Heterogeneous shards: the composition only uses the trait, so a
        // mixed set must be indistinguishable from a homogeneous one.
        let map = shard::ShardedMap::new(vec![
            Box::new(pathcas_ds::PathCasAvl::new()),
            Box::new(pathcas_ds::PathCasBst::new()),
            Box::new(mapapi::reference::LockedBTreeMap::new()),
        ]);
        run_sharded_differential(&map, &ops);
    }
}
