//! Property-based differential tests: arbitrary operation sequences —
//! including native range scans and atomic read-modify-writes — applied to
//! every structure and to a `BTreeMap` model must agree on every return
//! value, every scan result, and the final contents.

use std::collections::BTreeMap;

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

fn op_strategy(key_range: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (1..=key_range, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v & 0xFFFF_FFFF)),
        (1..=key_range).prop_map(Op::Remove),
        (1..=key_range).prop_map(Op::Get),
        (1..=key_range, 1..=0xFFFFu64).prop_map(|(k, d)| Op::Rmw(k, d)),
        (1..=key_range, 0..24usize).prop_map(|(k, n)| Op::Scan(k, n)),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pathcas_bst_matches_model(ops in proptest::collection::vec(op_strategy(48), 1..400)) {
        run_differential(&pathcas_ds::PathCasBst::new(), &ops);
    }

    #[test]
    fn pathcas_avl_matches_model(ops in proptest::collection::vec(op_strategy(48), 1..400)) {
        let tree = pathcas_ds::PathCasAvl::new();
        run_differential(&tree, &ops);
        tree.check_invariants();
    }

    #[test]
    fn pathcas_list_matches_model(ops in proptest::collection::vec(op_strategy(32), 1..300)) {
        let list = pathcas_ds::PathCasList::new();
        run_differential(&list, &ops);
        list.check_invariants();
    }

    #[test]
    fn pathcas_hashmap_matches_model(ops in proptest::collection::vec(op_strategy(48), 1..400)) {
        // Few buckets so merged scans cross bucket boundaries constantly.
        let map = pathcas_ds::PathCasHashMap::with_buckets(4);
        run_differential(&map, &ops);
        map.check_invariants();
    }

    #[test]
    fn ticket_bst_matches_model(ops in proptest::collection::vec(op_strategy(48), 1..400)) {
        let tree = baselines::TicketBst::new();
        run_differential(&tree, &ops);
        tree.check_invariants();
    }

    #[test]
    fn mcms_bst_matches_model(ops in proptest::collection::vec(op_strategy(48), 1..300)) {
        run_differential(&mcms::McmsBst::new(), &ops);
    }

    #[test]
    fn stm_avl_matches_model(ops in proptest::collection::vec(op_strategy(48), 1..300)) {
        run_differential(&stm::TxAvl::new(stm::Norec::new()), &ops);
    }

    #[test]
    fn sharded_avl_matches_model(ops in proptest::collection::vec(op_strategy(48), 1..400)) {
        // Few keys over many shards: scans constantly merge across shard
        // boundaries, the case the k-way merge must get exactly right.
        let map = shard::ShardedMap::from_fn(8, |_| {
            Box::new(pathcas_ds::PathCasAvl::new()) as Box<dyn ConcurrentMap>
        });
        run_differential(&map, &ops);
    }

    #[test]
    fn sharded_mixed_matches_model(ops in proptest::collection::vec(op_strategy(48), 1..300)) {
        // Heterogeneous shards: the composition only uses the trait, so a
        // mixed set must be indistinguishable from a homogeneous one.
        let map = shard::ShardedMap::new(vec![
            Box::new(pathcas_ds::PathCasAvl::new()),
            Box::new(pathcas_ds::PathCasBst::new()),
            Box::new(mapapi::reference::LockedBTreeMap::new()),
        ]);
        run_differential(&map, &ops);
    }
}
