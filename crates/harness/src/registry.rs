//! Factories for every algorithm in the evaluation (the analogue of the
//! paper's Figure 4 list), so the figure drivers can instantiate structures
//! by name.
//!
//! Beyond the flat list, [`try_make`] understands the **sharded
//! composition** grammar `shardN(inner)` — e.g. `shard8(int-avl-pathcas)`
//! — building a [`shard::ShardedMap`] over `N` fresh instances of any
//! resolvable inner name (recursively, so `shard2(shard4(x))` works too).
//! Three canonical sharded variants are registered by name so the
//! registry-driven scenario, stress and differential suites cover the
//! composition layer with zero extra glue.

use mapapi::ConcurrentMap;

/// A named factory producing a fresh instance of one algorithm.
pub struct AlgoFactory {
    /// The algorithm's name as used in the paper / DESIGN.md.
    pub name: &'static str,
    /// Build a fresh, empty instance.
    pub build: fn() -> Box<dyn ConcurrentMap>,
}

fn b<M: ConcurrentMap + 'static>(m: M) -> Box<dyn ConcurrentMap> {
    Box::new(m)
}

/// Build a homogeneous sharded composition over `n` fresh inner instances.
fn sharded(n: usize, inner: fn() -> Box<dyn ConcurrentMap>) -> Box<dyn ConcurrentMap> {
    b(shard::ShardedMap::from_fn(n, |_| inner()))
}

/// All algorithms available to the experiment drivers.
pub fn registry() -> Vec<AlgoFactory> {
    vec![
        AlgoFactory { name: "int-bst-pathcas", build: || b(pathcas_ds::PathCasBst::new()) },
        AlgoFactory { name: "int-avl-pathcas", build: || b(pathcas_ds::PathCasAvl::new()) },
        AlgoFactory { name: "ext-bst-locks", build: || b(baselines::TicketBst::new()) },
        AlgoFactory { name: "int-bst-norec", build: || b(stm::TxBst::new(stm::Norec::new())) },
        AlgoFactory { name: "int-avl-norec", build: || b(stm::TxAvl::new(stm::Norec::new())) },
        AlgoFactory { name: "int-avl-tl2", build: || b(stm::TxAvl::new(stm::Tl2::new())) },
        AlgoFactory { name: "int-avl-tle", build: || b(stm::TxAvl::new(stm::Tle::new())) },
        AlgoFactory { name: "int-bst-mcms", build: || b(mcms::McmsBst::new()) },
        AlgoFactory { name: "locked-btreemap", build: || b(mapapi::reference::LockedBTreeMap::new()) },
        // Sharded compositions (crates/shard): key blocks hashed over N
        // inner instances, scans k-way merged.  Registered here so the
        // whole registry-driven battery — cross-structure suites, keysum
        // stress, registry smoke — exercises the composition layer for
        // free.  `shard256(list-pathcas)` is the hash table of PathCAS lists
        // the paper's conclusion (§6) names.
        AlgoFactory {
            name: "shard8(int-avl-pathcas)",
            build: || sharded(8, || b(pathcas_ds::PathCasAvl::new())),
        },
        AlgoFactory {
            name: "shard4(int-bst-pathcas)",
            build: || sharded(4, || b(pathcas_ds::PathCasBst::new())),
        },
        AlgoFactory {
            name: "shard256(list-pathcas)",
            build: || sharded(256, || b(pathcas_ds::PathCasList::new())),
        },
    ]
}

/// Maximum shard count [`try_make`] accepts in a `shardN(inner)` name —
/// far above any plausible core count, low enough that a typo like
/// `shard80000(x)` fails fast instead of building eighty thousand trees.
pub const MAX_SHARDS: usize = 1024;

/// Parse `shardN(inner)` into `(N, inner)`; `None` if `name` is not of
/// that shape.  The inner name is taken verbatim (it may itself contain
/// parentheses, so nesting parses).
fn parse_shard_name(name: &str) -> Option<(usize, &str)> {
    let rest = name.strip_prefix("shard")?;
    let open = rest.find('(')?;
    let n: usize = rest[..open].parse().ok()?;
    let inner = rest[open + 1..].strip_suffix(')')?;
    (1..=MAX_SHARDS).contains(&n).then_some((n, inner))
}

/// A name [`try_make`] resolves that [`registry`] leaves out: a lone sorted
/// list is O(n) per op, so no registry loop runs it, but it is the inner
/// map of the hash table of lists at any shard count.
const INNER_ONLY: &str = "list-pathcas";

/// Instantiate one algorithm by name: either a registered name,
/// `list-pathcas`, or the sharded-composition grammar `shardN(inner)` for
/// any resolvable `inner` (applied recursively).  On failure the error
/// lists every valid name, for a caller to print instead of panicking.
pub fn try_make(name: &str) -> Result<Box<dyn ConcurrentMap>, String> {
    let reg = registry();
    if let Some(factory) = reg.iter().find(|f| f.name == name) {
        return Ok((factory.build)());
    }
    if name == INNER_ONLY {
        return Ok(b(pathcas_ds::PathCasList::new()));
    }
    if let Some((n, inner)) = parse_shard_name(name) {
        let shards = (0..n)
            .map(|_| try_make(inner))
            .collect::<Result<Vec<_>, String>>()
            .map_err(|e| format!("in '{name}': {e}"))?;
        return Ok(Box::new(shard::ShardedMap::new(shards)));
    }
    let names: Vec<&str> = reg.iter().map(|f| f.name).collect();
    Err(format!(
        "unknown algorithm '{name}'; valid names: {}, {INNER_ONLY} (unregistered), \
         or shardN(<valid name>) for 1 <= N <= {}",
        names.join(", "),
        MAX_SHARDS
    ))
}

/// Instantiate one algorithm by name.
///
/// # Panics
/// Panics if the name is unknown; [`try_make`] is the non-panicking
/// variant (its error message lists the valid names).
pub fn make(name: &str) -> Box<dyn ConcurrentMap> {
    try_make(name).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_algorithm_works() {
        for f in registry() {
            let m = (f.build)();
            assert_eq!(m.name(), f.name, "factory name mismatch");
            assert!(m.insert(10, 1));
            assert_eq!(m.get(10), Some(1));
            assert!(m.remove(10));
            assert_eq!(m.get(10), None);
        }
    }

    #[test]
    #[should_panic(expected = "unknown algorithm")]
    fn unknown_name_panics() {
        let _ = make("no-such-tree");
    }

    // `Box<dyn ConcurrentMap>` has no Debug impl, so unwrap the error arm
    // by hand instead of `unwrap_err`.
    fn expect_err(name: &str) -> String {
        match try_make(name) {
            Ok(m) => panic!("'{name}' unexpectedly resolved to {}", m.name()),
            Err(e) => e,
        }
    }

    #[test]
    fn try_make_errors_list_the_valid_names() {
        let err = expect_err("no-such-tree");
        assert!(err.contains("unknown algorithm 'no-such-tree'"), "{err}");
        assert!(err.contains("int-avl-pathcas"), "{err}");
        assert!(err.contains("locked-btreemap"), "{err}");
        assert!(err.contains("list-pathcas"), "{err}");
        assert!(err.contains("shardN("), "{err}");
        // A bad *inner* name points at the enclosing composition.
        let err = expect_err("shard4(no-such-tree)");
        assert!(err.contains("in 'shard4(no-such-tree)'"), "{err}");
        assert!(err.contains("unknown algorithm 'no-such-tree'"), "{err}");
    }

    #[test]
    fn shard_names_parse_and_build() {
        // Registered variant: exact factory.
        let m = make("shard8(int-avl-pathcas)");
        assert_eq!(m.name(), "shard8(int-avl-pathcas)");
        // Unregistered counts and inners resolve through the grammar.
        let m = try_make("shard3(locked-btreemap)").unwrap();
        assert_eq!(m.name(), "shard3(locked-btreemap)");
        assert!(m.insert(5, 50));
        assert_eq!(m.get(5), Some(50));
        // Nesting.
        let m = try_make("shard2(shard2(int-bst-pathcas))").unwrap();
        assert_eq!(m.name(), "shard2(shard2(int-bst-pathcas))");
        assert!(m.insert(1, 2));
        assert_eq!(m.get(1), Some(2));
        // The unregistered list resolves as an inner name at any count.
        let m = try_make("shard128(list-pathcas)").unwrap();
        assert_eq!(m.name(), "shard128(list-pathcas)");
        assert!(m.insert(7, 70));
        assert_eq!(m.get(7), Some(70));
        assert!(registry().iter().all(|f| f.name != "list-pathcas"));
    }

    #[test]
    fn malformed_shard_names_are_rejected() {
        for bad in ["shard(int-avl-pathcas)", "shard0(int-avl-pathcas)", "shard4int-avl-pathcas",
                    "shard4(int-avl-pathcas", "shard99999(int-avl-pathcas)", "shardx(y)"] {
            assert!(try_make(bad).is_err(), "'{bad}' should not resolve");
        }
    }
}
