//! The PathCAS operation builder: `start`, `read`, `add`, `visit`,
//! `validate`, `exec`, `vexec` and the strong (lock-free) `vexec` slow path.

use crossbeam_epoch::Guard;
use kcas::{CasWord, RawEntry, RawVisit};

use crate::{DEFAULT_MAX_ENTRIES, DEFAULT_MAX_PATH, DEFAULT_STRONG_RETRIES};

/// Per-thread, reusable argument accumulation buffers for PathCAS operations.
///
/// A builder owns no shared state: it is purely the scratch space described
/// in §3.3 ("a simple array for our visited nodes").  All buffers retain
/// their capacity across operations, so in steady state an operation issued
/// through a reused builder performs **no heap allocation** — together with
/// the descriptor pools in `kcas` this makes the whole update hot path
/// allocation-free.  Read-only operations (a `get` that misses) never
/// publish a descriptor at all.
pub struct OpBuilder {
    entries: Vec<RawEntry>,
    path: Vec<RawVisit>,
    /// `vexec` scratch: the visited path minus nodes that are also added.
    path_scratch: Vec<RawVisit>,
    /// `vexec_strong` slow-path scratch: entries plus compare-only entries.
    slow_scratch: Vec<RawEntry>,
    /// Set when the same address is added twice with conflicting values —
    /// proof that the caller observed inconsistent (concurrently modified)
    /// state, so the operation is doomed and must fail; see [`PathCasOp::add`].
    poisoned: bool,
    strong_retries: usize,
}

impl Default for OpBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl OpBuilder {
    /// Create a builder.  An operation may add up to
    /// [`DEFAULT_MAX_ENTRIES`] addresses and visit up to
    /// [`DEFAULT_MAX_PATH`] nodes; exceeding either bound panics, mirroring
    /// the assertion in the paper's implementation.
    pub fn new() -> Self {
        OpBuilder {
            entries: Vec::with_capacity(DEFAULT_MAX_ENTRIES),
            path: Vec::with_capacity(1024),
            path_scratch: Vec::with_capacity(1024),
            slow_scratch: Vec::with_capacity(DEFAULT_MAX_ENTRIES),
            poisoned: false,
            strong_retries: DEFAULT_STRONG_RETRIES,
        }
    }

    /// Configure how many optimistic retries `vexec_strong` performs before
    /// switching to the slow path.
    #[cfg(test)]
    fn set_strong_retries(&mut self, retries: usize) {
        self.strong_retries = retries;
    }

    /// Begin gathering arguments for a new PathCAS operation (the paper's
    /// `start()`), clearing the add-set and the visited path.
    ///
    /// The returned [`PathCasOp`] borrows both the builder and the epoch
    /// guard; every address passed to it must remain valid for at least as
    /// long as the guard is pinned, which the borrow checker enforces through
    /// the `'g` lifetime.
    pub fn start<'g>(&'g mut self, guard: &'g Guard) -> PathCasOp<'g> {
        self.entries.clear();
        self.path.clear();
        self.poisoned = false;
        PathCasOp { builder: self, guard }
    }
}

/// An in-progress PathCAS operation (between `start` and `exec`/`vexec`).
pub struct PathCasOp<'g> {
    builder: &'g mut OpBuilder,
    guard: &'g Guard,
}

impl<'g> PathCasOp<'g> {
    /// Read an address that might be modified by PathCAS (the paper's
    /// `read`): if a descriptor is encountered, the corresponding operation
    /// is helped to completion first.
    #[inline]
    pub fn read(&self, word: &CasWord) -> u64 {
        kcas::read(word, self.guard)
    }

    /// The epoch guard this operation runs under.
    #[inline]
    pub fn guard(&self) -> &'g Guard {
        self.guard
    }

    /// Add an address to be changed atomically from `old` to `new`.
    ///
    /// Re-adding the same address with identical values is a no-op.
    /// Re-adding it with *conflicting* values poisons the operation: under
    /// concurrency it proves the caller derived its arguments from two
    /// inconsistent reads of the structure (some other operation committed
    /// in between), so the operation is doomed and `exec`/`vexec` will
    /// deterministically return `false` — the standard fail-and-retry
    /// outcome, instead of the undefined behaviour the paper's §3.2 permits
    /// here.
    ///
    /// # Panics
    /// Panics if the add-set bound is exceeded (the paper's assertion).
    #[inline]
    pub fn add(&mut self, word: &'g CasWord, old: u64, new: u64) {
        let addr = word as *const CasWord;
        if let Some(existing) = self.builder.entries.iter().find(|e| e.addr == addr) {
            if existing.old != old || existing.new != new {
                self.builder.poisoned = true;
            }
            return;
        }
        assert!(
            self.builder.entries.len() < DEFAULT_MAX_ENTRIES,
            "PathCAS add-set bound ({DEFAULT_MAX_ENTRIES}) exceeded"
        );
        self.builder.entries.push(RawEntry { addr, old, new });
    }

    /// Visit a node: read its version word (helping if necessary), record it
    /// in the path, and return the observed version (the mark bit is the
    /// least-significant bit of the returned value).
    ///
    /// # Panics
    /// Panics if the read-set bound is exceeded (the paper's assertion).
    #[inline]
    pub fn visit(&mut self, version_word: &'g CasWord) -> u64 {
        let seen = kcas::read(version_word, self.guard);
        assert!(
            self.builder.path.len() < DEFAULT_MAX_PATH,
            "PathCAS read-set bound ({DEFAULT_MAX_PATH}) exceeded"
        );
        self.builder.path.push(RawVisit { ver_addr: version_word as *const CasWord, seen });
        seen
    }

    /// Check whether any visited node has changed (or been marked) since it
    /// was visited.  This is the read-only validation a missing `get` uses:
    /// unlike the validation inside `vexec` it never fails spuriously,
    /// because it helps any operation it encounters before comparing.
    pub fn validate(&mut self) -> bool {
        // SAFETY: every address in `path` was registered through a
        // `&'g CasWord` in `visit`, so it is valid for 'g (covering this
        // call, which runs under the same epoch guard).
        unsafe { kcas::validate_path_raw(&self.builder.path, self.guard) }
    }

    /// Perform the accumulated changes as a plain KCAS, ignoring the visited
    /// path (the paper's `exec`).
    pub fn exec(&mut self) -> bool {
        if self.builder.poisoned {
            return false;
        }
        // SAFETY: every address in `entries` was registered through a
        // `&'g CasWord` in `add` (see `validate`).
        unsafe { kcas::execute_raw(&self.builder.entries, &[], self.guard) }
    }

    /// Perform the accumulated changes only if no visited node has changed
    /// since it was visited (the paper's `vexec`).  May fail spuriously if a
    /// visited node is "locked" by another in-flight operation.
    pub fn vexec(&mut self) -> bool {
        if self.builder.poisoned {
            return false;
        }
        self.builder.refill_path_scratch();
        // SAFETY: all addresses were registered through `&'g CasWord`s.
        unsafe { kcas::execute_raw(&self.builder.entries, &self.builder.path_scratch, self.guard) }
    }

    /// The strong `vexec` of §3.5: retry the optimistic `vexec` a bounded
    /// number of times, then fall back to the lock-free slow path that
    /// converts every visited `⟨node, version⟩` pair into a compare-only
    /// `⟨node.ver, v, v⟩` entry and executes one large (sorted) KCAS.
    ///
    /// With this variant, a failure implies some added address or visited
    /// version genuinely changed (property P1), so data structures built on
    /// it are lock-free.
    pub fn vexec_strong(&mut self) -> bool {
        if self.builder.poisoned {
            return false;
        }
        for _ in 0..self.builder.strong_retries {
            self.builder.refill_path_scratch();
            // SAFETY: all addresses were registered through `&'g CasWord`s.
            let ok = unsafe {
                kcas::execute_raw(&self.builder.entries, &self.builder.path_scratch, self.guard)
            };
            if ok {
                return true;
            }
            // Re-check quickly whether the failure is definitely genuine: if
            // some added address no longer holds its old value, retrying (or
            // taking the slow path) cannot help.
            if self.some_added_address_changed() {
                return false;
            }
        }
        // Slow path: lock the version words of visited nodes instead of
        // validating them.
        self.builder.refill_slow_scratch();
        // SAFETY: all addresses were registered through `&'g CasWord`s.
        unsafe { kcas::execute_raw(&self.builder.slow_scratch, &[], self.guard) }
    }

    fn some_added_address_changed(&self) -> bool {
        self.builder.entries.iter().any(|e| {
            // SAFETY: the address was registered through a `&'g CasWord`.
            let word = unsafe { &*e.addr };
            kcas::read(word, self.guard) != e.old
        })
    }
}

impl OpBuilder {
    /// Refill `path_scratch` with the visited path minus entries whose
    /// version word is also in the add-set: the add already both checks the
    /// old version and locks the word, so a separate compare entry would
    /// conflict with it.
    fn refill_path_scratch(&mut self) {
        let (scratch, path, entries) = (&mut self.path_scratch, &self.path, &self.entries);
        scratch.clear();
        scratch.extend(
            path.iter().filter(|p| !entries.iter().any(|e| e.addr == p.ver_addr)).copied(),
        );
    }

    /// Refill `slow_scratch` with the add-set plus one compare-only entry
    /// (`⟨ver_addr, seen, seen⟩`) per visited node not already added.
    fn refill_slow_scratch(&mut self) {
        let (scratch, path, entries) = (&mut self.slow_scratch, &self.path, &self.entries);
        scratch.clear();
        scratch.extend_from_slice(entries);
        scratch.extend(
            path.iter()
                .filter(|p| !entries.iter().any(|e| e.addr == p.ver_addr))
                .map(|p| RawEntry { addr: p.ver_addr, old: p.seen, new: p.seen }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    struct TwoNodes {
        ver_a: CasWord,
        data_a: CasWord,
        ver_b: CasWord,
        data_b: CasWord,
    }

    fn nodes() -> TwoNodes {
        TwoNodes {
            ver_a: CasWord::new(0),
            data_a: CasWord::new(100),
            ver_b: CasWord::new(0),
            data_b: CasWord::new(200),
        }
    }

    #[test]
    fn vexec_succeeds_without_interference() {
        let n = nodes();
        let mut b = OpBuilder::new();
        let guard = crossbeam_epoch::pin();
        let mut op = b.start(&guard);
        let va = op.visit(&n.ver_a);
        let d = op.read(&n.data_b);
        op.add(&n.data_b, d, d + 1);
        op.add(&n.ver_b, 0, 2);
        assert_eq!(va, 0);
        assert!(op.vexec());
        assert_eq!(kcas::read(&n.data_b, &guard), 201);
        assert_eq!(kcas::read(&n.ver_b, &guard), 2);
        // The merely-visited node is untouched.
        assert_eq!(kcas::read(&n.ver_a, &guard), 0);
    }

    #[test]
    fn vexec_fails_if_visited_node_changed() {
        let n = nodes();
        let mut b = OpBuilder::new();
        let guard = crossbeam_epoch::pin();
        let mut op = b.start(&guard);
        let _ = op.visit(&n.ver_a);
        op.add(&n.data_b, 200, 201);
        // Concurrent modification of the visited node.
        n.ver_a.store(2);
        assert!(!op.vexec());
        assert_eq!(kcas::read(&n.data_b, &guard), 200);
    }

    #[test]
    fn vexec_fails_if_visited_node_marked() {
        let n = nodes();
        let mut b = OpBuilder::new();
        let guard = crossbeam_epoch::pin();
        let mut op = b.start(&guard);
        let _ = op.visit(&n.ver_a);
        op.add(&n.data_b, 200, 201);
        n.ver_a.store(1); // mark
        assert!(!op.vexec());
    }

    #[test]
    fn exec_ignores_visited_nodes() {
        let n = nodes();
        let mut b = OpBuilder::new();
        let guard = crossbeam_epoch::pin();
        let mut op = b.start(&guard);
        let _ = op.visit(&n.ver_a);
        op.add(&n.data_b, 200, 201);
        n.ver_a.store(2); // would fail vexec
        assert!(op.exec());
        assert_eq!(kcas::read(&n.data_b, &guard), 201);
    }

    #[test]
    fn validate_detects_changes_and_marks() {
        let n = nodes();
        let mut b = OpBuilder::new();
        let guard = crossbeam_epoch::pin();
        {
            let mut op = b.start(&guard);
            let _ = op.visit(&n.ver_a);
            let _ = op.visit(&n.ver_b);
            assert!(op.validate());
        }
        n.ver_b.store(2);
        {
            let mut op = b.start(&guard);
            let _ = op.visit(&n.ver_a);
            assert!(op.validate());
            let _ = op.visit(&n.ver_b);
            assert!(op.validate()); // re-visited, so current again
        }
        {
            let mut op = b.start(&guard);
            let _ = op.visit(&n.ver_a);
            n.ver_a.store(4);
            assert!(!op.validate());
        }
    }

    #[test]
    fn visited_node_in_add_set_does_not_self_conflict() {
        // Visiting a node and also adding its version word (a common pattern:
        // the parent both lies on the path and is modified) must not make the
        // operation fail against itself.
        let n = nodes();
        let mut b = OpBuilder::new();
        let guard = crossbeam_epoch::pin();
        let mut op = b.start(&guard);
        let va = op.visit(&n.ver_a);
        op.add(&n.data_a, 100, 101);
        op.add(&n.ver_a, va, va + 2);
        assert!(op.vexec());
        assert_eq!(kcas::read(&n.ver_a, &guard), 2);
        assert_eq!(kcas::read(&n.data_a, &guard), 101);
    }

    #[test]
    fn strong_vexec_genuine_failure_returns_false() {
        let n = nodes();
        let mut b = OpBuilder::new();
        let guard = crossbeam_epoch::pin();
        let mut op = b.start(&guard);
        op.add(&n.data_a, 100, 101);
        n.data_a.store(150);
        assert!(!op.vexec_strong());
        assert_eq!(kcas::read(&n.data_a, &guard), 150);
    }

    #[test]
    fn strong_vexec_slow_path_locks_versions() {
        // Force the slow path by setting zero optimistic retries; the slow
        // path should still succeed when nothing conflicts.
        let n = nodes();
        let mut b = OpBuilder::new();
        b.set_strong_retries(0);
        let guard = crossbeam_epoch::pin();
        let mut op = b.start(&guard);
        let va = op.visit(&n.ver_a);
        op.add(&n.data_b, 200, 201);
        op.add(&n.ver_b, 0, 2);
        assert_eq!(va, 0);
        assert!(op.vexec_strong());
        assert_eq!(kcas::read(&n.data_b, &guard), 201);
        assert_eq!(kcas::read(&n.ver_b, &guard), 2);
        // The visited node was locked with a compare-only entry: unchanged.
        assert_eq!(kcas::read(&n.ver_a, &guard), 0);
    }

    #[test]
    fn strong_vexec_slow_path_fails_if_visited_node_changed() {
        // With zero optimistic retries only the slow path's compare-only
        // entry stands between a stale visit and a commit.
        let n = nodes();
        let mut b = OpBuilder::new();
        b.set_strong_retries(0);
        let guard = crossbeam_epoch::pin();
        let mut op = b.start(&guard);
        let _ = op.visit(&n.ver_a);
        op.add(&n.data_b, 200, 201);
        n.ver_a.store(2);
        assert!(!op.vexec_strong());
        assert_eq!(kcas::read(&n.data_b, &guard), 200);
    }

    #[test]
    fn strong_vexec_slow_path_carries_a_long_path() {
        // 300 visited nodes become a 300-entry compare-only KCAS — several
        // times what a fresh descriptor slot has room for.  Pinned to the
        // descriptor path first, then wherever the platform commits.
        for software in [true, false] {
            kcas::software_path_only(software);
            let versions: Vec<CasWord> = (0..300).map(|_| CasWord::new(2)).collect();
            let data = CasWord::new(7);
            let mut b = OpBuilder::new();
            b.set_strong_retries(0);
            let guard = crossbeam_epoch::pin();

            let mut op = b.start(&guard);
            for v in &versions {
                assert_eq!(op.visit(v), 2);
            }
            op.add(&data, 7, 8);
            assert!(op.vexec_strong(), "software = {software}");
            assert_eq!(kcas::read(&data, &guard), 8);
            assert!(versions.iter().all(|v| kcas::read(v, &guard) == 2));

            let mut op = b.start(&guard);
            for v in &versions {
                op.visit(v);
            }
            op.add(&data, 8, 9);
            versions[299].store(4);
            assert!(!op.vexec_strong(), "software = {software}");
            assert_eq!(kcas::read(&data, &guard), 8);
            assert!(versions[..299].iter().all(|v| kcas::read(v, &guard) == 2));
            assert_eq!(kcas::read(&versions[299], &guard), 4);
        }
    }

    #[test]
    fn concurrent_visit_add_cross_pattern() {
        // The §3.4 scenario: t1 visits A and adds B, t2 visits B and adds A.
        // With vexec_strong both threads must make progress overall (the data
        // words end up reflecting every successful operation exactly once).
        let shared = Arc::new(nodes());
        const OPS: u64 = 2000;
        let mut handles = Vec::new();
        for who in 0..2 {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                let mut b = OpBuilder::new();
                let mut successes = 0u64;
                for _ in 0..OPS {
                    loop {
                        let guard = crossbeam_epoch::pin();
                        let mut op = b.start(&guard);
                        let (visit_ver, add_ver, add_data) = if who == 0 {
                            (&shared.ver_a, &shared.ver_b, &shared.data_b)
                        } else {
                            (&shared.ver_b, &shared.ver_a, &shared.data_a)
                        };
                        let vv = op.visit(visit_ver);
                        if vv & 1 == 1 {
                            continue;
                        }
                        let av = op.read(add_ver);
                        let d = op.read(add_data);
                        op.add(add_data, d, d + 1);
                        op.add(add_ver, av, av + 2);
                        if op.vexec_strong() {
                            successes += 1;
                            break;
                        }
                    }
                }
                successes
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 2 * OPS);
        let guard = crossbeam_epoch::pin();
        let a = kcas::read(&shared.data_a, &guard);
        let b_ = kcas::read(&shared.data_b, &guard);
        assert_eq!(a - 100 + b_ - 200, 2 * OPS);
    }
}
