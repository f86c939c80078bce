//! Shared node plumbing for the PathCAS data structures: pointer encoding,
//! epoch-guarded dereferencing, and a small per-thread builder cache.

use std::cell::RefCell;

use crossbeam_epoch::Guard;
use pathcas::OpBuilder;

/// The null pointer value stored in child/next words.
pub const NIL: u64 = 0;

/// Encode a raw node pointer as a `CasWord` application value.
#[inline]
pub fn ptr_to_word<T>(ptr: *const T) -> u64 {
    ptr as usize as u64
}

/// Dereference a node pointer stored in a `CasWord`, with a lifetime tied to
/// the epoch guard of the enclosing operation.
///
/// # Safety
/// The pointer must have been read from the data structure while `guard` was
/// pinned, and the data structure must only retire nodes through the same
/// epoch collector — both are invariants of every structure in this crate.
#[inline]
pub unsafe fn word_to_ref<T>(word: u64, _guard: &Guard) -> &T {
    debug_assert_ne!(word, NIL, "dereferencing NIL");
    // SAFETY: per the function contract, `word` is a live node pointer
    // observed under the pinned epoch represented by `_guard`.
    unsafe { &*(word as usize as *const T) }
}

thread_local! {
    static BUILDER: RefCell<OpBuilder> = RefCell::new(OpBuilder::new());
}

/// Run a closure with the calling thread's reusable PathCAS argument builder.
///
/// Operations never nest (a data-structure operation does not invoke another
/// one on the same thread), so a single per-thread builder suffices — this is
/// the analogue of the paper's per-thread reusable descriptor.
pub fn with_builder<R>(f: impl FnOnce(&mut OpBuilder) -> R) -> R {
    BUILDER.with(|b| f(&mut b.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointer_roundtrip() {
        let x = 42u64;
        let w = ptr_to_word(&x);
        let guard = crossbeam_epoch::pin();
        // SAFETY: `w` encodes `x`, which outlives the reference.
        let r: &u64 = unsafe { word_to_ref(w, &guard) };
        assert_eq!(*r, 42);
    }

    #[test]
    fn builder_is_reused_per_thread() {
        let a = with_builder(|b| b as *mut OpBuilder as usize);
        let b = with_builder(|b| b as *mut OpBuilder as usize);
        assert_eq!(a, b);
    }
}
