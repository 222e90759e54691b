//! Cache-line padding for contended atomics.
//!
//! The commit spine's shared words — the global version clock and every
//! lock-table stripe — are written by all committers. When two such words
//! share a 64-byte cache line, every write by one thread invalidates the
//! line in every other core's cache even though the *other* word was
//! untouched (false sharing). [`CachePadded`] aligns its contents to a
//! 64-byte boundary so each padded value owns its line outright.
//!
//! 64 bytes is the L1 line size on every x86-64 and most AArch64 parts;
//! over-aligning on machines with smaller lines costs only a little memory,
//! never correctness.

use std::ops::{Deref, DerefMut};

/// Aligns `T` to a 64-byte cache line so neighbouring values in a struct
/// or `Vec` never share a line with it.
///
/// Behaves like a transparent wrapper: `Deref`/`DerefMut` expose the inner
/// value, so `CachePadded<AtomicU64>` is used exactly like an `AtomicU64`.
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use gstm_core::CachePadded;
///
/// let word = CachePadded::new(AtomicU64::new(0));
/// word.store(7, Ordering::Relaxed);
/// assert_eq!(word.load(Ordering::Relaxed), 7);
/// assert_eq!(std::mem::align_of_val(&word), 64);
/// ```
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` on its own cache line.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwraps the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// Bytes between two values' addresses — what the layout tests of the
/// per-thread slots (engine, gate, sink) compare against the line size.
#[cfg(test)]
pub(crate) fn bytes_apart<T>(a: &T, b: &T) -> usize {
    (a as *const T as usize).abs_diff(b as *const T as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn padded_values_never_share_a_line() {
        let pair = [CachePadded::new(AtomicU64::new(1)), CachePadded::new(AtomicU64::new(2))];
        let a = &pair[0] as *const _ as usize;
        let b = &pair[1] as *const _ as usize;
        assert_eq!(a % 64, 0, "first word is not line-aligned");
        assert_eq!(b % 64, 0, "second word is not line-aligned");
        assert!(
            bytes_apart(&pair[0], &pair[1]) >= 64,
            "words {a:#x} and {b:#x} share a cache line"
        );
    }

    #[test]
    fn deref_is_transparent() {
        let word = CachePadded::new(AtomicU64::new(0));
        word.fetch_add(5, Ordering::Relaxed);
        assert_eq!(word.load(Ordering::Relaxed), 5);
        assert_eq!(CachePadded::new(9u64).into_inner(), 9);
    }
}
