//! Host-side performance hints. Nothing here can change a simulated
//! result: the hints only move data between the host's memory and its
//! caches earlier than the code that reads it would.

/// Ask the host CPU to start loading every cache line `items` spans into
/// its first-level cache, without waiting for them. Call it as soon as an
/// address is known, well before the read: the load then overlaps work in
/// between instead of stalling the read.
///
/// On x86_64 this issues one `PREFETCHT0` per 64-byte line; elsewhere it
/// does nothing.
#[inline(always)]
pub fn prefetch<T>(items: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let base = items.as_ptr().cast::<i8>();
        let bytes = std::mem::size_of_val(items);
        let lead = base as usize % LINE;
        let mut off = 0;
        while off < lead + bytes {
            // SAFETY: PREFETCHT0 is a hint with no architectural effect:
            // it never faults, not even on an unmapped address, and it
            // reads nothing into the program. SSE, which provides it, is
            // part of the x86_64 baseline. The pointer is formed with
            // wrapping arithmetic and never dereferenced.
            unsafe { _mm_prefetch(base.wrapping_sub(lead).wrapping_add(off), _MM_HINT_T0) };
            off += LINE;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = items;
}

#[cfg(test)]
mod tests {
    use super::prefetch;

    #[test]
    fn prefetch_accepts_any_slice() {
        let v: Vec<u64> = (0..100).collect();
        prefetch(&v);
        prefetch(&v[3..5]);
        prefetch(&v[..0]);
        prefetch(std::slice::from_ref(&v[99]));
        prefetch::<()>(&[(); 4]);
        assert_eq!(v.iter().sum::<u64>(), 4950);
    }
}
