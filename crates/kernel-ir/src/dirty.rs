//! Two-level dirty-bit maps (paper §IV-D1).
//!
//! For every replicated array the runtime keeps, on each GPU, a dirty-bit
//! array with one bit per element. With only that single level the
//! communication manager would have to ship the whole array (data plus
//! bits) to see what changed, so a second level is added: the bit array is
//! subdivided into fixed-size *chunks* (1 MB of element data by default,
//! the value the paper chose experimentally) and each chunk keeps one
//! summary bit that is set whenever any element in the chunk is dirtied.
//! The manager then transfers only chunks whose summary bit is set.

/// Default chunk size, in bytes of element data (paper §IV-D1: "we
/// experimentally choose 1MB").
pub const DEFAULT_CHUNK_BYTES: usize = 1 << 20;

/// A two-level dirty-bit map for one replicated array on one GPU.
#[derive(Debug, Clone)]
pub struct DirtyMap {
    n_elems: usize,
    elem_bytes: usize,
    /// Elements per chunk (chunk_bytes / elem_bytes, at least 1).
    chunk_elems: usize,
    /// First level: one bit per element.
    l1: Vec<u64>,
    /// Second level: one bit per chunk.
    l2: Vec<u64>,
    /// Number of currently-set element bits (cheap popcount bookkeeping).
    dirty_count: usize,
}

impl DirtyMap {
    /// Create a clean map for an array of `n_elems` elements of
    /// `elem_bytes` each, with the given second-level chunk size in bytes.
    pub fn new(n_elems: usize, elem_bytes: usize, chunk_bytes: usize) -> DirtyMap {
        let chunk_elems = (chunk_bytes / elem_bytes).max(1);
        let n_chunks = n_elems.div_ceil(chunk_elems).max(1);
        DirtyMap {
            n_elems,
            elem_bytes,
            chunk_elems,
            l1: vec![0; n_elems.div_ceil(64).max(1)],
            l2: vec![0; n_chunks.div_ceil(64)],
            dirty_count: 0,
        }
    }

    /// Create with the paper's default 1 MB chunks.
    pub fn with_default_chunks(n_elems: usize, elem_bytes: usize) -> DirtyMap {
        DirtyMap::new(n_elems, elem_bytes, DEFAULT_CHUNK_BYTES)
    }

    /// Number of elements tracked.
    pub fn len(&self) -> usize {
        self.n_elems
    }

    /// True when no element tracked.
    pub fn is_empty(&self) -> bool {
        self.n_elems == 0
    }

    /// Elements per second-level chunk.
    pub fn chunk_elems(&self) -> usize {
        self.chunk_elems
    }

    /// Number of second-level chunks.
    pub fn n_chunks(&self) -> usize {
        self.n_elems.div_ceil(self.chunk_elems).max(1)
    }

    /// Mark element `idx` dirty: sets the first-level bit and the enclosing
    /// chunk's second-level bit, exactly like the instrumentation the
    /// translator adds to the generated kernel.
    #[inline]
    pub fn mark(&mut self, idx: usize) {
        debug_assert!(idx < self.n_elems);
        let w = &mut self.l1[idx / 64];
        let bit = 1u64 << (idx % 64);
        if *w & bit == 0 {
            *w |= bit;
            self.dirty_count += 1;
        }
        let c = idx / self.chunk_elems;
        self.l2[c / 64] |= 1u64 << (c % 64);
    }

    /// Whether element `idx` is dirty.
    pub fn is_dirty(&self, idx: usize) -> bool {
        idx < self.n_elems && self.l1[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Whether chunk `c`'s summary bit is set.
    pub fn chunk_dirty(&self, c: usize) -> bool {
        self.l2[c / 64] & (1u64 << (c % 64)) != 0
    }

    /// Number of dirty elements.
    pub fn dirty_count(&self) -> usize {
        self.dirty_count
    }

    /// True if nothing was written.
    pub fn is_clean(&self) -> bool {
        self.dirty_count == 0
    }

    /// Clear all bits (both levels), as the manager does after an update
    /// round.
    pub fn clear(&mut self) {
        self.l1.fill(0);
        self.l2.fill(0);
        self.dirty_count = 0;
    }

    /// Iterate the indices of dirty chunks (via the second level only —
    /// this is the cheap scan that makes the two-level scheme pay off).
    pub fn dirty_chunks(&self) -> impl Iterator<Item = usize> + '_ {
        let n = self.n_chunks();
        (0..n).filter(move |&c| self.chunk_dirty(c))
    }

    /// The element range `[lo, hi)` covered by chunk `c`.
    pub fn chunk_range(&self, c: usize) -> (usize, usize) {
        let lo = c * self.chunk_elems;
        let hi = ((c + 1) * self.chunk_elems).min(self.n_elems);
        (lo, hi)
    }

    /// Iterate maximal runs `[lo, hi)` of dirty *elements* within chunk
    /// `c`, using the first-level bits. The communication manager coalesces
    /// these runs into transfer descriptors. The scan moves a 64-bit word
    /// at a time, so a clean or fully dirty chunk costs one step per word
    /// rather than one per element.
    pub fn dirty_runs_in_chunk(&self, c: usize) -> Vec<(usize, usize)> {
        let (lo, hi) = self.chunk_range(c);
        let mut runs = Vec::new();
        let mut from = lo;
        while let Some(start) = self.next_bit(from, hi, true) {
            let end = self.next_bit(start, hi, false).unwrap_or(hi);
            runs.push((start, end));
            from = end;
        }
        runs
    }

    /// The first element in `[from, hi)` whose first-level bit is set
    /// (`want`) or clear (`!want`).
    fn next_bit(&self, from: usize, hi: usize, want: bool) -> Option<usize> {
        let mut i = from;
        while i < hi {
            let word = if want { self.l1[i / 64] } else { !self.l1[i / 64] };
            // Drop the bits below `i`; the ones at or past `hi` (another
            // chunk's, or the padding of the last word) fail the bound.
            let word = word & (!0u64 << (i % 64));
            if word != 0 {
                let idx = i / 64 * 64 + word.trailing_zeros() as usize;
                return (idx < hi).then_some(idx);
            }
            i = (i / 64 + 1) * 64;
        }
        None
    }

    /// Total metadata footprint in bytes (both bit levels), which the
    /// runtime charges to "System" device memory in the Fig. 9 accounting.
    pub fn metadata_bytes(&self) -> usize {
        self.l1.len() * 8 + self.l2.len() * 8
    }

    /// Element size this map was built for.
    pub fn elem_bytes(&self) -> usize {
        self.elem_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mark_sets_both_levels() {
        let mut d = DirtyMap::new(1000, 4, 64); // 16 elems per chunk
        assert_eq!(d.chunk_elems(), 16);
        d.mark(33);
        assert!(d.is_dirty(33));
        assert!(!d.is_dirty(32));
        assert!(d.chunk_dirty(2));
        assert!(!d.chunk_dirty(0));
        assert_eq!(d.dirty_count(), 1);
    }

    #[test]
    fn double_mark_counts_once() {
        let mut d = DirtyMap::new(100, 8, 64);
        d.mark(5);
        d.mark(5);
        assert_eq!(d.dirty_count(), 1);
    }

    #[test]
    fn dirty_chunks_scan() {
        let mut d = DirtyMap::new(1024, 4, 64); // 64 chunks of 16
        d.mark(0);
        d.mark(17);
        d.mark(1023);
        let chunks: Vec<_> = d.dirty_chunks().collect();
        assert_eq!(chunks, vec![0, 1, 63]);
    }

    #[test]
    fn runs_within_chunk() {
        let mut d = DirtyMap::new(64, 4, 64); // 16 per chunk
        for i in [1, 2, 3, 7, 15] {
            d.mark(i);
        }
        assert_eq!(d.dirty_runs_in_chunk(0), vec![(1, 4), (7, 8), (15, 16)]);
        assert!(d.dirty_runs_in_chunk(1).is_empty());
    }

    /// The element-at-a-time scan `dirty_runs_in_chunk` replaced, kept
    /// as its oracle.
    fn runs_bitwise(d: &DirtyMap, c: usize) -> Vec<(usize, usize)> {
        let (lo, hi) = d.chunk_range(c);
        let mut runs = Vec::new();
        let mut i = lo;
        while i < hi {
            if d.is_dirty(i) {
                let start = i;
                while i < hi && d.is_dirty(i) {
                    i += 1;
                }
                runs.push((start, i));
            } else {
                i += 1;
            }
        }
        runs
    }

    #[test]
    fn runs_straddle_words_and_stop_at_the_chunk() {
        // 100 elements per chunk: chunk 1 is [100, 200), neither end on a
        // word boundary, and its run crosses the words at 128 and 192.
        let mut d = DirtyMap::new(250, 4, 400);
        for i in 90..230 {
            d.mark(i);
        }
        assert_eq!(d.dirty_runs_in_chunk(0), vec![(90, 100)]);
        assert_eq!(d.dirty_runs_in_chunk(1), vec![(100, 200)]);
        // The final chunk is partial ([200, 250)) and ends mid-word.
        assert_eq!(d.dirty_runs_in_chunk(2), vec![(200, 230)]);
        for i in 230..250 {
            d.mark(i);
        }
        assert_eq!(d.dirty_runs_in_chunk(2), vec![(200, 250)]);
    }

    proptest! {
        /// The word-wise scan agrees with the element-wise oracle on every
        /// chunk: chunk sizes off the 64-bit grid, a final partial chunk,
        /// runs longer than a word (and than a chunk, so some chunks are
        /// all dirty), and the clean chunks between the fills.
        #[test]
        fn word_scan_matches_the_bitwise_oracle(
            n in 1usize..700,
            chunk_elems in 1usize..200,
            fills in prop::collection::vec((0usize..700, 0usize..260), 0..8),
        ) {
            let mut d = DirtyMap::new(n, 4, 4 * chunk_elems);
            for (start, len) in fills {
                for i in start..(start + len).min(n) {
                    d.mark(i);
                }
            }
            for c in 0..d.n_chunks() {
                prop_assert_eq!(d.dirty_runs_in_chunk(c), runs_bitwise(&d, c));
            }
        }
    }

    #[test]
    fn clear_resets() {
        let mut d = DirtyMap::new(100, 4, 64);
        d.mark(50);
        d.clear();
        assert!(d.is_clean());
        assert!(!d.is_dirty(50));
        assert_eq!(d.dirty_chunks().count(), 0);
    }

    #[test]
    fn last_partial_chunk_range() {
        let d = DirtyMap::new(100, 4, 64); // 16 per chunk -> 7 chunks
        assert_eq!(d.n_chunks(), 7);
        assert_eq!(d.chunk_range(6), (96, 100));
    }

    #[test]
    fn metadata_footprint_reasonable() {
        let d = DirtyMap::with_default_chunks(1 << 20, 4);
        // 1M elements -> 128 KiB of L1 bits plus a few L2 words.
        assert!(d.metadata_bytes() >= (1 << 20) / 8);
        assert!(d.metadata_bytes() < (1 << 20) / 8 + 1024);
    }

    #[test]
    fn chunk_elems_at_least_one() {
        let d = DirtyMap::new(10, 8, 1); // chunk smaller than an element
        assert_eq!(d.chunk_elems(), 1);
        assert_eq!(d.n_chunks(), 10);
    }
}
