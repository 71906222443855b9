//! The benchmark's own PRNG, hash and process probes, so that nothing it
//! measures with can change under it when a product crate is edited.

/// splitmix64 — the seeded stream every workload draws from.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0). The modulo bias is below 2⁻⁵⁰ for the
    /// small `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Streaming 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The low 48 bits, which an `f64` (and so a JSON number) holds
    /// exactly.
    pub fn finish48(self) -> f64 {
        (self.0 & ((1 << 48) - 1)) as f64
    }
}

/// Peak resident set size of this process in MB (`VmHWM`); `None` where
/// `/proc` is not available.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_seed_sensitive() {
        let draw = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        // First output for seed 0 of the reference implementation.
        assert_eq!(SplitMix64::new(0).next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn fnv_fingerprint_sees_every_byte() {
        let fp = |parts: &[&[u8]]| {
            let mut h = Fnv1a::default();
            parts.iter().for_each(|p| h.write(p));
            h.finish48()
        };
        assert_eq!(fp(&[b"ab", b"c"]), fp(&[b"abc"]));
        assert_ne!(fp(&[b"abc"]), fp(&[b"abd"]));
        assert!(fp(&[b"abc"]) < (1u64 << 48) as f64);
    }
}
