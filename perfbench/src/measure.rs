//! Measurement helpers: exact-sample percentiles, the completion
//! fingerprint, the seeded generator, and the host clocks read from
//! `/proc`.

use std::time::Instant;

use nadfs_simnet::stats::Sampler;

/// A sampler over `xs`.
pub fn sampler(xs: impl IntoIterator<Item = f64>) -> Sampler {
    let mut s = Sampler::new();
    for x in xs {
        s.record(x);
    }
    s
}

/// Nearest-rank percentile `q` (in percent) of `s`; 0 for no samples.
pub fn pct(s: &Sampler, q: f64) -> f64 {
    if s.is_empty() {
        0.0
    } else {
        s.percentile(q)
    }
}

/// Picoseconds to microseconds.
pub fn us(ps: u64) -> f64 {
    ps as f64 / 1e6
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// FNV-1a over 64-bit words: a hash of every completion's simulated
/// outcome, so two runs (or two builds) can be shown bit-identical in
/// simulated time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }
}

impl Fingerprint {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// SplitMix64: the benchmark's own seeded generator for every job.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// Log-uniform integer in `[min, max]`.
    pub fn log_uniform(&mut self, min: u32, max: u32) -> u32 {
        let (lo, hi) = ((min as f64).ln(), (max as f64).ln());
        ((lo + self.unit() * (hi - lo)).exp().round() as u32).clamp(min, max)
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Reference model of the payload a `Job::Write { seed, size }` carries:
/// little-endian 64-bit words of a SplitMix stream started at
/// `seed ^ golden`. Bytes `[off, off + n)` of that payload.
pub fn payload_bytes(seed: u64, off: usize, n: usize) -> Vec<u8> {
    let base = seed ^ 0x9E37_79B9_7F4A_7C15;
    let first = off / 8;
    let last = (off + n).div_ceil(8);
    let mut words = Vec::with_capacity((last - first) * 8);
    for j in first..last {
        let x = base.wrapping_add((j as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        words.extend_from_slice(&mix(x).to_le_bytes());
    }
    let skip = off - first * 8;
    words[skip..skip + n].to_vec()
}

/// Byte offsets sampled from a region of `len` bytes when checking data
/// without hashing all of it: both ends and three interior points.
pub fn sample_offsets(len: usize) -> impl Iterator<Item = (usize, usize)> {
    let n = 8.min(len);
    [0, len / 4, len / 2, 3 * len / 4, len - n]
        .into_iter()
        .map(move |o| (o.min(len - n), n))
}

/// CPU time of the calling thread in nanoseconds, from
/// `/proc/thread-self/schedstat`. The kernel folds the running slice into
/// that counter only at scheduling points, so yield first to make the
/// value current.
pub fn thread_cpu_ns() -> u64 {
    std::thread::yield_now();
    let s = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("/proc/thread-self/schedstat is readable on Linux");
    s.split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .expect("schedstat starts with the run time in ns")
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let s = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = s
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Thread CPU time and wall time of one bracketed phase.
pub struct HostTimer {
    cpu0: u64,
    wall0: Instant,
}

impl HostTimer {
    pub fn start() -> HostTimer {
        HostTimer {
            cpu0: thread_cpu_ns(),
            wall0: Instant::now(),
        }
    }

    /// (CPU seconds, wall seconds) since `start`.
    pub fn stop(self) -> (f64, f64) {
        let cpu = thread_cpu_ns().saturating_sub(self.cpu0) as f64 / 1e9;
        (cpu, self.wall0.elapsed().as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_slices_agree_with_the_whole() {
        let whole = payload_bytes(7, 0, 1000);
        assert_eq!(payload_bytes(7, 13, 21), whole[13..34]);
        assert_eq!(payload_bytes(7, 992, 8), whole[992..]);
    }
}
