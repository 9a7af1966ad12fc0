//! Host-speed reference for the end-to-end host-time metrics.
//!
//! The benchmark runs on shared hosts whose speed drifts between runs
//! and switches inside one: a tenant on the same physical core can make
//! the same code about 1.5× slower for seconds at a time. So an untraced
//! run times, between ops and about every [`EVERY_NS`] of host time, a
//! fixed piece of reference work of the benchmark's own. The reference
//! calls no code of the program. Each host time the run reports is then
//! scaled by [`NOMINAL_NS`] over the median reference time within
//! [`WINDOW_NS`] of it: the time the op would have taken on a host that
//! runs the reference in `NOMINAL_NS`. A change to the program moves the
//! scaled times as it moves the raw ones, because the reference does not
//! depend on it; a change of host speed moves both the op and the
//! reference, and cancels.

use std::collections::BTreeMap;
use std::hint::black_box;

use crate::clock::{median, now_ns};

/// Host ns between reference samples.
pub const EVERY_NS: u64 = 10_000_000;
/// Reference samples within this many host ns of a time give its scale.
pub const WINDOW_NS: u64 = 30_000_000;
/// Fewest samples a scale is taken over, the nearest ones if the window
/// holds fewer.
const MIN_SAMPLES: usize = 5;
/// Samples taken before the first op, so set-up has a scale too.
const WARM_SAMPLES: usize = MIN_SAMPLES;
/// The reference time of the nominal host: the median on a 2-core
/// "Intel(R) Xeon(R) Processor" host (`nproc` = 2) in its fast state.
pub const NOMINAL_NS: f64 = 50_000.0;

/// Ordered-map entries inserted and drained per pass.
const MAP_ENTRIES: u64 = 400;
/// Timed passes per sample; the sample is the fastest.
const PASSES: usize = 3;

/// The reference work: an ordered map filled with small heap values
/// and drained, the kind of work the simulator's event queues, link
/// tables and message queues do. Of the kinds tried (a random
/// read-modify-write table, block copies, a branchy interpreter loop and
/// this one), its time moved most nearly in proportion to the
/// workloads' op times when the host changed speed.
#[derive(Debug)]
struct Reference {
    x: u64,
}

impl Reference {
    fn run(&mut self) -> u64 {
        self.x = self.x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for k in 0..MAP_ENTRIES {
            let key = (k.wrapping_mul(0x9E37_79B9) ^ self.x) & 0xffff_ffff;
            map.insert(key, vec![k as u8; 48]);
        }
        let mut acc = 0u64;
        while let Some((k, v)) = map.pop_first() {
            acc = acc.wrapping_add(k ^ u64::from(v[0]));
        }
        acc
    }
}

/// The samples of one run and the reference work that makes them.
#[derive(Debug)]
pub struct HostSpeed {
    reference: Reference,
    /// (host ns at the middle of the sample, reference ns), in time order.
    samples: Vec<(u64, u64)>,
    next_ns: u64,
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}

impl HostSpeed {
    /// A sampler that has taken its first few samples.
    pub fn new() -> Self {
        let mut s = HostSpeed {
            reference: Reference { x: 0 },
            samples: Vec::new(),
            next_ns: 0,
        };
        for _ in 0..WARM_SAMPLES {
            s.sample();
        }
        s
    }

    /// Take a sample if [`EVERY_NS`] have passed since the last one.
    /// Call it only between timed intervals.
    pub fn between_ops(&mut self) {
        if now_ns() >= self.next_ns {
            self.sample();
        }
    }

    /// One untimed pass first: the timed passes then reuse the heap
    /// memory it freed and find it in the caches, so a sample depends
    /// little on what the op before it left there. The sample is the
    /// fastest of [`PASSES`] timed passes.
    fn sample(&mut self) {
        black_box(self.reference.run());
        let start = now_ns();
        let mut fastest = u64::MAX;
        for _ in 0..PASSES {
            let t0 = now_ns();
            black_box(self.reference.run());
            fastest = fastest.min(now_ns() - t0);
        }
        let end = now_ns();
        self.samples.push((start + (end - start) / 2, fastest));
        self.next_ns = end + EVERY_NS;
    }

    /// Reference ns of every sample.
    pub fn reference_ns(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, ns)| ns as f64).collect()
    }

    /// The factor that turns a host time measured around `at` into
    /// nominal-host time: `NOMINAL_NS` ÷ the median reference time of the
    /// samples within [`WINDOW_NS`] of `at` (the [`MIN_SAMPLES`] nearest,
    /// if the window holds fewer).
    pub fn scale_at(&self, at: u64) -> f64 {
        let s = &self.samples;
        let mut lo = s.partition_point(|&(t, _)| t + WINDOW_NS < at);
        let mut hi = s.partition_point(|&(t, _)| t <= at + WINDOW_NS);
        while hi - lo < MIN_SAMPLES.min(s.len()) {
            // Widen towards the nearer neighbour.
            let left = lo.checked_sub(1).map(|i| at.abs_diff(s[i].0));
            let right = s.get(hi).map(|&(t, _)| at.abs_diff(t));
            match (left, right) {
                (Some(l), Some(r)) if l <= r => lo -= 1,
                (Some(_), None) => lo -= 1,
                _ => hi += 1,
            }
        }
        let ns: Vec<f64> = s[lo..hi].iter().map(|&(_, n)| n as f64).collect();
        NOMINAL_NS / median(&ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_uses_the_samples_around_a_time() {
        let mut s = HostSpeed::new();
        let base = now_ns() + 10 * WINDOW_NS;
        s.samples = (0..40u64)
            .map(|i| {
                let ns = NOMINAL_NS as u64 * if i < 20 { 1 } else { 2 };
                (base + i * EVERY_NS * 2, ns)
            })
            .collect();
        assert_eq!(s.scale_at(base), 1.0);
        assert_eq!(s.scale_at(base + 39 * EVERY_NS * 2), 0.5);
        // Far outside the samples: the nearest ones.
        assert_eq!(s.scale_at(0), 1.0);
        assert_eq!(s.scale_at(u64::MAX / 2), 0.5);
    }
}
