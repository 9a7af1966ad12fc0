//! Host wall clock, benchmark-side spans and order statistics.
//!
//! Every host-time figure the benchmark reports comes from [`now_ns`].
//! The simulation itself never sees the wall clock: spans are recorded
//! around the benchmark's own calls into each layer, never inside them.

use std::sync::OnceLock;
use std::time::Instant;

use crate::speed::HostSpeed;

/// Host nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    // lint:allow(D002 the benchmark's one wall-clock read: host time is what it measures, and no simulated state depends on it)
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One benchmark-side span: a call the benchmark made into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// The call, e.g. `Cluster::run_for`.
    pub name: &'static str,
    /// The layer the call enters (`sim`, `core`, …; `bench` for the
    /// benchmark's own op spans).
    pub layer: &'static str,
    /// Host start, ns since the process epoch.
    pub start_ns: u64,
    /// Host end.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The op this span belongs to (0 = set-up or probes).
    pub op: u64,
}

/// Span recorder. Off, it only runs the closures it is given and never
/// reads the clock, so an untraced run pays nothing for it.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Op id stamped on spans opened from now on.
    pub op: u64,
    /// The host-speed reference an untraced run samples between ops.
    pub speed: Option<HostSpeed>,
}

impl Tracer {
    /// A tracer that records (`true`) or only passes calls through.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            ..Tracer::default()
        }
    }

    /// Switch recording on or off between episodes.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "switch only between spans");
        self.on = on;
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, layer: &'static str, name: &'static str) {
        if !self.on {
            return;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            layer,
            start_ns: now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let id = self.stack.pop().expect("close matches an open");
        self.spans[id as usize].end_ns = now_ns();
    }

    /// Run `f` inside a span.
    pub fn call<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(layer, name);
        let r = f();
        self.close();
        r
    }

    /// Recorded spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer over the spans from index `from` on: each
    /// span's duration minus the part its direct children cover, summed
    /// by layer.
    pub fn self_ns_by_layer(&self, from: usize) -> Vec<(&'static str, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by: Vec<(&'static str, u64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(child).skip(from) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            match by.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, t)) => *t += own,
                None => by.push((s.layer, own)),
            }
        }
        by
    }

    /// The spans as JSON lines (name, layer, start, end, parent, op).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}\n",
                s.name, s.layer, s.start_ns, s.end_ns, s.op
            ));
        }
        out
    }
}

/// Nearest-rank percentile of `v` (`q` in 0..=1); 0 for an empty slice.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Median of `v`; 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// the command line, so one seed always generates the same inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.open("bench", "op");
        t.call("sim", "run", || {
            std::hint::black_box((0..1000).sum::<u64>())
        });
        t.close();
        let by = t.self_ns_by_layer(0);
        let total = t.spans()[0].end_ns - t.spans()[0].start_ns;
        let sum: u64 = by.iter().map(|(_, n)| n).sum();
        assert_eq!(sum, total, "self times partition the root span");
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
