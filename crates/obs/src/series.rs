//! Virtual-time series: registries sampled on a fixed cadence.
//!
//! The simulator calls [`SeriesStore::record`] whenever a sample is
//! [`SeriesStore::due`]; each metric of each machine becomes its own
//! [`TimeSeries`] keyed `"m{machine}.{metric}"`. Points are appended in
//! virtual-time order, so queries are simple scans over sorted data.

use crate::registry::MetricsRegistry;
use demos_types::{MachineId, Time};
use std::collections::BTreeMap;

/// One metric's samples over virtual time.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(Time, u64)>,
}

impl TimeSeries {
    /// Append a sample (times must be non-decreasing).
    pub fn push(&mut self, at: Time, value: u64) {
        debug_assert!(
            self.points.last().is_none_or(|&(t, _)| t <= at),
            "samples out of order"
        );
        self.points.push((at, value));
    }

    /// All samples in time order.
    pub fn points(&self) -> &[(Time, u64)] {
        &self.points
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<(Time, u64)> {
        self.points.last().copied()
    }

    /// Largest sampled value.
    pub fn max(&self) -> u64 {
        self.points.iter().map(|&(_, v)| v).max().unwrap_or(0)
    }

    /// Samples falling in `[from, to)`.
    pub fn between(&self, from: Time, to: Time) -> impl Iterator<Item = (Time, u64)> + '_ {
        self.points
            .iter()
            .copied()
            .filter(move |&(t, _)| from <= t && t < to)
    }
}

/// All time series of one simulation run, sampled on a fixed cadence.
#[derive(Debug, Clone)]
pub struct SeriesStore {
    cadence: demos_types::Duration,
    due_at: Time,
    series: BTreeMap<String, TimeSeries>,
}

impl SeriesStore {
    /// Store sampling every `cadence` of virtual time (first sample at
    /// the epoch).
    pub fn new(cadence: demos_types::Duration) -> Self {
        assert!(cadence.as_micros() > 0, "sampling cadence must be positive");
        SeriesStore {
            cadence,
            due_at: Time::ZERO,
            series: BTreeMap::new(),
        }
    }

    /// The configured cadence.
    pub fn cadence(&self) -> demos_types::Duration {
        self.cadence
    }

    /// Whether a sample is due at `now`.
    pub fn due(&self, now: Time) -> bool {
        now >= self.due_at
    }

    /// Record one machine's registry at `now`. The caller samples every
    /// machine at the same instant, then calls [`SeriesStore::advance`].
    pub fn record(&mut self, now: Time, machine: MachineId, registry: &MetricsRegistry) {
        for (name, v) in registry.counters().chain(registry.gauges()) {
            self.series
                .entry(format!("m{}.{}", machine.0, name))
                .or_default()
                .push(now, v);
        }
    }

    /// Advance the next-due instant past `now`, keeping the grid aligned
    /// to multiples of the cadence so cadence changes in config don't
    /// shift sample times of unrelated metrics.
    pub fn advance(&mut self, now: Time) {
        let c = self.cadence.as_micros();
        let next = (now.as_micros() / c + 1) * c;
        self.due_at = Time::from_micros(next);
    }

    /// Fetch one series by key (`"m0.runq_depth"`, …).
    pub fn series(&self, key: &str) -> Option<&TimeSeries> {
        self.series.get(key)
    }

    /// All series, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TimeSeries)> + '_ {
        self.series.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of distinct series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demos_types::Duration;

    #[test]
    fn cadence_gates_samples() {
        let mut s = SeriesStore::new(Duration::from_millis(10));
        assert!(s.due(Time::ZERO));
        let mut r = MetricsRegistry::new();
        r.gauge_set("runq", 3);
        s.record(Time::ZERO, MachineId(0), &r);
        s.advance(Time::ZERO);
        assert!(!s.due(Time::from_micros(9_999)));
        assert!(s.due(Time::from_micros(10_000)));
        r.gauge_set("runq", 5);
        s.record(Time::from_micros(10_000), MachineId(0), &r);
        s.advance(Time::from_micros(10_000));
        let series = s.series("m0.runq").unwrap();
        assert_eq!(
            series.points(),
            &[(Time::ZERO, 3), (Time::from_micros(10_000), 5)]
        );
        assert_eq!(series.max(), 5);
    }

    #[test]
    fn advance_keeps_grid_aligned() {
        let mut s = SeriesStore::new(Duration::from_millis(1));
        // Sample fires late (event at 2.7 ms); next due snaps to 3 ms.
        s.advance(Time::from_micros(2_700));
        assert!(!s.due(Time::from_micros(2_999)));
        assert!(s.due(Time::from_micros(3_000)));
    }

    #[test]
    fn between_filters_half_open() {
        let mut ts = TimeSeries::default();
        for i in 0..5 {
            ts.push(Time::from_micros(i * 10), i);
        }
        let got: Vec<_> = ts
            .between(Time::from_micros(10), Time::from_micros(40))
            .map(|(_, v)| v)
            .collect();
        assert_eq!(got, vec![1, 2, 3]);
    }
}
