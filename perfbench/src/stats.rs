//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! ratio definitions, and the fold of a span trace into per-name count,
//! total time and self time.

use std::collections::BTreeMap;

use rapids_obs::trace::TraceEvent;

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Samples that must lie above a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The tail the benchmark reports for `n` samples: the highest percentile,
/// capped at p99, that still has at least [`TAIL_SAMPLES_BEYOND`] samples
/// beyond it.  Returns the 0-based index into the ascending-sorted samples
/// and the percentile that index stands for.  It never reports below the
/// median: with too few samples for a tail above it (`n <= 20`) it falls
/// back to the (lower) median.
pub fn tail_rank(n: usize) -> (usize, f64) {
    assert!(n > 0, "a tail needs at least one sample");
    // Nearest-rank p99 is the ceil(0.99 n)-th smallest sample.
    let p99_index = (99 * n).div_ceil(100) - 1;
    let beyond_index = (n - 1).saturating_sub(TAIL_SAMPLES_BEYOND);
    let index = p99_index.min(beyond_index).max((n - 1) / 2);
    (index, 100.0 * (index + 1) as f64 / n as f64)
}

/// The tail value of `values`: the mean of the samples at and beyond the
/// [`tail_rank`], with the percentile that rank stands for.  A single
/// order statistic this far out jumps between the levels a timer-driven
/// delay puts latencies on (serve_mix replies wait 0 or about 40 ms for
/// a delayed acknowledgement); the mean of the eleven or more samples
/// from that rank up moves with them smoothly.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (index, percentile) = tail_rank(sorted.len());
    let beyond = &sorted[index..];
    (beyond.iter().sum::<f64>() / beyond.len() as f64, percentile)
}

/// `num / den`, defined as 0 when nothing was attempted (`den == 0`).
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Share of applied swaps that survived: `1 - rolled_back / applied`;
/// 0 when no swap was applied.
pub fn keep_ratio(applied: u64, rolled_back: u64) -> f64 {
    if applied == 0 {
        0.0
    } else {
        1.0 - ratio(rolled_back, applied)
    }
}

/// Tracing overhead of a traced run against an untraced one, percent.
pub fn overhead_pct(traced_s: f64, untraced_s: f64) -> f64 {
    if untraced_s <= 0.0 {
        0.0
    } else {
        100.0 * (traced_s / untraced_s - 1.0)
    }
}

/// Folded time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanFold {
    /// Closed spans of this name.
    pub count: u64,
    /// Sum of their durations, seconds.
    pub total_s: f64,
    /// Sum of their durations minus the time their direct children
    /// cover, seconds.
    pub self_s: f64,
}

/// Folds a trace into per-name [`SpanFold`]s.  Nesting is recovered per
/// thread from interval containment (the tracer records no parent ids);
/// on one thread RAII spans are properly nested, so a span's direct
/// children never overlap each other.
pub fn fold_spans(events: &[TraceEvent]) -> BTreeMap<String, SpanFold> {
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| (events[i].tid, events[i].ts_ns, std::cmp::Reverse(events[i].dur_ns)));
    let mut child_ns = vec![0u64; events.len()];
    let mut open: Vec<usize> = Vec::new();
    let mut tid = None;
    for &i in &order {
        let e = &events[i];
        if tid != Some(e.tid) {
            open.clear();
            tid = Some(e.tid);
        }
        while let Some(&top) = open.last() {
            let t = &events[top];
            if e.ts_ns >= t.ts_ns + t.dur_ns {
                open.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = open.last() {
            child_ns[parent] += e.dur_ns;
        }
        open.push(i);
    }
    let mut folds: BTreeMap<String, SpanFold> = BTreeMap::new();
    for (e, &children) in events.iter().zip(&child_ns) {
        let fold = folds.entry(e.name.clone()).or_default();
        fold.count += 1;
        fold.total_s += e.dur_ns as f64 * 1e-9;
        fold.self_s += e.dur_ns.saturating_sub(children) as f64 * 1e-9;
    }
    folds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &str, tid: u32, ts_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent { name: name.to_string(), tid, ts_ns, dur_ns }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // outer [0, 100) holds mid [10, 60) and leaf [70, 80);
        // mid holds inner [20, 30) and inner [40, 45).
        let events = vec![
            event("inner", 1, 40, 5),
            event("outer", 1, 0, 100),
            event("mid", 1, 10, 50),
            event("inner", 1, 20, 10),
            event("leaf", 1, 70, 10),
            // Another thread: overlapping in time, never a child.
            event("other", 2, 5, 90),
        ];
        let folds = fold_spans(&events);
        let ns = |x: f64| (x * 1e9).round() as u64;
        assert_eq!(folds["outer"].count, 1);
        assert_eq!(ns(folds["outer"].total_s), 100);
        assert_eq!(ns(folds["outer"].self_s), 100 - 50 - 10);
        assert_eq!(ns(folds["mid"].self_s), 50 - 10 - 5);
        assert_eq!(folds["inner"].count, 2);
        assert_eq!(ns(folds["inner"].total_s), 15);
        assert_eq!(ns(folds["inner"].self_s), 15);
        assert_eq!(ns(folds["leaf"].self_s), 10);
        assert_eq!(ns(folds["other"].self_s), 90);
    }

    #[test]
    fn sibling_starting_at_a_span_end_is_not_its_child() {
        let events = vec![event("a", 1, 0, 10), event("b", 1, 10, 10)];
        let folds = fold_spans(&events);
        assert_eq!((folds["a"].self_s * 1e9).round() as u64, 10);
        assert_eq!((folds["b"].self_s * 1e9).round() as u64, 10);
    }

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond() {
        // 1000 samples: p99 is the 990th smallest, with exactly 10 above.
        assert_eq!(tail_rank(1000), (989, 99.0));
        // 2000 samples: p99 has 20 above it.
        assert_eq!(tail_rank(2000), (1979, 99.0));
        // 500 samples: p99 would leave 5 above, so the rule backs off.
        let (index, percentile) = tail_rank(500);
        assert_eq!(500 - 1 - index, TAIL_SAMPLES_BEYOND);
        assert_eq!(percentile, 98.0);
        // 21 samples: the 11th smallest is both the median and the
        // highest rank with ten above it.
        assert_eq!(tail_rank(21), (10, 100.0 * 11.0 / 21.0));
        assert_eq!(tail_rank(31).0, 20);
        // Too few for a tail above the median: the lower median.
        assert_eq!(tail_rank(13), (6, 100.0 * 7.0 / 13.0));
        assert_eq!(tail_rank(5), (2, 60.0));
        assert_eq!(tail_rank(1), (0, 100.0));
    }

    #[test]
    fn tail_value_is_the_mean_from_the_tail_rank_up() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let (value, percentile) = tail(&values);
        // p95 is 190, with ten samples beyond it; the tail is the mean of
        // 190..=200.
        assert_eq!(percentile, 95.0);
        assert_eq!(value, 195.0);
        assert_eq!(tail(&[5.0, 1.0, 3.0]), (4.0, 200.0 / 3.0));
    }

    #[test]
    fn ratio_metrics_are_defined_on_empty_bases() {
        assert_eq!(ratio(3, 4), 0.75);
        assert_eq!(ratio(0, 0), 0.0);
        assert_eq!(keep_ratio(10, 4), 0.6);
        assert_eq!(keep_ratio(0, 0), 0.0);
        assert_eq!(keep_ratio(5, 0), 1.0);
        assert!((overhead_pct(1.1, 1.0) - 10.0).abs() < 1e-9);
        assert_eq!(overhead_pct(1.0, 0.0), 0.0);
    }
}
