//! Order statistics and the daemon-histogram arithmetic the report uses.

use phylo_obs::json::Json;
use phylo_obs::{bucket_bounds, bucket_of, HistogramSnapshot, N_BUCKETS};

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p`% of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n ≥ 1` samples.
/// The epsilon keeps `99.9 × n / 100` from rounding up past an exact rank.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n ≥ 1`.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| beyond(n, p) >= 10)
}

pub use bfhrf_bench::stats::median;

/// Sort a sample vector in place and hand it back, for [`percentile`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// A series of a `stats` response's metrics document, by name and labels.
pub fn find_series<'a>(metrics: &'a Json, name: &str, labels: &[(&str, &str)]) -> Option<&'a Json> {
    metrics.get("series")?.as_arr()?.iter().find(|s| {
        s.get("name").and_then(Json::as_str) == Some(name)
            && labels.iter().all(|(k, v)| {
                s.get("labels")
                    .and_then(|l| l.get(k))
                    .and_then(Json::as_str)
                    == Some(v)
            })
    })
}

/// Rebuild a histogram from its sparse `{"le", "n"}` exposition.
pub fn histogram_of(series: &Json) -> HistogramSnapshot {
    let mut buckets = [0u64; N_BUCKETS];
    for b in series.get("buckets").and_then(Json::as_arr).unwrap_or(&[]) {
        if let (Some(le), Some(n)) = (
            b.get("le").and_then(Json::as_u64),
            b.get("n").and_then(Json::as_u64),
        ) {
            buckets[bucket_of(le)] += n;
        }
    }
    let field = |k: &str| series.get(k).and_then(Json::as_u64).unwrap_or(0);
    HistogramSnapshot {
        count: field("count"),
        sum: field("sum"),
        max: field("max"),
        buckets,
    }
}

/// The samples recorded between two snapshots of one histogram. The
/// running maximum cannot be differenced, so the delta's maximum is the
/// later maximum when it lies in the delta's top bucket, else that
/// bucket's upper bound.
pub fn histogram_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let buckets: [u64; N_BUCKETS] =
        std::array::from_fn(|i| after.buckets[i].saturating_sub(before.buckets[i]));
    let max = match buckets.iter().rposition(|&n| n > 0) {
        None => 0,
        Some(top) if bucket_of(after.max) == top => after.max,
        Some(top) => bucket_bounds(top).1,
    };
    HistogramSnapshot {
        count: after.count.saturating_sub(before.count),
        sum: after.sum.saturating_sub(before.sum),
        max,
        buckets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0, "rank clamps to the first sample");
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // ~180 mutation samples: p95 leaves 9 beyond, p90 leaves 18.
        assert_eq!(tail_percentile(180), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(n, p) >= 10, "n={n} p={p}");
            }
        }
    }

    fn series(count: u64, max: u64, buckets: &[(u64, u64)]) -> Json {
        let b = buckets
            .iter()
            .map(|&(le, n)| Json::obj(vec![("le", le.into()), ("n", n.into())]))
            .collect();
        Json::obj(vec![
            ("count", count.into()),
            ("sum", 0u64.into()),
            ("max", max.into()),
            ("buckets", Json::Arr(b)),
        ])
    }

    #[test]
    fn sparse_histogram_buckets_subtract() {
        // Before: 3 samples in [2048, 4095]. After: 2 more there, 4 new in
        // [8192, 16383] and one new bucket that was absent before.
        let before = histogram_of(&series(3, 3000, &[(4095, 3)]));
        let after = histogram_of(&series(10, 9000, &[(1023, 1), (4095, 5), (16383, 4)]));
        let d = histogram_delta(&before, &after);
        assert_eq!(d.count, 7);
        assert_eq!(d.buckets[bucket_of(1023)], 1);
        assert_eq!(d.buckets[bucket_of(4095)], 2);
        assert_eq!(d.buckets[bucket_of(16383)], 4);
        assert_eq!(d.buckets.iter().sum::<u64>(), 7);
        assert_eq!(d.max, 9000, "the later max lies in the delta's top bucket");
        let p50 = d.quantile(0.5);
        assert!((8192.0..=9000.0).contains(&p50), "p50 {p50}");
        // A later max outside the delta's top bucket is not the delta's max.
        let after = histogram_of(&series(4, 9000, &[(4095, 3), (1023, 1)]));
        let d = histogram_delta(&before, &after);
        assert_eq!(d.max, 1023);
        // Nothing new: an empty delta.
        let d = histogram_delta(&before, &before);
        assert_eq!((d.count, d.max), (0, 0));
    }

    #[test]
    fn finds_series_by_labels() {
        let doc = Json::obj(vec![(
            "series",
            Json::Arr(vec![
                Json::obj(vec![
                    ("name", "serve_request_ns".into()),
                    ("labels", Json::obj(vec![("op", "ping".into())])),
                ]),
                Json::obj(vec![
                    ("name", "serve_request_ns".into()),
                    ("labels", Json::obj(vec![("op", "avgrf".into())])),
                    ("count", 5u64.into()),
                ]),
            ]),
        )]);
        let s = find_series(&doc, "serve_request_ns", &[("op", "avgrf")]).unwrap();
        assert_eq!(s.get("count").and_then(Json::as_u64), Some(5));
        assert!(find_series(&doc, "serve_request_ns", &[("op", "batch")]).is_none());
    }
}
