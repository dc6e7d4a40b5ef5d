//! Small statistics helpers: the paper's §VI.C linearity analysis
//! (least-squares R² and the Pearson correlation coefficient of runtime
//! series against `n` or `r`), and the sample median rfbench reports.

/// Pearson correlation coefficient of paired samples.
///
/// # Panics
/// Panics if the slices differ in length or have fewer than 2 points.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "paired samples required");
    assert!(xs.len() >= 2, "need at least two points");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    sxy / (sxx.sqrt() * syy.sqrt())
}

/// Least-squares linear fit `y ≈ a + b·x`; returns `(a, b, r_squared)`.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    assert_eq!(xs.len(), ys.len(), "paired samples required");
    assert!(xs.len() >= 2, "need at least two points");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
    }
    let b = sxy / sxx;
    let a = my - b * mx;
    // R² = 1 − SS_res / SS_tot
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let pred = a + b * x;
        ss_res += (y - pred) * (y - pred);
        ss_tot += (y - my) * (y - my);
    }
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    (a, b, r2)
}

/// Median of a sample (mean of the middle pair for even sizes).
///
/// # Panics
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn perfect_line() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [3.0, 5.0, 7.0, 9.0];
        let (a, b, r2) = linear_fit(&xs, &ys);
        assert!((a - 1.0).abs() < 1e-12);
        assert!((b - 2.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn anti_correlation() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [4.0, 2.0, 0.0];
        assert!((pearson(&xs, &ys) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_quadratic_has_lower_r2_than_line() {
        let xs: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let line: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let quad: Vec<f64> = xs.iter().map(|x| x * x).collect();
        let (_, _, r2_line) = linear_fit(&xs, &line);
        let (_, _, r2_quad) = linear_fit(&xs, &quad);
        assert!(r2_line > r2_quad);
        assert!(r2_quad > 0.9, "a quadratic still correlates strongly");
    }

    #[test]
    #[should_panic(expected = "paired samples")]
    fn mismatched_lengths_panic() {
        pearson(&[1.0, 2.0], &[1.0]);
    }
}
