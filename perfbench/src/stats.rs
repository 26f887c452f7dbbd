//! Pure arithmetic the benchmark derives its metrics with.

/// Bytes per reported megabyte. Every `*_mb` metric is decimal MB.
pub const BYTES_PER_MB: f64 = 1e6;

/// `bytes` in decimal megabytes.
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / BYTES_PER_MB
}

/// `num / den`, or 0 when the base is 0: a ratio over no work is reported
/// as 0, never as NaN or infinity.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count, 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Lower quartile by linear interpolation between the closest ranks
/// (Python's `statistics.quantiles(xs, n=4, method="inclusive")[0]`), so
/// it never falls outside the values; 0 for an empty slice.
pub fn lower_quartile(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = last as f64 / 4.0;
    let i = pos.floor() as usize;
    let frac = pos - i as f64;
    match v.get(i + 1) {
        Some(&next) => v[i] + (next - v[i]) * frac,
        None => v[i],
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spread a run prints is the one the acceptance check computes. With
/// fewer than two values both quartiles are that value (0 when empty).
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives. Non-finite values have no JSON form and print as `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal (the benchmark only escapes what it can emit:
/// quotes, backslashes and control characters).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_with_zero_base_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn mb_is_decimal() {
        assert_eq!(mb(0), 0.0);
        assert_eq!(mb(2_500_000), 2.5);
        assert_eq!(mb(1 << 20), 1.048576);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0));
    }

    #[test]
    fn lower_quartile_interpolates_inside_the_values() {
        // statistics.quantiles(xs, n=4, method="inclusive")[0]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(lower_quartile(&xs), 3.25);
        assert_eq!(lower_quartile(&[2.0, 1.0]), 1.25);
        assert_eq!(lower_quartile(&[5.0, 4.0, 3.0, 2.0, 1.0]), 2.0);
        assert_eq!(lower_quartile(&[9.0]), 9.0);
        assert_eq!(lower_quartile(&[]), 0.0);
    }

    #[test]
    fn json_numbers_keep_digits_and_refuse_non_finite() {
        assert_eq!(json_num(1.2034), "1.2034");
        assert_eq!(json_num(3.0), "3");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
