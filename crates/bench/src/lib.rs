//! Shared helpers for the experiment harness: the [`lab`] spec/plan/run/
//! gate pipeline, the [`drivers`] that execute each experiment, and the
//! table/format utilities the drivers print with.

pub mod drivers;
pub mod lab;

/// Print an aligned text table: a `== title ==` line, the headers, then
/// one right-aligned line per row of cells.
pub fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let headers: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        for (w, c) in widths.iter_mut().zip(row) {
            *w = (*w).max(c.len());
        }
    }
    for cells in std::iter::once(&headers).chain(rows) {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", padded.join("  ").trim_end());
    }
}

/// Format a `u64` compactly.
pub fn fmt(x: u64) -> String {
    x.to_string()
}

/// Events-per-second over a measured wall clock, kept finite on sub-tick
/// clocks: a `Duration` that rounded to zero is clamped to one
/// microsecond (the resolution every bench reports in), so the committed
/// `BENCH_*.json` never carries the `u64`-saturated garbage that
/// `count / 0.0` would cast to. Regression for issue 7's rate-computation
/// satellite — tiny cells on fast machines can finish inside one tick.
pub fn rate_per_sec(count: u64, wall: std::time::Duration) -> u64 {
    let secs = wall.as_secs_f64().max(1e-6);
    (count as f64 / secs) as u64
}

/// Format a ratio with 2 decimals.
pub fn ratio(a: u64, b: u64) -> String {
    if b == 0 {
        "-".into()
    } else {
        format!("{:.2}", a as f64 / b as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints() {
        table("demo", &["n", "rounds"], &[vec!["10".into(), "20".into()]]);
    }

    #[test]
    fn ratio_handles_zero() {
        assert_eq!(ratio(5, 0), "-");
        assert_eq!(ratio(6, 3), "2.00");
    }

    #[test]
    fn rate_stays_finite_on_sub_tick_walls() {
        use std::time::Duration;
        assert_eq!(rate_per_sec(1_000_000, Duration::from_secs(1)), 1_000_000);
        assert_eq!(rate_per_sec(500, Duration::from_millis(250)), 2_000);
        // The zero-wall regression: clamps to the 1 µs resolution floor
        // instead of dividing to inf (which `as u64` saturates to MAX).
        assert_eq!(rate_per_sec(5, Duration::ZERO), 5_000_000);
        assert!(rate_per_sec(u32::MAX as u64, Duration::ZERO) < u64::MAX);
        assert_eq!(rate_per_sec(0, Duration::ZERO), 0);
        // Sub-microsecond walls clamp identically.
        assert_eq!(
            rate_per_sec(7, Duration::from_nanos(3)),
            rate_per_sec(7, Duration::ZERO)
        );
    }
}
