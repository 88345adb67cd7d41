//! The benchmark's own arithmetic: order statistics, ratios with their
//! bases, scheduled-send lateness, and the metric-name rules. Everything
//! here is pure and unit-tested, so a reported number can be traced back
//! to a rule that is checked.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// 1-based nearest rank of quantile `q` in `n` samples: the smallest rank
/// `r` with `r / n >= q`.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank quantile `q` of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, q)
    }
}

/// Fewest samples for which the nearest-rank quantile `q` has at least
/// `beyond` samples above it.
pub fn samples_needed(q: f64, beyond: usize) -> usize {
    let mut n = beyond + 1;
    while samples_beyond(n, q) < beyond {
        n += 1;
    }
    n
}

/// A nearest-rank percentile together with what it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample value at the nearest rank.
    pub value: f64,
    /// How many samples it was taken from.
    pub samples: usize,
    /// How many samples lie beyond it.
    pub beyond: usize,
}

impl Percentile {
    /// Whether at least ten samples lie beyond the reported value, the
    /// rule for reporting a tail percentile.
    pub fn is_supported(&self) -> bool {
        self.beyond >= 10
    }
}

/// Nearest-rank quantile `q` of `values`; `None` when empty.
pub fn percentile(values: &[f64], q: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Percentile {
        value: v[nearest_rank(v.len(), q) - 1],
        samples: v.len(),
        beyond: samples_beyond(v.len(), q),
    })
}

/// A ratio that keeps its numerator and denominator, so every reported
/// rate can be printed with its base.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    /// What was counted.
    pub num: f64,
    /// What it was counted against.
    pub den: f64,
}

impl Ratio {
    /// `num / den`, or `None` when the base is zero.
    pub fn value(&self) -> Option<f64> {
        (self.den != 0.0).then(|| self.num / self.den)
    }

    /// The ratio for reporting: a zero base reads as zero, and the base
    /// is reported next to it, so the reader can tell "no lookups" from
    /// "no hits".
    pub fn or_zero(&self) -> f64 {
        self.value().unwrap_or(0.0)
    }
}

/// How late each request was sent against its schedule, in
/// nanoseconds. `due[i]` and `sent[i]` are offsets from the same origin;
/// a request sent early (which the generator never does) counts as on
/// time.
pub fn lateness_ns(due: &[u64], sent: &[u64]) -> Vec<u64> {
    due.iter()
        .zip(sent)
        .map(|(&d, &s)| s.saturating_sub(d))
        .collect()
}

/// Evenly spaced send times for `n` requests at `rate` per second,
/// starting at offset 0: request `i` is due at `i / rate` seconds.
pub fn schedule_ns(n: usize, rate: f64) -> Vec<u64> {
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    (0..n).map(|i| (i as f64 * 1e9 / rate) as u64).collect()
}

/// Whether `name` is a valid metric name: it starts with a letter or a
/// digit, is at most 64 characters, and uses only `[A-Za-z0-9_.-]`.
pub fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn is_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(samples_needed(0.99, 10), 1000);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_needed(0.5, 10), 20);
        assert_eq!(samples_beyond(19, 0.5), 9);
    }

    #[test]
    fn reported_percentile_knows_what_lies_beyond_it() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&values, 0.99).expect("non-empty");
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.samples, 1000);
        assert_eq!(p99.beyond, 10);
        assert!(p99.is_supported());
        let short = percentile(&values[..500], 0.99).expect("non-empty");
        assert_eq!(short.beyond, 5);
        assert!(!short.is_supported());
        // Order of the input does not matter.
        let mut reversed = values.clone();
        reversed.reverse();
        assert_eq!(percentile(&reversed, 0.99), Some(p99));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(1, 0.99), 1);
        assert_eq!(nearest_rank(100, 0.5), 50);
        assert_eq!(nearest_rank(101, 0.5), 51);
        assert_eq!(nearest_rank(10, 1.0), 10);
        assert_eq!(nearest_rank(10, 0.0), 1);
    }

    #[test]
    fn ratios_carry_their_base() {
        let hits = Ratio {
            num: 30.0,
            den: 40.0,
        };
        assert_eq!(hits.value(), Some(0.75));
        assert_eq!(hits.den, 40.0);
        let empty = Ratio { num: 0.0, den: 0.0 };
        assert_eq!(empty.value(), None);
        assert_eq!(empty.or_zero(), 0.0);
    }

    #[test]
    fn lateness_is_measured_against_the_schedule() {
        let due = schedule_ns(4, 1000.0);
        assert_eq!(due, vec![0, 1_000_000, 2_000_000, 3_000_000]);
        // Sent on time, 0.5 ms late, early (never negative), 2 ms late.
        let sent = vec![0, 1_500_000, 1_900_000, 5_000_000];
        assert_eq!(lateness_ns(&due, &sent), vec![0, 500_000, 0, 2_000_000]);
    }

    #[test]
    fn metric_names_and_units_follow_the_charset() {
        for ok in ["p99_ms", "netlist.parse_s", "map.dp_k4_s", "9lives", "a-b"] {
            assert!(is_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "has space", "p99%", "ünï", &"x".repeat(65)] {
            assert!(!is_metric_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "MiB", "ratio", "MB/s", "%"] {
            assert!(is_unit(ok), "{ok}");
        }
        for bad in ["", "req per s", &"u".repeat(17)] {
            assert!(!is_unit(bad), "{bad}");
        }
    }
}
