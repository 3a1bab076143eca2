//! The benchmark's own arithmetic: percentile ranks, failure fractions,
//! medians, means from exact count and sum, and metric-name reduction.

use shareddb_common::Error;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// A percentile of a full sample, read by the nearest-rank rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the rank.
    pub value: f64,
    /// 1-based rank into the sorted sample: `ceil(p * n)`.
    pub rank: usize,
    /// Samples strictly after the rank.
    pub beyond: usize,
}

/// Nearest-rank percentile of `sorted` (ascending) for `p` in `(0, 1]`.
/// Fails when fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond the rank,
/// so a tail is never read from a handful of observations.
pub fn percentile(sorted: &[f64], p: f64) -> Result<Percentile, String> {
    if !(p > 0.0 && p <= 1.0) {
        return Err(format!("percentile {p} is outside (0, 1]"));
    }
    let n = sorted.len();
    if n == 0 {
        return Err("percentile of an empty sample".into());
    }
    // The small epsilon keeps ranks such as 0.99 * 1000 = 990 from rounding
    // up to 991 through binary floating point.
    let rank = ((p * n as f64) - 1e-9).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    let beyond = n - rank;
    if beyond < MIN_SAMPLES_BEYOND {
        return Err(format!(
            "p{} of {n} samples has only {beyond} samples beyond it (need {MIN_SAMPLES_BEYOND})",
            p * 100.0
        ));
    }
    Ok(Percentile {
        value: sorted[rank - 1],
        rank,
        beyond,
    })
}

/// Fewest samples in one part of [`parts_percentile`].
pub const MIN_PART_SAMPLES: usize = 2_000;
/// Most parts of [`parts_percentile`].
pub const MAX_PARTS: usize = 10;

/// A percentile that one bad second cannot dominate: the samples, in
/// completion order, are cut into up to [`MAX_PARTS`] consecutive parts of
/// equal count and at least [`MIN_PART_SAMPLES`] each, and the result is the
/// median of the parts' nearest-rank percentiles. With fewer samples than
/// two parts need, it is the percentile of the whole sample. Returns the
/// value, the number of parts and the fewest samples beyond the rank in any
/// part.
pub fn parts_percentile(in_order: &[f64], p: f64) -> Result<(f64, usize, usize), String> {
    let parts = (in_order.len() / MIN_PART_SAMPLES).clamp(1, MAX_PARTS);
    let size = in_order.len() / parts;
    let mut values = Vec::with_capacity(parts);
    let mut fewest_beyond = usize::MAX;
    for i in 0..parts {
        let end = if i + 1 == parts {
            in_order.len()
        } else {
            (i + 1) * size
        };
        let mut part = in_order[i * size..end].to_vec();
        part.sort_by(f64::total_cmp);
        let at = percentile(&part, p)?;
        fewest_beyond = fewest_beyond.min(at.beyond);
        values.push(at.value);
    }
    Ok((median(&values), parts, fewest_beyond))
}

/// Mean of the middle half of `values`: the lowest and the highest quarter
/// (by rank, rounded down) are left out.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    mean(middle.iter().sum(), middle.len() as u64)
}

/// Median of an unsorted sample (mean of the two middle values for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Mean from an exact count and sum; 0 for an empty count.
pub fn mean(sum: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// How one operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpEnd {
    /// Every statement succeeded within the response-time limit.
    Ok,
    /// Every statement succeeded, but past the limit.
    Late,
    /// A statement failed or was refused.
    Failed,
}

impl OpEnd {
    /// Classifies an operation from its first statement error (if any) and
    /// whether it finished within its limit. Any error counts as a failure,
    /// including a retryable admission refusal (`Overloaded`).
    pub fn classify(error: Option<&Error>, within_limit: bool) -> OpEnd {
        match (error, within_limit) {
            (Some(_), _) => OpEnd::Failed,
            (None, true) => OpEnd::Ok,
            (None, false) => OpEnd::Late,
        }
    }
}

/// Attempted, failed and late operation counts of a window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    pub attempted: u64,
    pub failed: u64,
    pub late: u64,
}

impl OpCounts {
    pub fn record(&mut self, end: OpEnd) {
        self.attempted += 1;
        match end {
            OpEnd::Ok => {}
            OpEnd::Late => self.late += 1,
            OpEnd::Failed => self.failed += 1,
        }
    }

    /// Operations that completed without error within their limit.
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed - self.late
    }

    /// Failed or refused operations divided by attempted operations.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Operations that completed without error within their limit, divided
    /// by attempted operations.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.ok() as f64 / self.attempted as f64
        }
    }
}

/// Reduces an operator name to `[a-z0-9_]`: lower case, every other run of
/// characters becomes one `_`, no leading or trailing `_`
/// (`Scan(ORDER_LINE)#2` → `scan_order_line_2`).
pub fn reduce_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        let c = c.to_ascii_lowercase();
        if c.is_ascii_lowercase() || c.is_ascii_digit() {
            out.push(c);
        } else if !out.is_empty() && !out.ends_with('_') {
            out.push('_');
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_rule() {
        let sample = ramp(1000);
        let p50 = percentile(&sample, 0.50).unwrap();
        assert_eq!((p50.value, p50.rank, p50.beyond), (500.0, 500, 500));
        let p99 = percentile(&sample, 0.99).unwrap();
        assert_eq!((p99.value, p99.rank, p99.beyond), (990.0, 990, 10));
        // A rank between samples rounds up.
        let p99 = percentile(&ramp(1001), 0.99).unwrap();
        assert_eq!((p99.value, p99.rank, p99.beyond), (991.0, 991, 10));
        let p50 = percentile(&ramp(21), 0.5).unwrap();
        assert_eq!(p50.value, 11.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 999 samples: rank 990 leaves 9 beyond, which is too few.
        assert!(percentile(&ramp(999), 0.99).is_err());
        assert!(percentile(&ramp(1000), 0.99).is_ok());
        assert!(percentile(&ramp(10), 0.5).is_err());
        assert!(percentile(&ramp(20), 0.5).is_ok());
        assert!(percentile(&[], 0.5).is_err());
        assert!(percentile(&ramp(100), 0.0).is_err());
        assert!(percentile(&ramp(100), 1.5).is_err());
    }

    #[test]
    fn tail_is_the_median_of_equal_count_parts() {
        // Too few samples for two parts: the whole sample's p99.
        let (value, parts, beyond) = parts_percentile(&ramp(3_000), 0.99).unwrap();
        assert_eq!((value, parts, beyond), (2_970.0, 1, 30));
        // Three parts of 2000: one bad part does not move the median.
        let mut samples: Vec<f64> = vec![1.0; 4_000];
        samples.extend(vec![100.0; 2_000]);
        let (value, parts, _) = parts_percentile(&samples, 0.99).unwrap();
        assert_eq!((value, parts), (1.0, 3));
        // The count of parts is capped; the last part takes the remainder.
        let (_, parts, beyond) = parts_percentile(&ramp(25_001), 0.99).unwrap();
        assert_eq!((parts, beyond), (MAX_PARTS, 25));
        assert!(parts_percentile(&ramp(500), 0.99).is_err());
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        // Ten per-second counts with two slow and two fast seconds.
        let seconds = [
            100.0, 10.0, 101.0, 99.0, 500.0, 100.0, 20.0, 102.0, 98.0, 400.0,
        ];
        assert_eq!(interquartile_mean(&seconds), 100.0);
        assert_eq!(interquartile_mean(&[4.0, 2.0, 3.0]), 3.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn refused_operations_count_as_failed() {
        let mut counts = OpCounts::default();
        let refused = Error::Overloaded("session in-flight limit".into());
        assert!(refused.is_retryable());
        counts.record(OpEnd::classify(Some(&refused), true));
        counts.record(OpEnd::classify(Some(&Error::DeadlineExceeded), true));
        counts.record(OpEnd::classify(None, true));
        counts.record(OpEnd::classify(None, false));
        assert_eq!(counts.attempted, 4);
        assert_eq!(counts.failed, 2);
        assert_eq!(counts.late, 1);
        assert_eq!(counts.ok(), 1);
        assert_eq!(counts.failed_frac(), 0.5);
        assert_eq!(counts.ok_frac(), 0.25);
        assert_eq!(OpCounts::default().failed_frac(), 0.0);
    }

    #[test]
    fn operator_names_reduce_to_metric_names() {
        assert_eq!(reduce_name("Scan(ORDER_LINE)#2"), "scan_order_line_2");
        assert_eq!(reduce_name("HashJoin#7"), "hashjoin_7");
        assert_eq!(reduce_name("Probe(ITEM)#0"), "probe_item_0");
        assert_eq!(reduce_name("__TopN[50]__"), "topn_50");
        assert_eq!(reduce_name("GroupBy  (a, b)"), "groupby_a_b");
        assert_eq!(reduce_name(""), "");
    }

    #[test]
    fn mean_from_count_and_sum() {
        assert_eq!(mean(30.0, 3), 10.0);
        assert_eq!(mean(5.0, 0), 0.0);
    }
}
