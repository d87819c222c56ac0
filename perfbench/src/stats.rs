//! Sample statistics with the benchmark's honesty rules: a percentile
//! is reported only when enough samples lie beyond it, and a ratio is
//! always carried with its numerator and denominator.

/// Samples that must lie strictly beyond a percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// The median of `samples` (mean of the middle pair for even counts);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `q`-th percentile (`0 < q < 100`) of `samples`, or
/// `None` when fewer than [`MIN_BEYOND`] samples rank above it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = (q * n as f64 / 100.0).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// Smallest sample count for which [`percentile`] reports `q`.
pub fn samples_needed(q: f64) -> usize {
    (1..)
        .find(|&n: &usize| n - (q * n as f64 / 100.0).ceil() as usize >= MIN_BEYOND)
        .expect("some count supports every percentile below 100")
}

/// One unit of identical work within a run: a pass over a job list or a
/// block of requests, with its operations and simulated work.
#[derive(Clone, Debug, Default)]
pub struct Unit {
    /// Host seconds the unit's operations took.
    pub secs: f64,
    /// Host milliseconds of each operation.
    pub ops_ms: Vec<f64>,
    /// Host seconds of the set-up measured with the unit.
    pub setup_s: f64,
    /// Simulated instructions and engine events the unit carried.
    pub instructions: f64,
    pub events: f64,
}

/// The slowest tenth of `units` by host time (at least one), skipping
/// the first unit, which warms caches.
///
/// Host interference only ever slows a unit. On a shared host it comes
/// and goes on a scale of seconds, so the median unit of a run depends
/// on how much of the run was quiet, while the slowest tenth sits at
/// the steady contended level and repeats from run to run.
pub fn slowest_tenth(units: &[Unit]) -> Vec<&Unit> {
    let mut rest: Vec<&Unit> = units.iter().skip(1).collect();
    rest.sort_by(|a, b| b.secs.total_cmp(&a.secs));
    let k = rest.len().div_ceil(10).max(1);
    rest.truncate(k);
    rest
}

/// Units a run needs so that [`slowest_tenth`] holds enough operations
/// for the 90th percentile, with `per_unit` operations in each unit.
pub fn units_needed(per_unit: usize) -> usize {
    1 + 10 * samples_needed(90.0).div_ceil(per_unit.max(1))
}

/// A ratio kept with its parts, so every printed ratio shows its base.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub den: f64,
}

impl Ratio {
    pub fn new(num: impl Into<f64>, den: impl Into<f64>) -> Ratio {
        Ratio {
            num: num.into(),
            den: den.into(),
        }
    }

    /// The quotient, or 0 when the denominator is 0 (the layer did no
    /// work; the printed base shows that).
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }

    /// `value (num/den)` for the human-readable report.
    pub fn show(&self) -> String {
        format!("{:.6} ({}/{})", self.value(), self.num, self.den)
    }
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
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        // p90 of 99 samples is rank 90: 9 beyond, not enough.
        assert_eq!(percentile(&v, 90.0), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is rank 90 with exactly 10 beyond.
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn samples_needed_matches_the_rule() {
        assert_eq!(samples_needed(50.0), 20);
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(99.0), 1000);
        for q in [50.0, 90.0, 99.0] {
            let n = samples_needed(q);
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert!(percentile(&v, q).is_some());
            assert!(percentile(&v[1..], q).is_none());
        }
    }

    #[test]
    fn slowest_tenth_skips_warm_up_and_keeps_the_slowest() {
        let units: Vec<Unit> = [9.0, 1.0, 5.0, 2.0, 3.0, 4.0, 1.5, 2.5, 3.5, 4.5, 6.0, 0.5]
            .iter()
            .map(|&secs| Unit {
                secs,
                ..Unit::default()
            })
            .collect();
        // Eleven units after the warm-up: the slowest two (ceil of 1.1).
        let picked: Vec<f64> = slowest_tenth(&units).iter().map(|u| u.secs).collect();
        assert_eq!(picked, vec![6.0, 5.0]);
        assert_eq!(slowest_tenth(&units[..1]).len(), 0);
        assert_eq!(slowest_tenth(&units[..2]).len(), 1);
    }

    #[test]
    fn units_needed_fill_the_ninetieth_percentile() {
        for per_unit in [1, 7, 12, 13, 100] {
            let n = units_needed(per_unit);
            let units = vec![
                Unit {
                    ops_ms: vec![1.0; per_unit],
                    ..Unit::default()
                };
                n
            ];
            let ops: Vec<f64> = slowest_tenth(&units)
                .iter()
                .flat_map(|u| u.ops_ms.clone())
                .collect();
            assert!(percentile(&ops, 90.0).is_some(), "{per_unit}");
        }
    }

    #[test]
    fn ratio_keeps_its_base() {
        let r = Ratio::new(3u32, 4u32);
        assert_eq!(r.value(), 0.75);
        assert_eq!(r.show(), "0.750000 (3/4)");
        assert_eq!(Ratio::new(0u32, 0u32).value(), 0.0);
    }
}
