//! Timing harness and order statistics shared by every mode.

use std::time::{Duration, Instant};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
        }
    }

    pub fn secs(name: &str, value: f64) -> Metric {
        Metric::new(name, "s", value)
    }

    pub fn ns(name: &str, value: f64) -> Metric {
        Metric::new(name, "ns", value)
    }

    /// A microsecond row from a nanosecond measurement.
    pub fn us_from_ns(name: &str, ns: f64) -> Metric {
        Metric::new(name, "us", ns / 1e3)
    }

    pub fn count(name: &str, value: u64) -> Metric {
        Metric::new(name, "count", value as f64)
    }

    pub fn ratio(name: &str, value: f64) -> Metric {
        Metric::new(name, "ratio", value)
    }
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median, extremes, count and `(max - min) / median` of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }

    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median
        }
    }
}

/// Batches per row and the least time each loops for: every micro-driver
/// row is the median of 5 batches of 20 ms, so that the thirty-odd rows
/// fit beside a traced run in one run of the benchmark.
const SAMPLES: usize = 5;
const BATCH: Duration = Duration::from_millis(20);

fn time_batch(op: &mut impl FnMut(), iters: u64) -> Duration {
    let t0 = Instant::now();
    for _ in 0..iters {
        op();
    }
    t0.elapsed()
}

/// Median nanoseconds per call of `op`. The batch size is grown until one
/// batch lasts [`BATCH`], so total time grows with the iteration count by
/// construction; callers pass inputs and results through `black_box`.
pub fn ns_per_op(mut op: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t = time_batch(&mut op, iters);
        if t >= BATCH {
            break;
        }
        iters *= if t < BATCH / 16 { 8 } else { 2 };
    }
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| time_batch(&mut op, iters).as_nanos() as f64 / iters as f64)
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Summary::of(&[10.0, 12.0, 11.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (11.0, 10.0, 12.0, 3));
        assert!((s.spread() - 2.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn ns_per_op_scales_with_work() {
        let spin = |n: u64| {
            move || {
                let mut acc = 0u64;
                for i in 0..n {
                    acc = std::hint::black_box(acc.wrapping_add(i));
                }
                std::hint::black_box(acc);
            }
        };
        let small = ns_per_op(spin(100));
        let large = ns_per_op(spin(1000));
        assert!(large > small * 3.0, "{small} vs {large}");
    }
}
