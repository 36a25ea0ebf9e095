//! How a run's figure is taken from its rounds, how a round is rescaled
//! by the reference loop, and the quartile spread the steadiness check
//! holds against each metric's bound.

use crate::reference;

/// Whether a smaller or a larger value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Times and memory.
    Lower,
    /// Rates.
    Higher,
}

/// What a value measures, which decides how host speed rescales it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A duration: a slow host lengthens it.
    Time,
    /// Work per second: a slow host lowers it.
    Rate,
}

/// The share of a run's rounds, fastest first, that stands for the run:
/// a host slow period covering up to 95% of its rounds does not move its
/// figure. In slow periods the workloads slowed 1.6–1.9× and the
/// reference loop 1.6–1.9× too, but not in step, so normalising cannot
/// stand in for clean rounds.
pub const FAST_SHARE: f64 = 0.05;

/// The fewest rounds that stand for a run, so that a run of few long
/// rounds (a city takes a second) does not rest on its single fastest.
pub const MIN_FAST_ROUNDS: usize = 3;

/// Sorts `values` in place (total order, NaN last).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of an already sorted
/// slice; NaN when it is empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Linear-interpolated quantile (`q` in `[0, 1]`); NaN when `values` is
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    quantile_sorted(&sorted, q)
}

/// The median, as Python's `statistics.median` computes it.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A run's figure from its rounds' raw values and reference-loop times,
/// raw and normalised. The fastest [`FAST_SHARE`] of the rounds, and at
/// least [`MIN_FAST_ROUNDS`], stand for the run: the raw figure is their
/// median value, the normalised one rescales it by their median
/// reference time. Rounds are ranked by raw value: ranked by normalised
/// value, the fast side would collect rounds whose reference samples
/// happened to run slow.
pub fn run_figure(raw: &[f64], references: &[f64], kind: Kind, better: Better) -> (f64, f64) {
    let mut order: Vec<usize> = (0..raw.len()).collect();
    order.sort_by(|&a, &b| raw[a].total_cmp(&raw[b]));
    if better == Better::Higher {
        order.reverse();
    }
    let fastest = ((raw.len() as f64 * FAST_SHARE).ceil() as usize).max(MIN_FAST_ROUNDS);
    let (values, fast_references): (Vec<f64>, Vec<f64>) = order
        .iter()
        .take(fastest)
        .map(|&i| (raw[i], references[i]))
        .unzip();
    let figure = median(&values);
    let speed = host_speed(median(&fast_references));
    (figure, normalise(figure, kind, speed))
}

/// How fast the host ran during a round, from the reference loop's time
/// then: nominal time over measured time, below 1 when slow.
pub fn host_speed(reference_ns: f64) -> f64 {
    reference::NOMINAL_NS / reference_ns
}

/// A value measured at host speed `speed`, rescaled to the nominal speed.
pub fn normalise(raw: f64, kind: Kind, speed: f64) -> f64 {
    match kind {
        Kind::Time => raw * speed,
        Kind::Rate => raw / speed,
    }
}

/// The cut points of Python's `statistics.quantiles(values, n=4)` (its
/// default, exclusive method), which the acceptance check uses; `None`
/// for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let mut data = values.to_vec();
    sort(&mut data);
    let (n, m) = (4usize, len + 1);
    let mut cuts = [0.0; 3];
    for (cut, i) in cuts.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *cut = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(cuts)
}

/// The distance between the first and third quartile as a share of the
/// median: the spread the steadiness check holds against a bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}
