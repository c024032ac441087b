//! Measurement plumbing shared by every workload: seed streams, sample
//! statistics, the metric list a run prints, and host figures.

use std::time::{Duration, Instant};

/// A deterministic stream of 64-bit seeds (splitmix64), so every input
/// of a workload follows from the one `--seed` argument.
pub struct SeedStream(u64);

impl SeedStream {
    pub fn new(seed: u64, workload: &str) -> Self {
        // Mix the workload name in, so two workloads given the same seed
        // do not draw the same cell seeds.
        let salt = workload.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        Self(seed ^ salt)
    }

    pub fn next_seed(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn take(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_seed()).collect()
    }
}

/// Nanoseconds in a duration, saturating (a run never comes near).
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nearest-rank `q`-quantile of unsorted `f64` values.
pub fn quantile_f64(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of unsorted `f64` values (mean of the middle pair when even).
pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Set-up repetitions per run.
pub const SETUP_REPS: usize = 101;
/// Each repetition builds and drops the inputs back to back for at least
/// this long, and yields its time per build.
const SETUP_REP_MIN: Duration = Duration::from_millis(2);
/// Quantile of the repetitions' times reported: a tenth of them were
/// faster.
pub const SETUP_QUANTILE: f64 = 0.1;

/// The set-up time of a workload, measured again and again over the
/// whole run rather than once at its start.
///
/// Other tenants on a shared host slow the program for seconds at a
/// time, and set-up, a burst of small allocations, slows more than the
/// rest of the run: within one run its repetitions range over half again
/// their fastest time. So, like the rates, the figure comes from the fast
/// end: the `SETUP_QUANTILE` of `SETUP_REPS` repetitions spread evenly
/// over the run. The repetitions run between rate windows, outside every
/// timed unit, and each one drops what it built.
pub struct SetupClock<F: FnMut()> {
    build: F,
    every: Duration,
    start: Instant,
    times: Vec<f64>,
}

impl<F: FnMut()> SetupClock<F> {
    /// A clock that runs `SETUP_REPS` repetitions of `build` evenly over
    /// `seconds`, the first one at once.
    pub fn new(build: F, seconds: f64) -> Self {
        let mut clock = Self {
            build,
            every: Duration::from_secs_f64(seconds / SETUP_REPS as f64),
            start: Instant::now(),
            times: Vec::with_capacity(SETUP_REPS),
        };
        clock.rep();
        clock
    }

    fn rep(&mut self) {
        let t0 = Instant::now();
        let mut builds = 0u32;
        while builds == 0 || t0.elapsed() < SETUP_REP_MIN {
            (self.build)();
            builds += 1;
        }
        self.times
            .push(t0.elapsed().as_secs_f64() / f64::from(builds));
    }

    /// Run the repetitions that have fallen due since the last call.
    pub fn tick(&mut self) {
        let due = 1 + (self.start.elapsed().as_secs_f64() / self.every.as_secs_f64()) as usize;
        while self.times.len() < due.min(SETUP_REPS) {
            self.rep();
        }
    }

    /// Finish any repetitions not yet run, and give the time per build
    /// at `SETUP_QUANTILE`, in seconds.
    pub fn finish(mut self) -> f64 {
        while self.times.len() < SETUP_REPS {
            self.rep();
        }
        quantile_f64(&self.times, SETUP_QUANTILE)
    }
}

/// One named figure with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload (or one traced profile) measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Units started (cells, episodes, model checks).
    pub attempted: u64,
    /// Units whose output check failed.
    pub failed: u64,
    /// Metrics for the final JSON line.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line: the
    /// workload's own names for its figures, sample counts, and tails.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record one failed unit, with its reason on standard error.
    pub fn fail(&mut self, what: std::fmt::Arguments<'_>) {
        self.failed += 1;
        eprintln!("FAILED: {what}");
    }

    /// Fold a traced profile into the whole run's outcome, prefixing its
    /// metric names with the workload it describes.
    pub fn absorb(&mut self, prefix: &str, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.metrics {
            self.metrics.push(Metric {
                name: format!("{prefix}.{}", m.name),
                ..m
            });
        }
        self.notes.extend(other.notes);
    }
}

/// Quantile of the per-window rates reported: one window in a hundred
/// ran faster.
const WINDOW_QUANTILE: f64 = 0.99;

/// Sub-buckets per power of two: a bucket spans under 0.1% of its values.
const SUB_BITS: u32 = 10;
const SUB: usize = 1 << SUB_BITS;
/// Largest power of two kept apart (2^40 ns is about 18 minutes).
const MAX_EXP: u32 = 40;
const BUCKETS: usize = (MAX_EXP - SUB_BITS + 2) as usize * SUB;

fn bucket(v: u64) -> usize {
    let v = v.min((1u64 << (MAX_EXP + 1)) - 1);
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let mantissa = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
    (e - SUB_BITS + 1) as usize * SUB + mantissa
}

/// Per-unit wall times of one closed-loop run.
///
/// Units are grouped into windows of consecutive units (a campaign
/// round, one pass over the episode pool, one model check), and every
/// window of a run holds the same units. On a shared host other tenants
/// slow the program by a third or more for seconds at a time, so the
/// gated figures come from the run's fastest windows: rates are the
/// `WINDOW_QUANTILE` of the per-window rates, and the median unit time is
/// the per-window median at the same rank from the fast end. The median
/// window moves with the host's load and spreads across runs about twice
/// as far; the high quantile does not rest on a single window.
///
/// Every unit also lands in a log-linear histogram of fixed size, which
/// gives the whole run's median and tail. Its memory does not grow with
/// the number of units, so a faster program does not read as a larger
/// one in `peak_rss_mb`. Each bucket keeps the sum of its samples, and a
/// quantile reads as the mean of the samples in its bucket — within 0.1%
/// of the exact nearest-rank value.
pub struct UnitRun {
    counts: Vec<u64>,
    sums: Vec<u64>,
    units: u64,
    busy: u64,
    /// Simulation events (or explored states) completed by the units.
    pub steps: u64,
    /// `(units, steps, busy ns)` when the open window began.
    window_start: (u64, u64, u64),
    /// Unit times of the open window.
    window_ns: Vec<f64>,
    /// Per closed window: `(units/s, steps/s, median unit ns)`.
    windows: Vec<(f64, f64, f64)>,
}

impl UnitRun {
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            sums: vec![0; BUCKETS],
            units: 0,
            busy: 0,
            steps: 0,
            window_start: (0, 0, 0),
            window_ns: Vec::new(),
            windows: Vec::new(),
        }
    }

    /// Close the open window of units (no-op when it is empty).
    pub fn close_window(&mut self) {
        let (units, steps, busy) = self.window_start;
        if self.units > units {
            let secs = (self.busy - busy) as f64 / 1e9;
            self.windows.push((
                (self.units - units) as f64 / secs,
                (self.steps - steps) as f64 / secs,
                median_f64(&self.window_ns),
            ));
        }
        self.window_ns.clear();
        self.window_start = (self.units, self.steps, self.busy);
    }

    /// Record one unit's wall time.
    pub fn record(&mut self, unit_ns: u64) {
        let b = bucket(unit_ns);
        self.counts[b] += 1;
        self.sums[b] += unit_ns;
        self.units += 1;
        self.busy += unit_ns;
        self.window_ns.push(unit_ns as f64);
    }

    /// Summed wall time of every unit.
    pub fn busy_ns(&self) -> u64 {
        self.busy
    }

    /// Nearest rank of the `q`-quantile.
    fn rank(&self, q: f64) -> u64 {
        ((q * self.units as f64).ceil() as u64).clamp(1, self.units)
    }

    /// The `q`-quantile of the unit times, in ns.
    fn quantile(&self, q: f64) -> f64 {
        let rank = self.rank(q);
        let mut seen = 0;
        for (count, sum) in self.counts.iter().zip(&self.sums) {
            seen += count;
            if seen >= rank {
                return *sum as f64 / *count as f64;
            }
        }
        unreachable!("rank {rank} lies within the {} recorded units", self.units)
    }

    /// Push the end-to-end metrics every workload shares, and the same
    /// figures under the workload's own names: `unit` names one unit
    /// (cell, episode, check), `step` one step (steps, states), `lat` the
    /// latency. The notes add the whole run's median and a tail at the
    /// highest of p99 and p90 that has at least ten samples beyond it.
    pub fn report(&mut self, out: &mut Outcome, wl: &str, unit: &str, step: &str, lat: &str) {
        self.close_window();
        assert!(self.units > 0, "no unit completed");
        let n = self.units;
        let w = self.windows.len();
        let q = WINDOW_QUANTILE;
        // The q-quantile of a per-window figure where higher is faster;
        // times are negated so that the same rank is taken.
        let faster = |f: fn(&(f64, f64, f64)) -> f64| {
            quantile_f64(&self.windows.iter().map(f).collect::<Vec<_>>(), q)
        };
        let units_per_s = faster(|r| r.0);
        let steps_per_s = faster(|r| r.1);
        let p50_us = -faster(|r| -r.2) / 1e3;
        out.metric("units_per_s", units_per_s, "1/s");
        out.metric("steps_per_s", steps_per_s, "1/s");
        out.metric("unit_us_p50", p50_us, "us");
        out.note(format!(
            "{wl} {unit}s_per_s {units_per_s:.3} 1/s (q{q} of {w} window rates)"
        ));
        out.note(format!(
            "{wl} {step}_per_s {steps_per_s:.1} 1/s (q{q} of {w} window rates)"
        ));
        out.note(format!(
            "{wl} {lat}_us_p50 {p50_us:.2} us (q{:.2} of {w} window medians)",
            1.0 - q
        ));
        out.note(format!(
            "{wl} {lat}_us_p50 {:.2} us over the whole run (n={n})",
            self.quantile(0.5) / 1e3
        ));
        let tail = [(0.99, "p99"), (0.9, "p90")]
            .into_iter()
            .find(|(q, _)| n - self.rank(*q) >= 10);
        match tail {
            Some((q, label)) => out.note(format!(
                "{wl} {lat}_us_{label} {:.2} us over the whole run (n={n}, {} beyond)",
                self.quantile(q) / 1e3,
                n - self.rank(q)
            )),
            None => out.note(format!(
                "{wl} {lat} tail not reported: {n} samples leave fewer than 10 beyond p90"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_streams_repeat_and_differ_by_workload() {
        let a = SeedStream::new(7, "matrix").take(4);
        assert_eq!(a, SeedStream::new(7, "matrix").take(4));
        assert_ne!(a, SeedStream::new(7, "heal").take(4));
        assert_ne!(a, SeedStream::new(8, "matrix").take(4));
    }

    #[test]
    fn buckets_are_ordered_and_narrow() {
        let mut last = 0;
        for v in (0..1u64 << 34).step_by(9_973_331).chain([1023, 1024, 1025]) {
            let b = bucket(v);
            assert!(b < BUCKETS);
            if v > 1025 {
                assert!(b >= last, "bucket order broke at {v}");
                last = b;
            }
        }
        assert_eq!(bucket(1023), 1023);
        assert_eq!(bucket(1024), 1024);
        // A bucket at 2^30 ns spans 2^20 ns, under 0.1% of its values.
        assert_eq!(bucket(1 << 30), bucket((1 << 30) + (1 << 20) - 1));
        assert_ne!(bucket(1 << 30), bucket((1 << 30) + (1 << 20)));
    }

    #[test]
    fn histogram_quantiles_track_exact_ranks() {
        let mut run = UnitRun::new();
        let samples: Vec<u64> = (1..=1000).map(|i| i * 1_000 + i % 7).collect();
        for &s in &samples {
            run.record(s);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = samples[(q * 1000.0_f64).ceil() as usize - 1] as f64;
            let got = run.quantile(q);
            assert!(
                (got - exact).abs() / exact < 1e-3,
                "q={q}: {got} vs {exact}"
            );
        }
        assert_eq!(run.busy_ns(), samples.iter().sum::<u64>());
    }

    #[test]
    fn windows_give_a_high_quantile_of_rates_and_medians() {
        let mut run = UnitRun::new();
        // 200 windows of two units: 1, 2, ..., 200 µs per unit.
        for us in 1..=200u64 {
            run.record(us * 1_000);
            run.record(us * 1_000);
            run.steps += 20;
            run.close_window();
        }
        let mut out = Outcome::default();
        run.report(&mut out, "w", "unit", "steps", "unit");
        let get = |n: &str| out.metrics.iter().find(|m| m.name == n).unwrap().value;
        // The 0.99-quantile of 200 windows is the third fastest: 3 µs per
        // unit, 10 steps per unit.
        assert!((get("units_per_s") - 1e6 / 3.0).abs() < 1e-6);
        assert!((get("steps_per_s") - 1e7 / 3.0).abs() < 1e-6);
        assert_eq!(get("unit_us_p50"), 3.0);
    }

    #[test]
    fn quantiles_take_the_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile_f64(&v, 0.0), 1.0);
        assert_eq!(quantile_f64(&v, 0.5), 3.0);
        assert_eq!(quantile_f64(&v, 0.9), 5.0);
        assert_eq!(quantile_f64(&v, 1.0), 5.0);
    }

    #[test]
    fn setup_clock_runs_every_repetition() {
        let mut builds = 0u64;
        let clock = SetupClock::new(|| builds += 1, 0.0);
        assert!(clock.finish() > 0.0);
        assert!(builds >= SETUP_REPS as u64);
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
