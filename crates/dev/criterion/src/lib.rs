//! Offline stand-in for the `criterion` benchmark harness.
//!
//! This build environment has no network access, so the real crates.io
//! `criterion` cannot be fetched. This crate vendors the small API subset
//! the workspace benches use — `Criterion::bench_function`, `Bencher::iter`
//! / `iter_batched`, `BatchSize`, and the `criterion_group!` /
//! `criterion_main!` macros — backed by plain wall-clock timing. Numbers
//! are indicative, not statistically rigorous; swap in the real crate when
//! a registry is available (the manifest surface is identical).
//!
//! As with the real crate, a positional argument runs only the benches
//! whose names contain it, and cargo's `--bench` flag is ignored:
//!
//! ```text
//! cargo bench -p chaos-bench --bench kernels -- core/scatter
//! ```

use std::time::{Duration, Instant};

/// How batched inputs are grouped between timings (accepted, ignored).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// Benchmark driver handed to the closure of [`Criterion::bench_function`].
pub struct Bencher {
    samples: usize,
    /// Mean wall-clock duration of one routine call, filled by `iter*`.
    pub mean: Duration,
    /// Shortest single routine call, filled by `iter*`: the figure an A/B
    /// of two builds compares, since host noise only ever adds time.
    pub min: Duration,
}

impl Bencher {
    fn new(samples: usize) -> Self {
        Self {
            samples,
            mean: Duration::ZERO,
            min: Duration::ZERO,
        }
    }

    /// Times `routine`, discarding one warm-up call.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        std::hint::black_box(routine());
        self.iter_batched(|| (), |()| routine(), BatchSize::PerIteration);
    }

    /// Times `routine` over fresh inputs produced by `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, R>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> R,
        _size: BatchSize,
    ) {
        let mut total = Duration::ZERO;
        let mut min = Duration::MAX;
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            let took = start.elapsed();
            total += took;
            min = min.min(took);
        }
        self.mean = total / self.samples as u32;
        self.min = min;
    }
}

/// Top-level benchmark registry, mirroring `criterion::Criterion`.
pub struct Criterion {
    sample_size: usize,
    /// Runs only the benches whose names contain this.
    filter: Option<String>,
}

impl Default for Criterion {
    /// Takes the name filter from the command line.
    fn default() -> Self {
        Self {
            sample_size: 10,
            filter: name_filter(std::env::args().skip(1)),
        }
    }
}

/// The name filter among a bench binary's arguments: the first one that is
/// not a flag (cargo passes `--bench`; real criterion reads the filter the
/// same way).
fn name_filter(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|a| !a.starts_with('-'))
}

impl Criterion {
    /// Sets how many timed calls each benchmark makes.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one named benchmark, unless the name filter excludes it, and
    /// prints its mean and minimum time per call.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        if self
            .filter
            .as_deref()
            .is_some_and(|want| !name.contains(want))
        {
            return self;
        }
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        println!("{name:<50} {:>12.3?}/iter  min {:>12.3?}", b.mean, b.min);
        self
    }
}

/// Declares a benchmark group: a function running each target in order.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Generates `fn main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn the_filter_is_the_first_positional_and_flags_are_ignored() {
        assert_eq!(name_filter(args(&["--bench"])), None);
        assert_eq!(name_filter(args(&[])), None);
        let got = name_filter(args(&["--bench", "core/scatter", "other"]));
        assert_eq!(got.as_deref(), Some("core/scatter"));
    }

    #[test]
    fn only_benches_whose_names_contain_the_filter_run() {
        let mut c = Criterion {
            sample_size: 2,
            filter: name_filter(args(&["--bench", "core/scatter"])),
        };
        let mut ran = Vec::new();
        for name in [
            "core/scatter_sink_pr_4096_p4",
            "core/gather_pr_4096",
            "core/scatter",
        ] {
            c.bench_function(name, |b| {
                ran.push(name);
                b.iter(|| 1 + 1);
            });
        }
        assert_eq!(ran, ["core/scatter_sink_pr_4096_p4", "core/scatter"]);
    }

    #[test]
    fn the_minimum_is_at_most_the_mean() {
        let mut b = Bencher::new(5);
        b.iter(|| std::hint::black_box((0..1000u64).sum::<u64>()));
        assert!(b.min <= b.mean);
    }
}
