//! A minimal, std-only, in-repo stand-in for the `criterion` crate.
//!
//! The workspace builds offline (no registry access), so the benchmark
//! harness vendors the slice of criterion's API that `benches/kernels.rs`
//! uses: `criterion_group!`/`criterion_main!`, benchmark groups,
//! throughput annotation, `Bencher::iter`, and `Bencher::iter_batched`.
//!
//! Measurement is deliberately simple — a warm-up, then timed batches of
//! doubling size until a wall-clock budget is spent, reading the clock
//! once per batch so a kernel shorter than a clock read is not measured
//! as the clock — and results print as `ns/iter` plus
//! MB/s when a byte throughput is declared. Statistical machinery
//! (outlier rejection, regression, HTML reports) is out of scope; the
//! `perf_smoke` binary in `cable-bench` is the tracked perf signal.

#![forbid(unsafe_code)]

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-export of `std::hint::black_box` under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// How `iter_batched` amortizes setup cost; the shim runs one setup per
/// measured batch regardless, so the variants only document intent.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small per-iteration state.
    SmallInput,
    /// Large per-iteration state.
    LargeInput,
    /// Fresh setup every iteration.
    PerIteration,
}

/// Declared throughput of one benchmark iteration.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Abstract elements processed per iteration.
    Elements(u64),
}

/// The top-level harness handle passed to every benchmark function.
pub struct Criterion {
    /// Wall-clock budget per benchmark. Shrunk to one pass when the binary
    /// is invoked with `--test` (e.g. `cargo test --benches`).
    measure_budget: Duration,
    smoke_only: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        let smoke_only = std::env::args().any(|a| a == "--test");
        Criterion {
            measure_budget: Duration::from_millis(300),
            smoke_only,
        }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\nbench group: {name}");
        BenchmarkGroup {
            criterion: self,
            throughput: None,
        }
    }
}

/// A named collection of benchmarks sharing a throughput annotation.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-iteration throughput used for MB/s reporting.
    pub fn throughput(&mut self, throughput: Throughput) {
        self.throughput = Some(throughput);
    }

    /// Runs one benchmark and prints its timing.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            budget: if self.criterion.smoke_only {
                Duration::ZERO
            } else {
                self.criterion.measure_budget
            },
            iters: 0,
            elapsed: Duration::ZERO,
        };
        f(&mut bencher);
        let ns_per_iter = if bencher.iters == 0 {
            0.0
        } else {
            bencher.elapsed.as_nanos() as f64 / bencher.iters as f64
        };
        print!("  {name:<28} {ns_per_iter:>12.1} ns/iter");
        if let Some(Throughput::Bytes(bytes)) = self.throughput {
            if ns_per_iter > 0.0 {
                let mbps = bytes as f64 / ns_per_iter * 1e9 / 1e6;
                print!(" {mbps:>10.1} MB/s");
            }
        }
        println!();
    }

    /// Ends the group (kept for API parity; printing is immediate).
    pub fn finish(self) {}
}

/// Passed to each benchmark closure; drives and times the iterations.
pub struct Bencher {
    budget: Duration,
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `f` repeatedly until the budget is spent (at least once).
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // Warm-up pass, untimed.
        std_black_box(f());
        self.run_batches(|n| {
            let start = Instant::now();
            for _ in 0..n {
                std_black_box(f());
            }
            start.elapsed()
        });
    }

    /// Runs batches of 1, 2, 4, ... iterations through `batch` (which runs
    /// that many and returns their elapsed time) until the budget is
    /// spent, accounting every iteration and its time.
    fn run_batches(&mut self, mut batch: impl FnMut(u64) -> Duration) {
        let mut n = 1;
        loop {
            self.elapsed += batch(n);
            self.iters += n;
            if self.elapsed >= self.budget {
                break;
            }
            n = n.saturating_mul(2);
        }
    }

    /// Times `routine` over inputs produced by `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, R, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> R,
    {
        std_black_box(routine(setup()));
        loop {
            let input = setup();
            let start = Instant::now();
            std_black_box(routine(input));
            self.elapsed += start.elapsed();
            self.iters += 1;
            if self.elapsed >= self.budget {
                break;
            }
        }
    }
}

/// Bundles benchmark functions into one runner, as in criterion.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generates `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_runs_at_least_once() {
        let mut c = Criterion {
            measure_budget: Duration::from_millis(1),
            smoke_only: true,
        };
        let mut ran = 0u32;
        let mut group = c.benchmark_group("g");
        group.throughput(Throughput::Bytes(64));
        group.bench_function("noop", |b| b.iter(|| ran += 1));
        group.bench_function("batched", |b| {
            b.iter_batched(|| 1u32, |x| x + 1, BatchSize::LargeInput)
        });
        group.finish();
        assert!(ran >= 1);
    }

    #[test]
    fn batches_double_and_account_every_iteration() {
        let mut b = Bencher {
            budget: Duration::from_nanos(100),
            iters: 0,
            elapsed: Duration::ZERO,
        };
        let mut sizes = Vec::new();
        // A fake kernel of exactly 10 ns per iteration.
        b.run_batches(|n| {
            sizes.push(n);
            Duration::from_nanos(10 * n)
        });
        assert_eq!(sizes, [1, 2, 4, 8], "doubling until 150 ns >= 100 ns");
        assert_eq!(b.iters, 15);
        assert_eq!(b.elapsed, Duration::from_nanos(150));
        assert_eq!(b.elapsed.as_nanos() / u128::from(b.iters), 10);
    }

    #[test]
    fn iter_reads_the_clock_once_per_batch() {
        let mut b = Bencher {
            budget: Duration::from_millis(2),
            iters: 0,
            elapsed: Duration::ZERO,
        };
        let mut calls = 0u64;
        b.iter(|| calls += 1);
        assert_eq!(calls, b.iters + 1, "one untimed warm-up call");
        assert!(
            (b.iters + 1).is_power_of_two(),
            "{} iterations are whole doubling batches",
            b.iters
        );
        assert!(b.elapsed >= b.budget);
    }
}
