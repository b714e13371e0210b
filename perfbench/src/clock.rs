//! Host-speed reference timing.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of
//! percent over seconds (co-tenants contend for cores, caches and memory
//! bandwidth). A fixed reference kernel — benchmark code, never program
//! code, so no change to the program can move it — runs right after every
//! timed section. The program's time is scaled by the host speed measured
//! on either side of it, which cancels most of the drift. Both the raw and
//! the scaled time are kept; the end-to-end metrics use the scaled one.

use crate::spans::Tracer;
use std::hint::black_box;
use std::time::Instant;

/// Reference-kernel rate, per thread, that defines a speed factor of 1.0.
/// Scaled host times read as seconds on a host where the reference kernel
/// sustains this many operations per second.
pub const NOMINAL_REF_OPS_PER_S: f64 = 4.0e8;

/// Operations per reference measurement (about 5 ms at nominal speed).
const REF_OPS: usize = 1 << 21;

/// Words of the reference kernel's buffer: 1 MiB, resident in a core's
/// private cache. On the shared 2-core x86 host this benchmark was tuned
/// on, scaling by this kernel cut the run-to-run spread of encode rates
/// from 38% to about 1%; an 8 MiB (memory-bound) buffer left 4%, and a
/// pure arithmetic kernel 18%.
const REF_WORDS: usize = 1 << 17;

/// One timed section.
#[derive(Clone, Copy, Debug)]
pub struct Lap {
    /// Wall-clock seconds.
    pub raw_s: f64,
    /// Seconds scaled to nominal host speed (`raw_s * speed`).
    pub norm_s: f64,
    /// Mean host speed factor measured around the section.
    pub speed: f64,
}

/// Times sections of program work against the reference kernel.
pub struct HostClock {
    buf: Vec<u64>,
    last_speed: f64,
    speeds: Vec<f64>,
}

impl Default for HostClock {
    fn default() -> Self {
        Self::new()
    }
}

impl HostClock {
    /// A clock with its speed measured once.
    ///
    /// The kernel runs on the calling thread. For the two-worker `mesh`
    /// runs this tracked the slice rate better than running it on both
    /// cores at once: the sharded engine gains little from its second
    /// worker, so losing the second core to a co-tenant halved a
    /// two-thread reading without slowing the program.
    #[must_use]
    pub fn new() -> Self {
        let mut clock = HostClock {
            buf: vec![0u64; REF_WORDS],
            last_speed: 1.0,
            speeds: Vec::new(),
        };
        clock.last_speed = clock.reference();
        clock.speeds.clear();
        clock
    }

    /// Runs `f`, then the reference kernel, and returns `f`'s result with
    /// its raw and scaled times. The reference run is recorded as a
    /// `bench.calibrate` span.
    pub fn time<T>(&mut self, tr: &mut Tracer, f: impl FnOnce(&mut Tracer) -> T) -> (T, Lap) {
        let before = self.last_speed;
        let start = Instant::now();
        let out = f(tr);
        let raw_s = start.elapsed().as_secs_f64();
        tr.enter("bench.calibrate");
        let after = self.reference();
        tr.exit();
        self.last_speed = after;
        let speed = (before + after) / 2.0;
        (
            out,
            Lap {
                raw_s,
                norm_s: raw_s * speed,
                speed,
            },
        )
    }

    /// Every speed factor measured so far.
    #[must_use]
    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// Runs the reference kernel and returns the speed factor.
    fn reference(&mut self) -> f64 {
        let speed = kernel(&mut self.buf) / NOMINAL_REF_OPS_PER_S;
        self.speeds.push(speed);
        speed
    }
}

/// SplitMix64-hashed read-modify-writes over `buf`; returns operations
/// per second. A sequential pass first brings `buf` back into cache, so
/// the timed part does not depend on what the program evicted.
fn kernel(buf: &mut [u64]) -> f64 {
    for x in buf.iter_mut() {
        *x = x.wrapping_add(1);
    }
    let mask = buf.len() - 1;
    let mut state = black_box(0x9e37_79b9_7f4a_7c15_u64);
    let start = Instant::now();
    for _ in 0..REF_OPS {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 27;
        let i = (z as usize) & mask;
        buf[i] = buf[i].wrapping_add(z);
    }
    black_box(&buf);
    REF_OPS as f64 / start.elapsed().as_secs_f64().max(1e-9)
}
