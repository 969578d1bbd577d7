//! The host-speed reference: a fixed dense kernel owned by the
//! benchmark, timed on the reading thread between units of the
//! campaign (outside every clock, while the program is idle) so that
//! each timing can be reported at one nominal host speed.
//!
//! The benchmark runs on a shared two-vCPU virtual machine whose speed
//! swings by up to 2x over periods of seconds to minutes, with little
//! steal time recorded: contention from outside stretches every
//! instruction stream. Raw wall times of the same code then spread by
//! 20–40 % between runs, far beyond any useful regression bound.
//! Contention stretches this dense kernel more than the program: across
//! recorded swings of host speed, the program's times moved as about
//! the square root of the kernel's (the kernel 1.5x slower and
//! `fleet-8x96` 1.25x; the kernel 2x and `storm-32x1536` 1.4x). So a
//! time `t` measured while the kernel takes `r` ms is reported as
//! `t · (NOMINAL_MS / r)^SPEED_EXPONENT`. The kernel is the benchmark's
//! own code: no change to the program can move it.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on an uncontended host of the reference kind (a
/// two-vCPU Xeon virtual machine); reported times are scaled to it.
pub const NOMINAL_MS: f64 = 8.5;

/// How the program's times follow the kernel's as host speed swings.
const SPEED_EXPONENT: f64 = 0.5;

/// The factor that takes a time measured while the kernel takes
/// `probe_ms` to the nominal host speed.
pub fn scale(probe_ms: f64) -> f64 {
    (NOMINAL_MS / probe_ms).powf(SPEED_EXPONENT)
}

/// Edge of the kernel's square matrices.
const N: usize = 64;
/// Multiplications per kernel run.
const ROUNDS: usize = 150;

fn kernel() {
    let a: Vec<f64> = (0..N * N).map(|i| (i % 17) as f64 * 0.25).collect();
    let b: Vec<f64> = (0..N * N).map(|i| (i % 13) as f64 * 0.5).collect();
    let mut c = vec![0.0; N * N];
    for _ in 0..ROUNDS {
        for i in 0..N {
            for k in 0..N {
                let aik = black_box(a[i * N + k]);
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
    }
    black_box(&c);
}

/// Wall time, in ms, of the kernel run on `threads` threads at once
/// (the calling thread is one of them), so the probe slows down with
/// the slowest CPU the measured work runs on.
pub fn probe_ms(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(kernel);
        }
        kernel();
    });
    t.elapsed().as_secs_f64() * 1e3
}
