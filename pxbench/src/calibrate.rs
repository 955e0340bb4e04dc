//! Host-speed calibration.
//!
//! The benchmark runs on one core of a shared host, and how fast that core
//! runs changes by 20–50% over minutes as other machines on the host load
//! it — far more than the regressions the benchmark must see.  Every run
//! therefore times a fixed reference kernel (sorting the same 100k
//! pseudo-random integers, benchmark-owned code the program cannot change)
//! next to its requests, on the same core, while the program is idle.  A
//! request's latency scaled by `REFERENCE_MS / kernel time around it` is its
//! latency on a core as fast as the one this benchmark was written on:
//! slow and fast spells of the host move both numbers, a slower program
//! moves only one.  Over seven minutes of one query repeated in process,
//! ten-second medians of its latency spread 26% of their median, of its
//! ratio to the kernel 6.7% (see `MEASUREMENTS.md`).

use crate::stats::median;
use std::time::Instant;

/// Median kernel time (ms) on the core this benchmark was written on.
pub const REFERENCE_MS: f64 = 3.0;

/// Integers the kernel sorts.
const ELEMENTS: usize = 100_000;

/// Kernel times on each side of a request that its scale is taken over.
const NEIGHBOURS: usize = 2;

/// The reference kernel and the times it took in one run.
pub struct Calibration {
    source: Vec<u64>,
    scratch: Vec<u64>,
    times_ms: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let source = (0..ELEMENTS)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        let mut calibration = Calibration {
            source,
            scratch: vec![0; ELEMENTS],
            times_ms: Vec::new(),
        };
        // Fault the buffers in before anything is timed.
        for _ in 0..3 {
            calibration.sample();
        }
        calibration.times_ms.clear();
        calibration
    }
}

impl Calibration {
    /// Runs the kernel once and records how long it took.
    pub fn sample(&mut self) {
        let started = Instant::now();
        self.scratch.copy_from_slice(&self.source);
        self.scratch.sort_unstable();
        std::hint::black_box(&self.scratch);
        self.times_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }

    /// Every kernel time recorded, in order (ms).
    pub fn times_ms(&self) -> &[f64] {
        &self.times_ms
    }
}

/// Scales `latencies[i]`, measured next to kernel time `kernel_ms[i]`, to
/// the reference core: each by `REFERENCE_MS` over the median kernel time
/// within [`NEIGHBOURS`] places of it, so one kernel run that an interrupt
/// slowed does not scale its request.
pub fn scale(latencies: &[f64], kernel_ms: &[f64]) -> Vec<f64> {
    assert_eq!(
        latencies.len(),
        kernel_ms.len(),
        "one kernel time per latency"
    );
    latencies
        .iter()
        .enumerate()
        .map(|(i, latency)| {
            let around =
                &kernel_ms[i.saturating_sub(NEIGHBOURS)..(i + NEIGHBOURS + 1).min(kernel_ms.len())];
            latency * REFERENCE_MS / median(around)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_divides_by_the_neighbouring_median() {
        let r = REFERENCE_MS;
        // A host twice as slow for the last three requests doubles both
        // numbers; away from the change the scaled latency stays put.  The
        // lone slow kernel time at index 1 is outvoted by its neighbours.
        let kernel = [r, 5.0 * r, r, r, 2.0 * r, 2.0 * r, 2.0 * r];
        let latency = [10.0, 10.0, 10.0, 10.0, 20.0, 20.0, 20.0];
        let scaled = scale(&latency, &kernel);
        assert_eq!(&scaled[..3], &[10.0, 10.0, 10.0]);
        assert_eq!(&scaled[5..], &[10.0, 10.0]);
    }

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        let mut calibration = Calibration::default();
        assert!(calibration.times_ms().is_empty());
        calibration.sample();
        let first = calibration.scratch.clone();
        calibration.sample();
        assert_eq!(calibration.scratch, first);
        assert!(first.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(calibration.times_ms().len(), 2);
    }
}
