//! Host-speed calibration.
//!
//! The benchmark runs on a shared host whose speed drifts by tens of
//! percent within seconds, far more than a code change should be allowed
//! to move a metric. So every set-up and every timed iteration is followed,
//! outside its timed span, by a fixed reference task on the same number of
//! threads, and each wall time is scaled by `NOMINAL_REF_MS` over the
//! reference time measured next to it: the reported times read as on a host
//! that runs the reference task in `NOMINAL_REF_MS`.
//!
//! The reference must follow the host, not the program: it lives here and
//! calls no code of the compiler, works in buffers allocated once per run
//! (so the program's heap does not slow it), and is timed on its second
//! pass (so the caches the program just used do not either).

use crate::stats::{percentile, Rng};
use pool::Pool;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// The reference time the reported times are scaled to, in ms: about
/// what one thread of a 2-vCPU cloud VM measures, so the scaled times stay
/// close to wall times there.
pub const NOMINAL_REF_MS: f64 = 0.7;

/// Words in each thread's reference buffer (128 KiB, within the core's
/// own cache).
const REF_WORDS: usize = 1 << 14;

/// Consecutive iterations that share one scale factor, the median of
/// their reference samples: short enough to follow the host's drift, long
/// enough that one slow sample does not set the factor.
const CHUNK: usize = 16;

/// A fixed integer task: fill `buf` from a seeded stream, sort it, then
/// chase data-dependent indices through it.
fn reference_task(buf: &mut [u64]) -> u64 {
    let mut rng = Rng::new(0x1f2e_3d4c);
    buf.iter_mut().for_each(|x| *x = rng.next_u64());
    buf.sort_unstable();
    let (mut i, mut acc) = (0, 0u64);
    for _ in 0..buf.len() {
        acc = acc.wrapping_add(buf[i]);
        i = (buf[i] as usize ^ i) % buf.len();
    }
    acc
}

/// Reference samples of one run, one per set-up and one per iteration.
#[derive(Debug, Default)]
pub struct Speed {
    buffers: Vec<Mutex<Vec<u64>>>,
    setups_ms: Vec<f64>,
    iterations_ms: Vec<f64>,
}

impl Speed {
    /// Runs the reference task twice on each of `workers` threads and
    /// returns the slowest thread's second pass.
    fn reference_ms(&mut self, workers: usize) -> f64 {
        while self.buffers.len() < workers {
            self.buffers.push(Mutex::new(vec![0; REF_WORDS]));
        }
        let passes = Pool::new(workers).run(workers, |k| {
            let mut buf = self.buffers[k].lock().unwrap_or_else(|e| e.into_inner());
            black_box(reference_task(&mut buf));
            let t = Instant::now();
            black_box(reference_task(&mut buf));
            t.elapsed().as_secs_f64() * 1e3
        });
        passes.into_iter().fold(0.0, f64::max)
    }

    pub fn after_setup(&mut self, workers: usize) {
        let ms = self.reference_ms(workers);
        self.setups_ms.push(ms);
    }

    pub fn after_iteration(&mut self, workers: usize) {
        let ms = self.reference_ms(workers);
        self.iterations_ms.push(ms);
    }

    /// Median reference time of the run's iterations, in ms.
    pub fn median_ms(&self) -> f64 {
        percentile(&self.iterations_ms, 50)
    }

    /// Set-up times scaled by the median reference time of all set-ups,
    /// which follow each other within a few seconds.
    pub fn scale_setups(&self, setups_s: &[f64]) -> Vec<f64> {
        assert_eq!(
            setups_s.len(),
            self.setups_ms.len(),
            "one sample per set-up"
        );
        scale(setups_s, &self.setups_ms, setups_s.len())
    }

    /// Iteration times scaled by the median reference time of their chunk.
    pub fn scale_iterations(&self, wall: &[f64]) -> Vec<f64> {
        assert_eq!(
            wall.len(),
            self.iterations_ms.len(),
            "one sample per iteration"
        );
        scale(wall, &self.iterations_ms, CHUNK)
    }
}

/// `values[i] * NOMINAL_REF_MS / median(refs of i's chunk)`.
fn scale(values: &[f64], refs_ms: &[f64], chunk: usize) -> Vec<f64> {
    values
        .chunks(chunk)
        .zip(refs_ms.chunks(chunk))
        .flat_map(|(v, r)| {
            let factor = NOMINAL_REF_MS / percentile(r, 50);
            v.iter().map(move |x| x * factor)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_chunk_takes_its_own_median_reference() {
        let n = NOMINAL_REF_MS;
        let refs = [2.0 * n, 2.0 * n, 4.0 * n, 4.0 * n];
        assert_eq!(
            scale(&[1.0, 3.0, 8.0, 1.0], &refs, 2),
            vec![0.5, 1.5, 2.0, 0.25]
        );
        // A partial last chunk is scaled by its own samples.
        let refs = [n, n, 0.25 * n];
        assert_eq!(scale(&[1.0, 1.0, 1.0], &refs, 2), vec![1.0, 1.0, 4.0]);
        assert_eq!(scale(&[6.0], &[2.0 * n], 1), vec![3.0]);
    }

    #[test]
    fn reference_task_is_deterministic() {
        let (mut a, mut b) = (vec![0; REF_WORDS], vec![7; REF_WORDS]);
        assert_eq!(reference_task(&mut a), reference_task(&mut b));
        assert_eq!(a, b);
        let mut speed = Speed::default();
        speed.after_iteration(2);
        speed.after_iteration(1);
        assert_eq!(speed.buffers.len(), 2);
        assert!(speed.median_ms() > 0.0);
    }
}
