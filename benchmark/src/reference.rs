//! The machine-speed reference.
//!
//! The builder box is a 2-vCPU guest whose vCPUs share host CPU time
//! with other guests — and with each other: a busy loop on the second
//! vCPU stalls the first for ~4 ms out of every 8, and the guest sees
//! neither steal time nor a slower clock. A pass of unchanged code
//! therefore takes anywhere from 1× to 3× its quiet time, for minutes
//! on end, and no statistic over the passes of one run can take that
//! out.
//!
//! So the benchmark measures the machine alongside the program: between
//! the cells of a pass it runs *ticks* — a fixed computation of its own
//! (integer mixing, scattered updates of a 256 KB table, small-vector
//! allocation churn; no repo code) — for a fixed share of the wall
//! clock. Whatever slows the pass slows the ticks by the same factor,
//! so `ticks' wall ÷ (ticks × TICK_NOMINAL_S)` is the slowdown the pass
//! suffered, and dividing by it gives the pass's time at reference
//! machine speed. A change to the repo cannot move the ticks, so it
//! moves the normalised time exactly as it moves the raw one.

use std::time::Instant;

/// Wall seconds of one tick at reference machine speed: the builder
/// box on an ordinary day (its quietest ticks take 0.88 ms). A constant
/// by design — it is what makes runs made hours apart comparable.
pub const TICK_NOMINAL_S: f64 = 1.0e-3;
/// One tick is owed per this many elapsed wall seconds, so ticks take
/// ~1/13 of a run whatever the cell sizes.
const PERIOD_S: f64 = 0.0125;
/// Most ticks run in one go (after a cell of 1 s or more).
const MAX_BURST: u32 = 80;

const TABLE_WORDS: usize = 1 << 15;
const TABLE_STEPS: u32 = 288_000;
const CHURN_ALLOCS: u64 = 24_000;

/// Ticks run and the wall seconds they took.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sample {
    pub ticks: u64,
    pub seconds: f64,
}

impl Sample {
    /// How much slower than the reference machine the ticks ran
    /// (1 = reference speed; NaN without ticks).
    pub fn slowdown(&self) -> f64 {
        self.seconds / (self.ticks as f64 * TICK_NOMINAL_S)
    }

    pub fn add(&mut self, other: Sample) {
        self.ticks += other.ticks;
        self.seconds += other.seconds;
    }
}

pub struct Reference {
    table: Vec<u64>,
    state: u64,
    /// End of the last tick (or the last `take`).
    last: Instant,
    sample: Sample,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            table: vec![0; TABLE_WORDS],
            state: 0x9e37_79b9_7f4a_7c15,
            last: Instant::now(),
            sample: Sample::default(),
        }
    }

    /// One tick: the same work every time.
    pub fn tick(&mut self) {
        let t0 = Instant::now();
        let mut x = self.state;
        for i in 0..TABLE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x as usize & (TABLE_WORDS - 1);
            self.table[k] = self.table[k].wrapping_add(u64::from(i));
        }
        let mut kept: Vec<Vec<u64>> = Vec::with_capacity(256);
        for i in 0..CHURN_ALLOCS {
            if kept.len() == 256 {
                kept.clear();
            }
            kept.push(vec![i ^ x; 16 + (i % 64) as usize]);
        }
        self.state = x ^ std::hint::black_box(&kept).len() as u64;
        std::hint::black_box(&self.table);
        self.last = Instant::now();
        self.sample.ticks += 1;
        self.sample.seconds += (self.last - t0).as_secs_f64();
    }

    /// Runs the ticks owed for the wall time since the last one.
    pub fn catch_up(&mut self) {
        let owed = (self.last.elapsed().as_secs_f64() / PERIOD_S) as u32;
        for _ in 0..owed.min(MAX_BURST) {
            self.tick();
        }
    }

    /// The ticks since the last `take`; restarts the owed-time clock.
    pub fn take(&mut self) -> Sample {
        self.last = Instant::now();
        std::mem::take(&mut self.sample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_tick_time_over_nominal() {
        let s = Sample {
            ticks: 4,
            seconds: 8.0 * TICK_NOMINAL_S,
        };
        assert!((s.slowdown() - 2.0).abs() < 1e-12);
        assert!(Sample::default().slowdown().is_nan());
        let mut sum = s;
        sum.add(Sample {
            ticks: 4,
            seconds: 4.0 * TICK_NOMINAL_S,
        });
        assert!((sum.slowdown() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn take_returns_the_ticks_since_the_last_take() {
        let mut r = Reference::new();
        for _ in 0..3 {
            r.tick();
        }
        let s = r.take();
        assert_eq!(s.ticks, 3);
        assert!(s.seconds > 0.0 && s.slowdown() > 0.0);
        assert_eq!(r.take(), Sample::default());
    }

    #[test]
    fn catch_up_runs_the_ticks_owed_for_the_elapsed_time() {
        let mut r = Reference::new();
        r.take();
        r.catch_up();
        // Nothing is owed right after a take…
        assert_eq!(r.take().ticks, 0);
        std::thread::sleep(std::time::Duration::from_secs_f64(3.5 * PERIOD_S));
        r.catch_up();
        // …and one tick per period after a wait (a slow machine may
        // have slept longer, never shorter).
        let ticks = r.take().ticks;
        assert!((3..=u64::from(MAX_BURST)).contains(&ticks), "{ticks}");
    }

    #[test]
    fn every_tick_does_the_same_work() {
        // The table's content depends on the tick count alone.
        let run = |n| {
            let mut r = Reference::new();
            for _ in 0..n {
                r.tick();
            }
            (
                r.state,
                r.table.iter().fold(0u64, |h, w| h.rotate_left(5) ^ w),
            )
        };
        assert_eq!(run(2), run(2));
        assert_ne!(run(2), run(3));
    }
}
