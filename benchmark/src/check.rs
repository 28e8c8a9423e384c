//! Output checks: what makes a cell (one op) fail, and the digest that
//! pins a pass to the warm-up pass.
//!
//! The checks are pure functions over [`CellFacts`] — plain numbers the
//! workloads copy out of `RunStats`, verify reports and attribution
//! profiles — so the unit tests can doctor one fact at a time and watch
//! the matching [`Failure`] trip.

use std::cmp::Ordering;

use crate::surface::{BlockMatrix, Platform, RunStats};

/// Why a cell failed. One op = one cell; a failed cell's time still
/// counts towards the pass.
#[derive(Clone, Debug, PartialEq)]
pub enum Failure {
    /// A build or engine call returned an error (or a stream did not
    /// complete every job).
    Engine(String),
    /// A makespan below its lower bound − 1e-9 (relative).
    BelowBound { makespan: f64, bound: f64 },
    /// `total_updates ≠ r·t·s` (less than, when crash rework is allowed).
    Updates { got: u64, expected: u64 },
    /// A worker's `mem_high_water` above its `m_i`.
    Memory {
        worker: usize,
        high_water: u64,
        cap: u64,
    },
    /// A static plan whose net run assigned different per-worker chunk
    /// counts than its sim twin.
    ChunkTwin,
    /// `verify_product` did not pass.
    Verify,
    /// The attribution categories do not sum to the makespan.
    Unconserved,
    /// The cell's digest differs from the warm-up pass.
    Digest { got: u64, warm: u64 },
}

#[cfg(test)]
impl Failure {
    pub fn kind(&self) -> &'static str {
        match self {
            Failure::Engine(_) => "engine",
            Failure::BelowBound { .. } => "below_bound",
            Failure::Updates { .. } => "updates",
            Failure::Memory { .. } => "memory",
            Failure::ChunkTwin => "chunk_twin",
            Failure::Verify => "verify",
            Failure::Unconserved => "unconserved",
            Failure::Digest { .. } => "digest",
        }
    }
}

/// Everything the checks need to know about one executed cell.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellFacts {
    /// Build/engine error text, if the cell did not run to completion.
    pub error: Option<String>,
    /// `(makespan, lower bound)` of every sim-engine run in the cell
    /// (model time). These feed `bound_ratio_gmean`.
    pub ratios: Vec<(f64, f64)>,
    /// Block updates performed / the job's `r·t·s`.
    pub updates: u64,
    pub expected_updates: u64,
    /// Crash scenarios recompute lost chunks, so `updates` may exceed
    /// `expected_updates` there (never fall short).
    pub rework_allowed: bool,
    /// `(mem_high_water, m_i)` per worker, over every run of the cell.
    pub memory: Vec<(u64, u64)>,
    /// Per-worker chunk counts `(net run, sim twin)` of a static plan.
    pub chunk_twin: Option<(Vec<u64>, Vec<u64>)>,
    /// Outcome of `verify_product`, where the cell moves real data.
    pub verified: Option<bool>,
    /// `Attribution::is_conserved`, where the cell is recorded.
    pub conserved: Option<bool>,
    /// Digest of the cell's deterministic outputs.
    pub digest: u64,
}

impl CellFacts {
    pub fn failed(error: impl Into<String>) -> CellFacts {
        CellFacts {
            error: Some(error.into()),
            ..CellFacts::default()
        }
    }

    /// Records one sim-engine run: its bound ratio, update count,
    /// memory high-water marks and full digest.
    pub fn add_sim_run(&mut self, stats: &RunStats, bound: f64, platform: &Platform) {
        self.ratios.push((stats.makespan, bound));
        self.add_counters(stats, platform);
        self.digest = digest_sim(self.digest, stats);
    }

    /// Records one net run. A net makespan measured at `time_scale`
    /// 1e-7 tracks the wall clock, so only `total_updates` and `chunks`
    /// enter the digest.
    pub fn add_net_run(&mut self, stats: &RunStats, platform: &Platform) {
        self.add_counters(stats, platform);
        self.digest = fnv(self.digest, &[stats.total_updates, stats.chunks]);
    }

    fn add_counters(&mut self, stats: &RunStats, platform: &Platform) {
        self.updates += stats.total_updates;
        self.memory.extend(
            stats
                .per_worker
                .iter()
                .zip(platform.workers())
                .map(|(w, spec)| (w.mem_high_water, spec.m as u64)),
        );
    }
}

/// The first failure condition `facts` meets (`warm` is the cell's
/// digest in the warm-up pass, once there is one).
pub fn judge(facts: &CellFacts, warm: Option<u64>) -> Option<Failure> {
    if let Some(e) = &facts.error {
        return Some(Failure::Engine(e.clone()));
    }
    for &(makespan, bound) in &facts.ratios {
        // A NaN makespan or bound compares as `None` and fails too.
        let floor = bound * (1.0 - 1e-9);
        if !matches!(
            makespan.partial_cmp(&floor),
            Some(Ordering::Greater | Ordering::Equal)
        ) {
            return Some(Failure::BelowBound { makespan, bound });
        }
    }
    let short = facts.updates < facts.expected_updates;
    let over = facts.updates > facts.expected_updates && !facts.rework_allowed;
    if short || over {
        return Some(Failure::Updates {
            got: facts.updates,
            expected: facts.expected_updates,
        });
    }
    if let Some((worker, &(high_water, cap))) = facts
        .memory
        .iter()
        .enumerate()
        .find(|(_, (hw, cap))| hw > cap)
    {
        return Some(Failure::Memory {
            worker,
            high_water,
            cap,
        });
    }
    if facts
        .chunk_twin
        .as_ref()
        .is_some_and(|(net, sim)| net != sim)
    {
        return Some(Failure::ChunkTwin);
    }
    if facts.verified == Some(false) {
        return Some(Failure::Verify);
    }
    if facts.conserved == Some(false) {
        return Some(Failure::Unconserved);
    }
    match warm {
        Some(warm) if warm != facts.digest => Some(Failure::Digest {
            got: facts.digest,
            warm,
        }),
        _ => None,
    }
}

/// FNV-1a over 64-bit words, continuing from `state` (0 = fresh).
pub fn fnv(state: u64, words: &[u64]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = if state == 0 { OFFSET } else { state };
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    h
}

/// FNV over arbitrary bytes (input fingerprints).
pub fn fnv_bytes(state: u64, bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(state, |h, c| {
        let mut w = [0u8; 8];
        w[..c.len()].copy_from_slice(c);
        fnv(h, &[u64::from_le_bytes(w), c.len() as u64])
    })
}

/// FNV over every scalar of a block matrix (input fingerprints).
pub fn fnv_matrix(state: u64, m: &BlockMatrix) -> u64 {
    let mut h = fnv(state, &[m.block_rows() as u64, m.block_cols() as u64]);
    for i in 0..m.block_rows() {
        for j in 0..m.block_cols() {
            for x in m.block(i, j).as_slice() {
                h = fnv(h, &[x.to_bits()]);
            }
        }
    }
    h
}

/// Digest of a sim run: makespan bits and every `RunStats` counter,
/// including the per-worker and per-job records.
fn digest_sim(state: u64, s: &RunStats) -> u64 {
    let mut h = fnv(
        state,
        &[
            s.makespan.to_bits(),
            s.port_busy.to_bits(),
            s.blocks_to_workers,
            s.blocks_to_master,
            s.total_updates,
            s.chunks,
            s.port.peak_lanes,
            s.port.idle_gaps,
        ],
    );
    for w in &s.per_worker {
        h = fnv(
            h,
            &[
                w.blocks_rx,
                w.blocks_tx,
                w.updates,
                w.busy_time.to_bits(),
                w.chunks_assigned,
                w.mem_high_water,
            ],
        );
    }
    for j in &s.jobs {
        h = fnv(
            h,
            &[
                u64::from(j.job),
                j.arrival.to_bits(),
                j.completion.map_or(u64::MAX, f64::to_bits),
            ],
        );
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A healthy cell: every check passes.
    fn healthy() -> CellFacts {
        CellFacts {
            error: None,
            ratios: vec![(12.0, 10.0), (10.0, 10.0)],
            updates: 600,
            expected_updates: 600,
            rework_allowed: false,
            memory: vec![(40, 64), (64, 64)],
            chunk_twin: Some((vec![3, 2], vec![3, 2])),
            verified: Some(true),
            conserved: Some(true),
            digest: 0xfeed,
        }
    }

    #[test]
    fn a_healthy_cell_passes() {
        assert_eq!(judge(&healthy(), None), None);
        assert_eq!(judge(&healthy(), Some(0xfeed)), None);
    }

    #[test]
    fn every_failure_condition_trips_on_a_doctored_cell() {
        let doctor = |f: fn(&mut CellFacts)| {
            let mut c = healthy();
            f(&mut c);
            judge(&c, Some(0xfeed)).map(|f| f.kind())
        };
        assert_eq!(doctor(|c| c.error = Some("boom".into())), Some("engine"));
        assert_eq!(doctor(|c| c.ratios[1].0 = 9.99), Some("below_bound"));
        assert_eq!(doctor(|c| c.ratios[0].0 = f64::NAN), Some("below_bound"));
        assert_eq!(doctor(|c| c.updates = 599), Some("updates"));
        assert_eq!(doctor(|c| c.updates = 601), Some("updates"));
        assert_eq!(doctor(|c| c.memory[0].0 = 65), Some("memory"));
        assert_eq!(
            doctor(|c| c.chunk_twin = Some((vec![3, 2], vec![2, 3]))),
            Some("chunk_twin")
        );
        assert_eq!(doctor(|c| c.verified = Some(false)), Some("verify"));
        assert_eq!(doctor(|c| c.conserved = Some(false)), Some("unconserved"));
        assert_eq!(doctor(|c| c.digest = 0xbeef), Some("digest"));
    }

    #[test]
    fn tolerances_are_as_stated() {
        // A makespan within 1e-9 (relative) under its bound is round-off.
        let mut c = healthy();
        c.ratios = vec![(10.0 * (1.0 - 5e-10), 10.0)];
        assert_eq!(judge(&c, None), None);
        // Crash rework may add updates, never lose them.
        let mut c = healthy();
        c.rework_allowed = true;
        c.updates = 650;
        assert_eq!(judge(&c, None), None);
        c.updates = 599;
        assert_eq!(judge(&c, None).map(|f| f.kind()), Some("updates"));
    }

    #[test]
    fn digests_separate_nearby_inputs() {
        assert_ne!(fnv(0, &[1, 2]), fnv(0, &[2, 1]));
        assert_ne!(fnv(0, &[1]), fnv(0, &[1, 0]));
        assert_eq!(fnv(fnv(0, &[1]), &[2]), fnv(0, &[1, 2]));
        assert_ne!(fnv_bytes(0, b"abc"), fnv_bytes(0, b"abd"));
        assert_ne!(fnv_bytes(0, b"abc"), fnv_bytes(0, b"abc\0"));
    }

    #[test]
    fn sim_digest_sees_makespan_bits_and_counters() {
        let base = RunStats {
            makespan: 1.5,
            total_updates: 10,
            ..RunStats::default()
        };
        let mut later = base.clone();
        later.makespan = f64::from_bits(1.5f64.to_bits() + 1);
        let mut more = base.clone();
        more.chunks = 1;
        let d = |s: &RunStats| digest_sim(0, s);
        assert_ne!(d(&base), d(&later));
        assert_ne!(d(&base), d(&more));
        assert_eq!(d(&base), d(&base.clone()));
    }
}
