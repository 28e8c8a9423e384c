//! Resource selection for the homogeneous algorithm on heterogeneous
//! platforms (the paper's `Hom` and `HomI` competitors, Section 6.2).
//!
//! `Hom` extracts a *virtual homogeneous platform* per distinct memory
//! size: all workers with at least that much memory, degraded to the
//! slowest CPU and link among them. `HomI` refines the extraction by
//! considering every (memory, link, CPU) value triple present on the
//! platform. Both estimate the homogeneous algorithm's makespan on each
//! candidate and keep the best, then apply the paper's Section 4
//! enrollment formula `P = min(p', ⌈μw/(2c)⌉)`.

use stargemm_platform::{Platform, WorkerId, WorkerSpec};

use crate::assign::round_robin_queues;
use crate::estimate::estimate_hom_makespan;
use crate::job::Job;
use crate::layout::effective_mu;
use crate::stream::{Serving, StreamingMaster};

/// Outcome of the virtual-platform search.
#[derive(Clone, Debug, PartialEq)]
pub struct HomChoice {
    /// Workers enrolled (the `P` chosen ones), by platform id.
    pub enrolled: Vec<WorkerId>,
    /// Uniform chunk side used for everyone.
    pub mu: usize,
    /// The virtual worker everyone is treated as.
    pub virtual_spec: WorkerSpec,
    /// Estimated makespan of this candidate.
    pub estimate: f64,
}

/// Section 4 enrollment count: the smallest `P` saturating the master's
/// port (`P·2μtc ≥ μ²tw`), capped by the available workers.
pub fn enrollment(p_available: usize, mu: usize, c: f64, w: f64) -> usize {
    assert!(mu > 0 && p_available > 0);
    let p = ((mu as f64 * w) / (2.0 * c)).ceil() as usize;
    p.clamp(1, p_available)
}

/// Evaluates one virtual candidate: the workers of `eligible` treated as
/// identical `spec` machines.
fn evaluate(job: &Job, eligible: &[WorkerId], spec: WorkerSpec) -> Option<HomChoice> {
    if eligible.is_empty() {
        return None;
    }
    let mu = effective_mu(spec.m, job.r);
    if mu == 0 {
        return None;
    }
    let p_used = enrollment(eligible.len(), mu, spec.c, spec.w);
    let estimate = estimate_hom_makespan(job, p_used, spec.c, spec.w, mu);
    Some(HomChoice {
        enrolled: eligible[..p_used].to_vec(),
        mu,
        virtual_spec: spec,
        estimate,
    })
}

/// `Hom`'s search: one candidate per distinct memory size.
pub fn choose_hom(platform: &Platform, job: &Job) -> Option<HomChoice> {
    let mut memories: Vec<usize> = platform.workers().iter().map(|s| s.m).collect();
    memories.sort_unstable();
    memories.dedup();
    let mut best: Option<HomChoice> = None;
    for m in memories {
        let eligible: Vec<WorkerId> = platform
            .iter()
            .filter(|(_, s)| s.m >= m)
            .map(|(i, _)| i)
            .collect();
        // Apparent speed/bandwidth: the worst among the eligible.
        let c = eligible
            .iter()
            .map(|&i| platform.worker(i).c)
            .fold(0.0, f64::max);
        let w = eligible
            .iter()
            .map(|&i| platform.worker(i).w)
            .fold(0.0, f64::max);
        let cand = evaluate(job, &eligible, WorkerSpec::new(c, w, m));
        if let Some(c) = cand {
            if best.as_ref().is_none_or(|b| c.estimate < b.estimate) {
                best = Some(c);
            }
        }
    }
    best
}

/// `HomI`'s search: one candidate per (memory, link, CPU) triple of
/// values present on the platform; eligibility requires dominating the
/// whole triple.
pub fn choose_hom_improved(platform: &Platform, job: &Job) -> Option<HomChoice> {
    let mut memories: Vec<usize> = platform.workers().iter().map(|s| s.m).collect();
    memories.sort_unstable();
    memories.dedup();
    let mut cs: Vec<f64> = platform.workers().iter().map(|s| s.c).collect();
    cs.sort_by(f64::total_cmp);
    cs.dedup();
    let mut ws: Vec<f64> = platform.workers().iter().map(|s| s.w).collect();
    ws.sort_by(f64::total_cmp);
    ws.dedup();

    let mut best: Option<HomChoice> = None;
    for &m in &memories {
        for &c in &cs {
            for &w in &ws {
                let eligible: Vec<WorkerId> = platform
                    .iter()
                    .filter(|(_, s)| s.m >= m && s.c <= c && s.w <= w)
                    .map(|(i, _)| i)
                    .collect();
                if eligible.is_empty() {
                    continue;
                }
                let cand = evaluate(job, &eligible, WorkerSpec::new(c, w, m));
                if let Some(cd) = cand {
                    if best.as_ref().is_none_or(|b| cd.estimate < b.estimate) {
                        best = Some(cd);
                    }
                }
            }
        }
    }
    best
}

/// Builds the executable policy from a choice: uniform-side strips
/// assigned round-robin over the enrolled workers, served in strict
/// round-robin (Algorithm 1).
pub fn hom_policy_from_choice(
    name: &'static str,
    platform: &Platform,
    job: &Job,
    choice: &HomChoice,
) -> StreamingMaster {
    let sides: Vec<usize> = (0..platform.len())
        .map(|w| {
            if choice.enrolled.contains(&w) {
                choice.mu
            } else {
                0
            }
        })
        .collect();
    let queues = round_robin_queues(
        job,
        platform.len(),
        choice.enrolled.iter().copied(),
        &sides,
        &mut 0,
    );
    StreamingMaster::new_static(name, *job, queues, Serving::RoundRobin, 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn het_mem_platform() -> Platform {
        // Mirrors the Figure 4 platform in miniature.
        let tier = |m| WorkerSpec::new(1.0, 0.5, m);
        Platform::new(
            "mini-het-mem",
            vec![
                tier(50),
                tier(50),
                tier(200),
                tier(200),
                tier(800),
                tier(800),
            ],
        )
    }

    #[test]
    fn enrollment_formula_matches_paper_example() {
        // Paper Section 4: c = 2, w = 4.5, μ = 4 → P = ⌈4·4.5/4⌉ = 5.
        assert_eq!(enrollment(10, 4, 2.0, 4.5), 5);
        // Capped by available workers.
        assert_eq!(enrollment(3, 4, 2.0, 4.5), 3);
        // Communication-bound: at least one worker.
        assert_eq!(enrollment(8, 2, 10.0, 0.1), 1);
    }

    #[test]
    fn hom_picks_some_memory_tier() {
        let p = het_mem_platform();
        let job = Job::new(30, 10, 40, 2);
        let choice = choose_hom(&p, &job).expect("a choice exists");
        assert!(choice.mu > 0);
        assert!(!choice.enrolled.is_empty());
        // Enrolled workers must actually have the chosen memory.
        for &w in &choice.enrolled {
            assert!(p.worker(w).m >= choice.virtual_spec.m);
        }
    }

    #[test]
    fn hom_improved_never_estimates_worse_than_hom() {
        // HomI's candidate set is a superset of Hom's on platforms where
        // links/CPUs are uniform, and strictly richer otherwise.
        let mut specs = het_mem_platform().workers().to_vec();
        specs[0].w = 2.0; // heterogeneous CPU
        specs[3].c = 3.0; // heterogeneous link
        let p = Platform::new("het", specs);
        let job = Job::new(30, 10, 40, 2);
        let hom = choose_hom(&p, &job).unwrap();
        let homi = choose_hom_improved(&p, &job).unwrap();
        assert!(homi.estimate <= hom.estimate + 1e-9);
    }

    #[test]
    fn section4_startup_overhead_is_small() {
        // The paper's worked example: c = 2, w = 4.5, μ = 4, t = 100 →
        // P = 5 and the sequentialized C I/O loses at most ~4 % over the
        // ideal pipeline. Check the simulated Hom makespan against the
        // steady-flow lower bound max(total comm, compute/P).
        use stargemm_sim::Simulator;
        let (c, w, mu, t) = (2.0, 4.5, 4usize, 100usize);
        let m = mu * mu + 4 * mu; // 32 buffers: exactly the layout
        let p = Platform::homogeneous("paper-ex", 5, WorkerSpec::new(c, w, m));
        // r = μ, s = P·μ·4 → each worker gets 4 strips.
        let job = Job::new(mu, t, 5 * mu * 4, 2);
        let choice = HomChoice {
            enrolled: vec![0, 1, 2, 3, 4],
            mu,
            virtual_spec: WorkerSpec::new(c, w, m),
            estimate: 0.0,
        };
        let mut policy = hom_policy_from_choice("Hom", &p, &job, &choice);
        let stats = Simulator::new(p).run(&mut policy).unwrap();
        let comm_blocks = (2 * job.r * job.s + 2 * mu * t * (job.s / mu)) as f64;
        let comm = comm_blocks * c;
        let comp = job.total_updates() as f64 * w / 5.0;
        let bound = comm.max(comp);
        let overhead = stats.makespan / bound - 1.0;
        assert!(
            overhead < 0.10,
            "start-up overhead {overhead:.3} exceeds the paper's ballpark"
        );
    }

    #[test]
    fn policy_from_choice_runs_and_covers() {
        use crate::geometry::validate_coverage;
        use stargemm_sim::Simulator;
        let p = het_mem_platform();
        let job = Job::new(12, 6, 16, 2);
        let choice = choose_hom(&p, &job).unwrap();
        let mut policy = hom_policy_from_choice("Hom", &p, &job, &choice);
        let stats = Simulator::new(p).run(&mut policy).unwrap();
        assert_eq!(stats.total_updates, job.total_updates());
        let geoms: Vec<_> = policy.geoms().copied().collect();
        validate_coverage(&job, &geoms).unwrap();
        // Only the enrolled workers took part.
        assert_eq!(
            stats.enrolled(),
            choice.enrolled.len().min(stats.enrolled())
        );
    }
}
