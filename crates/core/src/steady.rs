//! Steady-state bandwidth-centric analysis (Section 5, Table 1) and the
//! Table 2 counter-example.
//!
//! In steady state, worker `i` receiving `2μ_i` blocks per `μ_i²` block
//! updates occupies the master's port for `2c_i/μ_i` seconds per update
//! and its own CPU for `w_i` seconds per update. Maximizing total
//! throughput under the one-port and per-worker rate constraints is the
//! linear program of Table 1, whose optimum is the *bandwidth-centric*
//! greedy: enroll workers by non-decreasing `2c_i/μ_i` while
//! `Σ 2c_i/(μ_i w_i) ≤ 1`.
//!
//! The resulting throughput is an **upper bound** that finite memory may
//! make unreachable (Table 2): the paper uses it to certify that `Het`'s
//! absolute performance is good (within ~2.3× on average).
//!
//! **One star block.** The paper states the LP once, and so does this
//! module: the private `star_block` lays one star's variables
//! `[x_1..x_p, y_1..y_p]` and its five row kinds (aggregate port,
//! compute, coupling, per-port, backbone) at a column offset, pricing
//! the port rows by the star's [`NetModelSpec`] — the same value the
//! engines share the wire by. Every bound here *instantiates* it:
//! [`generalized_lp`] is one block at offset 0, [`table1_lp`] is
//! [`generalized_lp`] under one-port, and [`federated_lp`] is one block
//! per star plus the uplink rows that tie them. Nothing lays a row except
//! through [`LpProblem::le`], there is no second formulation (not even
//! as a test oracle: the tests pin the matrices as literal numbers), and
//! row order and every coefficient expression are fixed — Bland's rule
//! makes the pivot sequence a function of row and column order, so the
//! golden schedules and benchmark digests hold these rows to the bit.

use stargemm_lp::LpProblem;
use stargemm_netmodel::NetModelSpec;
use stargemm_platform::{shard_widths, FedPlatform, Platform, WorkerId, WorkerSpec};

use crate::job::Job;
use crate::layout::effective_mu;

/// The steady-state solution.
#[derive(Clone, Debug, PartialEq)]
pub struct SteadyState {
    /// Per-worker work rates `x_i` (block updates per second).
    pub rates: Vec<f64>,
    /// Total throughput `ρ = Σ x_i`.
    pub throughput: f64,
    /// Workers with a positive rate, in enrollment order.
    pub enrolled: Vec<WorkerId>,
}

/// Bandwidth-centric greedy (optimal for the Table 1 LP).
///
/// `r` caps each worker's `μ_i` exactly as the execution layouts do. A
/// platform no worker of which fits the layout (`μ_i = 0` everywhere)
/// enrolls nobody: the zero solution, throughput `0.0` — the verdict
/// [`lp_throughput`] gives on the same platform.
pub fn bandwidth_centric(platform: &Platform, r: usize) -> SteadyState {
    let mus: Vec<usize> = platform
        .workers()
        .iter()
        .map(|s| effective_mu(s.m, r))
        .collect();

    let mut order: Vec<WorkerId> = (0..platform.len()).filter(|&w| mus[w] > 0).collect();
    // Sort by port cost per unit of work, 2c_i/μ_i.
    order.sort_by(|&a, &b| {
        let ka = 2.0 * platform.worker(a).c / mus[a] as f64;
        let kb = 2.0 * platform.worker(b).c / mus[b] as f64;
        ka.total_cmp(&kb).then(a.cmp(&b))
    });

    let mut rates = vec![0.0; platform.len()];
    let mut enrolled = Vec::new();
    let mut port_budget = 1.0f64;
    for &w in &order {
        if port_budget <= 0.0 {
            break;
        }
        let spec = platform.worker(w);
        let port_per_update = 2.0 * spec.c / mus[w] as f64;
        let full_rate = 1.0 / spec.w;
        let full_port = port_per_update * full_rate; // = 2c/(μw)
        let rate = if full_port <= port_budget {
            port_budget -= full_port;
            full_rate
        } else {
            let r = port_budget / port_per_update;
            port_budget = 0.0;
            r
        };
        if rate > 0.0 {
            rates[w] = rate;
            enrolled.push(w);
        }
    }
    let throughput = rates.iter().sum();
    SteadyState {
        rates,
        throughput,
        enrolled,
    }
}

/// Objective of one star's variables `[x_1..x_p, y_1..y_p]`: throughput
/// counts the `x_i` of the workers that fit a layout at all.
fn star_objective(platform: &Platform, r: usize) -> impl Iterator<Item = f64> + '_ {
    let fits = platform
        .workers()
        .iter()
        .map(move |s| if effective_mu(s.m, r) > 0 { 1.0 } else { 0.0 });
    fits.chain(std::iter::repeat_n(0.0, platform.len()))
}

/// The star block of Table 1, written once: the rows of one star whose
/// variables `[x_1..x_p, y_1..y_p]` (`x_i` = updates/s, `y_i` = blocks/s
/// received) start at column `off`, under the star's contention model —
/// in this order, which the pinned solutions depend on:
///
/// 1. the **aggregate port row** `Σ y_i c_i ≤ capacity` — the paper's
///    one-port row at capacity 1; at every instant the busy-fraction sum
///    of the links is at most the number of transfers the master drives,
///    so it holds on average. Absent when the model admits unboundedly
///    many transfers;
/// 2. the **compute rows** `x_i w_i ≤ 1`;
/// 3. the **coupling rows** `x_i/μ_i² − y_i/(2μ_i) ≤ 0` — a chunk's
///    updates need its fragments;
/// 4. the **per-port rows** `y_i c_i ≤ 1` — each link carries at most its
///    own bandwidth. Absent under one-port, whose aggregate row implies
///    them;
/// 5. the **backbone row** `Σ y_i ≤ B` when the model caps the aggregate
///    block rate.
///
/// # Panics
/// Panics on an invalid `model` ([`NetModelSpec::assert_valid`]): a
/// `k = 0` or NaN-backbone star has no bound, not a loose one.
fn star_block(lp: &mut LpProblem, off: usize, platform: &Platform, r: usize, model: &NetModelSpec) {
    model.assert_valid();
    let (x, y) = (off, off + platform.len());
    if model.capacity() != usize::MAX {
        lp.le(
            platform.iter().map(|(i, spec)| (y + i, spec.c)),
            model.capacity() as f64,
        );
    }
    for (i, spec) in platform.iter() {
        lp.le([(x + i, spec.w)], 1.0);
    }
    for (i, spec) in platform.iter() {
        let mu = effective_mu(spec.m, r).max(1) as f64;
        lp.le([(x + i, 1.0 / (mu * mu)), (y + i, -1.0 / (2.0 * mu))], 0.0);
    }
    if *model != NetModelSpec::OnePort {
        for (i, spec) in platform.iter() {
            lp.le([(y + i, spec.c)], 1.0);
        }
    }
    if let Some(bb) = model.backbone() {
        lp.le((0..platform.len()).map(|i| (y + i, 1.0)), bb);
    }
}

/// The Table 1 linear program, in the solver's standard form:
/// [`generalized_lp`] under the paper's one-port model, i.e. the
/// aggregate port row at capacity 1, the compute rows and the coupling
/// rows of the star block.
pub fn table1_lp(platform: &Platform, r: usize) -> LpProblem {
    generalized_lp(platform, r, &NetModelSpec::OnePort)
}

/// Throughput according to the LP (cross-check of the greedy).
pub fn lp_throughput(platform: &Platform, r: usize) -> f64 {
    table1_lp(platform, r)
        .solve()
        .expect("Table 1 LP is feasible and bounded")
        .objective
}

/// The Table 1 LP under an arbitrary network-contention model: one star
/// block (see the module docs) at offset 0. Relative to the paper's LP
/// the one-port row `Σ y_i c_i ≤ 1` becomes `Σ y_i c_i ≤ k` (or goes,
/// under an unlimited-admission model), and per-port rows `y_i c_i ≤ 1`
/// and a backbone row `Σ y_i ≤ B` join it.
///
/// # Panics
/// Panics on an invalid `model` ([`NetModelSpec::assert_valid`]).
pub fn generalized_lp(platform: &Platform, r: usize, model: &NetModelSpec) -> LpProblem {
    let mut lp = LpProblem::maximize(star_objective(platform, r).collect());
    star_block(&mut lp, 0, platform, r, model);
    lp
}

/// Steady-state throughput bound under a contention model (block updates
/// per second). No schedule executed under `model` on the static
/// platform can sustain more.
pub fn model_throughput(platform: &Platform, r: usize, model: &NetModelSpec) -> f64 {
    generalized_lp(platform, r, model)
        .solve()
        .expect("generalized steady-state LP is feasible and bounded")
        .objective
}

/// Makespan lower bound implied by the model-aware steady-state
/// throughput: `r·s·t / ρ*(model)`. Reduces to
/// [`makespan_lower_bound`]'s LP value under the one-port model.
pub fn model_makespan_lower_bound(platform: &Platform, job: &Job, model: &NetModelSpec) -> f64 {
    job.total_updates() as f64 / model_throughput(platform, job.r, model)
}

/// The hierarchical steady-state LP for a federated platform.
///
/// Variables: per star `s` one star block
/// `[x_{s,1}..x_{s,p_s}, y_{s,1}..y_{s,p_s}]` under the star's own
/// contention model — the very rows [`generalized_lp`] emits for that
/// star, at the star's column offset — then one **uplink rate** `u_s`
/// per star (blocks of A per second the root streams to star `s`).
/// After each star's block:
///
/// * **uplink tie** — star `s` owns a `shard_s`-column shard of C, so
///   one block of A fuels at most `shard_s` of its updates:
///   `Σ_i x_{s,i} / shard_s − u_s ≤ 0` (a zero-width shard forces
///   `Σ_i x_{s,i} ≤ 0`);
/// * **per-uplink capacity** — `u_s · c_up_s ≤ 1`;
///
/// and after the last star:
///
/// * an **aggregate uplink row** `Σ_s u_s · c_up_s ≤ k_root` when the
///   root drives at most `k_root` simultaneous uplinks (omitted for an
///   unlimited-capacity model);
/// * an **uplink backbone row** `Σ_s u_s ≤ B` when the uplink model caps
///   the aggregate block rate.
///
/// With `k = 1` stars root and regional master coincide: there is no
/// uplink *variable*, so the LP **is** [`generalized_lp`] on the lone
/// star (and hence [`table1_lp`] under one-port), row for row.
///
/// # Panics
/// Panics on an invalid star or uplink model
/// ([`NetModelSpec::assert_valid`]).
pub fn federated_lp(fed: &FedPlatform, job: &Job) -> LpProblem {
    fed.uplink.assert_valid();
    if let [star] = &fed.stars[..] {
        return generalized_lp(&star.platform.base, job.r, &star.platform.netmodel);
    }
    let k = fed.len();
    let shards = shard_widths(job.s, k);
    let uvar_base: usize = fed.stars.iter().map(|s| 2 * s.platform.base.len()).sum();
    let mut lp = LpProblem::maximize(
        fed.stars
            .iter()
            .flat_map(|s| star_objective(&s.platform.base, job.r))
            .chain(std::iter::repeat_n(0.0, k))
            .collect(),
    );
    let mut off = 0;
    for (s, star) in fed.stars.iter().enumerate() {
        let p = star.platform.base.len();
        let u = uvar_base + s;
        star_block(
            &mut lp,
            off,
            &star.platform.base,
            job.r,
            &star.platform.netmodel,
        );
        // Uplink tie: Σ_i x_{s,i} / shard_s ≤ u_s.
        let per_block = match shards[s] {
            0 => 1.0,
            width => 1.0 / width as f64,
        };
        lp.le(
            (off..off + p)
                .map(|x| (x, per_block))
                .chain((shards[s] > 0).then_some((u, -1.0))),
            0.0,
        );
        // Per-uplink capacity: u_s · c_up_s ≤ 1.
        lp.le([(u, star.uplink_c)], 1.0);
        off += 2 * p;
    }
    let uplinks = || (uvar_base..).zip(&fed.stars);
    // Aggregate uplink row: Σ_s u_s c_up_s ≤ k_root.
    if fed.uplink.capacity() != usize::MAX {
        lp.le(
            uplinks().map(|(u, star)| (u, star.uplink_c)),
            fed.uplink.capacity() as f64,
        );
    }
    // Uplink backbone row: Σ_s u_s ≤ B.
    if let Some(bb) = fed.uplink.backbone() {
        lp.le(uplinks().map(|(u, _)| (u, 1.0)), bb);
    }
    lp
}

/// Steady-state throughput bound of a federation (block updates per
/// second): the optimum of [`federated_lp`]. No federated schedule can
/// sustain more on the static platform.
pub fn federated_throughput(fed: &FedPlatform, job: &Job) -> f64 {
    federated_lp(fed, job)
        .solve()
        .expect("federated steady-state LP is feasible and bounded")
        .objective
}

/// Makespan lower bound implied by the federated throughput bound:
/// `r·s·t / ρ*_fed`. Collapses to [`model_makespan_lower_bound`] when
/// the federation has a single star.
pub fn federated_makespan_lower_bound(fed: &FedPlatform, job: &Job) -> f64 {
    job.total_updates() as f64 / federated_throughput(fed, job)
}

/// Makespan lower bound implied by the steady-state throughput:
/// `r·s·t / ρ`. The paper compares Het's achieved throughput against
/// this optimistic bound (ratio ≈ 2.3× on average). `+∞` on a platform
/// no worker of which fits the layout, as
/// [`model_makespan_lower_bound`] is.
pub fn makespan_lower_bound(platform: &Platform, job: &Job) -> f64 {
    let ss = bandwidth_centric(platform, job.r);
    job.total_updates() as f64 / ss.throughput
}

/// The Table 2 platform: `P1 = (c=1, w=2, μ=2)`, `P2 = (c=x, w=2x, μ=2)`.
/// Both saturate exactly half the port in steady state
/// (`2c_i/(μ_i w_i) = ½` each), yet as `x` grows `P1` needs unboundedly
/// many buffers to sustain its rate — the bandwidth-centric solution is
/// not always feasible with finite memory.
pub fn table2_platform(x: f64) -> Platform {
    assert!(x >= 1.0, "the example uses x >= 1");
    // m = 12 gives μ_overlapped = 2 for both workers.
    Platform::new(
        format!("table2-x{x}"),
        vec![
            WorkerSpec::new(1.0, 2.0, 12),
            WorkerSpec::new(x, 2.0 * x, 12),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform() -> Platform {
        Platform::new(
            "p",
            vec![
                WorkerSpec::new(0.5, 0.2, 60),  // μ=6
                WorkerSpec::new(1.0, 0.4, 30),  // μ=3
                WorkerSpec::new(2.0, 0.8, 120), // μ=8
            ],
        )
    }

    #[test]
    fn greedy_matches_lp_optimum() {
        for r in [4, 8, 100] {
            let ss = bandwidth_centric(&platform(), r);
            let lp = lp_throughput(&platform(), r);
            assert!(
                (ss.throughput - lp).abs() < 1e-6,
                "r={r}: greedy {} vs LP {lp}",
                ss.throughput
            );
        }
    }

    #[test]
    fn table2_rates_match_paper() {
        // Each worker contributes 2c/(μw) = 1/2 of the port: both fully
        // enrolled, throughput = 1/w1 + 1/w2 = 1/2 + 1/(2x).
        for x in [1.0, 2.0, 8.0] {
            let p = table2_platform(x);
            let ss = bandwidth_centric(&p, 100);
            assert_eq!(ss.enrolled.len(), 2);
            let expect = 0.5 + 0.5 / x;
            assert!((ss.throughput - expect).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn saturated_port_limits_enrollment() {
        // Many workers with heavy port usage: 2c/(μw) = 2·1/(2·0.5) = 2
        // each → only a fraction of the first worker is enrolled.
        let specs = vec![WorkerSpec::new(1.0, 0.5, 12); 4];
        let p = Platform::new("sat", specs);
        let ss = bandwidth_centric(&p, 100);
        assert_eq!(ss.enrolled, vec![0]);
        // Rate limited by port: x = 1/(2c/μ) = 1.
        assert!((ss.throughput - 1.0).abs() < 1e-9);
        // LP agrees.
        assert!((lp_throughput(&p, 100) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn underloaded_port_enrolls_everyone_at_full_rate() {
        // 2c/(μw) = 0.1 each with 4 workers → Σ = 0.4 < 1.
        let specs = vec![WorkerSpec::new(0.1, 0.5, 60); 4]; // μ=6: 2·0.1/(6·0.5)≈0.067
        let p = Platform::new("under", specs);
        let ss = bandwidth_centric(&p, 100);
        assert_eq!(ss.enrolled.len(), 4);
        assert!((ss.throughput - 4.0 / 0.5).abs() < 1e-9);
    }

    #[test]
    fn generalized_lp_degenerates_to_table1_under_oneport() {
        for r in [4, 8, 100] {
            let t1 = lp_throughput(&platform(), r);
            let gen = model_throughput(&platform(), r, &NetModelSpec::OnePort);
            assert_eq!(t1, gen, "r={r}");
        }
    }

    #[test]
    fn more_ports_never_lower_the_bound() {
        let p = platform();
        let op = model_throughput(&p, 100, &NetModelSpec::OnePort);
        let mut prev = op;
        for k in 1..=3 {
            let t = model_throughput(
                &p,
                100,
                &NetModelSpec::BoundedMultiPort { k, backbone: None },
            );
            assert!(
                t >= prev - 1e-9,
                "k={k}: throughput {t} dropped below {prev}"
            );
            prev = t;
        }
        // With unlimited ports/backbone only the compute rows bind:
        // ρ* = Σ 1/w_i (the per-port rows are loose on this platform at
        // full compute rate? not necessarily — just assert ≥ one-port).
        let fs = model_throughput(&p, 100, &NetModelSpec::FairShare { backbone: 1e9 });
        assert!(fs >= op - 1e-9);
    }

    #[test]
    fn binding_backbone_caps_the_bound() {
        // Fast CPUs, fast links: with B far below what the links allow,
        // the backbone row binds and throughput ≈ B·μ/2 per block of
        // operand traffic... assert the monotone behaviour instead of
        // the closed form: tightening B can only lower ρ*.
        let p = platform();
        let loose = model_throughput(
            &p,
            100,
            &NetModelSpec::BoundedMultiPort {
                k: 3,
                backbone: Some(1e6),
            },
        );
        let tight = model_throughput(
            &p,
            100,
            &NetModelSpec::BoundedMultiPort {
                k: 3,
                backbone: Some(0.5),
            },
        );
        assert!(tight < loose, "backbone not binding: {tight} vs {loose}");
        // A fair-share backbone at the same B gives at least the k-capped
        // value (fewer constraints).
        let fs = model_throughput(&p, 100, &NetModelSpec::FairShare { backbone: 0.5 });
        assert!(fs >= tight - 1e-9);
    }

    #[test]
    fn multiport_k1_bound_equals_oneport_bound() {
        // k = 1 with no backbone adds only redundant per-port rows.
        let p = platform();
        for r in [8, 100] {
            let op = model_throughput(&p, r, &NetModelSpec::OnePort);
            let k1 = model_throughput(
                &p,
                r,
                &NetModelSpec::BoundedMultiPort {
                    k: 1,
                    backbone: None,
                },
            );
            assert!((op - k1).abs() < 1e-9, "r={r}: {op} vs {k1}");
        }
    }

    #[test]
    fn federated_lp_collapses_to_table1_for_one_star() {
        use stargemm_platform::DynPlatform;
        let job = Job::new(12, 8, 20, 2);
        // One-port star: the federated LP must be `table1_lp`, row for
        // row, coefficient for coefficient.
        let fed = FedPlatform::single(DynPlatform::constant(platform()));
        assert_eq!(
            federated_lp(&fed, &job),
            table1_lp(&fed.star(0).platform.base, job.r)
        );
        // Non-one-port star: must be `generalized_lp` on that model.
        let spec = NetModelSpec::BoundedMultiPort {
            k: 2,
            backbone: Some(3.0),
        };
        let fed = FedPlatform::single(DynPlatform::constant(platform()).with_netmodel(spec));
        assert_eq!(
            federated_lp(&fed, &job),
            generalized_lp(&fed.star(0).platform.base, job.r, &spec)
        );
        // And the throughputs agree bitwise.
        assert_eq!(
            federated_throughput(&fed, &job).to_bits(),
            model_throughput(&fed.star(0).platform.base, job.r, &spec).to_bits()
        );
    }

    /// The two-worker platform of the literal pins: `μ = 6` and `μ = 3`
    /// at `r = 8`, so the coupling coefficients are `1/36, −1/12` and
    /// `1/9, −1/6`.
    fn pin_platform() -> Platform {
        Platform::new(
            "pin",
            vec![WorkerSpec::new(0.5, 0.2, 60), WorkerSpec::new(1.0, 0.4, 30)],
        )
    }

    /// A formulation written out: the objective, then `(row, rhs)` pairs.
    fn literal(objective: &[f64], rows: &[(&[f64], f64)]) -> LpProblem {
        LpProblem {
            objective: objective.to_vec(),
            constraints: rows.iter().map(|(row, _)| row.to_vec()).collect(),
            rhs: rows.iter().map(|&(_, rhs)| rhs).collect(),
        }
    }

    // The pins below are literal matrices, not a second generator: a
    // reordered row family, a re-associated coefficient or a shifted
    // column fails here before it moves a golden.

    #[test]
    fn one_star_rows_are_pinned_under_each_model() {
        let p = pin_platform();
        let obj = [1.0, 1.0, 0.0, 0.0];
        let compute_and_coupling: [(&[f64], f64); 4] = [
            (&[0.2, 0.0, 0.0, 0.0], 1.0),
            (&[0.0, 0.4, 0.0, 0.0], 1.0),
            (&[1.0 / 36.0, 0.0, -1.0 / 12.0, 0.0], 0.0),
            (&[0.0, 1.0 / 9.0, 0.0, -1.0 / 6.0], 0.0),
        ];
        let per_port: [(&[f64], f64); 2] =
            [(&[0.0, 0.0, 0.5, 0.0], 1.0), (&[0.0, 0.0, 0.0, 1.0], 1.0)];

        // One-port: three row kinds, the aggregate row at capacity 1.
        let mut rows = vec![(&[0.0, 0.0, 0.5, 1.0][..], 1.0)];
        rows.extend(compute_and_coupling);
        assert_eq!(table1_lp(&p, 8), literal(&obj, &rows));

        // Bounded multi-port: all five, the aggregate row at capacity k.
        let multiport = NetModelSpec::BoundedMultiPort {
            k: 2,
            backbone: Some(3.0),
        };
        let mut rows = vec![(&[0.0, 0.0, 0.5, 1.0][..], 2.0)];
        rows.extend(compute_and_coupling);
        rows.extend(per_port);
        rows.push((&[0.0, 0.0, 1.0, 1.0], 3.0));
        assert_eq!(generalized_lp(&p, 8, &multiport), literal(&obj, &rows));

        // Fair share: no aggregate row.
        let mut rows = compute_and_coupling.to_vec();
        rows.extend(per_port);
        rows.push((&[0.0, 0.0, 1.0, 1.0], 2.5));
        assert_eq!(
            generalized_lp(&p, 8, &NetModelSpec::FairShare { backbone: 2.5 }),
            literal(&obj, &rows)
        );
    }

    #[test]
    fn federated_rows_are_pinned_with_a_zero_width_shard() {
        use stargemm_platform::{DynPlatform, FedStar};
        // Star 0: the pin platform under a 2-port model (variables 0–3);
        // star 1: one one-port worker with μ = 8 (variables 4–5);
        // uplinks u_0, u_1 (variables 6–7) under a 2-port root with a
        // backbone. `s = 1` column over two stars: star 1's shard is
        // empty, so its tie row has no uplink term.
        let star0 =
            DynPlatform::constant(pin_platform()).with_netmodel(NetModelSpec::BoundedMultiPort {
                k: 2,
                backbone: Some(3.0),
            });
        let star1 = DynPlatform::constant(Platform::new("b", vec![WorkerSpec::new(2.0, 0.8, 120)]));
        let fed = FedPlatform::new(
            "fed",
            vec![FedStar::new(star0, 0.25), FedStar::new(star1, 0.5)],
            NetModelSpec::BoundedMultiPort {
                k: 2,
                backbone: Some(1.5),
            },
        );
        let expected = literal(
            &[1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            &[
                // Star 0's block.
                (&[0.0, 0.0, 0.5, 1.0, 0.0, 0.0, 0.0, 0.0], 2.0),
                (&[0.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 1.0),
                (&[0.0, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 1.0),
                (
                    &[1.0 / 36.0, 0.0, -1.0 / 12.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                    0.0,
                ),
                (&[0.0, 1.0 / 9.0, 0.0, -1.0 / 6.0, 0.0, 0.0, 0.0, 0.0], 0.0),
                (&[0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0], 1.0),
                (&[0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 1.0),
                (&[0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0], 3.0),
                // Its uplink tie (shard width 1) and uplink capacity.
                (&[1.0, 1.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0], 0.0),
                (&[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25, 0.0], 1.0),
                // Star 1's block (one-port: three row kinds).
                (&[0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0], 1.0),
                (&[0.0, 0.0, 0.0, 0.0, 0.8, 0.0, 0.0, 0.0], 1.0),
                (
                    &[0.0, 0.0, 0.0, 0.0, 1.0 / 64.0, -1.0 / 16.0, 0.0, 0.0],
                    0.0,
                ),
                // Its tie on an empty shard, and uplink capacity.
                (&[0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0], 0.0),
                (&[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5], 1.0),
                // The root's aggregate uplink and backbone rows.
                (&[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25, 0.5], 2.0),
                (&[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0], 1.5),
            ],
        );
        assert_eq!(federated_lp(&fed, &Job::new(8, 4, 1, 2)), expected);

        // Five columns split 3 + 2: only the two tie rows change.
        let mut wide = expected;
        wide.constraints[8] = vec![1.0 / 3.0, 1.0 / 3.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0];
        wide.constraints[13] = vec![0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, -1.0];
        let job = Job::new(8, 4, 5, 2);
        assert_eq!(federated_lp(&fed, &job), wide);
        assert_eq!(federated_throughput(&fed, &job), 4.5);
    }

    #[test]
    fn greedy_and_lp_give_one_verdict_when_no_worker_fits() {
        // m ∈ {3, 4} is the smallest memory a spec admits and holds no
        // layout: μ = 0 everywhere. The greedy is the closed form of the
        // LP, so it must answer what the LP answers: 0.
        let p = Platform::new(
            "no-fit",
            vec![WorkerSpec::new(1.0, 1.0, 3), WorkerSpec::new(1.0, 1.0, 4)],
        );
        let job = Job::new(8, 4, 5, 2);
        let ss = bandwidth_centric(&p, job.r);
        assert_eq!(ss.rates, [0.0, 0.0]);
        assert!(ss.enrolled.is_empty());
        assert_eq!(ss.throughput, 0.0);
        assert_eq!(lp_throughput(&p, job.r), 0.0);
        assert_eq!(makespan_lower_bound(&p, &job), f64::INFINITY);
        assert_eq!(
            model_makespan_lower_bound(&p, &job, &NetModelSpec::OnePort),
            f64::INFINITY
        );
        let task = crate::cpath::TaskCost {
            in_blocks: 3,
            out_blocks: 1,
            updates: 1,
        };
        assert_eq!(
            crate::cpath::dag_makespan_lower_bound(&p, &[task], &[vec![]]),
            f64::INFINITY
        );
        // Whoever else divides by the throughput: `MultiStarMaster::place`
        // skips stars with `rho <= 0`, and `stream_report`'s
        // throughput / bound never sees such a platform — a stream needs
        // a `MultiJobMaster`, whose constructor rejects it first (pinned
        // beside `aggregate_throughput_bound` in `stream::metrics`).
    }

    #[test]
    fn federation_beats_one_star_with_fast_uplinks() {
        use stargemm_platform::{DynPlatform, FedStar};
        let job = Job::new(12, 8, 20, 2);
        let single = model_throughput(&platform(), job.r, &NetModelSpec::OnePort);
        // Two copies of the star behind cheap uplinks: the bound must
        // exceed the lone star's (and stay below twice it).
        let mk_star = || DynPlatform::constant(platform());
        let fed = FedPlatform::new(
            "fed2",
            vec![FedStar::new(mk_star(), 0.01), FedStar::new(mk_star(), 0.01)],
            NetModelSpec::OnePort,
        );
        let rho = federated_throughput(&fed, &job);
        assert!(rho > single * 1.2, "fed {rho} vs single {single}");
        assert!(rho <= 2.0 * single + 1e-9);
        let bound = federated_makespan_lower_bound(&fed, &job);
        assert!((bound - job.total_updates() as f64 / rho).abs() < 1e-12);
    }

    #[test]
    fn slow_uplinks_throttle_the_federated_bound() {
        use stargemm_platform::{DynPlatform, FedStar};
        let job = Job::new(12, 8, 20, 2);
        let mk_star = || DynPlatform::constant(platform());
        let fast = FedPlatform::new(
            "fast",
            vec![FedStar::new(mk_star(), 0.01), FedStar::new(mk_star(), 0.01)],
            NetModelSpec::OnePort,
        );
        let slow = FedPlatform::new(
            "slow",
            vec![FedStar::new(mk_star(), 5.0), FedStar::new(mk_star(), 5.0)],
            NetModelSpec::OnePort,
        );
        let rho_fast = federated_throughput(&fast, &job);
        let rho_slow = federated_throughput(&slow, &job);
        assert!(rho_slow < rho_fast, "{rho_slow} vs {rho_fast}");
        // With uplink cost c_up = 5 and the one-port root, Σ u_s·5 ≤ 1,
        // so total updates/s ≤ shard·Σu ≤ (s/k)·(1/5)·... just check the
        // closed cap per star: x_s ≤ shard_s · u_s ≤ shard_s / c_up.
        let shard_cap: f64 = shard_widths(job.s, 2).iter().map(|&w| w as f64 / 5.0).sum();
        assert!(rho_slow <= shard_cap + 1e-9);
        // A multiport root with two uplink ports relaxes the aggregate
        // row: the bound can only improve.
        let multi = FedPlatform::new(
            "slow-multi",
            vec![FedStar::new(mk_star(), 5.0), FedStar::new(mk_star(), 5.0)],
            NetModelSpec::BoundedMultiPort {
                k: 2,
                backbone: None,
            },
        );
        assert!(federated_throughput(&multi, &job) >= rho_slow - 1e-9);
    }

    #[test]
    fn makespan_bound_is_optimistic() {
        let job = Job::new(12, 8, 20, 2);
        let bound = makespan_lower_bound(&platform(), &job);
        assert!(bound > 0.0);
        // The bound neglects C I/O and startup: any real schedule is
        // slower. Cross-check against an actual Het run.
        let (mut policy, _, _) = crate::select_het::het_best(&platform(), &job);
        let stats = stargemm_sim::Simulator::new(platform())
            .run(&mut policy)
            .unwrap();
        assert!(
            stats.makespan >= bound * 0.999,
            "sim {} vs bound {bound}",
            stats.makespan
        );
    }

    #[test]
    fn bound_order_is_by_port_cost_per_work() {
        let ss = bandwidth_centric(&platform(), 100);
        // Worker 0: 2·0.5/6 ≈ 0.167, worker 2: 2·2/8 = 0.5,
        // worker 1: 2·1/3 ≈ 0.667 — enrollment order 0, 2, 1 (until
        // the port budget runs out).
        assert_eq!(ss.enrolled[0], 0);
        if ss.enrolled.len() > 1 {
            assert_eq!(ss.enrolled[1], 2);
        }
    }
}
