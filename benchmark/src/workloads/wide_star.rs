//! `wide_star` — contention and engine scale.
//!
//! ODDOML on homogeneous stars with q = 2 blocks and `time_scale` 1e-7,
//! so GEMM and pacing are negligible and the engines themselves are
//! measured. Three legs, each run through **both** `Simulator::
//! with_netmodel` and `NetRuntime`, balanced to comparable shares of the
//! pass:
//!
//! * `fairshare` — `FairShare` at 128 workers: every transfer start and
//!   finish re-shares hundreds of lanes, so `netmodel` dominates;
//! * `multiport` — `BoundedMultiPort { k = 16, backbone }` at 512
//!   workers: a bounded lane table on a wider star;
//! * `oneport` — `OnePort` at 2 048 workers: engine, lane-table and
//!   reactor overhead with a trivial re-share.
//!
//! Chosen because `netmodel` does most of the work in one leg and none
//! in another, and because it uses `sim` and `net` opposite to the
//! narrow workloads — a re-share or lane-table gain that taxes the
//! one-port path shows here.

use std::time::Instant;

use rand::Rng;

use crate::check::{fnv, fnv_matrix, CellFacts};
use crate::surface::{
    build_policy, generalized_lp, makespan_lower_bound, maxmin_shares_into, tolerance_for,
    verify_product, Algorithm, BlockMatrix, Job, NetModelSpec, NetOptions, NetRuntime, ObsEvent,
    ObsSink, Platform, RunRecorder, ShareScratch, Simulator, TransferLane, WorkerSpec,
};
use crate::trace::{Layer, Tracer};
use crate::workloads::{
    count_linalg, gemm_probe, sub_rng, Counts, Inputs, Metrics, Pass, TIME_SCALE,
};

/// Block side: payloads and the real GEMM stay negligible.
const Q: usize = 2;

/// `(leg, workers, C block-columns per worker, inner blocks t)`. ODDOML
/// carves 4-column strips on these stars (r = 4, m = 64), so a worker
/// sees `cols / 4` chunks of `t` steps each. Widths are balanced so the
/// three legs take comparable shares of a pass.
const LEGS: [(&str, usize, usize, usize); 3] = [
    ("fairshare", 128, 7, 1),
    ("multiport", 512, 128, 1),
    ("oneport", 2048, 8, 20),
];
/// The same code paths at about 1/50 of the events.
const LEGS_QUICK: [(&str, usize, usize, usize); 3] = [
    ("fairshare", 24, 4, 1),
    ("multiport", 64, 16, 1),
    ("oneport", 256, 4, 2),
];

struct Leg {
    /// Span name of the leg's engine runs.
    span: &'static str,
    platform: Platform,
    model: NetModelSpec,
    job: Job,
    a: BlockMatrix,
    b: BlockMatrix,
    c0: BlockMatrix,
}

pub struct WideStar {
    legs: Vec<Leg>,
}

pub fn generate(seed: u64, quick: bool) -> Box<dyn Inputs> {
    let table = if quick { LEGS_QUICK } else { LEGS };
    let legs = table
        .into_iter()
        .enumerate()
        .map(|(i, (name, workers, cols_per_worker, t))| {
            let mut rng = sub_rng(seed, 1 + i as u64);
            // The seed sets the star's link and compute costs; its width
            // and the job's shape are the leg's definition.
            let c = 1e-5 * rng.random_range(0.8..1.2);
            let w = 1e-6 * rng.random_range(0.8..1.2);
            let platform =
                Platform::homogeneous(format!("wide-{name}"), workers, WorkerSpec::new(c, w, 64));
            let link_rate = 1.0 / c;
            let (span, model) = match name {
                "fairshare" => (
                    "run_fairshare",
                    NetModelSpec::FairShare {
                        backbone: 0.25 * workers as f64 * link_rate,
                    },
                ),
                "multiport" => (
                    "run_multiport",
                    NetModelSpec::BoundedMultiPort {
                        k: 16,
                        backbone: Some(8.0 * link_rate),
                    },
                ),
                _ => ("run_oneport", NetModelSpec::OnePort),
            };
            let job = Job::new(4, t, cols_per_worker * workers, Q);
            Leg {
                span,
                platform,
                model,
                job,
                a: BlockMatrix::random(job.r, job.t, Q, &mut rng),
                b: BlockMatrix::random(job.t, job.s, Q, &mut rng),
                c0: BlockMatrix::random(job.r, job.s, Q, &mut rng),
            }
        })
        .collect();
    Box::new(WideStar { legs })
}

impl Leg {
    fn sim(&self) -> Simulator {
        Simulator::new(self.platform.clone()).with_netmodel(self.model)
    }

    /// Steady-state makespan bound under the leg's contention model.
    fn bound(&self, t: &mut Tracer) -> Result<f64, String> {
        if self.model == NetModelSpec::OnePort {
            return Ok(t.span(Layer::Core, "bound", || {
                makespan_lower_bound(&self.platform, &self.job)
            }));
        }
        let lp = t.span(Layer::Core, "lp_build", || {
            generalized_lp(&self.platform, self.job.r, &self.model)
        });
        let solved = t.span(Layer::Lp, "solve", || lp.solve());
        t.count("lp.solves", 1.0);
        solved
            .map(|s| self.job.total_updates() as f64 / s.objective)
            .map_err(|e| format!("steady-state LP: {e:?}"))
    }

    fn sim_cell(&self, t: &mut Tracer) -> CellFacts {
        let bound = match self.bound(t) {
            Ok(b) => b,
            Err(e) => return CellFacts::failed(e),
        };
        let plan = t.span(Layer::Core, "plan", || {
            build_policy(&self.platform, &self.job, Algorithm::Oddoml)
        });
        let mut policy = match plan {
            Ok(p) => p,
            Err(e) => return CellFacts::failed(e.to_string()),
        };
        let sim = self.sim();
        match t.engine(Layer::Sim, self.span, Layer::Core, &mut policy, |p| {
            sim.run(p)
        }) {
            Ok(stats) => {
                t.count_max("netmodel.peak_lanes", stats.port.peak_lanes as f64);
                let mut facts = CellFacts {
                    expected_updates: self.job.total_updates(),
                    ..CellFacts::default()
                };
                facts.add_sim_run(&stats, bound, &self.platform);
                facts
            }
            Err(e) => CellFacts::failed(e.to_string()),
        }
    }

    fn net_cell(&self, t: &mut Tracer) -> CellFacts {
        let plan = t.span(Layer::Core, "plan", || {
            build_policy(&self.platform, &self.job, Algorithm::Oddoml)
        });
        let mut policy = match plan {
            Ok(p) => p,
            Err(e) => return CellFacts::failed(e.to_string()),
        };
        let mut c = t.span(Layer::Bench, "clone_c", || self.c0.clone());
        let runtime = NetRuntime::new(self.platform.clone()).with_options(NetOptions {
            time_scale: TIME_SCALE,
            netmodel: self.model,
            ..NetOptions::default()
        });
        let run = t.engine(Layer::Net, self.span, Layer::Core, &mut policy, |p| {
            runtime.run(p, &self.a, &self.b, &mut c)
        });
        let stats = match run {
            Ok(s) => s,
            Err(e) => return CellFacts::failed(e.to_string()),
        };
        let report = t.span(Layer::Linalg, "verify", || {
            verify_product(
                &c,
                &self.c0,
                &self.a,
                &self.b,
                tolerance_for(self.job.t * Q),
            )
        });
        let moved = stats.blocks_to_workers + stats.blocks_to_master;
        t.count("net.bytes_moved", (moved * 8 * (Q * Q) as u64) as f64);
        count_linalg(t, Q, stats.total_updates, self.job.total_updates());
        let mut facts = CellFacts {
            expected_updates: self.job.total_updates(),
            verified: Some(report.passed()),
            ..CellFacts::default()
        };
        facts.add_net_run(&stats, &self.platform);
        facts
    }
}

impl Inputs for WideStar {
    fn fingerprint(&self) -> u64 {
        let mut h = 0;
        for leg in &self.legs {
            let spec = leg.platform.worker(0);
            h = fnv(
                h,
                &[
                    leg.platform.len() as u64,
                    spec.c.to_bits(),
                    spec.w.to_bits(),
                    leg.job.s as u64,
                    leg.job.t as u64,
                ],
            );
            for m in [&leg.a, &leg.b, &leg.c0] {
                h = fnv_matrix(h, m);
            }
        }
        h
    }

    fn pass(&self, t: &mut Tracer, out: &mut Pass) {
        for leg in &self.legs {
            out.cell(t, |t| leg.sim_cell(t));
            out.cell(t, |t| leg.net_cell(t));
        }
    }

    fn probes(&self, counts: &Counts, m: &mut Metrics) {
        let (_, update_s) = gemm_probe(Q);
        let updates = counts.get("linalg.updates").copied().unwrap_or(0.0);
        m.insert("linalg.est_busy_s".into(), updates * update_s);
        // Direct re-share probe at the lane counts the legs reach.
        let link_rate = 1.0 / self.legs[0].platform.worker(0).c;
        let backbone = 0.25 * 128.0 * link_rate;
        for lanes in [8usize, 64, 256] {
            m.insert(
                format!("netmodel.reshare_us_l{lanes}"),
                reshare_us(lanes, 128, link_rate, backbone),
            );
        }
        // One recorded sim run per leg: the exact acquire + release
        // count, and the active-lane count each re-share saw.
        let (mut reshares, mut est_busy_s) = (0.0, 0.0);
        for leg in &self.legs {
            let Some((count, mean_lanes)) = leg.recorded_reshares() else {
                continue;
            };
            reshares += count;
            if let Some(backbone) = leg.model.backbone() {
                let rate = 1.0 / leg.platform.worker(0).c;
                let us = reshare_us(
                    mean_lanes.round() as usize,
                    leg.platform.len(),
                    rate,
                    backbone,
                );
                // Both engines re-share on the same schedule.
                est_busy_s += 2.0 * count * us * 1e-6;
            }
        }
        m.insert("netmodel.reshares".into(), reshares);
        m.insert("netmodel.est_busy_s".into(), est_busy_s);
    }
}

impl Leg {
    /// `(PortAcquire + PortRelease events, mean active lanes at those
    /// events)` of one recorded sim run of the leg.
    fn recorded_reshares(&self) -> Option<(f64, f64)> {
        let mut policy = build_policy(&self.platform, &self.job, Algorithm::Oddoml).ok()?;
        let recorder = RunRecorder::shared();
        self.sim()
            .run_observed(&mut policy, ObsSink::to(recorder.clone()))
            .ok()?;
        let (mut active, mut events, mut lane_sum) = (0i64, 0u64, 0i64);
        for ev in recorder.borrow().events() {
            match ev {
                ObsEvent::PortAcquire { .. } => active += 1,
                ObsEvent::PortRelease { .. } => active -= 1,
                _ => continue,
            }
            events += 1;
            lane_sum += active.max(1);
        }
        Some((events as f64, lane_sum as f64 / events.max(1) as f64))
    }
}

/// Microseconds per `maxmin_shares_into` call on `lanes` active lanes
/// spread round-robin over `workers` links, through a warm scratch.
fn reshare_us(lanes: usize, workers: usize, link_rate: f64, backbone: f64) -> f64 {
    let active: Vec<TransferLane> = (0..lanes.max(1))
        .map(|i| TransferLane {
            worker: i % workers,
            link_rate,
        })
        .collect();
    let mut scratch = ShareScratch::new();
    maxmin_shares_into(&active, backbone, &mut scratch);
    // Enough calls for ~20 ms, at least 3.
    let t0 = Instant::now();
    maxmin_shares_into(std::hint::black_box(&active), backbone, &mut scratch);
    let one = t0.elapsed().as_secs_f64().max(1e-9);
    let reps = ((0.02 / one) as usize).clamp(3, 100_000);
    let t0 = Instant::now();
    for _ in 0..reps {
        maxmin_shares_into(std::hint::black_box(&active), backbone, &mut scratch);
        std::hint::black_box(scratch.shares());
    }
    t0.elapsed().as_secs_f64() * 1e6 / reps as f64
}
