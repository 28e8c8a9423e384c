//! The network-contention model of the star platform, stated once.
//!
//! The paper hard-wires the **one-port** assumption: the master
//! serializes all of its communications, so at any instant at most one
//! transfer occupies the wire at full link speed. This crate makes the
//! contention model a value (in the spirit of dslab's
//! throughput-sharing models): one `Copy` enum, [`NetModelSpec`], with
//! three variants, that answers the two questions anyone asks of it —
//!
//! 1. **admission** — how many transfers may be in flight at once
//!    ([`NetModelSpec::capacity`]);
//! 2. **sharing** — what fraction of its own link bandwidth each active
//!    transfer progresses at ([`NetModelSpec::shares_into`]).
//!
//! The same value is what platform files (`@netmodel …` directive), CLIs
//! and sweep grids carry, what the engines' lane tables consult at every
//! membership change, and what the steady-state LP of `core::steady`
//! prices its rows by ([`NetModelSpec::capacity`] is the aggregate port
//! row's right-hand side, [`NetModelSpec::backbone`] the backbone
//! row's): there is no second, "built" form of a model to keep equal to
//! it. The set of models is closed, so dispatch is a `match`.
//!
//! Shares are recomputed whenever the active set changes (a transfer
//! starts or finishes); between those instants they are constant, so the
//! engines can integrate transfer progress in closed form — including
//! over dynamic `c_scale` cost traces, which compose multiplicatively on
//! top of the share.
//!
//! The three variants:
//!
//! * [`NetModelSpec::OnePort`] — the paper's model: one transfer at a
//!   time, full link speed. The degenerate case every other model must
//!   generalize.
//! * [`NetModelSpec::BoundedMultiPort`] — the master drives up to `k`
//!   simultaneous transfers; each is capped by its own link and all of
//!   them together by an aggregate backbone bandwidth.
//! * [`NetModelSpec::FairShare`] — no admission limit; all active
//!   transfers max-min fair-share a finite backbone, each still capped
//!   by its own link.
//!
//! All sharing goes through one deterministic **progressive-filling**
//! max-min allocation ([`maxmin_shares`]): rates rise uniformly until a
//! constraint (a link shared by transfers to the same worker, or the
//! backbone) saturates, freezing its transfers. With a single active
//! transfer and no binding backbone the share is exactly `1.0` — bitwise,
//! not approximately — which is what lets `BoundedMultiPort { k: 1,
//! backbone: None }` reproduce `OnePort` byte-for-byte.
//!
//! The engines re-share at every admission and completion, so the
//! routine ([`maxmin_shares_into`]) groups the lanes by link once per
//! call and spends O(n) per filling round, allocation-free through a
//! warm [`ShareScratch`]. Its results are pinned to the bit by every
//! golden schedule; the three rules that keep the grouped form exact
//! (accumulated group sums, a sequentially drained backbone, per-lane
//! link rates) are stated on the function, and the quadratic filling it
//! replaced lives on as the oracle of `tests/netmodel_props.rs`.
//!
//! **One verdict for an invalid spec.** A spec is a plain value, so an
//! invalid one (`k = 0`, a non-positive or NaN backbone) can be written
//! down; [`NetModelSpec::parse`] and the runtimes reject it with their
//! typed errors, and everything that *consumes* a spec — lane tables,
//! [`drain_times`], the steady-state LPs — calls
//! [`NetModelSpec::assert_valid`] first and fails with
//! [`NetModelSpec::validate`]'s message rather than computing with it.

use std::fmt;

use serde::json::Value;
use serde::Serialize;

/// Instantaneous description of one active transfer, as seen by a
/// contention model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransferLane {
    /// Worker whose link the transfer occupies (both directions contend
    /// for the same star edge).
    pub worker: usize,
    /// Nominal capacity of that link in blocks per second (`1 / c_i`).
    pub link_rate: f64,
}

/// Reusable buffers for share computation, so the hot re-share path of
/// an engine's lane table allocates nothing in steady state: the
/// progressive-filling working vectors (`rates`, `frozen`), the
/// per-call grouping of lanes by link (`slots`, `group_of`, `used`,
/// `live`) and the output `shares` all live here and are only ever
/// grown, never freed.
///
/// One scratch per lane table; thread it through
/// [`NetModelSpec::shares_into`] on every active-set change.
#[derive(Clone, Debug, Default)]
pub struct ShareScratch {
    rates: Vec<f64>,
    frozen: Vec<bool>,
    shares: Vec<f64>,
    /// Open-addressing table keyed by worker id; a slot holds the first
    /// lane of the link's group, or [`EMPTY_SLOT`].
    slots: Vec<usize>,
    /// Dense group (= physical link) of each lane.
    group_of: Vec<usize>,
    /// Per group: the sum of its lanes' rates, and how many of them are
    /// still unfrozen.
    used: Vec<f64>,
    live: Vec<usize>,
}

const EMPTY_SLOT: usize = usize::MAX;

impl ShareScratch {
    /// A fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        ShareScratch::default()
    }

    /// The shares computed by the last [`NetModelSpec::shares_into`]
    /// (or [`maxmin_shares_into`]) call, index-aligned with the active
    /// set it was given.
    pub fn shares(&self) -> &[f64] {
        &self.shares
    }
}

/// Deterministic progressive-filling max-min allocation.
///
/// Every lane's rate rises uniformly from zero; when a constraint
/// saturates — a per-worker link (capacity `link_rate`, shared by every
/// lane addressing that worker) or the aggregate `backbone` — its lanes
/// freeze at their current rate. Returns per-lane *shares*
/// (`rate / link_rate`).
///
/// With one lane per link and a non-binding backbone every share is
/// exactly `1.0`.
pub fn maxmin_shares(active: &[TransferLane], backbone: f64) -> Vec<f64> {
    let mut scratch = ShareScratch::new();
    maxmin_shares_into(active, backbone, &mut scratch);
    std::mem::take(&mut scratch.shares)
}

/// [`maxmin_shares`] writing into a reusable [`ShareScratch`] — the
/// allocation-free form the engines' re-share hot paths call.
///
/// Lanes are grouped by link once per call; each filling round is then
/// three passes over the lanes, O(n) against the O(n²) of rescanning
/// the lanes for every lane's link. The shares are pinned bit for bit
/// (goldens, benchmark digests, and the quadratic oracle in
/// `tests/netmodel_props.rs`), which holds because:
///
/// * **group sums are accumulated, never computed** — `used[g]` is the
///   left-to-right sum of `rates[j]` over the group's lanes in ascending
///   lane index from `0.0`, re-accumulated after every raise; never
///   `m · r`, and never a running `used[g] += delta · live[g]`;
/// * **the backbone is drained by one subtraction per raised lane**, in
///   lane order, not by `delta · unfrozen` — whether another round runs
///   turns on that residual;
/// * **`link_rate` stays per lane**: lanes of one worker may carry
///   different rates and freeze in different rounds; only `used` and
///   `live` are per group.
pub fn maxmin_shares_into(active: &[TransferLane], backbone: f64, scratch: &mut ShareScratch) {
    let n = active.len();
    scratch.shares.clear();
    if n == 0 {
        return;
    }
    let ShareScratch {
        rates,
        frozen,
        shares,
        slots,
        group_of,
        used,
        live,
    } = scratch;
    rates.clear();
    rates.resize(n, 0.0);
    frozen.clear();
    frozen.resize(n, false);

    // Lanes to the same worker share one physical link: give each
    // distinct worker a dense group. `worker` is any `usize`, so the
    // table is hashed and sized by `n` (load ≤ 1/2), not indexed by id.
    let mask = (2 * n).next_power_of_two() - 1;
    let shift = 64 - mask.count_ones();
    slots.clear();
    slots.resize(mask + 1, EMPTY_SLOT);
    group_of.clear();
    used.clear();
    live.clear();
    for (i, lane) in active.iter().enumerate() {
        let mut s = ((lane.worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        let g = loop {
            let first = slots[s];
            if first == EMPTY_SLOT {
                slots[s] = i;
                used.push(0.0);
                live.push(0);
                break used.len() - 1;
            }
            if active[first].worker == lane.worker {
                break group_of[first];
            }
            s = (s + 1) & mask;
        };
        group_of.push(g);
        live[g] += 1;
    }

    let mut backbone_left = backbone;
    let mut unfrozen = n;
    while unfrozen > 0 {
        // Headroom per constraint, divided by the unfrozen lanes it
        // covers: the uniform raise is the smallest such quotient.
        let mut delta = if backbone_left.is_finite() {
            backbone_left / unfrozen as f64
        } else {
            f64::INFINITY
        };
        for (i, lane) in active.iter().enumerate() {
            if !frozen[i] {
                let g = group_of[i];
                delta = delta.min((lane.link_rate - used[g]) / live[g] as f64);
            }
        }
        if delta.is_nan() || delta <= 0.0 {
            // A constraint is exactly saturated (or the backbone is 0):
            // freeze everything still active at its current rate.
            break;
        }
        used.fill(0.0);
        for i in 0..n {
            if !frozen[i] {
                rates[i] += delta;
                if backbone_left.is_finite() {
                    backbone_left -= delta;
                }
            }
            used[group_of[i]] += rates[i];
        }
        // Freeze lanes whose link is now saturated. The backbone
        // saturating ends the allocation outright.
        for (i, lane) in active.iter().enumerate() {
            let g = group_of[i];
            if !frozen[i] && used[g] >= lane.link_rate * (1.0 - 1e-12) {
                frozen[i] = true;
                live[g] -= 1;
                unfrozen -= 1;
            }
        }
        if backbone_left.is_finite() && backbone_left <= 0.0 {
            break;
        }
    }
    shares.extend(active.iter().zip(rates.iter()).map(|(l, &r)| {
        // A single unconstrained lane must come out at exactly 1.0:
        // its rate accumulated exactly link_rate (one raise of
        // link_rate/1), and link_rate / link_rate == 1.0 bitwise.
        (r / l.link_rate).min(1.0)
    }));
}

/// Completion times of a batch of transfers drained through a
/// contention model: lane `i` must move `volume[i]` blocks over
/// `lanes[i]`, all requested at `t = 0`, admitted FIFO in index order up
/// to [`NetModelSpec::capacity`] and re-shared (through
/// [`NetModelSpec::shares_into`]) at every completion.
///
/// This is the closed-form integrator the federated layers use for the
/// root's uplink feeds: lane `i` is star `i`'s uplink
/// (`link_rate = 1 / uplink_c_i`), `volume[i]` its shard in blocks, and
/// the returned time is when star `i`'s feed lands. Zero-volume lanes
/// complete at `t = 0` without occupying a port. Deterministic pure-f64
/// arithmetic; under [`NetModelSpec::OnePort`] lane `i` completes at
/// `Σ_{j ≤ i} volume[j] / link_rate_j` exactly.
///
/// # Panics
/// Panics when `lanes` and `volume` disagree in length, a volume is
/// negative/non-finite, or `model` is invalid
/// ([`NetModelSpec::assert_valid`]).
pub fn drain_times(lanes: &[TransferLane], volume: &[f64], model: &NetModelSpec) -> Vec<f64> {
    model.assert_valid();
    assert_eq!(lanes.len(), volume.len(), "one volume per lane");
    assert!(
        volume.iter().all(|&v| v.is_finite() && v >= 0.0),
        "volumes must be finite and non-negative"
    );
    let n = lanes.len();
    let mut done = vec![0.0f64; n];
    let mut rem = volume.to_vec();
    let mut waiting: std::collections::VecDeque<usize> = (0..n).filter(|&i| rem[i] > 0.0).collect();
    let cap = model.capacity();
    let mut active: Vec<usize> = Vec::with_capacity(cap.min(n));
    while active.len() < cap {
        match waiting.pop_front() {
            Some(i) => active.push(i),
            None => break,
        }
    }
    let mut t = 0.0f64;
    let mut active_lanes: Vec<TransferLane> = Vec::with_capacity(active.len());
    let mut scratch = ShareScratch::new();
    while !active.is_empty() {
        active_lanes.clear();
        active_lanes.extend(active.iter().map(|&i| lanes[i]));
        model.shares_into(&active_lanes, &mut scratch);
        let shares = scratch.shares();
        // Wall time until the first active transfer completes.
        let mut dt = f64::INFINITY;
        for (j, &i) in active.iter().enumerate() {
            let rate = shares[j] * lanes[i].link_rate;
            if rate > 0.0 {
                dt = dt.min(rem[i] / rate);
            }
        }
        if !dt.is_finite() {
            // Every active lane is starved (shares all zero): the
            // remaining transfers never complete.
            for &i in &active {
                done[i] = f64::INFINITY;
            }
            for &i in &waiting {
                done[i] = f64::INFINITY;
            }
            return done;
        }
        t += dt;
        // Complete every lane finishing now (the minimizer, plus ties
        // within fp tolerance — forcing the minimizer avoids a residue
        // like `rem - (rem/rate)*rate != 0`); advance the rest.
        let mut j = 0;
        active.retain(|&i| {
            let rate = shares[j] * lanes[i].link_rate;
            j += 1;
            if rate > 0.0 && rem[i] / rate <= dt * (1.0 + 1e-12) {
                rem[i] = 0.0;
                done[i] = t;
                false
            } else {
                rem[i] -= dt * rate;
                true
            }
        });
        while active.len() < cap {
            match waiting.pop_front() {
                Some(i) => active.push(i),
                None => break,
            }
        }
    }
    done
}

/// A network-contention model: the value platform files (`@netmodel`
/// directive), CLIs and sweep grids carry, the engines' lane tables
/// share the wire by, and the steady-state LP prices its rows by.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum NetModelSpec {
    /// The paper's one-port model: one transfer at a time, full link
    /// speed.
    #[default]
    OnePort,
    /// Bounded multi-port: the master drives up to `k` simultaneous
    /// transfers, each capped by its own link, all of them together by
    /// an optional aggregate backbone (`None` = unlimited backbone,
    /// links are the only cap).
    BoundedMultiPort {
        /// Simultaneous transfer limit (`k ≥ 1`).
        k: usize,
        /// Aggregate backbone bandwidth in blocks/s (`None` = ∞).
        backbone: Option<f64>,
    },
    /// Fair-share backbone (dslab-style): no admission limit; all active
    /// transfers max-min fair-share the finite backbone (blocks/s), each
    /// still capped by its own link.
    FairShare {
        /// Aggregate backbone bandwidth in blocks/s.
        backbone: f64,
    },
}

impl NetModelSpec {
    /// Maximum number of simultaneously active transfers the master may
    /// drive (`usize::MAX` = unlimited).
    pub fn capacity(&self) -> usize {
        match *self {
            NetModelSpec::OnePort => 1,
            NetModelSpec::BoundedMultiPort { k, .. } => k,
            NetModelSpec::FairShare { .. } => usize::MAX,
        }
    }

    /// The share (fraction of its *own* link bandwidth, in `(0, 1]`)
    /// granted to each active transfer, written into `scratch` (read it
    /// back through [`ShareScratch::shares`], index-aligned with
    /// `active`) — allocation-free once the scratch is warm.
    ///
    /// Transfers on the same worker link never sum past that link's
    /// capacity, and — when the model has a backbone — allocated rates
    /// never sum past it. One-port is the literal `1.0` fill, not a
    /// max-min call; a model is never handed more lanes than it admits.
    pub fn shares_into(&self, active: &[TransferLane], scratch: &mut ShareScratch) {
        debug_assert!(
            active.len() <= self.capacity(),
            "{self} handed {} lanes",
            active.len()
        );
        match *self {
            NetModelSpec::OnePort => {
                scratch.shares.clear();
                scratch.shares.resize(active.len(), 1.0);
            }
            NetModelSpec::BoundedMultiPort { backbone, .. } => {
                maxmin_shares_into(active, backbone.unwrap_or(f64::INFINITY), scratch)
            }
            NetModelSpec::FairShare { backbone } => maxmin_shares_into(active, backbone, scratch),
        }
    }

    /// Allocating form of [`NetModelSpec::shares_into`], bitwise the
    /// same shares; the engines' hot paths use the scratch form.
    pub fn shares(&self, active: &[TransferLane]) -> Vec<f64> {
        let mut scratch = ShareScratch::new();
        self.shares_into(active, &mut scratch);
        std::mem::take(&mut scratch.shares)
    }

    /// The backbone bandwidth constraint, if any.
    pub fn backbone(&self) -> Option<f64> {
        match *self {
            NetModelSpec::OnePort => None,
            NetModelSpec::BoundedMultiPort { backbone, .. } => backbone.filter(|b| b.is_finite()),
            NetModelSpec::FairShare { backbone } => Some(backbone).filter(|b| b.is_finite()),
        }
    }

    /// Checks the configuration; returns a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            NetModelSpec::OnePort => Ok(()),
            NetModelSpec::BoundedMultiPort { k, backbone } => {
                if k == 0 {
                    return Err("multiport needs k >= 1".into());
                }
                if let Some(b) = backbone {
                    if b.is_nan() || b <= 0.0 {
                        return Err(format!("backbone must be positive, got {b}"));
                    }
                }
                Ok(())
            }
            NetModelSpec::FairShare { backbone } => {
                if backbone.is_nan() || backbone <= 0.0 {
                    return Err(format!("backbone must be positive, got {backbone}"));
                }
                Ok(())
            }
        }
    }

    /// The one verdict on an invalid spec, for everything that consumes
    /// one (lane tables, [`drain_times`], the steady-state LPs): specs
    /// built through [`NetModelSpec::parse`] are validated there with a
    /// proper error instead.
    ///
    /// # Panics
    /// Panics with [`NetModelSpec::validate`]'s complaint.
    pub fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("invalid net-model spec: {e}");
        }
    }

    /// Parses the textual form rendered by [`fmt::Display`]:
    ///
    /// ```text
    /// oneport
    /// multiport k=3
    /// multiport k=2 backbone=7.5
    /// fairshare backbone=4
    /// ```
    pub fn parse(tokens: &[&str]) -> Result<NetModelSpec, String> {
        let (head, rest) = tokens
            .split_first()
            .ok_or_else(|| "empty net-model spec".to_string())?;
        let mut k: Option<usize> = None;
        let mut backbone: Option<f64> = None;
        for tok in rest {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {tok:?}"))?;
            match key {
                "k" => {
                    k = Some(val.parse().map_err(|_| format!("bad port count {val:?}"))?);
                }
                "backbone" => {
                    let b: f64 = if val == "inf" {
                        f64::INFINITY
                    } else {
                        val.parse().map_err(|_| format!("bad backbone {val:?}"))?
                    };
                    backbone = Some(b);
                }
                other => return Err(format!("unknown net-model parameter {other:?}")),
            }
        }
        let spec = match *head {
            "oneport" => {
                if k.is_some() || backbone.is_some() {
                    return Err("oneport takes no parameters".into());
                }
                NetModelSpec::OnePort
            }
            "multiport" => NetModelSpec::BoundedMultiPort {
                k: k.ok_or_else(|| "multiport needs k=<n>".to_string())?,
                // `inf` is "no backbone"; NaN and −∞ are `validate`'s.
                backbone: backbone.filter(|&b| b != f64::INFINITY),
            },
            "fairshare" => NetModelSpec::FairShare {
                backbone: backbone.ok_or_else(|| "fairshare needs backbone=<rate>".to_string())?,
            },
            other => return Err(format!("unknown net model {other:?}")),
        };
        spec.validate()?;
        Ok(spec)
    }
}

impl fmt::Display for NetModelSpec {
    /// Renders the spec in the exact token form [`NetModelSpec::parse`]
    /// accepts (floats in shortest-round-trip form, so render → parse is
    /// the identity).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            NetModelSpec::OnePort => write!(f, "oneport"),
            NetModelSpec::BoundedMultiPort { k, backbone } => {
                write!(f, "multiport k={k}")?;
                if let Some(b) = backbone.filter(|b| b.is_finite()) {
                    write!(f, " backbone={b}")?;
                }
                Ok(())
            }
            NetModelSpec::FairShare { backbone } => write!(f, "fairshare backbone={backbone}"),
        }
    }
}

impl Serialize for NetModelSpec {
    fn to_value(&self) -> Value {
        let (model, k, backbone) = match *self {
            NetModelSpec::OnePort => ("oneport", None, None),
            NetModelSpec::BoundedMultiPort { k, backbone } => {
                ("multiport", Some(k), backbone.filter(|b| b.is_finite()))
            }
            NetModelSpec::FairShare { backbone } => ("fairshare", None, Some(backbone)),
        };
        Value::object([
            ("model", model.to_value()),
            ("k", k.to_value()),
            ("backbone", backbone.to_value()),
        ])
    }
}

impl<'de> serde::Deserialize<'de> for NetModelSpec {}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes(workers_rates: &[(usize, f64)]) -> Vec<TransferLane> {
        workers_rates
            .iter()
            .map(|&(worker, link_rate)| TransferLane { worker, link_rate })
            .collect()
    }

    #[test]
    fn single_lane_gets_share_exactly_one() {
        let l = lanes(&[(0, 4.0)]);
        assert_eq!(maxmin_shares(&l, f64::INFINITY), vec![1.0]);
        // Backbone above the link rate is not binding either.
        assert_eq!(maxmin_shares(&l, 10.0), vec![1.0]);
    }

    #[test]
    fn binding_backbone_throttles_a_single_lane() {
        let l = lanes(&[(0, 4.0)]);
        let s = maxmin_shares(&l, 1.0);
        assert!((s[0] - 0.25).abs() < 1e-12, "{s:?}");
    }

    #[test]
    fn equal_lanes_split_the_backbone_evenly() {
        let l = lanes(&[(0, 4.0), (1, 4.0)]);
        let s = maxmin_shares(&l, 4.0);
        assert!(
            (s[0] - 0.5).abs() < 1e-12 && (s[1] - 0.5).abs() < 1e-12,
            "{s:?}"
        );
    }

    #[test]
    fn maxmin_redistributes_a_slow_lane_surplus() {
        // Backbone 6, links 2 and 10: the slow lane saturates at rate 2,
        // the fast one takes the remaining 4 (share 0.4) — max-min, not
        // an even 3/3 split.
        let l = lanes(&[(0, 2.0), (1, 10.0)]);
        let s = maxmin_shares(&l, 6.0);
        assert!((s[0] - 1.0).abs() < 1e-12, "{s:?}");
        assert!((s[1] - 0.4).abs() < 1e-12, "{s:?}");
    }

    #[test]
    fn same_worker_lanes_share_their_link() {
        // Two transfers to worker 0 (link rate 4) plus one to worker 1:
        // the link constraint halves the first two even with an infinite
        // backbone.
        let l = lanes(&[(0, 4.0), (0, 4.0), (1, 8.0)]);
        let s = maxmin_shares(&l, f64::INFINITY);
        assert!(
            (s[0] - 0.5).abs() < 1e-12 && (s[1] - 0.5).abs() < 1e-12,
            "{s:?}"
        );
        assert!((s[2] - 1.0).abs() < 1e-12, "{s:?}");
    }

    #[test]
    fn allocation_never_exceeds_constraints() {
        // A few irregular cases: totals must respect backbone and links.
        for (ws, bb) in [
            (vec![(0, 1.0), (1, 2.0), (2, 3.0)], 2.5),
            (vec![(0, 5.0), (0, 5.0), (1, 0.5)], 3.0),
            (vec![(0, 1.0)], 0.25),
            (vec![(0, 2.0), (1, 2.0), (1, 2.0), (2, 8.0)], 5.0),
        ] {
            let l = lanes(&ws);
            let s = maxmin_shares(&l, bb);
            let total: f64 = l.iter().zip(&s).map(|(l, &s)| s * l.link_rate).sum();
            assert!(total <= bb * (1.0 + 1e-9), "total {total} > backbone {bb}");
            for w in l.iter().map(|l| l.worker) {
                let link: f64 = l
                    .iter()
                    .zip(&s)
                    .filter(|(l, _)| l.worker == w)
                    .map(|(l, &s)| s * l.link_rate)
                    .sum();
                let cap = l.iter().find(|l| l.worker == w).unwrap().link_rate;
                assert!(link <= cap * (1.0 + 1e-9), "link {w}: {link} > {cap}");
            }
            assert!(s.iter().all(|&x| (0.0..=1.0).contains(&x)), "{s:?}");
        }
    }

    #[test]
    fn scratch_form_is_bitwise_identical_and_reuses_buffers() {
        let mut scratch = ShareScratch::new();
        for (ws, bb) in [
            (vec![(0, 2.0), (1, 10.0)], 6.0),
            (vec![(0, 4.0), (0, 4.0), (1, 8.0)], f64::INFINITY),
            (vec![(0, 1.0), (1, 2.0), (2, 3.0)], 2.5),
            (vec![(0, 7.25)], f64::INFINITY),
            (vec![], 1.0),
        ] {
            let l = lanes(&ws);
            maxmin_shares_into(&l, bb, &mut scratch);
            let owned = maxmin_shares(&l, bb);
            assert_eq!(scratch.shares(), &owned[..], "{ws:?} backbone={bb}");
            // Bitwise, not approximately: the single-lane 1.0 guarantee
            // must survive the scratch path too.
            for (a, b) in scratch.shares().iter().zip(&owned) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // Shrinking active sets reuse the grown buffers; capacity never
        // shrinks back.
        let cap = scratch.shares.capacity();
        maxmin_shares_into(&lanes(&[(0, 1.0)]), f64::INFINITY, &mut scratch);
        assert_eq!(scratch.shares(), &[1.0]);
        assert!(scratch.shares.capacity() >= cap);
    }

    #[test]
    fn drain_times_oneport_serializes_fifo() {
        // One-port: lane i completes at the prefix sum of volume/rate.
        let l = lanes(&[(0, 2.0), (1, 4.0), (2, 1.0)]);
        let d = drain_times(&l, &[4.0, 4.0, 3.0], &NetModelSpec::OnePort);
        assert_eq!(d, vec![2.0, 3.0, 6.0]);
    }

    #[test]
    fn drain_times_zero_volume_completes_instantly() {
        let l = lanes(&[(0, 2.0), (1, 4.0), (2, 1.0)]);
        let d = drain_times(&l, &[4.0, 0.0, 3.0], &NetModelSpec::OnePort);
        // Lane 1 never occupies the port; lane 2 starts right after 0.
        assert_eq!(d, vec![2.0, 0.0, 5.0]);
    }

    #[test]
    fn drain_times_fairshare_backbone_split() {
        // Two lanes, links 2.0 each, backbone 2.0: rates 1.0 apiece until
        // lane 0 (volume 2) finishes at t=2, then lane 1 takes the full
        // backbone (rate 2.0) for its remaining 2 blocks → t=3.
        let l = lanes(&[(0, 2.0), (1, 2.0)]);
        let d = drain_times(&l, &[2.0, 4.0], &NetModelSpec::FairShare { backbone: 2.0 });
        assert!(
            (d[0] - 2.0).abs() < 1e-12 && (d[1] - 3.0).abs() < 1e-12,
            "{d:?}"
        );
    }

    #[test]
    fn drain_times_multiport_admits_k_at_a_time() {
        // k=2, no backbone: lanes 0 and 1 run at full link speed; lane 2
        // is admitted when lane 0 finishes.
        let l = lanes(&[(0, 1.0), (1, 2.0), (2, 1.0)]);
        let m = NetModelSpec::BoundedMultiPort {
            k: 2,
            backbone: None,
        };
        let d = drain_times(&l, &[1.0, 4.0, 1.0], &m);
        assert!((d[0] - 1.0).abs() < 1e-12, "{d:?}");
        assert!((d[1] - 2.0).abs() < 1e-12, "{d:?}");
        assert!((d[2] - 2.0).abs() < 1e-12, "{d:?}");
    }

    #[test]
    fn drain_times_ties_complete_together() {
        let l = lanes(&[(0, 2.0), (1, 2.0)]);
        let m = NetModelSpec::BoundedMultiPort {
            k: 2,
            backbone: None,
        };
        let d = drain_times(&l, &[6.0, 6.0], &m);
        assert_eq!(d, vec![3.0, 3.0]);
    }

    #[test]
    fn oneport_is_capacity_one_full_speed() {
        let m = NetModelSpec::OnePort;
        assert_eq!(m.capacity(), 1);
        assert_eq!(m.shares(&lanes(&[(3, 0.5)])), vec![1.0]);
        assert!(m.shares(&[]).is_empty());
    }

    #[test]
    fn multiport_k1_unbounded_matches_oneport_bitwise() {
        let m = NetModelSpec::BoundedMultiPort {
            k: 1,
            backbone: None,
        };
        assert_eq!(m.capacity(), 1);
        for rate in [0.1, 1.0, 7.25, 1e9] {
            let s = m.shares(&lanes(&[(0, rate)]));
            assert_eq!(s, vec![1.0], "rate {rate}: share must be exactly 1.0");
        }
    }

    #[test]
    fn fairshare_admits_unbounded_lanes() {
        let m = NetModelSpec::FairShare { backbone: 3.0 };
        assert_eq!(m.capacity(), usize::MAX);
        let l = lanes(&[(0, 2.0), (1, 2.0), (2, 2.0)]);
        let s = m.shares(&l);
        let total: f64 = l.iter().zip(&s).map(|(l, &s)| s * l.link_rate).sum();
        assert!((total - 3.0).abs() < 1e-9, "{s:?}");
    }

    #[test]
    fn spec_text_round_trips() {
        let specs = [
            NetModelSpec::OnePort,
            NetModelSpec::BoundedMultiPort {
                k: 3,
                backbone: None,
            },
            NetModelSpec::BoundedMultiPort {
                k: 2,
                backbone: Some(7.5),
            },
            NetModelSpec::FairShare { backbone: 4.0 },
        ];
        for spec in specs {
            let text = spec.to_string();
            let toks: Vec<&str> = text.split_whitespace().collect();
            assert_eq!(NetModelSpec::parse(&toks), Ok(spec), "{text}");
        }
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        for toks in [
            &["warp"][..],
            &["multiport"][..],
            &["multiport", "k=0"][..],
            &["multiport", "k=two"][..],
            &["multiport", "k=2", "backbone=-1"][..],
            &["multiport", "k=2", "backbone=nan"][..],
            &["multiport", "k=2", "backbone=-inf"][..],
            &["fairshare"][..],
            &["fairshare", "backbone=0"][..],
            &["fairshare", "backbone=nan"][..],
            &["oneport", "k=2"][..],
            &["multiport", "k"][..],
            &[][..],
        ] {
            assert!(NetModelSpec::parse(toks).is_err(), "{toks:?}");
        }
        // An infinite multiport backbone normalizes to "no backbone".
        let spec = NetModelSpec::parse(&["multiport", "k=2", "backbone=inf"]).unwrap();
        assert_eq!(
            spec,
            NetModelSpec::BoundedMultiPort {
                k: 2,
                backbone: None
            }
        );
    }

    #[test]
    fn spec_serializes_to_a_tagged_object() {
        let v = NetModelSpec::FairShare { backbone: 2.0 }.to_value();
        let s = v.render_pretty();
        assert!(s.contains("\"model\": \"fairshare\""), "{s}");
        assert!(s.contains("\"backbone\": 2"), "{s}");
    }
}
