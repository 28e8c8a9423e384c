//! Federated multi-star platforms: a root master over `k` regional
//! stars.
//!
//! The paper's platform is a single star. A [`FedPlatform`] generalizes
//! it to a two-level tree: a **root master** holds the matrix files and
//! federates `k` regional stars; each regional master owns a column
//! shard of B/C and serves its own workers exactly as a single-star
//! [`DynPlatform`] does. The root reaches regional master `s` over an
//! **uplink** costing `uplink_c[s]` seconds per `q × q` block, and the
//! set of uplinks contends under a [`NetModelSpec`] of its own (the
//! paper's one-port by default: the root serializes shard feeds just as
//! a star master serializes worker transfers).
//!
//! The text format extends the dynamic flavour of [`crate::dynamic`]
//! with two directives:
//!
//! ```text
//! @uplink multiport k=2 backbone=4   # contention across uplinks (optional)
//! @star uplink=0.5                   # star 0: root→regional cost 0.5 s/block
//! 1.0 1.0 40
//! 2.0 0.5 20
//! @0 down 10..15                     # worker directives scope to their star
//! @star uplink=1.25                  # star 1
//! 1.5 0.75 30
//! @netmodel fairshare backbone=2     # per-star contention, as before
//! ```
//!
//! Everything after a `@star` line up to the next one — worker lines,
//! `@netmodel`, `@<w>` dynamics — is parsed by the single-star parser
//! with original line numbers preserved, so error messages point into
//! the federated file. `render_fed_platform` inverts the parse
//! bit-for-bit ([`FedPlatform::new`] canonicalizes star names, so
//! `parse(render(fp)) == fp`).

use serde::{Deserialize, Serialize};
use stargemm_netmodel::NetModelSpec;

use crate::dynamic::{parse_dyn_platform, render_dyn_body, DynPlatform};
use crate::parse::{fail, ParseError};

/// One regional star of a federation: a full single-star platform plus
/// the cost of its uplink from the root.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FedStar {
    /// The star itself — workers, dynamics, intra-star contention.
    pub platform: DynPlatform,
    /// Seconds for the root to move one `q × q` block to (or from) this
    /// star's regional master. Finite, positive.
    pub uplink_c: f64,
}

impl FedStar {
    /// Pairs a star with its uplink cost.
    ///
    /// # Panics
    /// Panics unless `uplink_c` is finite and positive.
    pub fn new(platform: DynPlatform, uplink_c: f64) -> Self {
        assert!(
            uplink_c.is_finite() && uplink_c > 0.0,
            "uplink cost must be finite and positive, got {uplink_c}"
        );
        FedStar { platform, uplink_c }
    }
}

/// A two-level federation: a root master over `k` regional stars, with
/// inter-master uplinks contending under `uplink`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FedPlatform {
    /// Federation name (star platforms are named `{name}/star{i}`).
    pub name: String,
    /// The regional stars, in `@star` order.
    pub stars: Vec<FedStar>,
    /// Contention model across the root's uplinks (`@uplink` directive;
    /// defaults to one-port — the root serializes shard feeds).
    pub uplink: NetModelSpec,
}

impl FedPlatform {
    /// Builds a federation, canonicalizing each star's platform name to
    /// `{name}/star{i}` (which is what the parser produces, so
    /// render→parse round-trips bit-for-bit).
    ///
    /// # Panics
    /// Panics when `stars` is empty or the uplink model is invalid.
    pub fn new(name: &str, mut stars: Vec<FedStar>, uplink: NetModelSpec) -> Self {
        assert!(!stars.is_empty(), "a federation needs at least one star");
        uplink.assert_valid();
        for (i, star) in stars.iter_mut().enumerate() {
            star.platform.base.name = format!("{name}/star{i}");
        }
        FedPlatform {
            name: name.to_string(),
            stars,
            uplink,
        }
    }

    /// Wraps a single star as the `k = 1` federation (unit uplink cost,
    /// one-port uplink). Every federated code path collapses to the
    /// single-star path on this value.
    pub fn single(platform: DynPlatform) -> Self {
        let name = platform.base.name.clone();
        FedPlatform::new(
            &name,
            vec![FedStar::new(platform, 1.0)],
            NetModelSpec::OnePort,
        )
    }

    /// Number of regional stars `k`.
    pub fn len(&self) -> usize {
        self.stars.len()
    }

    /// Whether the federation has no stars (never true for a validated
    /// value; present for the usual `len`/`is_empty` pairing).
    pub fn is_empty(&self) -> bool {
        self.stars.is_empty()
    }

    /// The star at index `s`.
    pub fn star(&self, s: usize) -> &FedStar {
        &self.stars[s]
    }

    /// Total workers across all stars.
    pub fn total_workers(&self) -> usize {
        self.stars.iter().map(|s| s.platform.base.len()).sum()
    }
}

/// Splits `total` columns into `k` contiguous shards: an even split with
/// the remainder assigned to the **lowest** shard indices first, so
/// widths are deterministic and non-increasing (`Σ widths = total`).
/// Shards may be empty when `total < k`.
pub fn shard_widths(total: usize, k: usize) -> Vec<usize> {
    assert!(k > 0, "need at least one shard");
    (0..k)
        .map(|s| total / k + usize::from(s < total % k))
        .collect()
}

fn parse_star_header(toks: &[&str], line_no: usize) -> Result<f64, ParseError> {
    let [arg] = toks else {
        return Err(fail(line_no, "expected @star uplink=<cost>"));
    };
    let Some(val) = arg.strip_prefix("uplink=") else {
        return Err(fail(line_no, "expected @star uplink=<cost>"));
    };
    let c: f64 = val
        .parse()
        .map_err(|_| fail(line_no, format!("bad uplink cost {val:?}")))?;
    if c.is_finite() && c > 0.0 {
        Ok(c)
    } else {
        Err(fail(line_no, format!("bad uplink cost {val:?}")))
    }
}

/// Parses the federated flavour of the platform text format: `@star
/// uplink=<c>` opens a star section whose following lines (worker
/// specs, `@netmodel`, `@<w>` dynamics) are parsed by
/// [`parse_dyn_platform`]; an optional `@uplink <model>` directive (at
/// most one, anywhere) sets the contention model across uplinks.
///
/// A file is rebuilt per star with all other sections blanked out, so
/// errors keep their original line numbers.
pub fn parse_fed_platform(name: &str, text: &str, q: usize) -> Result<FedPlatform, ParseError> {
    let mut uplink: Option<NetModelSpec> = None;
    // (header line, uplink cost) per star, in file order.
    let mut headers: Vec<(usize, f64)> = Vec::new();
    // Which star owns each raw line (None = global/blank).
    let mut owner: Vec<Option<usize>> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            owner.push(None);
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks[0] {
            "@star" => {
                headers.push((line_no, parse_star_header(&toks[1..], line_no)?));
                owner.push(None);
            }
            "@uplink" => {
                if uplink.is_some() {
                    return Err(fail(line_no, "duplicate @uplink directive"));
                }
                uplink = Some(NetModelSpec::parse(&toks[1..]).map_err(|e| fail(line_no, e))?);
                owner.push(None);
            }
            _ => {
                if headers.is_empty() {
                    return Err(fail(
                        line_no,
                        "worker or directive line before the first @star",
                    ));
                }
                owner.push(Some(headers.len() - 1));
            }
        }
    }
    if headers.is_empty() {
        return Err(fail(0, "no @star sections defined"));
    }
    let lines: Vec<&str> = text.lines().collect();
    let mut stars = Vec::with_capacity(headers.len());
    for (s, &(header_line, uplink_c)) in headers.iter().enumerate() {
        let sub: String = lines
            .iter()
            .enumerate()
            .map(|(i, raw)| if owner[i] == Some(s) { *raw } else { "" })
            .collect::<Vec<_>>()
            .join("\n");
        let star_name = format!("{name}/star{s}");
        let platform = parse_dyn_platform(&star_name, &sub, q).map_err(|e| {
            if e.line == 0 {
                // "no workers defined" — point at the @star header.
                fail(header_line, format!("star {s} has no workers"))
            } else {
                e
            }
        })?;
        stars.push(FedStar::new(platform, uplink_c));
    }
    Ok(FedPlatform::new(name, stars, uplink.unwrap_or_default()))
}

/// Renders a federation in the format accepted by
/// [`parse_fed_platform`]; parsing the output reproduces the input
/// bit-for-bit.
pub fn render_fed_platform(fp: &FedPlatform) -> String {
    let mut out = format!("# {}\n", fp.name);
    if fp.uplink != NetModelSpec::OnePort {
        out.push_str(&format!("@uplink {}\n", fp.uplink));
    }
    for star in &fp.stars {
        out.push_str(&format!("@star uplink={}\n", star.uplink_c));
        out.push_str(&render_dyn_body(&star.platform));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::{DynProfile, Trace, WorkerDyn};
    use crate::platform::{Platform, WorkerSpec};

    fn two_star_fed() -> FedPlatform {
        let star0 = DynPlatform::new(
            Platform::new(
                "x",
                vec![
                    WorkerSpec::new(1.5, 0.25, 40),
                    WorkerSpec::new(3.0, 0.5, 21),
                ],
            ),
            DynProfile::new(vec![
                WorkerDyn::new(
                    Trace::new(vec![(0.0, 1.0), (12.5, 2.75)]),
                    Trace::default(),
                    vec![(50.0, f64::INFINITY)],
                ),
                WorkerDyn::stable(),
            ]),
        );
        let star1 =
            DynPlatform::constant(Platform::new("y", vec![WorkerSpec::new(0.5, 0.125, 60)]))
                .with_netmodel(NetModelSpec::FairShare { backbone: 2.0 });
        FedPlatform::new(
            "fed",
            vec![FedStar::new(star0, 0.75), FedStar::new(star1, 1.5)],
            NetModelSpec::BoundedMultiPort {
                k: 2,
                backbone: Some(4.0),
            },
        )
    }

    #[test]
    fn fed_text_format_round_trips() {
        let fp = two_star_fed();
        let text = render_fed_platform(&fp);
        let parsed = parse_fed_platform("fed", &text, 80).unwrap();
        assert_eq!(parsed, fp);
    }

    #[test]
    fn single_star_round_trips_without_uplink_directive() {
        let fp = FedPlatform::single(DynPlatform::constant(Platform::new(
            "solo",
            vec![WorkerSpec::new(1.0, 0.5, 12)],
        )));
        let text = render_fed_platform(&fp);
        assert!(!text.contains("@uplink "), "{text}");
        assert_eq!(parse_fed_platform("solo", &text, 80).unwrap(), fp);
    }

    #[test]
    fn new_canonicalizes_star_names() {
        let fp = two_star_fed();
        assert_eq!(fp.star(0).platform.base.name, "fed/star0");
        assert_eq!(fp.star(1).platform.base.name, "fed/star1");
        assert_eq!(fp.total_workers(), 3);
        assert_eq!(fp.len(), 2);
        assert!(!fp.is_empty());
    }

    #[test]
    fn sections_scope_directives_to_their_star() {
        let text = "\
@star uplink=0.5
1.0 1.0 10
@0 cscale 0:1 5:2
@star uplink=1.0
2.0 2.0 20
@netmodel fairshare backbone=3
";
        let fp = parse_fed_platform("f", text, 80).unwrap();
        assert_eq!(fp.len(), 2);
        assert!(!fp.star(0).platform.profile.is_static());
        assert_eq!(fp.star(0).platform.netmodel, NetModelSpec::OnePort);
        assert!(fp.star(1).platform.profile.is_static());
        assert_eq!(
            fp.star(1).platform.netmodel,
            NetModelSpec::FairShare { backbone: 3.0 }
        );
        assert_eq!(fp.star(0).uplink_c, 0.5);
        assert_eq!(fp.star(1).uplink_c, 1.0);
        assert_eq!(fp.uplink, NetModelSpec::OnePort);
    }

    #[test]
    fn errors_keep_original_line_numbers() {
        // Bad worker line in the second star: line 5 of the file.
        let text = "@star uplink=0.5\n1 1 10\n\n@star uplink=1\noops\n";
        let err = parse_fed_platform("f", text, 80).unwrap_err();
        assert_eq!(err.line, 5);
        // Bad directive inside a star section.
        let text = "@star uplink=0.5\n1 1 10\n@0 spin 0:1\n";
        let err = parse_fed_platform("f", text, 80).unwrap_err();
        assert_eq!(err.line, 3);
        // A worker index counts within its own star only.
        let text = "@star uplink=0.5\n1 1 10\n@star uplink=1\n1 1 10\n@1 cscale 0:2\n";
        let err = parse_fed_platform("f", text, 80).unwrap_err();
        assert_eq!(err.line, 5);
        assert!(err.message.contains("worker 1 not defined"), "{err}");
    }

    #[test]
    fn malformed_fed_directives_are_typed_errors() {
        let cases: [(&str, usize); 8] = [
            ("1 1 10\n", 1),                                    // worker before @star
            ("@netmodel oneport\n@star uplink=1\n1 1 10\n", 1), // star directive before @star
            ("@star\n1 1 10\n", 1),                             // missing uplink=
            ("@star uplink=0\n1 1 10\n", 1),                    // zero cost
            ("@star uplink=-1\n1 1 10\n", 1),                   // negative
            ("@star uplink=inf\n1 1 10\n", 1),                  // non-finite
            ("@star uplink=1\n1 1 10\n@uplink warp\n", 3),      // bad uplink model
            (
                "@uplink oneport\n@uplink oneport\n@star uplink=1\n1 1 10\n",
                2,
            ), // duplicate
        ];
        for (text, line) in cases {
            let err = parse_fed_platform("f", text, 80).unwrap_err();
            assert_eq!(err.line, line, "{text:?}: {err}");
        }
        // Empty star section points at its header.
        let err =
            parse_fed_platform("f", "@star uplink=1\n@star uplink=2\n1 1 10\n", 80).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("star 0 has no workers"), "{err}");
        // No stars at all.
        let err = parse_fed_platform("f", "# just a comment\n", 80).unwrap_err();
        assert_eq!(err.line, 0);
    }

    #[test]
    fn shard_widths_spread_the_remainder_low_first() {
        assert_eq!(shard_widths(10, 1), vec![10]);
        assert_eq!(shard_widths(10, 2), vec![5, 5]);
        assert_eq!(shard_widths(10, 3), vec![4, 3, 3]);
        assert_eq!(shard_widths(11, 4), vec![3, 3, 3, 2]);
        assert_eq!(shard_widths(2, 4), vec![1, 1, 0, 0]);
        for (total, k) in [(10, 3), (11, 4), (2, 4), (129, 7)] {
            let w = shard_widths(total, k);
            assert_eq!(w.iter().sum::<usize>(), total);
            assert!(w.windows(2).all(|p| p[0] >= p[1]));
        }
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn bad_uplink_cost_rejected() {
        FedStar::new(
            DynPlatform::constant(Platform::new("s", vec![WorkerSpec::new(1.0, 1.0, 10)])),
            0.0,
        );
    }
}
