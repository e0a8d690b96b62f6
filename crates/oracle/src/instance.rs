//! Oracle instances: a concrete anonymized release plus a hacker
//! belief, in a line-oriented text form stable enough to commit as a
//! regression corpus.
//!
//! An instance is everything an estimator needs: the observed support
//! profile (which doubles as the ground truth under aligned
//! indexing), the transaction count, one belief interval per item,
//! and an optional subset-of-interest mask for the restricted lemmas
//! (Lemmas 2/4/10). The generating regime and a free-form label ride
//! along as provenance.

use std::fmt::{self, Write as _};

use andi_core::BeliefFunction;
use andi_graph::GroupedBigraph;

use crate::error::OracleError;

/// The stratified generator regimes of the conformance sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Regime {
    /// Every interval is `[0, 1]` (Lemmas 1/2 territory).
    Ignorant,
    /// Compliant point-valued beliefs (Lemmas 3/4).
    PointCompliant,
    /// Widened compliant intervals with a chosen fraction of items
    /// made non-compliant.
    AlphaCompliant,
    /// Realized chain beliefs (Lemmas 5/6), including the k = 1 and
    /// k = n boundary chains.
    Chain,
    /// Near-degenerate structure: empty mapping spaces, duplicate
    /// frequencies, all-tied groups.
    NearDegenerate,
    /// Larger domains of 10 to 32 items with mixed interval shapes,
    /// mostly above the exact kernel's `MAX_PERMANENT_N = 22`; only the
    /// cheap relations apply.
    Adversarial,
}

impl Regime {
    /// Every regime, in sweep order.
    pub const ALL: [Regime; 6] = [
        Regime::Ignorant,
        Regime::PointCompliant,
        Regime::AlphaCompliant,
        Regime::Chain,
        Regime::NearDegenerate,
        Regime::Adversarial,
    ];

    /// The kebab-case name used by the CLI and the serializer.
    pub fn name(self) -> &'static str {
        match self {
            Regime::Ignorant => "ignorant",
            Regime::PointCompliant => "point-compliant",
            Regime::AlphaCompliant => "alpha-compliant",
            Regime::Chain => "chain",
            Regime::NearDegenerate => "near-degenerate",
            Regime::Adversarial => "adversarial",
        }
    }

    /// Parses a kebab-case regime name.
    ///
    /// # Errors
    ///
    /// Unknown names are a parse error.
    pub fn parse(name: &str) -> Result<Regime, OracleError> {
        Regime::ALL
            .iter()
            .copied()
            .find(|r| r.name() == name)
            .ok_or_else(|| OracleError::Parse(format!("unknown regime {name:?}")))
    }
}

impl std::fmt::Display for Regime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A single conformance-oracle instance.
#[derive(Clone, Debug, PartialEq)]
pub struct Instance {
    /// Free-form provenance (e.g. `gen seed=7 index=12` or
    /// `paper:bigmart-h`).
    pub label: String,
    /// The regime the instance belongs to.
    pub regime: Regime,
    /// Observed (= true, aligned indexing) support of each item.
    pub supports: Vec<u64>,
    /// Transaction count the supports are relative to.
    pub m: u64,
    /// The hacker's belief interval per item.
    pub intervals: Vec<(f64, f64)>,
    /// Optional subset-of-interest mask for the restricted lemmas.
    pub mask: Option<Vec<bool>>,
}

const HEADER: &str = "andi-oracle instance v1";

impl Instance {
    /// Domain size.
    pub fn n(&self) -> usize {
        self.supports.len()
    }

    /// True item frequencies `support / m`.
    pub fn frequencies(&self) -> Vec<f64> {
        self.supports
            .iter()
            .map(|&s| s as f64 / self.m as f64)
            .collect()
    }

    /// Structural validation: non-empty domain, positive `m`,
    /// supports within `[0, m]`, intervals within `[0, 1]` and
    /// ordered, mask covering the domain.
    ///
    /// # Errors
    ///
    /// A message naming the first violated constraint.
    pub fn validate(&self) -> Result<(), OracleError> {
        if self.supports.is_empty() {
            return Err(OracleError::Invalid("empty domain".into()));
        }
        if self.m == 0 {
            return Err(OracleError::Invalid("m must be positive".into()));
        }
        if self.intervals.len() != self.n() {
            return Err(OracleError::Invalid(format!(
                "{} intervals for {} items",
                self.intervals.len(),
                self.n()
            )));
        }
        if let Some(bad) = self.supports.iter().position(|&s| s > self.m) {
            return Err(OracleError::Invalid(format!(
                "item {bad}: support exceeds m"
            )));
        }
        for (x, &(l, r)) in self.intervals.iter().enumerate() {
            if !(0.0 <= l && l <= r && r <= 1.0) {
                return Err(OracleError::Invalid(format!(
                    "item {x}: invalid interval [{l}, {r}]"
                )));
            }
        }
        if let Some(mask) = &self.mask {
            if mask.len() != self.n() {
                return Err(OracleError::Invalid(format!(
                    "mask covers {} of {} items",
                    mask.len(),
                    self.n()
                )));
            }
        }
        Ok(())
    }

    /// The belief function of the instance.
    ///
    /// # Errors
    ///
    /// Propagates interval validation failures.
    pub fn belief(&self) -> Result<BeliefFunction, OracleError> {
        BeliefFunction::from_intervals(self.intervals.clone()).map_err(OracleError::Core)
    }

    /// The grouped mapping-space graph of the instance.
    ///
    /// # Errors
    ///
    /// Validation failures ([`Instance::validate`]).
    pub fn graph(&self) -> Result<GroupedBigraph, OracleError> {
        self.validate()?;
        Ok(GroupedBigraph::new(&self.supports, self.m, &self.intervals))
    }

    /// The fraction of items whose interval contains the truth.
    pub fn alpha(&self) -> f64 {
        match self.belief() {
            Ok(b) => b.alpha(&self.frequencies()),
            Err(_) => 0.0,
        }
    }

    /// Serializes to the committed line-oriented corpus format.
    /// Floats use Rust's shortest round-trip `Display`, so
    /// `from_text(to_text(x)) == x` bit-exactly. This is also the
    /// `/assess` request body, so it is written in one pass into one
    /// buffer, sized from the domain, with no `String` per number.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.text_capacity());
        // Writing into a `String` cannot fail.
        let _ = write!(
            out,
            "{HEADER}\nlabel: {}\nregime: {}\nm: {}\nsupports: {}\nintervals: {}\n",
            self.label,
            self.regime,
            self.m,
            joined(&self.supports, " ", fmt::Display::fmt),
            joined(&self.intervals, " ", |(l, r), f| write!(f, "{l},{r}")),
        );
        if let Some(mask) = &self.mask {
            out.push_str("mask: ");
            out.extend(mask.iter().map(|&b| if b { '1' } else { '0' }));
            out.push('\n');
        }
        out
    }

    /// A buffer size that holds either text form of a typical
    /// instance: the fixed keys, the label, and per item its support,
    /// two endpoints, their punctuation and a mask entry.
    fn text_capacity(&self) -> usize {
        let digits = self.m.checked_ilog10().map_or(1, |d| d as usize + 1);
        128 + self.label.len() + self.n() * (digits + 2 * F64_WIDTH + 10)
    }

    /// Parses the corpus format.
    ///
    /// # Errors
    ///
    /// Malformed headers, fields, or numbers.
    pub fn from_text(text: &str) -> Result<Instance, OracleError> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or("");
        if header.trim() != HEADER {
            return Err(OracleError::Parse(format!(
                "bad header {:?} (want {HEADER:?})",
                header.trim()
            )));
        }
        let mut label = None;
        let mut regime = None;
        let mut m = None;
        let mut supports = None;
        let mut intervals = None;
        let mut mask = None;
        for line in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once(':')
                .ok_or_else(|| OracleError::Parse(format!("missing ':' in line {line:?}")))?;
            let value = value.trim();
            match key.trim() {
                "label" => label = Some(value.to_string()),
                "regime" => regime = Some(Regime::parse(value)?),
                "m" => m = Some(parse_num::<u64>(value, "m")?),
                "supports" => {
                    supports = Some(
                        value
                            .split_whitespace()
                            .map(|t| parse_num::<u64>(t, "support"))
                            .collect::<Result<Vec<_>, _>>()?,
                    )
                }
                "intervals" => {
                    intervals = Some(
                        value
                            .split_whitespace()
                            .map(parse_interval)
                            .collect::<Result<Vec<_>, _>>()?,
                    )
                }
                "mask" => {
                    mask = Some(
                        value
                            .chars()
                            .map(|c| match c {
                                '1' => Ok(true),
                                '0' => Ok(false),
                                other => Err(OracleError::Parse(format!("bad mask bit {other:?}"))),
                            })
                            .collect::<Result<Vec<_>, _>>()?,
                    )
                }
                other => {
                    return Err(OracleError::Parse(format!("unknown field {other:?}")));
                }
            }
        }
        let inst = Instance {
            label: label.ok_or_else(|| OracleError::Parse("missing label".into()))?,
            regime: regime.ok_or_else(|| OracleError::Parse("missing regime".into()))?,
            supports: supports.ok_or_else(|| OracleError::Parse("missing supports".into()))?,
            m: m.ok_or_else(|| OracleError::Parse("missing m".into()))?,
            intervals: intervals.ok_or_else(|| OracleError::Parse("missing intervals".into()))?,
            mask,
        };
        inst.validate()?;
        Ok(inst)
    }

    /// Renders the instance as a JSON object (for the CLI's `--format
    /// json` failure reports), in one buffer like [`Instance::to_text`].
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.text_capacity());
        // Writing into a `String` cannot fail.
        let _ = write!(
            out,
            "{{\"label\":{},\"regime\":\"{}\",\"m\":{},\"supports\":[{}],\"intervals\":[{}],\"mask\":",
            json_string(&self.label),
            self.regime,
            self.m,
            joined(&self.supports, ",", fmt::Display::fmt),
            joined(&self.intervals, ",", |(l, r), f| write!(f, "[{l},{r}]")),
        );
        match &self.mask {
            None => out.push_str("null}"),
            Some(mask) => {
                let _ = write!(out, "[{}]}}", joined(mask, ",", fmt::Display::fmt));
            }
        }
        out
    }
}

/// A typical width of one shortest round-trip `f64` such as
/// `0.30000000000000004`: a buffer sized with it rarely grows, and
/// one that does grows by doubling, not once per number.
pub const F64_WIDTH: usize = 20;

/// A list that formats straight into its output: each item through
/// `fmt_item`, `sep` between two, with no `String` per item and no
/// `join`. Built by [`joined`] for the wire texts' lists of numbers.
pub struct Joined<'a, T, F> {
    items: &'a [T],
    sep: &'a str,
    fmt_item: F,
}

/// `items` as one [`Display`](fmt::Display) value for `write!`, each
/// item formatted by `fmt_item` (`fmt::Display::fmt` for the item's
/// own `Display`).
pub fn joined<'a, T, F>(items: &'a [T], sep: &'a str, fmt_item: F) -> Joined<'a, T, F>
where
    F: Fn(&T, &mut fmt::Formatter<'_>) -> fmt::Result,
{
    Joined {
        items,
        sep,
        fmt_item,
    }
}

impl<T, F> fmt::Display for Joined<'_, T, F>
where
    F: Fn(&T, &mut fmt::Formatter<'_>) -> fmt::Result,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                f.write_str(self.sep)?;
            }
            (self.fmt_item)(item, f)?;
        }
        Ok(())
    }
}

/// Escapes a string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn parse_num<T: std::str::FromStr>(text: &str, what: &str) -> Result<T, OracleError> {
    text.parse()
        .map_err(|_| OracleError::Parse(format!("cannot parse {what}: {text:?}")))
}

fn parse_interval(token: &str) -> Result<(f64, f64), OracleError> {
    let (l, r) = token
        .split_once(',')
        .ok_or_else(|| OracleError::Parse(format!("interval {token:?} is not 'l,r'")))?;
    Ok((
        parse_num(l, "interval low")?,
        parse_num(r, "interval high")?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Instance {
        Instance {
            label: "unit:sample".into(),
            regime: Regime::AlphaCompliant,
            supports: vec![5, 4, 3],
            m: 10,
            intervals: vec![(0.4, 0.6), (0.1 + 0.2, 0.5), (0.0, 1.0)],
            mask: Some(vec![true, false, true]),
        }
    }

    #[test]
    fn text_round_trip_is_bit_exact() {
        let inst = sample();
        let text = inst.to_text();
        let back = Instance::from_text(&text).unwrap();
        assert_eq!(back, inst);
        // Including the awkward 0.30000000000000004 endpoint.
        assert_eq!(back.intervals[1].0, 0.1 + 0.2);
        // Serialization is canonical: a second trip is identical.
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn round_trip_without_mask() {
        let mut inst = sample();
        inst.mask = None;
        let back = Instance::from_text(&inst.to_text()).unwrap();
        assert_eq!(back, inst);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Instance::from_text("nonsense").is_err());
        let good = sample().to_text();
        assert!(
            Instance::from_text(&good.replace("regime: alpha-compliant", "regime: x")).is_err()
        );
        assert!(Instance::from_text(&good.replace("m: 10", "m: ten")).is_err());
        assert!(Instance::from_text(&good.replace("supports: 5 4 3", "supports: 5 4")).is_err());
        assert!(Instance::from_text(&good.replace("mask: 101", "mask: 1x1")).is_err());
        assert!(Instance::from_text(&good.replace("label: unit:sample\n", "")).is_err());
    }

    #[test]
    fn validate_catches_structural_problems() {
        let mut inst = sample();
        inst.supports[0] = 11; // exceeds m
        assert!(inst.validate().is_err());
        let mut inst = sample();
        inst.intervals[2] = (0.9, 0.1);
        assert!(inst.validate().is_err());
        let mut inst = sample();
        inst.mask = Some(vec![true]);
        assert!(inst.validate().is_err());
        let mut inst = sample();
        inst.m = 0;
        assert!(inst.validate().is_err());
        let mut inst = sample();
        inst.supports.clear();
        inst.intervals.clear();
        assert!(inst.validate().is_err());
    }

    #[test]
    fn regime_names_round_trip() {
        for r in Regime::ALL {
            assert_eq!(Regime::parse(r.name()).unwrap(), r);
        }
        assert!(Regime::parse("bogus").is_err());
    }

    #[test]
    fn json_rendering_escapes_and_structures() {
        let mut inst = sample();
        inst.label = "a \"b\"\n".into();
        let json = inst.to_json();
        assert!(json.contains("\"a \\\"b\\\"\\n\""));
        assert!(json.contains("\"supports\":[5,4,3]"));
        assert!(json.contains("\"mask\":[true,false,true]"));
        inst.mask = None;
        assert!(inst.to_json().contains("\"mask\":null"));
    }

    #[test]
    fn frequencies_and_alpha() {
        let inst = sample();
        let f = inst.frequencies();
        assert_eq!(f, vec![0.5, 0.4, 0.3]);
        // Interval 0 contains 0.5, interval 1 contains 0.4,
        // interval 2 contains 0.3: fully compliant.
        assert!((inst.alpha() - 1.0).abs() < 1e-12);
    }

    /// The `Vec<String>` + `join` serializer the one-buffer writer
    /// replaced, kept as the byte-identity reference.
    fn to_text_reference(inst: &Instance) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        out.push_str(&format!("label: {}\n", inst.label));
        out.push_str(&format!("regime: {}\n", inst.regime));
        out.push_str(&format!("m: {}\n", inst.m));
        let supports: Vec<String> = inst.supports.iter().map(u64::to_string).collect();
        out.push_str(&format!("supports: {}\n", supports.join(" ")));
        let intervals: Vec<String> = inst
            .intervals
            .iter()
            .map(|&(l, r)| format!("{l},{r}"))
            .collect();
        out.push_str(&format!("intervals: {}\n", intervals.join(" ")));
        if let Some(mask) = &inst.mask {
            let bits: String = mask.iter().map(|&b| if b { '1' } else { '0' }).collect();
            out.push_str(&format!("mask: {bits}\n"));
        }
        out
    }

    /// The JSON twin of [`to_text_reference`].
    fn to_json_reference(inst: &Instance) -> String {
        let supports: Vec<String> = inst.supports.iter().map(u64::to_string).collect();
        let intervals: Vec<String> = inst
            .intervals
            .iter()
            .map(|&(l, r)| format!("[{l},{r}]"))
            .collect();
        let mask = match &inst.mask {
            None => "null".to_string(),
            Some(m) => format!(
                "[{}]",
                m.iter()
                    .map(|&b| if b { "true" } else { "false" })
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        };
        format!(
            "{{\"label\":{},\"regime\":\"{}\",\"m\":{},\"supports\":[{}],\"intervals\":[{}],\"mask\":{}}}",
            json_string(&inst.label),
            inst.regime,
            inst.m,
            supports.join(","),
            intervals.join(","),
            mask
        )
    }

    /// Interval endpoints whose shortest `Display` is awkward: signed
    /// zero, subnormals, long digit runs (`1e-7`, `1e21`, `f64::MAX`),
    /// `0.1 + 0.2` and the bounds of `[0, 1]`; then any `f64` bit
    /// pattern, and any value in `[0, 1)`.
    fn endpoint() -> impl Strategy<Value = f64> {
        const AWKWARD: [f64; 9] = [
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE / 3.0,
            1e-7,
            0.1 + 0.2,
            1.0,
            1e21,
            f64::MAX,
        ];
        (0..AWKWARD.len() + 2, any::<u64>()).prop_map(|(k, bits)| match AWKWARD.get(k) {
            Some(&x) => x,
            None if k == AWKWARD.len() => f64::from_bits(bits),
            None => (bits >> 11) as f64 / (1u64 << 53) as f64,
        })
    }

    fn any_instance() -> impl Strategy<Value = Instance> {
        (0usize..12).prop_flat_map(|n| {
            (
                "[a-z\u{e9} \"\\\\\t\n:]{0,8}",
                (0..Regime::ALL.len()).prop_map(|k| Regime::ALL[k]),
                any::<u64>(),
                prop::collection::vec(any::<u64>(), n),
                prop::collection::vec((endpoint(), endpoint()), n),
                (any::<bool>(), prop::collection::vec(any::<bool>(), n)),
            )
                .prop_map(|(label, regime, m, supports, intervals, (masked, mask))| {
                    Instance {
                        label,
                        regime,
                        supports,
                        m,
                        intervals,
                        mask: masked.then_some(mask),
                    }
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn writers_equal_the_join_reference(inst in any_instance()) {
            prop_assert_eq!(inst.to_text(), to_text_reference(&inst));
            prop_assert_eq!(inst.to_json(), to_json_reference(&inst));
        }
    }
}
