//! The paper's worked examples as oracle instances, plus two anchors
//! for the convex DP's windows. These are the hand-written
//! ground-truth anchors: every constructor here enters the committed
//! regression corpus and is replayed by the ordinary test suite, and
//! the integration tests pin their exact values.

use andi_core::ChainSpec;

use crate::error::OracleError;
use crate::instance::{Instance, Regime};

/// BigMart supports of Figure 1 (m = 10 transactions).
pub const BIGMART_SUPPORTS: [u64; 6] = [5, 4, 5, 5, 3, 5];

/// BigMart transaction count.
pub const BIGMART_M: u64 = 10;

/// The belief function `h` of Figure 2 over BigMart: exact expected
/// cracks 1.8125, O-estimate 94/60.
pub fn bigmart_h() -> Instance {
    Instance {
        label: "paper:bigmart-h".into(),
        regime: Regime::AlphaCompliant,
        supports: BIGMART_SUPPORTS.to_vec(),
        m: BIGMART_M,
        intervals: vec![
            (0.0, 1.0),
            (0.4, 0.5),
            (0.5, 0.5),
            (0.4, 0.6),
            (0.1, 0.4),
            (0.5, 0.5),
        ],
        mask: None,
    }
}

/// The point-valued belief `f` of Figure 2: Lemma 3 gives exactly
/// `g = 3` expected cracks (groups {5'}, {2'}, {1',3',4',6'}).
pub fn bigmart_point() -> Instance {
    let intervals = BIGMART_SUPPORTS
        .iter()
        .map(|&s| {
            let f = s as f64 / BIGMART_M as f64;
            (f, f)
        })
        .collect();
    Instance {
        label: "paper:bigmart-point".into(),
        regime: Regime::PointCompliant,
        supports: BIGMART_SUPPORTS.to_vec(),
        m: BIGMART_M,
        intervals,
        mask: None,
    }
}

/// The ignorant belief `g` of Figure 2: Lemma 1 gives exactly one
/// expected crack.
pub fn bigmart_ignorant() -> Instance {
    Instance {
        label: "paper:bigmart-ignorant".into(),
        regime: Regime::Ignorant,
        supports: BIGMART_SUPPORTS.to_vec(),
        m: BIGMART_M,
        intervals: vec![(0.0, 1.0); 6],
        mask: None,
    }
}

/// Realizes a chain spec as an instance.
fn chain_instance(
    label: &str,
    sizes: Vec<usize>,
    e: Vec<usize>,
    s: Vec<usize>,
    m: u64,
) -> Result<Instance, OracleError> {
    let spec = ChainSpec::new(sizes, e, s)?;
    let (supports, belief) = spec.realize(m)?;
    Ok(Instance {
        label: label.into(),
        regime: Regime::Chain,
        supports,
        m,
        intervals: belief.intervals().to_vec(),
        mask: None,
    })
}

/// The Section 4.2 chain — groups (5, 3) with 3 shared items — whose
/// Lemma 5 expectation is 74/45 and whose OE is 197/120.
pub fn section_4_2_chain() -> Result<Instance, OracleError> {
    chain_instance("paper:chain-4-2", vec![5, 3], vec![3, 2], vec![3], 90)
}

/// The five chains of the Section 5.2 Δ table, all over group sizes
/// (20, 30, 20) at m = 120.
pub fn delta_table() -> Result<Vec<Instance>, OracleError> {
    let rows: [(usize, usize, usize, usize, usize); 5] = [
        (10, 10, 10, 20, 20),
        (5, 10, 10, 25, 20),
        (5, 10, 5, 25, 25),
        (5, 6, 5, 27, 27),
        (10, 20, 10, 15, 15),
    ];
    rows.iter()
        .enumerate()
        .map(|(i, &(e1, e2, e3, s1, s2))| {
            chain_instance(
                &format!("paper:delta-row-{}", i + 1),
                vec![20, 30, 20],
                vec![e1, e2, e3],
                vec![s1, s2],
                120,
            )
        })
        .collect()
}

/// The Figure 6(a) staircase: OE 25/12 without propagation, a unique
/// matching (permanent 1), so the true crack count is 4.
pub fn staircase_6a() -> Instance {
    let f = |s: u64| s as f64 / 10.0;
    Instance {
        label: "paper:staircase-6a".into(),
        regime: Regime::AlphaCompliant,
        supports: vec![2, 4, 6, 8],
        m: 10,
        intervals: vec![(f(2), f(2)), (f(2), f(4)), (f(2), f(6)), (f(2), f(8))],
        mask: None,
    }
}

/// The Figure 6(b) instance: items 1'/2' are individually
/// indistinguishable (each cracked with probability 1/2) yet the
/// pair {1',2'} maps onto {1,2}.
pub fn figure_6b() -> Instance {
    let f = |s: u64| s as f64 / 10.0;
    Instance {
        label: "paper:figure-6b".into(),
        regime: Regime::AlphaCompliant,
        supports: vec![2, 4, 6, 8],
        m: 10,
        intervals: vec![(f(2), f(4)), (f(2), f(4)), (f(4), f(8)), (f(6), f(8))],
        mask: None,
    }
}

/// A window-3 space beyond chains, under a mask: two items may take
/// any of the three frequency groups, so no closed form applies, and
/// the convex DP's masked sum must equal the permanent's and the
/// ladder's.
pub fn convex_window_3() -> Instance {
    let f = |s: u64| s as f64 / 10.0;
    Instance {
        label: "convex:window-3".into(),
        regime: Regime::AlphaCompliant,
        supports: vec![2, 2, 5, 5, 8, 8, 8],
        m: 10,
        intervals: vec![
            (f(2), f(8)),
            (f(2), f(5)),
            (f(2), f(5)),
            (f(5), f(8)),
            (f(5), f(8)),
            (f(2), f(8)),
            (f(5), f(8)),
        ],
        mask: Some(vec![true, false, true, true, false, true, false]),
    }
}

/// A 120-item chain — groups (60, 60) with 60 shared items — far
/// above the permanent's cap: Lemma 5 gives exactly 1.5 expected
/// cracks, and the convex DP answers it as a window-2 space.
pub fn convex_chain_120() -> Result<Instance, OracleError> {
    chain_instance(
        "convex:chain-120",
        vec![60, 60],
        vec![30, 30],
        vec![60],
        1000,
    )
}

/// Every case, in corpus order.
pub fn all() -> Result<Vec<Instance>, OracleError> {
    let mut out = vec![
        bigmart_h(),
        bigmart_point(),
        bigmart_ignorant(),
        section_4_2_chain()?,
        staircase_6a(),
        figure_6b(),
    ];
    out.extend(delta_table()?);
    out.push(convex_window_3());
    out.push(convex_chain_120()?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_cases_are_valid_and_uniquely_labelled() {
        let cases = all().unwrap();
        assert_eq!(cases.len(), 13);
        let mut labels: Vec<&str> = cases.iter().map(|c| c.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 13, "labels must be unique");
        for c in &cases {
            assert!(c.validate().is_ok(), "{}: {:?}", c.label, c.validate());
        }
    }

    #[test]
    fn chain_cases_realize_the_paper_numbers() {
        let chain = section_4_2_chain().unwrap();
        assert_eq!(chain.n(), 8);
        let g = chain.graph().unwrap();
        let spec = ChainSpec::detect(&g).expect("paper chain detects");
        assert!((spec.expected_cracks() - 74.0 / 45.0).abs() < 1e-12);
        assert!((spec.oestimate() - 197.0 / 120.0).abs() < 1e-12);
    }

    #[test]
    fn convex_cases_run_the_dp_on_wide_windows() {
        use crate::convex::{convex_exact, DEFAULT_STATE_BUDGET};
        let window_3 = convex_exact(&convex_window_3().graph().unwrap(), DEFAULT_STATE_BUDGET);
        assert_eq!(window_3.unwrap().window, 3);
        let chain = convex_chain_120().unwrap();
        assert_eq!(chain.n(), 120);
        let g = chain.graph().unwrap();
        let spec = ChainSpec::detect(&g).expect("the chain detects");
        assert!((spec.expected_cracks() - 1.5).abs() < 1e-12);
        let exact = convex_exact(&g, DEFAULT_STATE_BUDGET).unwrap();
        assert_eq!(exact.window, 2);
        assert!((exact.expected_cracks() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn delta_rows_reproduce_published_errors() {
        let want = [
            (1.54, 0.01),
            (4.80, 0.01),
            (8.33, 0.04),
            (5.76, 0.01),
            (7.27, 0.01),
        ];
        for (inst, &(pct, tol)) in delta_table().unwrap().iter().zip(want.iter()) {
            let g = inst.graph().unwrap();
            let spec = ChainSpec::detect(&g).expect("delta chain detects");
            assert!(
                (spec.percentage_error() - pct).abs() <= tol,
                "{}: {:.3}% vs {pct}%",
                inst.label,
                spec.percentage_error()
            );
        }
    }
}
