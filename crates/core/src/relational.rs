//! Relational / attribute-knowledge attacks (Section 8.1).
//!
//! The bipartite-graph analysis level is independent of frequent
//! sets: "as long as the bipartite graph is set up by some means",
//! every lemma carries over. The paper's example: an anonymized
//! relation with attributes (age, ethnicity, car-model) over
//! individuals; the hacker knows that John is Chinese and owns a
//! Toyota, that Mary's age is 30–35, and nothing about Bob. Each
//! piece of partial knowledge contributes edges from the matching
//! anonymized records to the known individual.
//!
//! This module builds that graph and feeds it to the standard
//! O-estimate machinery.

use andi_graph::DenseBigraph;

use crate::error::{Error, Result};
use crate::oestimate::OutdegreeProfile;

/// A single attribute value of a record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AttrValue {
    /// Categorical value (ethnicity, car model, ...), encoded as an
    /// id.
    Cat(u32),
    /// Numeric value (age, salary, ...).
    Num(f64),
}

/// One piece of hacker knowledge about an individual's attribute.
#[derive(Clone, Debug, PartialEq)]
pub enum Constraint {
    /// The attribute equals a categorical value.
    Equals { attr: usize, value: u32 },
    /// The attribute is one of several categorical values (e.g. a
    /// generalization-hierarchy node: "some European car brand").
    OneOf { attr: usize, values: Vec<u32> },
    /// The attribute is known *not* to be a categorical value.
    NotEquals { attr: usize, value: u32 },
    /// The attribute lies in an inclusive numeric range.
    InRange { attr: usize, low: f64, high: f64 },
}

impl Constraint {
    /// Whether a record satisfies this constraint. Type mismatches
    /// (range constraint on a categorical attribute and vice versa)
    /// never match — except [`Constraint::NotEquals`], which a
    /// numeric attribute satisfies vacuously.
    fn satisfied_by(&self, record: &[AttrValue]) -> bool {
        match self {
            Constraint::Equals { attr, value } => {
                matches!(record.get(*attr), Some(AttrValue::Cat(v)) if v == value)
            }
            Constraint::OneOf { attr, values } => {
                matches!(record.get(*attr), Some(AttrValue::Cat(v)) if values.contains(v))
            }
            Constraint::NotEquals { attr, value } => {
                !matches!(record.get(*attr), Some(AttrValue::Cat(v)) if v == value)
            }
            Constraint::InRange { attr, low, high } => {
                matches!(record.get(*attr), Some(AttrValue::Num(v)) if *low <= *v && *v <= *high)
            }
        }
    }
}

/// An anonymized relation in *aligned* indexing: anonymized record
/// `i` truly belongs to individual `i`. (The alignment is private to
/// the analysis; a hacker only sees the records.)
#[derive(Clone, Debug)]
pub struct AnonymizedRelation {
    n_attrs: usize,
    records: Vec<Vec<AttrValue>>,
}

impl AnonymizedRelation {
    /// Builds a relation; every record must have the same arity.
    ///
    /// # Errors
    ///
    /// Rejects an empty relation or ragged records.
    pub fn new(records: Vec<Vec<AttrValue>>) -> Result<Self> {
        let n_attrs = records
            .first()
            .map(|r| r.len())
            .ok_or_else(|| Error::InvalidParameter("empty relation".into()))?;
        for (i, r) in records.iter().enumerate() {
            if r.len() != n_attrs {
                return Err(Error::InvalidParameter(format!(
                    "record {i} has {} attributes, expected {n_attrs}",
                    r.len()
                )));
            }
        }
        Ok(AnonymizedRelation { n_attrs, records })
    }

    /// Number of individuals / records.
    pub fn n_individuals(&self) -> usize {
        self.records.len()
    }

    /// Number of attributes.
    pub fn n_attrs(&self) -> usize {
        self.n_attrs
    }

    /// The record of anonymized individual `i`.
    pub fn record(&self, i: usize) -> &[AttrValue] {
        &self.records[i]
    }
}

/// The hacker's knowledge: a conjunction of constraints per
/// individual (an empty conjunction = knows nothing, like Bob).
#[derive(Clone, Debug, Default)]
pub struct Knowledge {
    constraints: Vec<Vec<Constraint>>,
}

impl Knowledge {
    /// Knowledge about `n` individuals, initially empty (everyone is
    /// a Bob).
    pub fn ignorant(n: usize) -> Self {
        Knowledge {
            constraints: vec![Vec::new(); n],
        }
    }

    /// Adds one constraint about individual `y`.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of range.
    pub fn add(&mut self, y: usize, constraint: Constraint) -> &mut Self {
        self.constraints[y].push(constraint);
        self
    }

    /// The constraints about individual `y`.
    pub fn about(&self, y: usize) -> &[Constraint] {
        &self.constraints[y]
    }

    /// Number of individuals covered.
    pub fn n_individuals(&self) -> usize {
        self.constraints.len()
    }
}

/// Builds the mapping-space graph: edge `(i, y)` iff record `i`
/// satisfies everything the hacker knows about individual `y`.
///
/// # Errors
///
/// Relation and knowledge must cover the same set of individuals.
pub fn build_graph(relation: &AnonymizedRelation, knowledge: &Knowledge) -> Result<DenseBigraph> {
    let n = relation.n_individuals();
    if knowledge.n_individuals() != n {
        return Err(Error::DomainMismatch {
            expected: n,
            got: knowledge.n_individuals(),
        });
    }
    let mut g = DenseBigraph::new(n);
    for y in 0..n {
        let cs = knowledge.about(y);
        for i in 0..n {
            if cs.iter().all(|c| c.satisfied_by(relation.record(i))) {
                g.add_edge(i, y);
            }
        }
    }
    Ok(g)
}

/// Full relational risk report: the O-estimate (with propagation)
/// over the attribute-knowledge graph.
#[derive(Clone, Debug)]
pub struct RelationalRisk {
    /// Per-individual crack-probability profile.
    pub profile: OutdegreeProfile,
    /// The O-estimate (expected number of re-identified
    /// individuals).
    pub oestimate: f64,
    /// Individuals identified with certainty by propagation.
    pub certain: usize,
}

/// Assesses re-identification risk of releasing `relation` against
/// `knowledge`.
///
/// # Errors
///
/// See [`build_graph`]; also fails when the knowledge is mutually
/// inconsistent (no consistent assignment exists).
/// # Examples
///
/// ```
/// use andi_core::relational::{assess_relational_risk, AnonymizedRelation, AttrValue, Constraint, Knowledge};
///
/// // Two people; the hacker knows one is over 40.
/// let relation = AnonymizedRelation::new(vec![
///     vec![AttrValue::Num(45.0)],
///     vec![AttrValue::Num(30.0)],
/// ]).unwrap();
/// let mut knowledge = Knowledge::ignorant(2);
/// knowledge.add(0, Constraint::InRange { attr: 0, low: 40.0, high: 99.0 });
/// let risk = assess_relational_risk(&relation, &knowledge).unwrap();
/// // Pinning one individual pins the other too.
/// assert_eq!(risk.certain, 2);
/// assert!((risk.oestimate - 2.0).abs() < 1e-12);
/// ```
pub fn assess_relational_risk(
    relation: &AnonymizedRelation,
    knowledge: &Knowledge,
) -> Result<RelationalRisk> {
    let graph = build_graph(relation, knowledge)?;
    let profile = OutdegreeProfile::propagated_dense(&graph)?;
    Ok(RelationalRisk {
        oestimate: profile.oestimate(),
        certain: profile.forced_cracks(),
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const AGE: usize = 0;
    const ETHNICITY: usize = 1;
    const CAR: usize = 2;
    const CHINESE: u32 = 0;
    const DUTCH: u32 = 1;
    const TOYOTA: u32 = 10;
    const VOLVO: u32 = 11;

    /// The paper's example cast: John (Chinese, Toyota), Mary
    /// (age 32), Bob (unknown), plus a decoy sharing John's profile.
    fn relation() -> AnonymizedRelation {
        AnonymizedRelation::new(vec![
            // 0 = John
            vec![
                AttrValue::Num(41.0),
                AttrValue::Cat(CHINESE),
                AttrValue::Cat(TOYOTA),
            ],
            // 1 = Mary
            vec![
                AttrValue::Num(32.0),
                AttrValue::Cat(DUTCH),
                AttrValue::Cat(VOLVO),
            ],
            // 2 = Bob
            vec![
                AttrValue::Num(58.0),
                AttrValue::Cat(DUTCH),
                AttrValue::Cat(TOYOTA),
            ],
            // 3 = decoy with John's ethnicity and car
            vec![
                AttrValue::Num(29.0),
                AttrValue::Cat(CHINESE),
                AttrValue::Cat(TOYOTA),
            ],
        ])
        .unwrap()
    }

    fn paper_knowledge() -> Knowledge {
        let mut k = Knowledge::ignorant(4);
        k.add(
            0,
            Constraint::Equals {
                attr: ETHNICITY,
                value: CHINESE,
            },
        )
        .add(
            0,
            Constraint::Equals {
                attr: CAR,
                value: TOYOTA,
            },
        )
        .add(
            1,
            Constraint::InRange {
                attr: AGE,
                low: 30.0,
                high: 35.0,
            },
        );
        k
    }

    #[test]
    fn graph_edges_follow_knowledge() {
        let g = build_graph(&relation(), &paper_knowledge()).unwrap();
        // John's column: records 0 and 3 are Chinese Toyota owners.
        assert!(g.has_edge(0, 0));
        assert!(g.has_edge(3, 0));
        assert!(!g.has_edge(1, 0));
        assert!(!g.has_edge(2, 0));
        // Mary's column: only record 1 is aged 30-35.
        assert_eq!(g.right_degrees()[1], 1);
        assert!(g.has_edge(1, 1));
        // Bob's column: no constraints, everyone qualifies.
        assert_eq!(g.right_degrees()[2], 4);
    }

    #[test]
    fn risk_report_identifies_mary_with_certainty() {
        let risk = assess_relational_risk(&relation(), &paper_knowledge()).unwrap();
        assert!(risk.certain >= 1, "Mary is pinned by the age range");
        // John is one of two candidates: probability 1/2; plus Mary
        // certain. Expected >= 1.5.
        assert!(risk.oestimate >= 1.5 - 1e-9, "OE = {}", risk.oestimate);
        assert!(risk.oestimate <= 4.0);
    }

    #[test]
    fn ignorant_knowledge_gives_one_expected_crack() {
        let risk = assess_relational_risk(&relation(), &Knowledge::ignorant(4)).unwrap();
        assert!((risk.oestimate - 1.0).abs() < 1e-12, "Lemma 1 carries over");
        assert_eq!(risk.certain, 0);
    }

    #[test]
    fn inconsistent_knowledge_is_reported() {
        let mut k = Knowledge::ignorant(4);
        // Two different people both pinned to the unique record 1.
        k.add(
            0,
            Constraint::InRange {
                attr: AGE,
                low: 31.0,
                high: 33.0,
            },
        );
        k.add(
            1,
            Constraint::InRange {
                attr: AGE,
                low: 31.0,
                high: 33.0,
            },
        );
        let err = assess_relational_risk(&relation(), &k).unwrap_err();
        assert_eq!(err, Error::EmptyMappingSpace);
    }

    #[test]
    fn type_mismatched_constraints_never_match() {
        let r = relation();
        let c = Constraint::Equals {
            attr: AGE,
            value: 41,
        }; // AGE is numeric
        assert!(!c.satisfied_by(r.record(0)));
        let c = Constraint::InRange {
            attr: CAR,
            low: 0.0,
            high: 100.0,
        };
        assert!(!c.satisfied_by(r.record(0)));
        let c = Constraint::Equals { attr: 99, value: 0 }; // out of range
        assert!(!c.satisfied_by(r.record(0)));
    }

    #[test]
    fn one_of_acts_as_generalization() {
        // "Mary drives some European brand" = {VOLVO}; record 1 only.
        let mut k = Knowledge::ignorant(4);
        k.add(
            1,
            Constraint::OneOf {
                attr: CAR,
                values: vec![VOLVO],
            },
        );
        let g = build_graph(&relation(), &k).unwrap();
        assert_eq!(g.right_degrees()[1], 1);
        // A broader node keeps more candidates.
        let mut k = Knowledge::ignorant(4);
        k.add(
            1,
            Constraint::OneOf {
                attr: CAR,
                values: vec![VOLVO, TOYOTA],
            },
        );
        let g = build_graph(&relation(), &k).unwrap();
        assert_eq!(g.right_degrees()[1], 4);
    }

    #[test]
    fn not_equals_excludes() {
        // "John does not drive a Volvo" removes only record 1.
        let mut k = Knowledge::ignorant(4);
        k.add(
            0,
            Constraint::NotEquals {
                attr: CAR,
                value: VOLVO,
            },
        );
        let g = build_graph(&relation(), &k).unwrap();
        assert_eq!(g.right_degrees()[0], 3);
        assert!(!g.has_edge(1, 0));
        // NotEquals on a numeric attribute is vacuous.
        let mut k = Knowledge::ignorant(4);
        k.add(
            0,
            Constraint::NotEquals {
                attr: AGE,
                value: 41,
            },
        );
        let g = build_graph(&relation(), &k).unwrap();
        assert_eq!(g.right_degrees()[0], 4);
    }

    #[test]
    fn relation_validation() {
        assert!(AnonymizedRelation::new(vec![]).is_err());
        assert!(AnonymizedRelation::new(vec![
            vec![AttrValue::Num(1.0)],
            vec![AttrValue::Num(1.0), AttrValue::Cat(0)],
        ])
        .is_err());
        let ok = relation();
        assert_eq!(ok.n_individuals(), 4);
        assert_eq!(ok.n_attrs(), 3);
    }

    #[test]
    fn knowledge_size_mismatch_is_reported() {
        let k = Knowledge::ignorant(3);
        assert!(matches!(
            build_graph(&relation(), &k),
            Err(Error::DomainMismatch {
                expected: 4,
                got: 3
            })
        ));
    }
}
