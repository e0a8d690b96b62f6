//! Summary edits: the delta model behind `POST /update`.
//!
//! The whole risk pipeline consumes one database *summary* — the
//! support profile plus the transaction count `(supports, m)` — and
//! the Figure 5 O-estimate over it is already `O(|D| + n log n)` from
//! scratch. A changing database is therefore modelled as edits to that
//! summary: a [`DeltaBatch`] of transaction inserts/deletes/replaces
//! that [`apply_edits_to_summary`] validates and applies, yielding the
//! edited summary. Every answer is then recomputed for the new summary,
//! whose [`summary_fingerprint`] differs from the old one, so an
//! answer cached under the old summary can never be served for the new
//! one. `crates/core/tests/incremental_delta.rs` property-tests the
//! batch algebra on this function.

use andi_graph::faults;
use andi_graph::hash::{fnv1a_u64, FNV_OFFSET};

use crate::error::{Error, Result};

/// One transaction-level edit, expressed against the database
/// *summary* — the support profile plus transaction count that the
/// whole O-estimate pipeline consumes. Each item list names the
/// distinct items of the affected transaction, strictly increasing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Edit {
    /// Append one transaction containing exactly `items`.
    Insert { items: Vec<usize> },
    /// Remove one transaction containing exactly `items`.
    Delete { items: Vec<usize> },
    /// Rewrite one transaction in place: it contained `old`, it now
    /// contains `new`. Leaves the transaction count unchanged.
    Replace { old: Vec<usize>, new: Vec<usize> },
}

/// An ordered batch of [`Edit`]s, applied left to right.
///
/// Batches form a monoid under concatenation of their `edits`:
/// applying `a ++ b` is equivalent to applying `a` then `b`, and the
/// empty batch is the identity — the algebra the property suite
/// checks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    /// The edits, in application order.
    pub edits: Vec<Edit>,
}

impl DeltaBatch {
    /// Wraps a list of edits.
    pub fn new(edits: Vec<Edit>) -> Self {
        DeltaBatch { edits }
    }

    /// True when the batch carries no edits.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// Number of edits in the batch.
    pub fn len(&self) -> usize {
        self.edits.len()
    }
}

fn check_items(n: usize, index: usize, what: &str, items: &[usize]) -> Result<()> {
    if items.is_empty() {
        return Err(Error::InvalidParameter(format!(
            "edit {index}: {what} transaction must name at least one item"
        )));
    }
    let mut prev: Option<usize> = None;
    for &j in items {
        if j >= n {
            return Err(Error::InvalidParameter(format!(
                "edit {index}: {what} transaction names an item outside the domain"
            )));
        }
        if prev.is_some_and(|p| p >= j) {
            return Err(Error::InvalidParameter(format!(
                "edit {index}: {what} transaction items must be strictly increasing"
            )));
        }
        prev = Some(j);
    }
    Ok(())
}

fn apply_one(supports: &mut [u64], m: &mut u64, index: usize, edit: &Edit) -> Result<()> {
    let n = supports.len();
    match edit {
        Edit::Insert { items } => {
            check_items(n, index, "inserted", items)?;
            *m = m.checked_add(1).ok_or_else(|| {
                Error::InvalidParameter(format!("edit {index}: transaction count overflow"))
            })?;
            for &j in items {
                supports[j] += 1;
            }
        }
        Edit::Delete { items } => {
            check_items(n, index, "deleted", items)?;
            if *m < 2 {
                return Err(Error::InvalidParameter(format!(
                    "edit {index}: the last transaction cannot be deleted"
                )));
            }
            for &j in items {
                if supports[j] == 0 {
                    return Err(Error::InvalidParameter(format!(
                        "edit {index}: deleted transaction names an unsupported item"
                    )));
                }
            }
            // A full-support item sits in every transaction, so the
            // deleted one must name it — otherwise the summary would
            // be unrealizable at m - 1.
            for (j, &s) in supports.iter().enumerate() {
                if s == *m && items.binary_search(&j).is_err() {
                    return Err(Error::InvalidParameter(format!(
                        "edit {index}: deletion would leave a support exceeding the \
                         transaction count"
                    )));
                }
            }
            *m -= 1;
            for &j in items {
                supports[j] -= 1;
            }
        }
        Edit::Replace { old, new } => {
            check_items(n, index, "replaced", old)?;
            check_items(n, index, "replacement", new)?;
            for &j in old {
                if supports[j] == 0 {
                    return Err(Error::InvalidParameter(format!(
                        "edit {index}: replaced transaction names an unsupported item"
                    )));
                }
            }
            for &j in new {
                if old.binary_search(&j).is_err() && supports[j] >= *m {
                    return Err(Error::InvalidParameter(format!(
                        "edit {index}: replacement would push a support past the \
                         transaction count"
                    )));
                }
            }
            for &j in old {
                supports[j] -= 1;
            }
            for &j in new {
                supports[j] += 1;
            }
        }
    }
    Ok(())
}

/// Applies a batch to a database summary, validating every edit
/// against the state it actually sees, and returns the edited
/// `(supports, m)`. The input is never mutated; an error reports the
/// first offending edit and leaves nothing half-applied. The
/// `incremental.delta` fault probe fires once per edit, *before* that
/// edit is staged, so an injected fault can never corrupt a summary.
pub fn apply_edits_to_summary(
    supports: &[u64],
    m: u64,
    batch: &DeltaBatch,
) -> Result<(Vec<u64>, u64)> {
    let mut s = supports.to_vec();
    let mut m2 = m;
    for (i, edit) in batch.edits.iter().enumerate() {
        faults::probe("incremental.delta", i);
        apply_one(&mut s, &mut m2, i, edit)?;
    }
    Ok((s, m2))
}

/// FNV-1a fingerprint of a database summary `(supports, m)`: the
/// service's database key and the round-trip witness of the delta
/// property suite. Matches two summaries iff they are equal, modulo
/// hash collisions.
pub fn summary_fingerprint(supports: &[u64], m: u64) -> u64 {
    let mut h = fnv1a_u64(FNV_OFFSET, m);
    h = fnv1a_u64(h, supports.len() as u64);
    for &s in supports {
        h = fnv1a_u64(h, s);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bigmart() -> (Vec<u64>, u64) {
        (vec![5, 4, 5, 5, 3, 5], 10)
    }

    /// Applies `edits`, asserting the call fails and the caller's
    /// summary is exactly as it was.
    fn assert_rejected(supports: &[u64], m: u64, edits: Vec<Edit>) {
        let before = supports.to_vec();
        let batch = DeltaBatch::new(edits);
        assert!(
            apply_edits_to_summary(supports, m, &batch).is_err(),
            "{batch:?} must be rejected"
        );
        assert_eq!(supports, &before[..]);
    }

    #[test]
    fn insert_appends_one_transaction() {
        let (s, m) = bigmart();
        let batch = DeltaBatch::new(vec![Edit::Insert {
            items: vec![0, 2, 3],
        }]);
        let (s2, m2) = apply_edits_to_summary(&s, m, &batch).expect("valid edit");
        assert_eq!((s2, m2), (vec![6, 4, 6, 6, 3, 5], 11));
    }

    #[test]
    fn delete_must_name_every_full_support_item() {
        // Item 0 sits in every transaction; deleting one without it
        // would leave support 3 over m = 2.
        let supports = vec![3u64, 1];
        assert_rejected(&supports, 3, vec![Edit::Delete { items: vec![1] }]);
        let good = DeltaBatch::new(vec![Edit::Delete { items: vec![0, 1] }]);
        let edited = apply_edits_to_summary(&supports, 3, &good).expect("valid edit");
        assert_eq!(edited, (vec![2, 0], 2));
    }

    #[test]
    fn the_last_transaction_cannot_be_deleted() {
        assert_rejected(&[1, 1], 1, vec![Edit::Delete { items: vec![0, 1] }]);
    }

    #[test]
    fn replace_cannot_push_a_full_item_past_m() {
        // Item 0 is already in all 3 transactions.
        let edit = Edit::Replace {
            old: vec![1],
            new: vec![0],
        };
        assert_rejected(&[3, 1], 3, vec![edit]);
    }

    #[test]
    fn malformed_item_lists_are_rejected_in_every_edit_kind() {
        let (s, m) = bigmart();
        // Empty, duplicate, unsorted, out of the 6-item domain.
        let bad_lists = [vec![], vec![2, 2], vec![3, 1], vec![6]];
        for bad in bad_lists {
            let good = vec![0];
            for edit in [
                Edit::Insert { items: bad.clone() },
                Edit::Delete { items: bad.clone() },
                Edit::Replace {
                    old: bad.clone(),
                    new: good.clone(),
                },
                Edit::Replace {
                    old: good,
                    new: bad.clone(),
                },
            ] {
                assert_rejected(&s, m, vec![edit]);
            }
        }
    }

    #[test]
    fn a_late_invalid_edit_rejects_the_whole_batch() {
        let (s, m) = bigmart();
        let edits = vec![
            Edit::Insert { items: vec![1] },
            Edit::Insert { items: vec![] },
        ];
        assert_rejected(&s, m, edits);
    }

    #[test]
    fn fingerprint_separates_m_length_and_supports() {
        let (s, m) = bigmart();
        let fp = summary_fingerprint(&s, m);
        assert_eq!(fp, summary_fingerprint(&s.clone(), m));
        assert_ne!(fp, summary_fingerprint(&s, m + 1));
        assert_ne!(fp, summary_fingerprint(&s[..5], m));
        let mut moved = s.clone();
        moved[0] -= 1;
        assert_ne!(fp, summary_fingerprint(&moved, m));
    }
}
