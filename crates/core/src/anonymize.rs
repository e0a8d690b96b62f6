//! Anonymization mappings (Section 2.1).
//!
//! An anonymization mapping is a bijection from the original domain
//! `I` to a disjoint anonymized domain `J`, applied uniformly across
//! every transaction. We represent `J` densely as well, so the
//! bijection is a permutation of `0..n` with typed endpoints: item
//! `x` becomes [`AnonItemId`] `mapping.anonymize(x)`.

use andi_data::{AnonItemId, Database, ItemId};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::error::{Error, Result};

/// A bijection `I -> J` plus its inverse.
///
/// # Examples
///
/// ```
/// use andi_core::AnonymizationMapping;
/// use andi_data::{bigmart, ItemId};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let db = bigmart();
/// let mut rng = StdRng::seed_from_u64(7);
/// let mapping = AnonymizationMapping::random(db.n_items(), &mut rng);
/// let released = mapping.anonymize_database(&db).unwrap();
///
/// // Frequencies travel with the items...
/// let x = ItemId(2);
/// let xp = mapping.anonymize(x);
/// assert_eq!(db.supports()[x.index()], released.supports()[xp.index()]);
/// // ...and the inverse recovers the original exactly.
/// let back = released.relabel(mapping.backward()).unwrap();
/// assert_eq!(back.supports(), db.supports());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnonymizationMapping {
    /// `forward[x]` is the anonymized id of original item `x`.
    forward: Vec<u32>,
    /// `backward[x']` is the original id of anonymized item `x'`.
    backward: Vec<u32>,
}

impl AnonymizationMapping {
    /// Builds a mapping from an explicit permutation
    /// (`forward[x] = x'`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Data`] if `forward` is not a permutation of
    /// `0..n`.
    pub fn from_permutation(forward: Vec<u32>) -> Result<Self> {
        let n = forward.len();
        let mut backward = vec![u32::MAX; n];
        for (x, &xp) in forward.iter().enumerate() {
            let xp = xp as usize;
            if xp >= n || backward[xp] != u32::MAX {
                return Err(Error::Data(
                    "anonymization mapping is not a permutation".into(),
                ));
            }
            backward[xp] = x as u32;
        }
        Ok(AnonymizationMapping { forward, backward })
    }

    /// Draws a uniformly random anonymization of an `n`-item domain.
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let mut forward: Vec<u32> = (0..n as u32).collect();
        forward.shuffle(rng);
        // andi::allow(lib-unwrap) — shuffling 0..n is a permutation by construction
        Self::from_permutation(forward).expect("a shuffle is a permutation")
    }

    /// The identity mapping (useful for aligned analyses and tests).
    pub fn identity(n: usize) -> Self {
        AnonymizationMapping {
            forward: (0..n as u32).collect(),
            backward: (0..n as u32).collect(),
        }
    }

    /// Domain size.
    pub fn n_items(&self) -> usize {
        self.forward.len()
    }

    /// The anonymized id of original item `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn anonymize(&self, x: ItemId) -> AnonItemId {
        AnonItemId(self.forward[x.index()])
    }

    /// The raw forward permutation.
    pub fn forward(&self) -> &[u32] {
        &self.forward
    }

    /// The raw backward permutation: `backward()[x']` is the original
    /// id behind anonymized item `x'` (the secret the hacker is after).
    pub fn backward(&self) -> &[u32] {
        &self.backward
    }

    /// Applies the mapping to every transaction of `db`, producing
    /// the anonymized database the owner would release.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DomainMismatch`] if sizes disagree.
    pub fn anonymize_database(&self, db: &Database) -> Result<Database> {
        if db.n_items() != self.n_items() {
            return Err(Error::DomainMismatch {
                expected: self.n_items(),
                got: db.n_items(),
            });
        }
        db.relabel(&self.forward).map_err(Error::Data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use andi_data::bigmart;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_roundtrip() {
        let m = AnonymizationMapping::identity(4);
        assert_eq!(m.anonymize(ItemId(2)), AnonItemId(2));
        assert_eq!(m.backward()[3], 3);
        assert_eq!(m.n_items(), 4);
    }

    #[test]
    fn explicit_permutation() {
        let m = AnonymizationMapping::from_permutation(vec![2, 0, 1]).unwrap();
        assert_eq!(m.anonymize(ItemId(0)), AnonItemId(2));
        assert_eq!(m.backward()[2], 0);
        assert_eq!(m.backward()[0], 1);
    }

    #[test]
    fn rejects_non_permutations() {
        assert!(AnonymizationMapping::from_permutation(vec![0, 0]).is_err());
        assert!(AnonymizationMapping::from_permutation(vec![0, 5]).is_err());
    }

    #[test]
    fn random_is_a_bijection() {
        let mut rng = StdRng::seed_from_u64(71);
        let m = AnonymizationMapping::random(100, &mut rng);
        for x in 0..100u32 {
            assert_eq!(m.backward()[m.anonymize(ItemId(x)).index()], x);
        }
    }

    #[test]
    fn database_anonymization_preserves_frequency_profile() {
        let db = bigmart();
        let mut rng = StdRng::seed_from_u64(72);
        let m = AnonymizationMapping::random(db.n_items(), &mut rng);
        let anon = m.anonymize_database(&db).unwrap();
        // Frequencies travel with the items: support of x' equals
        // support of x.
        let s = db.supports();
        let sa = anon.supports();
        for (x, &sx) in s.iter().enumerate() {
            let xp = m.anonymize(ItemId(x as u32));
            assert_eq!(sx, sa[xp.index()], "item {x}");
        }
        // And the multiset of supports is untouched (anonymization
        // does not perturb data characteristics).
        let mut a = s.clone();
        let mut b = sa.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn backward_relabel_is_inverse() {
        let db = bigmart();
        let mut rng = StdRng::seed_from_u64(73);
        let m = AnonymizationMapping::random(db.n_items(), &mut rng);
        let anon = m.anonymize_database(&db).unwrap();
        let back = anon.relabel(m.backward()).unwrap();
        assert_eq!(back.supports(), db.supports());
        for (a, b) in back.transactions().iter().zip(db.transactions()) {
            assert_eq!(a.items(), b.items());
        }
    }

    #[test]
    fn size_mismatch_is_reported() {
        let db = bigmart(); // 6 items
        let m = AnonymizationMapping::identity(4);
        assert!(matches!(
            m.anonymize_database(&db),
            Err(Error::DomainMismatch {
                expected: 4,
                got: 6
            })
        ));
    }
}
