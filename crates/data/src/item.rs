//! Item identifiers and the item domain.
//!
//! The paper works with a universe of items `I` with `|I| = n`
//! (Section 2.1). We represent the domain densely: items are integers
//! `0..n` wrapped in the [`ItemId`] newtype. The *anonymized* domain
//! `J` is kept type-distinct via [`AnonItemId`] so that original items
//! and anonymized items can never be confused at compile time — the
//! core crate's anonymization mapping is a bijection between the two.

use std::fmt;

/// Identifier of an item in the *original* domain `I`.
///
/// Dense: valid ids are `0..n` for a domain of size `n`. The `u32`
/// payload keeps item-heavy structures (transactions, tid-lists)
/// compact; the paper's largest benchmark domain (RETAIL, 16 470
/// items) fits with room to spare.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemId(pub u32);

/// Identifier of an item in the *anonymized* domain `J`.
///
/// The paper writes `x'` for the anonymized counterpart of item `x`.
/// Values are again dense `0..n`, but an `AnonItemId`'s numeric value
/// carries no relation to the original item it masks — that relation
/// is exactly what the `AnonymizationMapping` hides.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AnonItemId(pub u32);

impl ItemId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl AnonItemId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for AnonItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The paper's prime notation: anonymized item x is written x'.
        write!(f, "a{}'", self.0)
    }
}

impl fmt::Display for AnonItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'", self.0)
    }
}

impl From<u32> for ItemId {
    fn from(v: u32) -> Self {
        ItemId(v)
    }
}

impl From<u32> for AnonItemId {
    fn from(v: u32) -> Self {
        AnonItemId(v)
    }
}

/// An iterator over the dense item domain `0..n`.
pub fn domain(n: usize) -> impl ExactSizeIterator<Item = ItemId> {
    (0..n as u32).map(ItemId)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_id_roundtrip() {
        let x = ItemId(42);
        assert_eq!(x.index(), 42);
        assert_eq!(ItemId::from(42u32), x);
        assert_eq!(format!("{x}"), "42");
        assert_eq!(format!("{x:?}"), "i42");
    }

    #[test]
    fn anon_id_display_uses_prime() {
        let x = AnonItemId(7);
        assert_eq!(format!("{x}"), "7'");
        assert_eq!(format!("{x:?}"), "a7'");
    }

    #[test]
    fn domain_is_dense_and_sized() {
        let d: Vec<ItemId> = domain(4).collect();
        assert_eq!(d, vec![ItemId(0), ItemId(1), ItemId(2), ItemId(3)]);
        assert_eq!(domain(100).len(), 100);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(ItemId(3) < ItemId(10));
        assert!(AnonItemId(0) < AnonItemId(1));
    }
}
