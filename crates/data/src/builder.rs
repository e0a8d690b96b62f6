//! Incremental database construction and views.
//!
//! [`DatabaseBuilder`] accumulates transactions one by one (parsers,
//! generators, tests); projection and filtering produce focused
//! sub-databases — e.g. restricting to the items of interest before
//! mining.

use crate::database::Database;
use crate::item::ItemId;
use crate::transaction::Transaction;

/// Builds a [`Database`] incrementally.
/// # Examples
///
/// ```
/// use andi_data::DatabaseBuilder;
///
/// let mut builder = DatabaseBuilder::new(3);
/// builder.add([0, 2]).unwrap().add([1]).unwrap();
/// let db = builder.build().unwrap();
/// assert_eq!(db.supports(), vec![1, 1, 1]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DatabaseBuilder {
    n_items: usize,
    transactions: Vec<Transaction>,
}

impl DatabaseBuilder {
    /// Starts a builder over a dense domain of `n_items`.
    pub fn new(n_items: usize) -> Self {
        DatabaseBuilder {
            n_items,
            transactions: Vec::new(),
        }
    }

    /// Adds one transaction from raw item ids; duplicates are
    /// deduplicated, empty inputs skipped.
    ///
    /// # Errors
    ///
    /// Rejects out-of-domain items by message.
    pub fn add<I: IntoIterator<Item = u32>>(&mut self, items: I) -> Result<&mut Self, String> {
        let ids: Vec<ItemId> = items.into_iter().map(ItemId).collect();
        if let Some(bad) = ids.iter().find(|x| x.index() >= self.n_items) {
            return Err(format!("item {bad} outside domain 0..{}", self.n_items));
        }
        self.transactions.extend(Transaction::new(ids));
        Ok(self)
    }

    /// Number of transactions accumulated so far.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Whether nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Finalizes the database.
    ///
    /// # Errors
    ///
    /// At least one transaction must have been added.
    pub fn build(self) -> Result<Database, String> {
        Database::new(self.n_items, self.transactions)
    }
}

/// Projects a database onto a subset of items: keeps only the
/// selected items in every transaction and renumbers them densely
/// (`kept[new_id] = old_id` is returned alongside). Transactions
/// left empty by the projection are dropped.
///
/// Returns an error if the mask is the wrong size, selects nothing,
/// or no transaction survives.
pub fn project(db: &Database, keep: &[bool]) -> Result<(Database, Vec<u32>), String> {
    if keep.len() != db.n_items() {
        return Err(format!(
            "mask has {} entries for a domain of {}",
            keep.len(),
            db.n_items()
        ));
    }
    let kept: Vec<u32> = (0..db.n_items() as u32)
        .filter(|x| keep[*x as usize])
        .collect();
    if kept.is_empty() {
        return Err("projection selects no items".into());
    }
    let mut new_id = vec![u32::MAX; db.n_items()];
    for (new, &old) in kept.iter().enumerate() {
        new_id[old as usize] = new as u32;
    }
    let transactions: Vec<Transaction> = db
        .transactions()
        .iter()
        .filter_map(|t| {
            Transaction::new(
                t.iter()
                    .filter(|x| keep[x.index()])
                    .map(|x| ItemId(new_id[x.index()])),
            )
        })
        .collect();
    if transactions.is_empty() {
        return Err("no transaction survives the projection".into());
    }
    let projected = Database::new(kept.len(), transactions)?;
    Ok((projected, kept))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::bigmart;

    #[test]
    fn builder_accumulates_and_builds() {
        let mut b = DatabaseBuilder::new(4);
        b.add([0, 2]).unwrap().add([1, 1, 3]).unwrap();
        b.add(std::iter::empty::<u32>()).unwrap();
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        let db = b.build().unwrap();
        assert_eq!(db.n_transactions(), 2);
        assert_eq!(db.supports(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn builder_rejects_out_of_domain() {
        let mut b = DatabaseBuilder::new(2);
        assert!(b.add([0, 5]).is_err());
    }

    #[test]
    fn builder_rejects_empty_database() {
        let b = DatabaseBuilder::new(2);
        assert!(b.is_empty());
        assert!(b.build().is_err());
    }

    #[test]
    fn projection_renumbers_and_preserves_supports() {
        let db = bigmart();
        // Keep items 1, 3, 5 (supports 4, 5, 5).
        let keep = [false, true, false, true, false, true];
        let (proj, kept) = project(&db, &keep).unwrap();
        assert_eq!(kept, vec![1, 3, 5]);
        assert_eq!(proj.n_items(), 3);
        assert_eq!(proj.supports(), vec![4, 5, 5]);
    }

    #[test]
    fn projection_drops_emptied_transactions() {
        let db = bigmart();
        // Item 4 appears in t7, t8, t9; t9 = {4, 5}. Keeping only
        // item 4 drops every transaction without it.
        let keep = [false, false, false, false, true, false];
        let (proj, _) = project(&db, &keep).unwrap();
        assert_eq!(proj.n_transactions(), 3);
        assert_eq!(proj.supports(), vec![3]);
    }

    #[test]
    fn projection_validation() {
        let db = bigmart();
        assert!(project(&db, &[true; 3]).is_err());
        assert!(project(&db, &[false; 6]).is_err());
    }
}
