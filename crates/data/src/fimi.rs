//! FIMI `.dat` format I/O.
//!
//! The paper's benchmarks come from the FIMI repository
//! (`http://fimi.cs.helsinki.fi/fimi03/`), whose datasets are plain
//! text: one transaction per line, items as whitespace-separated
//! non-negative integers. This module reads and writes that format so
//! the real CONNECT/PUMSB/ACCIDENTS/RETAIL/MUSHROOM/CHESS files can be
//! dropped in when available; item ids are compacted to a dense
//! `0..n` domain on read (FIMI files routinely skip ids).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::database::Database;
use crate::item::ItemId;
use crate::transaction::Transaction;

/// Result of parsing a FIMI file: the dense database plus the map
/// back from dense ids to the raw ids found in the file.
#[derive(Clone, Debug)]
pub struct FimiDataset {
    /// The parsed database over the dense domain.
    pub database: Database,
    /// `raw_ids[x]` is the original file id of dense item `x`.
    pub raw_ids: Vec<u64>,
}

/// Parses FIMI-format text from any reader.
///
/// Blank lines are skipped; duplicate items within a line are
/// deduplicated (some FIMI exports contain them).
///
/// # Errors
///
/// Returns a message naming the offending line for unparsable tokens
/// or I/O failures, and an error if the input holds no transactions.
/// # Examples
///
/// ```
/// use andi_data::fimi::read_fimi;
///
/// let ds = read_fimi("1 2 3\n2 3\n".as_bytes()).unwrap();
/// assert_eq!(ds.database.n_transactions(), 2);
/// assert_eq!(ds.raw_ids, vec![1, 2, 3]); // ids compacted densely
/// ```
pub fn read_fimi<R: Read>(reader: R) -> Result<FimiDataset, String> {
    let buf = BufReader::new(reader);
    let mut raw_transactions: Vec<Vec<u64>> = Vec::new();
    for (lineno, line) in buf.lines().enumerate() {
        let line = line.map_err(|e| format!("I/O error on line {}: {e}", lineno + 1))?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let mut items = Vec::new();
        for tok in trimmed.split_ascii_whitespace() {
            // The error must not echo file contents: input lines are
            // transactions, i.e. the data this crate treats as
            // sensitive. Report position and length only.
            let id: u64 = tok.parse().map_err(|_| {
                format!(
                    "line {}: invalid item token ({} bytes, expected a non-negative integer)",
                    lineno + 1,
                    tok.len()
                )
            })?;
            items.push(id);
        }
        raw_transactions.push(items);
    }
    if raw_transactions.is_empty() {
        return Err("FIMI input contains no transactions".into());
    }

    // Compact the observed raw ids to a dense domain, in increasing
    // raw-id order so that dense ordering mirrors raw ordering.
    let mut dense: BTreeMap<u64, u32> = BTreeMap::new();
    for t in &raw_transactions {
        for &id in t {
            let next = dense.len() as u32;
            dense.entry(id).or_insert(next);
        }
    }
    // BTreeMap iteration is ordered by raw id, but insertion order
    // assigned dense ids first-come; reassign dense ids by raw order
    // for determinism.
    let mut raw_ids: Vec<u64> = dense.keys().copied().collect();
    raw_ids.sort_unstable();
    let index: BTreeMap<u64, u32> = raw_ids
        .iter()
        .enumerate()
        .map(|(i, &raw)| (raw, i as u32))
        .collect();

    let mut transactions = Vec::with_capacity(raw_transactions.len());
    for (lineno, t) in raw_transactions.into_iter().enumerate() {
        let tx = Transaction::new(t.into_iter().map(|id| ItemId(index[&id])))
            .ok_or_else(|| format!("line {}: empty transaction", lineno + 1))?;
        transactions.push(tx);
    }
    let database = Database::new(raw_ids.len(), transactions)?;
    Ok(FimiDataset { database, raw_ids })
}

/// Reads a FIMI `.dat` file from disk.
///
/// # Errors
///
/// See [`read_fimi`]; file-open failures are reported with the path.
pub fn read_fimi_file<P: AsRef<Path>>(path: P) -> Result<FimiDataset, String> {
    let path = path.as_ref();
    let f =
        std::fs::File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    read_fimi(f)
}

/// Writes a database in FIMI format (dense ids) to any writer.
///
/// # Errors
///
/// Propagates I/O errors as strings.
// andi::declassify(FIMI export is the sanctioned release path: callers invoke it only on databases already cleared for disclosure)
pub fn write_fimi<W: Write>(db: &Database, mut writer: W) -> Result<(), String> {
    let mut line = String::new();
    for t in db.transactions() {
        line.clear();
        for (i, item) in t.iter().enumerate() {
            if i > 0 {
                line.push(' ');
            }
            line.push_str(&item.0.to_string());
        }
        line.push('\n');
        writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("write error: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::bigmart;

    #[test]
    fn parses_simple_input() {
        let input = "1 2 3\n2 3\n\n3 1\n";
        let ds = read_fimi(input.as_bytes()).unwrap();
        assert_eq!(ds.database.n_items(), 3);
        assert_eq!(ds.database.n_transactions(), 3);
        assert_eq!(ds.raw_ids, vec![1, 2, 3]);
        // Supports: raw 1 -> 2, raw 2 -> 2, raw 3 -> 3.
        assert_eq!(ds.database.supports(), vec![2, 2, 3]);
    }

    #[test]
    fn compacts_sparse_ids_in_raw_order() {
        let input = "100 7\n7 2000\n";
        let ds = read_fimi(input.as_bytes()).unwrap();
        assert_eq!(ds.raw_ids, vec![7, 100, 2000]);
        // Dense item 0 is raw 7 with support 2.
        assert_eq!(ds.database.supports(), vec![2, 1, 1]);
    }

    #[test]
    fn rejects_garbage_tokens() {
        let err = read_fimi("1 2\n3 x\n".as_bytes()).unwrap_err();
        // Pinned sanitized text: the message names the position but
        // must never echo the offending token (raw file contents).
        assert_eq!(
            err,
            "line 2: invalid item token (1 bytes, expected a non-negative integer)"
        );
        assert!(
            !err.contains("\"x\""),
            "token contents must not leak: {err}"
        );
    }

    #[test]
    fn rejects_empty_input() {
        assert!(read_fimi("".as_bytes()).is_err());
        assert!(read_fimi("\n\n".as_bytes()).is_err());
    }

    #[test]
    fn dedups_repeated_items_in_line() {
        let ds = read_fimi("5 5 5\n".as_bytes()).unwrap();
        assert_eq!(ds.database.transactions()[0].len(), 1);
    }

    #[test]
    fn roundtrip_preserves_database() {
        let db = bigmart();
        let mut out = Vec::new();
        write_fimi(&db, &mut out).unwrap();
        let back = read_fimi(out.as_slice()).unwrap();
        assert_eq!(back.database.n_items(), db.n_items());
        assert_eq!(back.database.n_transactions(), db.n_transactions());
        assert_eq!(back.database.supports(), db.supports());
        for (a, b) in back
            .database
            .transactions()
            .iter()
            .zip(db.transactions().iter())
        {
            assert_eq!(a.items(), b.items());
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("andi-fimi-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bigmart.dat");
        let db = bigmart();
        let mut buf = Vec::new();
        write_fimi(&db, &mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();
        let ds = read_fimi_file(&path).unwrap();
        assert_eq!(ds.database.supports(), db.supports());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_reported_with_path() {
        let err = read_fimi_file("/nonexistent/nowhere.dat").unwrap_err();
        assert!(err.contains("/nonexistent/nowhere.dat"));
    }
}
