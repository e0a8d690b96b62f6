//! The `edit:` line format of summary edits: one
//! [`Edit`] per line, `insert`/`delete` followed by the transaction's
//! item indices, `replace` followed by the old and new item lists
//! separated by `/`. The `POST /update` body of `andi-serve` carries
//! its edits in this format.
//!
//! ```text
//! edit: insert 1 4
//! edit: delete 0 2
//! edit: replace 0 / 2 5
//! ```

use andi_core::incremental::Edit;

use crate::error::OracleError;

/// Renders one edit as its `edit:` line.
pub fn edit_to_line(edit: &Edit) -> String {
    fn items(list: &[usize]) -> String {
        let words: Vec<String> = list.iter().map(usize::to_string).collect();
        words.join(" ")
    }
    match edit {
        Edit::Insert { items: list } => format!("edit: insert {}", items(list)),
        Edit::Delete { items: list } => format!("edit: delete {}", items(list)),
        Edit::Replace { old, new } => {
            format!("edit: replace {} / {}", items(old), items(new))
        }
    }
}

/// Parses the payload of an `edit:` line (the part after the colon).
///
/// # Errors
///
/// Unknown verbs, malformed item lists.
pub fn parse_edit(spec: &str) -> Result<Edit, OracleError> {
    fn items(words: &str) -> Result<Vec<usize>, OracleError> {
        words
            .split_whitespace()
            .map(|w| {
                w.parse::<usize>()
                    .map_err(|_| OracleError::Parse(format!("bad item index {w:?}")))
            })
            .collect()
    }
    let (verb, rest) = match spec.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r),
        None => (spec, ""),
    };
    match verb {
        "insert" => Ok(Edit::Insert {
            items: items(rest)?,
        }),
        "delete" => Ok(Edit::Delete {
            items: items(rest)?,
        }),
        "replace" => {
            let (old, new) = rest
                .split_once('/')
                .ok_or_else(|| OracleError::Parse("replace needs 'old / new' item lists".into()))?;
            Ok(Edit::Replace {
                old: items(old)?,
                new: items(new)?,
            })
        }
        other => Err(OracleError::Parse(format!("unknown edit verb {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip_through_the_parser() {
        let edits = [
            Edit::Insert { items: vec![1, 4] },
            Edit::Delete { items: vec![0] },
            Edit::Replace {
                old: vec![0, 3],
                new: vec![2, 5, 7],
            },
        ];
        for edit in edits {
            let line = edit_to_line(&edit);
            let spec = line.strip_prefix("edit:").expect("edit: prefix");
            assert_eq!(parse_edit(spec.trim()).expect("parses"), edit, "{line}");
        }
    }

    #[test]
    fn parse_rejects_malformed_edits() {
        for spec in ["explode 1", "insert x", "replace 1 2", "replace 1 / y"] {
            assert!(parse_edit(spec).is_err(), "{spec:?} must be rejected");
        }
    }
}
