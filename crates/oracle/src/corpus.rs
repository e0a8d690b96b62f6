//! The committed regression corpus: failing instances minimized by
//! the shrinker plus the paper's hand-written cases, stored as text
//! files under `crates/oracle/corpus/` and replayed as ordinary
//! tests.

use std::fs;
use std::path::{Path, PathBuf};

use crate::error::OracleError;
use crate::instance::Instance;

/// The committed corpus directory of this crate.
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Derives a stable corpus file name from an instance label:
/// lower-cased, with every non-alphanumeric run collapsed to `-`.
pub fn file_name_for(label: &str) -> String {
    let mut out = String::with_capacity(label.len() + 4);
    let mut dash = false;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            dash = false;
        } else if !dash && !out.is_empty() {
            out.push('-');
            dash = true;
        }
    }
    while out.ends_with('-') {
        out.pop();
    }
    if out.is_empty() {
        out.push_str("instance");
    }
    out.push_str(".txt");
    out
}

/// Writes one instance into `dir`, returning the path.
pub fn save(dir: &Path, inst: &Instance) -> Result<PathBuf, OracleError> {
    fs::create_dir_all(dir).map_err(|e| OracleError::Io(format!("{}: {e}", dir.display())))?;
    let path = dir.join(file_name_for(&inst.label));
    fs::write(&path, inst.to_text())
        .map_err(|e| OracleError::Io(format!("{}: {e}", path.display())))?;
    Ok(path)
}

/// Loads one instance file.
pub fn load(path: &Path) -> Result<Instance, OracleError> {
    let text = fs::read_to_string(path)
        .map_err(|e| OracleError::Io(format!("{}: {e}", path.display())))?;
    Instance::from_text(&text).map_err(|e| OracleError::Parse(format!("{}: {e}", path.display())))
}

/// Loads every `.txt` instance in `dir`, sorted by file name so the
/// replay order is deterministic.
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, Instance)>, OracleError> {
    let entries =
        fs::read_dir(dir).map_err(|e| OracleError::Io(format!("{}: {e}", dir.display())))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| OracleError::Io(e.to_string()))?;
        let path = entry.path();
        if path.extension().is_some_and(|x| x == "txt") {
            paths.push(path);
        }
    }
    paths.sort();
    paths
        .into_iter()
        .map(|p| load(&p).map(|inst| (p, inst)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases;

    #[test]
    fn file_names_are_stable_and_safe() {
        assert_eq!(file_name_for("paper:bigmart-h"), "paper-bigmart-h.txt");
        assert_eq!(
            file_name_for("gen seed=7 index=3"),
            "gen-seed-7-index-3.txt"
        );
        assert_eq!(file_name_for("::"), "instance.txt");
    }

    #[test]
    fn save_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("andi-oracle-corpus-{}", std::process::id()));
        let inst = cases::bigmart_h();
        let path = save(&dir, &inst).unwrap();
        assert_eq!(load(&path).unwrap(), inst);
        let all = load_dir(&dir).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].1, inst);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn committed_corpus_contains_the_paper_cases() {
        let dir = corpus_dir();
        let all = load_dir(&dir).expect("committed corpus must load");
        for case in cases::all().unwrap() {
            assert!(
                all.iter().any(|(_, inst)| *inst == case),
                "{} missing from the committed corpus",
                case.label
            );
        }
    }
}
