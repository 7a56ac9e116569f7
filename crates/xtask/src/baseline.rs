//! The checked-in violation baseline (`crates/xtask/baseline.toml`).
//!
//! The baseline is a ratchet: it records, per `rule:file` key, how many
//! violations existed when it was last regenerated. The lint fails only when
//! a count *exceeds* its baselined value, so pre-existing debt doesn't block
//! CI but every new violation does — and regenerating with
//! `--update-baseline` after paying debt down locks in the improvement.
//!
//! The file is a restricted TOML subset written and parsed by hand (the
//! workspace intentionally has no TOML dependency): a `[violations]` table
//! of `"rule:path" = count` entries, sorted by key.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Loads the baseline; a missing file is an empty baseline.
pub fn load(path: &Path) -> io::Result<BTreeMap<String, u64>> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse(&text, &path.display().to_string()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(BTreeMap::new()),
        Err(e) => Err(e),
    }
}

/// Parses a `"key" = count` table from `origin`'s text.
pub fn parse(text: &str, origin: &str) -> io::Result<BTreeMap<String, u64>> {
    let mut map = BTreeMap::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        // Section headers are skipped, not interpreted: the same restricted
        // format serves both `[violations]` (baseline) and `[ranks]`
        // (lockranks.toml), each file holding exactly one table.
        if line.is_empty() || line.starts_with('#') || line.starts_with('[') {
            continue;
        }
        let parse_err = || {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{origin}:{}: malformed baseline line: {raw}", idx + 1),
            )
        };
        let (key, value) = line.split_once('=').ok_or_else(parse_err)?;
        let key = key.trim().trim_matches('"');
        let count: u64 = value.trim().parse().map_err(|_| parse_err())?;
        map.insert(key.to_owned(), count);
    }
    Ok(map)
}

/// Writes the baseline, sorted, with a regeneration header.
pub fn save(path: &Path, counts: &BTreeMap<String, u64>) -> io::Result<()> {
    save_with_header(
        path,
        counts,
        "# Violation baseline for `cargo xtask lint` — a ratchet, not an allowlist.\n\
         # CI fails on counts above these; regenerate with `cargo xtask lint --update-baseline`\n\
         # after reducing debt so the ratchet only ever tightens.\n",
    )
}

/// [`save`] with a caller-supplied comment header (the contract baselines
/// share the format but regenerate through different commands).
pub fn save_with_header(
    path: &Path,
    counts: &BTreeMap<String, u64>,
    header: &str,
) -> io::Result<()> {
    let mut out = String::from(header);
    out.push_str("\n[violations]\n");
    for (key, count) in counts {
        if *count > 0 {
            out.push_str(&format!("\"{key}\" = {count}\n"));
        }
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_disk_format() {
        let dir = std::env::temp_dir().join("xtask-baseline-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.toml");
        let mut counts = BTreeMap::new();
        counts.insert("no-panic:crates/core/src/lib.rs".to_owned(), 3u64);
        counts.insert("no-as-cast:crates/net/src/lib.rs".to_owned(), 12u64);
        counts.insert("empty:crates/x.rs".to_owned(), 0u64);
        save(&path, &counts).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.get("no-panic:crates/core/src/lib.rs"), Some(&3));
        assert_eq!(loaded.get("no-as-cast:crates/net/src/lib.rs"), Some(&12));
        assert!(!loaded.contains_key("empty:crates/x.rs"), "zero counts are dropped");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_empty() {
        let loaded = load(Path::new("/nonexistent/baseline.toml")).unwrap();
        assert!(loaded.is_empty());
    }

    #[test]
    fn malformed_line_is_an_error() {
        let dir = std::env::temp_dir().join("xtask-baseline-test-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.toml");
        std::fs::write(&path, "[violations]\nnot a valid line\n").unwrap();
        assert!(load(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
