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
//! of `"rule:path" = count` entries, sorted by key; a key given twice is an
//! error, not a silent overwrite. It is the only ratchet: the contract
//! checks of `cargo xtask analyze` have their contract file as the one
//! allowlist, and `lockranks.toml` is read by `cad3_lockrank::parse`.

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
        // The one `[violations]` header is skipped, not interpreted.
        if line.is_empty() || line.starts_with('#') || line.starts_with('[') {
            continue;
        }
        let err = |what: String| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{origin}:{}: {what}", idx + 1))
        };
        let parse_err = || err(format!("malformed baseline line: {raw}"));
        let (key, value) = line.split_once('=').ok_or_else(parse_err)?;
        let key = key.trim().trim_matches('"');
        let count: u64 = value.trim().parse().map_err(|_| parse_err())?;
        if map.insert(key.to_owned(), count).is_some() {
            return Err(err(format!("duplicate key {key}")));
        }
    }
    Ok(map)
}

/// Writes the baseline, sorted, with a regeneration header.
pub fn save(path: &Path, counts: &BTreeMap<String, u64>) -> io::Result<()> {
    let mut out = String::from(
        "# Violation baseline for `cargo xtask lint` — a ratchet, not an allowlist.\n\
         # CI fails on counts above these; regenerate with `cargo xtask lint --update-baseline`\n\
         # after reducing debt so the ratchet only ever tightens.\n",
    );
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

    /// A key given twice is rejected, as `lockranks.toml` rejects a site
    /// given twice: neither count may silently win.
    #[test]
    fn duplicate_key_is_an_error() {
        let text =
            "[violations]\n\"no-panic:a.rs\" = 3\n\"no-as-cast:a.rs\" = 1\n\"no-panic:a.rs\" = 5\n";
        let err = parse(text, "baseline.toml").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "baseline.toml:4: duplicate key no-panic:a.rs");
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
