//! One writer per artifact: every file the crate writes under `results/`
//! through `write_json`, `write_metrics` or `write_text` is named exactly
//! once under `src/`. Two call sites naming one file means two code paths
//! race to define it — how `fig6c` / `fig6d` once came out of two
//! different runs depending on which binary ran last.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Writer call → the extension it appends to its `name` argument.
const WRITERS: [(&str, &str); 3] =
    [("write_json(", ".json"), ("write_metrics(", ".prom"), ("write_text(", "")];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_results_file_has_one_writer() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    rust_files(&src, &mut files);

    let mut writers: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        let rel = file.strip_prefix(&src).unwrap().display().to_string();
        for (call, extension) in WRITERS {
            for (pos, _) in text.match_indices(call) {
                let before = &text[..pos];
                if before.ends_with("fn ")
                    || before.ends_with(|c: char| c.is_alphanumeric() || c == '_')
                {
                    continue; // the definition, or a longer identifier
                }
                let args = &text[pos + call.len()..];
                let name = args
                    .strip_prefix('"')
                    .and_then(|rest| rest.split_once('"'))
                    .map(|(name, _)| name)
                    .unwrap_or_else(|| panic!("{rel}: `{call}` without a literal name"));
                writers.entry(format!("{name}{extension}")).or_default().push(rel.clone());
            }
        }
    }

    assert!(writers.contains_key("fig6c_bandwidth_scaling.json"), "scanner found nothing");
    let twice: Vec<_> = writers.iter().filter(|(_, sites)| sites.len() > 1).collect();
    assert!(twice.is_empty(), "results files written from more than one call site: {twice:?}");
}
