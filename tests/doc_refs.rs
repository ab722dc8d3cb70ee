//! Docs and scripts cannot name a command or a recorded result that does
//! not exist: every `-p <crate>`, `--bin <name>`, `--example <name>`,
//! `--manifest-path <path>` and `results/<file>` in the files below must
//! resolve in the tree. Nor can the invariant tables drift from the
//! rules the analyzer runs, the methods `clippy.toml` disallows or the
//! lock classes the code takes, or the prose keep naming a path the code
//! deleted.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

const SCANNED: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "results/README.md",
    "scripts/verify.sh",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
];

/// Records the package in `dir` and every binary it builds.
fn package(dir: &Path, packages: &mut BTreeSet<String>, bins: &mut BTreeSet<String>) {
    let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("readable manifest");
    let mut section = "";
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
        } else if let Some(name) = line.strip_prefix("name = ") {
            let name = name.trim_matches('"').to_string();
            if section == "[[bin]]" || (section == "[package]" && dir.join("src/main.rs").is_file())
            {
                bins.insert(name.clone());
            }
            if section == "[package]" {
                packages.insert(name);
            }
        }
    }
    for entry in fs::read_dir(dir.join("src/bin"))
        .into_iter()
        .flatten()
        .flatten()
    {
        if let Some(stem) = entry.path().file_stem().and_then(|s| s.to_str()) {
            bins.insert(stem.to_string());
        }
    }
}

#[test]
fn docs_name_only_commands_and_results_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut packages, mut bins) = (BTreeSet::new(), BTreeSet::new());
    package(root, &mut packages, &mut bins);
    package(&root.join("benchmark"), &mut packages, &mut bins);
    for entry in fs::read_dir(root.join("crates"))
        .expect("crates/")
        .flatten()
    {
        package(&entry.path(), &mut packages, &mut bins);
    }

    let mut dangling = Vec::new();
    for file in SCANNED {
        let text = fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        // Commands wrap across lines in prose, so pair tokens file-wide.
        let tokens: Vec<&str> = text.split_whitespace().collect();
        for pair in tokens.windows(2) {
            let operand = pair[1].trim_matches(|c: char| "`'\",;:().".contains(c));
            let resolves = match pair[0].trim_start_matches('`') {
                "-p" => packages.contains(operand),
                "--bin" => bins.contains(operand),
                "--example" => root
                    .join("examples")
                    .join(format!("{operand}.rs"))
                    .is_file(),
                "--manifest-path" => root.join(operand).is_file(),
                _ => continue,
            };
            if !resolves {
                dangling.push(format!("{file}: {} {operand}", pair[0]));
            }
        }
        for (at, _) in text.match_indices("results/") {
            let name: String = text[at + "results/".len()..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || "_.*-".contains(*c))
                .collect();
            let path = format!("results/{}", name.trim_end_matches('.'));
            if path != "results/" && !root.join(&path).exists() {
                dangling.push(format!("{file}: {path}"));
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "dangling references:\n{}",
        dangling.join("\n")
    );
}

/// `(code, id)` of every rule-table row in `text`: a table line whose
/// first cell opens with a rule code (`| R1 \`id\`: … |` in the README,
/// `| **R1 \`id\`** — … |` in DESIGN).
fn rule_rows(text: &str) -> BTreeSet<(String, String)> {
    text.lines()
        .filter_map(|line| line.strip_prefix("| "))
        .filter_map(|row| {
            let mut words = row
                .split(|c: char| c.is_whitespace() || "|*`".contains(c))
                .filter(|w| !w.is_empty());
            let (code, id) = (words.next()?, words.next()?);
            let digits = code.strip_prefix('R')?.replace('v', "");
            (!digits.is_empty() && digits.chars().all(|c| c.is_ascii_digit()))
                .then(|| (code.to_string(), id.to_string()))
        })
        .collect()
}

#[test]
fn rule_tables_list_exactly_the_rules_the_analyzer_runs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let live: BTreeSet<(String, String)> = wsrc_analyze::RULES
        .iter()
        .map(|(code, id, _)| (code.to_string(), id.to_string()))
        .collect();
    for file in ["README.md", "DESIGN.md"] {
        let text = fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let rows = rule_rows(&text);
        let undocumented: Vec<_> = live.difference(&rows).collect();
        let stale: Vec<_> = rows.difference(&live).collect();
        assert!(
            undocumented.is_empty() && stale.is_empty(),
            "{file}: rules without a row {undocumented:?}, rows without a rule {stale:?}"
        );
    }
}

/// Every `path` in `clippy.toml` is named by a table row that cites
/// `clippy.toml`, and such rows name no other fully qualified path
/// (three or more segments, back-ticked).
#[test]
fn invariant_tables_and_clippy_toml_name_the_same_methods() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let toml = fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml");
    let disallowed: BTreeSet<&str> = toml
        .split("path = \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    assert!(!disallowed.is_empty(), "clippy.toml lists no path");
    for file in ["README.md", "DESIGN.md"] {
        let text = fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let documented: BTreeSet<&str> = text
            .lines()
            .filter(|line| line.starts_with("| ") && line.contains("`clippy.toml`"))
            .flat_map(|row| row.split('`').skip(1).step_by(2))
            .filter(|code| code.matches("::").count() >= 2 && !code.contains(' '))
            .collect();
        assert_eq!(documented, disallowed, "{file} vs clippy.toml");
    }
}

/// Calls `visit` with the text of every `.rs` file under `dir`, build
/// output aside — and `tests` directories too unless `with_tests`.
fn each_source(dir: &Path, with_tests: bool, visit: &mut dyn FnMut(&str)) {
    for path in fs::read_dir(dir).expect("readable dir").flatten() {
        let path = path.path();
        if path.is_dir() {
            if !path.ends_with("target") && (with_tests || !path.ends_with("tests")) {
                each_source(&path, with_tests, visit);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            visit(&fs::read_to_string(&path).expect("readable source"));
        }
    }
}

/// Collects the class of every `lock_class("…", …)` call under `dir`
/// (integration tests aside; the witness's own unit tests take
/// throwaway `tests.*` classes).
fn lock_classes_taken(dir: &Path, taken: &mut BTreeSet<String>) {
    each_source(dir, false, &mut |text| {
        taken.extend(
            text.split("lock_class(\"")
                .skip(1)
                .filter_map(|call| call.split('"').next())
                .filter(|class| !class.starts_with("tests."))
                .map(str::to_string),
        );
    });
}

/// The witness's module docs and DESIGN §7's lock row each list the
/// workspace's lock classes ("N classes: `Owner.field`, …)"); both lists
/// are exactly the classes some `lock_class` call takes.
#[test]
fn lock_class_lists_name_exactly_the_classes_taken() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut taken = BTreeSet::new();
    lock_classes_taken(&root.join("crates"), &mut taken);
    for file in ["crates/obs/src/sync.rs", "DESIGN.md"] {
        let text = fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let list = text
            .split_once(" classes: ")
            .and_then(|(_, rest)| rest.split(')').next())
            .unwrap_or_else(|| panic!("{file} lists no lock classes"));
        let listed: BTreeSet<String> = list
            .split('`')
            .skip(1)
            .step_by(2)
            .map(str::to_string)
            .collect();
        assert_eq!(listed, taken, "{file} (left) against the code (right)");
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The `A::b` paths in a piece of code: each run of identifiers joined
/// by `::`, with the `{…}` group such a run may end in.
fn paths(code: &str) -> Vec<&str> {
    let mut found = Vec::new();
    let mut rest = code;
    while let Some(at) = rest.find("::") {
        let start = rest[..at]
            .rfind(|c| !is_ident_char(c))
            .map_or(0, |before| before + 1);
        let tail = &rest[at..];
        let mut end = tail
            .find(|c| !is_ident_char(c) && c != ':')
            .unwrap_or(tail.len());
        if tail[..end].ends_with("::") && tail[end..].starts_with('{') {
            end += tail[end..].find('}').unwrap_or(tail.len() - end - 1) + 1;
        }
        found.push(&rest[start..at + end]);
        rest = &rest[at + end..];
    }
    found
}

/// Every back-ticked `A::b` path in README.md and DESIGN.md, inline or
/// in a fenced block, is made of identifiers that occur in the sources:
/// when the code deletes an item, the prose that names it fails here.
#[test]
fn back_ticked_paths_are_made_of_identifiers_the_sources_contain() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut identifiers = BTreeSet::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        each_source(&root.join(dir), true, &mut |text| {
            identifiers.extend(
                text.split(|c| !is_ident_char(c))
                    .filter(|word| !word.is_empty())
                    .map(str::to_string),
            );
        });
    }
    let mut stale = Vec::new();
    for file in ["README.md", "DESIGN.md"] {
        let text = fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        // Runs of back-ticks delimit code, inline and fenced alike.
        let code = text
            .split('`')
            .filter(|piece| !piece.is_empty())
            .skip(1)
            .step_by(2);
        for path in code.flat_map(paths) {
            let unknown: Vec<&str> = path
                .split(|c| !is_ident_char(c))
                .filter(|word| !word.is_empty() && !identifiers.contains(*word))
                .collect();
            if !unknown.is_empty() {
                stale.push(format!("{file}: `{path}` names {unknown:?}"));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "paths the sources no longer contain:\n{}",
        stale.join("\n")
    );
}
