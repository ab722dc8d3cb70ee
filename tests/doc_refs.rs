//! Docs and scripts cannot name a command or a recorded result that does
//! not exist: every `-p <crate>`, `--bin <name>`, `--example <name>`,
//! `--manifest-path <path>` and `results/<file>` in the files below must
//! resolve in the tree. Nor can the invariant tables drift from the
//! paths `clippy.toml` disallows or the lock classes the code takes, or
//! the prose keep naming a path the code deleted. R2, the one invariant
//! no lint can name, is checked here too.

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

/// Every `path` in `clippy.toml`, method or type, is named by a table
/// row that cites `clippy.toml`, and such rows name no other fully
/// qualified path (three or more segments, back-ticked; `a::b::{C, D}`
/// names `a::b::C` and `a::b::D`).
#[test]
fn invariant_tables_and_clippy_toml_name_the_same_paths() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let toml = fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml");
    let disallowed: BTreeSet<String> = toml
        .split("path = \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_string)
        .collect();
    assert!(!disallowed.is_empty(), "clippy.toml lists no path");
    for file in ["README.md", "DESIGN.md"] {
        let text = fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let documented: BTreeSet<String> = text
            .lines()
            .filter(|line| line.starts_with("| ") && line.contains("`clippy.toml`"))
            .flat_map(|row| row.split('`').skip(1).step_by(2))
            .flat_map(|code| match code.split_once("::{") {
                Some((prefix, group)) => group
                    .trim_end_matches('}')
                    .split(", ")
                    .map(|name| format!("{prefix}::{name}"))
                    .collect(),
                None => vec![code.to_string()],
            })
            .filter(|path| path.matches("::").count() >= 2 && !path.contains(' '))
            .collect();
        assert_eq!(documented, disallowed, "{file} vs clippy.toml");
    }
}

/// Calls `visit` with the path and text of every `.rs` file under `dir`,
/// build output aside — and `tests` directories too unless `with_tests`.
fn each_source(dir: &Path, with_tests: bool, visit: &mut dyn FnMut(&Path, &str)) {
    for path in fs::read_dir(dir).expect("readable dir").flatten() {
        let path = path.path();
        if path.is_dir() {
            if !path.ends_with("target") && (with_tests || !path.ends_with("tests")) {
                each_source(&path, with_tests, visit);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            visit(&path, &fs::read_to_string(&path).expect("readable source"));
        }
    }
}

/// Collects the class of every `lock_class("…", …)` call under `dir`
/// (integration tests aside; the witness's own unit tests take
/// throwaway `tests.*` classes).
fn lock_classes_taken(dir: &Path, taken: &mut BTreeSet<String>) {
    each_source(dir, false, &mut |_, text| {
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

/// R2: `Ordering::Relaxed` orders nothing across threads, so it is only
/// for the monotonic counters in `crates/obs/src/metrics.rs`, read for
/// exposition alone. Clippy cannot disallow an enum variant, hence this
/// check of the product sources, comments and `#[cfg(test)]` tails aside.
#[test]
fn relaxed_ordering_appears_only_in_the_metric_counters() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    for dir in ["crates", "src"] {
        each_source(&root.join(dir), false, &mut |path, text| {
            if path.ends_with("crates/obs/src/metrics.rs") {
                return;
            }
            let product = text.split("\n#[cfg(test)]").next().unwrap_or(text);
            for (at, line) in product.lines().enumerate() {
                let code = line.split("//").next().unwrap_or(line);
                if code
                    .split(|c| !is_ident_char(c))
                    .any(|word| word == "Relaxed")
                {
                    found.push(format!("{}:{}: {}", path.display(), at + 1, line.trim()));
                }
            }
        });
    }
    assert!(
        found.is_empty(),
        "Relaxed outside the metric counters:\n{}",
        found.join("\n")
    );
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

/// Every identifier in the sources (`crates`, `src`, `tests`,
/// `examples`, `benchmark/src`) and in `clippy.toml`, whose std types
/// clippy resolves.
fn source_identifiers(root: &Path) -> BTreeSet<String> {
    let mut identifiers = BTreeSet::new();
    let mut add = |_: &Path, text: &str| {
        identifiers.extend(
            text.split(|c| !is_ident_char(c))
                .filter(|word| !word.is_empty())
                .map(str::to_string),
        )
    };
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        each_source(&root.join(dir), true, &mut add);
    }
    add(
        Path::new("clippy.toml"),
        &fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml"),
    );
    identifiers
}

/// The back-ticked pieces of a Markdown text, inline and fenced alike:
/// runs of back-ticks delimit code.
fn back_ticked(text: &str) -> impl Iterator<Item = &str> {
    text.split('`')
        .filter(|piece| !piece.is_empty())
        .skip(1)
        .step_by(2)
}

/// Every back-ticked `A::b` path in README.md and DESIGN.md, inline or
/// in a fenced block, is made of identifiers that occur in the sources
/// or `clippy.toml`: when the code deletes an item, the prose that names
/// it fails here.
#[test]
fn back_ticked_paths_are_made_of_identifiers_the_sources_contain() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let identifiers = source_identifiers(root);
    let mut stale = Vec::new();
    for file in ["README.md", "DESIGN.md"] {
        let text = fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        for path in back_ticked(&text).flat_map(paths) {
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

/// Every back-ticked word starting `wsrc_` in README.md and DESIGN.md —
/// a metric family, a gauge, a crate — occurs as a word in the sources:
/// a deleted family cannot go on being documented.
#[test]
fn back_ticked_wsrc_names_occur_in_the_sources() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let identifiers = source_identifiers(root);
    let mut stale = Vec::new();
    for file in ["README.md", "DESIGN.md"] {
        let text = fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        for word in back_ticked(&text).flat_map(|code| code.split(|c| !is_ident_char(c))) {
            if word.starts_with("wsrc_") && !identifiers.contains(word) {
                stale.push(format!("{file}: `{word}`"));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "names the sources no longer contain:\n{}",
        stale.join("\n")
    );
}

/// Whether `name` matches `pattern`, in which each `*` stands for any
/// non-empty run.
fn glob(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((head, tail)) => {
            name.starts_with(head)
                && (head.len() + 1..=name.len()).any(|at| glob(tail, &name[at..]))
        }
    }
}

/// Every back-ticked benchmark row (`core.lookup_hit_us`: a layer that
/// `BENCHMARK.json` names, a dot, the rest) in README.md and DESIGN.md
/// is a name in `BENCHMARK.json`. A row may stand for several: `<repr>`
/// and `*` match any run, `{a,b}` either word.
#[test]
fn back_ticked_benchmark_rows_are_names_in_benchmark_json() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let json = fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let names: Vec<&str> = json
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    let layers: BTreeSet<&str> = names
        .iter()
        .filter_map(|name| Some(name.split_once('.')?.0))
        .collect();
    let mut stale = Vec::new();
    for file in ["README.md", "DESIGN.md"] {
        let text = fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let rows = back_ticked(&text).filter(|code| {
            code.split_once('.')
                .is_some_and(|(l, _)| layers.contains(l))
        });
        for code in rows {
            let mut pattern: String = code.split_whitespace().collect();
            while let Some((head, rest)) = pattern.split_once('<') {
                let tail = rest.split_once('>').map_or("", |(_, tail)| tail);
                pattern = format!("{head}*{tail}");
            }
            let mut patterns = vec![pattern];
            while let Some(at) = patterns.iter().position(|p| p.contains('{')) {
                let p = patterns.swap_remove(at);
                let (head, rest) = p.split_once('{').expect("a group");
                let (group, tail) = rest.split_once('}').unwrap_or((rest, ""));
                patterns.extend(group.split(',').map(|word| format!("{head}{word}{tail}")));
            }
            for pattern in patterns {
                if !names.iter().any(|name| glob(&pattern, name)) {
                    stale.push(format!("{file}: `{pattern}`"));
                }
            }
        }
    }
    assert!(
        stale.is_empty(),
        "rows BENCHMARK.json does not name:\n{}",
        stale.join("\n")
    );
}

/// The bytes README, DESIGN, EXPERIMENTS, CHANGES, `results/README.md`
/// and the verify skill — the Markdown code changes write — may hold
/// together; ROADMAP, PAPER*, SNIPPETS and the task files are not
/// counted. Prose grows only by raising this number in the same diff.
const PROSE_BUDGET: usize = 223_383;

/// Every `PR n:` entry of CHANGES.md is at most 1 536 B; the detail
/// belongs in a test, a row or EXPERIMENTS.md.
#[test]
fn prose_stays_within_its_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |file| fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    let prose = [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "CHANGES.md",
        "results/README.md",
        ".claude/skills/verify/SKILL.md",
    ];
    let total: usize = prose.into_iter().map(|file| read(file).len()).sum();
    assert!(
        total <= PROSE_BUDGET,
        "the prose is {total} B, over its {PROSE_BUDGET} B budget"
    );
    let changes = read("CHANGES.md");
    let long: Vec<&str> = changes
        .lines()
        .filter(|line| line.len() > 1536)
        .filter_map(|line| line.strip_prefix("PR ")?.split_once(':'))
        .filter(|(n, _)| n.parse::<u32>().is_ok())
        .map(|(n, _)| n)
        .collect();
    assert!(
        long.is_empty(),
        "CHANGES.md entries over 1 536 B: PR {long:?}"
    );
}
