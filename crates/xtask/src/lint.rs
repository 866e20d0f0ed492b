//! The `cargo xtask lint` source-hygiene pass.
//!
//! Five rules, pure `std`, no parsing beyond line heuristics — cheap
//! enough to run on every CI job and every local commit:
//!
//! * **L001** — no un-annotated `.unwrap()` / `.expect(` in *non-test*
//!   workspace code (every `crates/*/src` plus the root crate). The
//!   stack's contract is typed errors (`SimError`, `ReplanError`, ...);
//!   a panic site must carry an `#[allow(clippy::unwrap_used)]` /
//!   `#[allow(clippy::expect_used)]` annotation (same line or up to three
//!   lines above) stating why it cannot fire.
//! * **L002** — no `todo!(` / `unimplemented!(` anywhere in workspace
//!   sources: the repo reproduces a paper, and a stub that type-checks but
//!   aborts at runtime silently poisons benchmark sweeps.
//! * **L003** — every `pub` item in `chason-core` carries a doc comment.
//!   `chason-core` is the contribution layer (§3 of the paper); its API
//!   docs are how schedule semantics are specified.
//! * **L004** — no `println!` / `eprintln!` in library crates
//!   (`chason-core`, `chason-sim`, `chason-serve`, `chason-telemetry`,
//!   and the root crate's solvers). Libraries report through telemetry
//!   (metrics, spans) or typed return values; stdout/stderr belong to the
//!   CLI and xtask binaries.
//! * **L005** — no `Ordering::Relaxed` outside the telemetry counter
//!   modules unless the site carries a `// relaxed:` justification (same
//!   line or up to three lines above). Relaxed atomics are invisible to
//!   happens-before reasoning — `chason-race` models them as carrying *no*
//!   ordering edge — so every site must say why that is sufficient
//!   (typically: a monotonic counter whose value is only read after a
//!   join or another acquire edge).
//!
//! Violations render in `rustc` style and the binary exits non-zero, so
//! the pass composes with CI exactly like `cargo clippy -- -D warnings`.

use std::fmt;
use std::path::{Path, PathBuf};

/// One finding of the lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule identifier (`L001`..`L004`).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the finding.
    pub message: String,
    /// How to fix it.
    pub note: &'static str,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[{}]: {}", self.rule, self.message)?;
        writeln!(f, "  --> {}:{}", self.path, self.line)?;
        write!(f, "  = note: {}", self.note)
    }
}

/// Returns the lines of `source` that are **outside** `#[cfg(test)]`
/// regions, paired with their 1-based line numbers.
///
/// A `#[cfg(test)]` attribute hides the item it gates: either the next
/// brace-matched block (a `mod tests { .. }`, a gated `impl`/`fn`) or, for
/// braceless items (`#[cfg(test)] use ..;`), the next statement line.
/// Brace counting ignores `//` comment tails; string literals containing
/// braces inside test code are rare enough not to matter for a lint.
fn non_test_lines(source: &str) -> Vec<(usize, &str)> {
    let mut kept = Vec::new();
    let mut depth = 0usize; // brace depth inside a test region
    let mut entered = false; // saw the region's opening brace
    let mut pending = false; // saw #[cfg(test)], waiting for the item
    for (idx, line) in source.lines().enumerate() {
        let code = line.split("//").next().unwrap_or("");
        if !pending && depth == 0 && !entered {
            if line.contains("#[cfg(test)]") {
                pending = true;
                continue;
            }
            kept.push((idx + 1, line));
            continue;
        }
        // Inside (or entering) a test region: count braces to find its end.
        let opens = code.matches('{').count();
        let closes = code.matches('}').count();
        if pending && !entered {
            if opens > 0 {
                entered = true;
                pending = false;
            } else if code.contains(';') {
                pending = false; // braceless gated item: skip this line only
                continue;
            } else {
                continue; // further attributes / signature lines
            }
        }
        depth += opens;
        depth = depth.saturating_sub(closes);
        if depth == 0 {
            entered = false;
        }
    }
    kept
}

fn is_comment(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

/// Whether `lines[idx]` (or up to `back` raw lines above it) carries an
/// `allow(clippy::unwrap_used)` / `allow(clippy::expect_used)` annotation.
fn is_annotated(raw_lines: &[&str], idx: usize, back: usize) -> bool {
    let lo = idx.saturating_sub(back);
    raw_lines[lo..=idx]
        .iter()
        .any(|l| l.contains("allow(clippy::unwrap_used") || l.contains("allow(clippy::expect_used"))
}

/// **L001**: un-annotated `.unwrap()` / `.expect("..")` in non-test code.
///
/// `expect` is only matched with a literal message (`.expect("`): several
/// workspace types (the serve client, the trace JSON parser) define their
/// own `expect` methods whose operands are requests or bytes, and those are
/// typed-error APIs, not panic sites. Needles are assembled at runtime so
/// this file does not flag itself.
pub fn check_unwraps(path: &str, source: &str) -> Vec<Violation> {
    let unwrap_needle = [".unw", "rap()"].concat();
    let expect_needle = [".exp", "ect(\""].concat();
    let raw: Vec<&str> = source.lines().collect();
    non_test_lines(source)
        .into_iter()
        .filter(|(_, line)| !is_comment(line))
        .filter_map(|(n, line)| {
            let call = if line.contains(&unwrap_needle) {
                unwrap_needle.as_str()
            } else if line.contains(&expect_needle) {
                ".expect(..)"
            } else {
                return None;
            };
            if is_annotated(&raw, n - 1, 3) {
                return None;
            }
            Some(Violation {
                rule: "L001",
                path: path.to_string(),
                line: n,
                message: format!("un-annotated `{call}` in non-test code"),
                note: "return a typed error, or justify the panic with \
                       `#[allow(clippy::unwrap_used)] // reason` on or above this line",
            })
        })
        .collect()
}

/// **L002**: `todo!(` / `unimplemented!(` anywhere (tests included).
pub fn check_stubs(path: &str, source: &str) -> Vec<Violation> {
    // Needles are assembled at runtime so this file does not flag itself.
    let needles = [["to", "do!("].concat(), ["unimplemen", "ted!("].concat()];
    source
        .lines()
        .enumerate()
        .filter(|(_, line)| !is_comment(line))
        .filter_map(|(idx, line)| {
            let hit = needles.iter().find(|n| line.contains(n.as_str()))?;
            Some(Violation {
                rule: "L002",
                path: path.to_string(),
                line: idx + 1,
                message: format!("`{}..)` stub in workspace source", &hit[..hit.len() - 1]),
                note: "implement the body or remove the item; stubs that compile \
                       but abort poison benchmark sweeps",
            })
        })
        .collect()
}

/// **L004**: `println!` / `eprintln!` in library-crate sources (tests
/// excluded — asserting on rendered output there is fine).
pub fn check_prints(path: &str, source: &str) -> Vec<Violation> {
    // Needles are assembled at runtime so this file does not flag itself;
    // `eprintln!` is checked first because it contains `println!` as a
    // suffix.
    let needles = [["eprint", "ln!("].concat(), ["print", "ln!("].concat()];
    non_test_lines(source)
        .into_iter()
        .filter(|(_, line)| !is_comment(line))
        .filter_map(|(n, line)| {
            let hit = needles
                .iter()
                .find(|needle| line.contains(needle.as_str()))?;
            Some(Violation {
                rule: "L004",
                path: path.to_string(),
                line: n,
                message: format!("`{}..)` in library code", &hit[..hit.len() - 1]),
                note: "libraries must not write to stdout/stderr; record a \
                       telemetry metric or span, or return the text to the caller",
            })
        })
        .collect()
}

/// Whether `lines[idx]` (or up to three raw lines above it) carries a
/// `// relaxed:` justification comment.
fn is_relaxed_justified(raw_lines: &[&str], idx: usize) -> bool {
    let lo = idx.saturating_sub(3);
    raw_lines[lo..=idx]
        .iter()
        .any(|l| l.contains("// relaxed:"))
}

/// **L005**: unjustified `Ordering::Relaxed` in non-test code (telemetry's
/// counter modules are exempt — relaxed counters are their whole design,
/// documented once at module level).
pub fn check_relaxed(path: &str, source: &str) -> Vec<Violation> {
    // Assembled at runtime so this file (and the xtask USAGE text) does not
    // flag itself.
    let needle = ["Ordering::Rel", "axed"].concat();
    let raw: Vec<&str> = source.lines().collect();
    non_test_lines(source)
        .into_iter()
        .filter_map(|(n, line)| {
            // Only flag code, not a mention in a comment tail.
            let code = line.split("//").next().unwrap_or("");
            if !code.contains(&needle) {
                return None;
            }
            if is_relaxed_justified(&raw, n - 1) {
                return None;
            }
            Some(Violation {
                rule: "L005",
                path: path.to_string(),
                line: n,
                message: format!("`{needle}` without a `// relaxed:` justification"),
                note: "relaxed atomics carry no happens-before edge (chason-race \
                       flags reads through them as races); justify with \
                       `// relaxed: <why no ordering is needed>` on or above this \
                       line, or upgrade to Acquire/Release",
            })
        })
        .collect()
}

const PUB_ITEM_PREFIXES: [&str; 11] = [
    "pub fn ",
    "pub async fn ",
    "pub unsafe fn ",
    "pub const fn ",
    "pub struct ",
    "pub enum ",
    "pub trait ",
    "pub const ",
    "pub static ",
    "pub type ",
    "pub mod ",
];

/// Walks upward from the line above a `pub` item, skipping attributes, and
/// reports whether a doc comment is found.
fn has_doc_above(raw_lines: &[&str], item_idx: usize) -> bool {
    let mut idx = item_idx;
    let mut in_attr = false; // between a multi-line attribute's `)]` and `#[`
    while idx > 0 {
        idx -= 1;
        let t = raw_lines[idx].trim();
        if in_attr {
            if t.starts_with("#[") || t.starts_with("#!") {
                in_attr = false;
            }
            continue;
        }
        if t.starts_with("///") || t.starts_with("/**") || t.starts_with("#[doc") {
            return true;
        }
        if t.starts_with("#[") || t.starts_with("#!") {
            continue; // single-line attribute between doc and item
        }
        if t.ends_with(")]") || t.ends_with("]") {
            in_attr = true; // closing line of a multi-line attribute
            continue;
        }
        return false;
    }
    false
}

/// **L003**: `pub` items without a doc comment (chason-core only).
pub fn check_docs(path: &str, source: &str) -> Vec<Violation> {
    let raw: Vec<&str> = source.lines().collect();
    non_test_lines(source)
        .into_iter()
        .filter_map(|(n, line)| {
            let t = line.trim_start();
            let prefix = PUB_ITEM_PREFIXES.iter().find(|p| t.starts_with(**p))?;
            // `pub mod x;` is documented by the `//!` header inside `x.rs`
            // (exactly how rustc's `missing_docs` treats it); only inline
            // `pub mod x { .. }` needs a comment here.
            if t.starts_with("pub mod ") && t.ends_with(';') {
                return None;
            }
            if has_doc_above(&raw, n - 1) {
                return None;
            }
            Some(Violation {
                rule: "L003",
                path: path.to_string(),
                line: n,
                message: format!(
                    "public item `{}..` has no doc comment",
                    &t[..prefix.len().min(t.len())]
                ),
                note: "chason-core is the paper's contribution layer; document \
                       what the item computes and which paper section it models",
            })
        })
        .collect()
}

/// Recursively collects the `.rs` files under `dir`, sorted for stable
/// output.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return files;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files
}

/// Runs every lint over the workspace rooted at `root`; returns all
/// violations (the pass never bails on the first finding).
pub fn run(root: &Path) -> Vec<Violation> {
    let rel = |p: &Path| {
        p.strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .into_owned()
    };
    let read = |p: &Path| std::fs::read_to_string(p).unwrap_or_default();
    let mut violations = Vec::new();

    // Workspace source dirs: the root crate plus every crates/*/src
    // (vendor shims excluded — they mirror external crates' APIs and are
    // not product code).
    let mut source_dirs: Vec<PathBuf> = vec![root.join("src")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut crates: Vec<_> = entries.flatten().map(|e| e.path().join("src")).collect();
        crates.sort();
        source_dirs.extend(crates);
    }
    // L001: non-test code anywhere in the workspace must not panic silently.
    // L002: no stubs anywhere in workspace sources.
    // L005: relaxed atomics must be justified (telemetry counters exempt).
    let telemetry_src = root.join("crates/telemetry/src");
    for dir in &source_dirs {
        for file in rust_files(dir) {
            violations.extend(check_unwraps(&rel(&file), &read(&file)));
            violations.extend(check_stubs(&rel(&file), &read(&file)));
            if !file.starts_with(&telemetry_src) {
                violations.extend(check_relaxed(&rel(&file), &read(&file)));
            }
        }
    }
    // L003: the contribution layer is fully documented.
    for file in rust_files(&root.join("crates/core/src")) {
        violations.extend(check_docs(&rel(&file), &read(&file)));
    }
    // L004: library crates stay silent on stdout/stderr.
    for dir in [
        "src",
        "crates/core/src",
        "crates/sim/src",
        "crates/serve/src",
        "crates/telemetry/src",
    ] {
        for file in rust_files(&root.join(dir)) {
            violations.extend(check_prints(&rel(&file), &read(&file)));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_in_plain_code_is_flagged_and_annotation_silences() {
        let bad = "fn f() {\n    let x = g().unwrap();\n}\n";
        let v = check_unwraps("a.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), ("L001", 2));
        let ok = "fn f() {\n    #[allow(clippy::unwrap_used)] // proven non-empty\n    \
                  let x = g().unwrap();\n}\n";
        assert!(check_unwraps("a.rs", ok).is_empty());
        let far = "fn f() {\n    #[allow(clippy::unwrap_used)]\n    a();\n    b();\n    c();\n    \
                   let x = g().unwrap();\n}\n";
        assert_eq!(check_unwraps("a.rs", far).len(), 1); // annotation > 3 lines away
    }

    #[test]
    fn test_modules_and_comments_are_exempt() {
        let src = "fn f() {}\n\
                   // g().unwrap() in a comment\n\
                   #[cfg(test)]\n\
                   mod tests {\n    fn t() { g().unwrap(); }\n}\n";
        assert!(check_unwraps("a.rs", src).is_empty());
        // Braceless gated item, then real code after the region resumes.
        let src = "#[cfg(test)]\nuse helpers::x;\nfn f() { g().unwrap(); }\n";
        assert_eq!(check_unwraps("a.rs", src).len(), 1);
    }

    #[test]
    fn expect_variants_do_not_false_positive() {
        let src = "fn f() {\n    let a = r.unwrap_or(0);\n    let b = r.unwrap_or_else(h);\n    \
                   let c = r.expect_err(\"msg\");\n}\n";
        assert!(check_unwraps("a.rs", src).is_empty());
        // User-defined `expect` methods take non-string operands (the serve
        // client's request matcher, the trace parser's byte matcher).
        let methods = "fn f() {\n    let r = self.expect(&request)?;\n    \
                       p.expect(b':')?;\n}\n";
        assert!(check_unwraps("a.rs", methods).is_empty());
        let literal = "fn f() { r.expect(\"boom\"); }\n";
        assert_eq!(check_unwraps("a.rs", literal).len(), 1);
    }

    #[test]
    fn stub_macros_are_flagged_even_in_tests() {
        let stub = ["fn f() { to", "do!(\"later\") }\n"].concat();
        let v = check_stubs("a.rs", &stub);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "L002");
        let gated = ["#[cfg(test)]\nmod t { fn g() { unimplemen", "ted!() } }\n"].concat();
        assert_eq!(check_stubs("a.rs", &gated).len(), 1);
    }

    #[test]
    fn library_prints_are_flagged_outside_tests() {
        let bad = ["fn f() { print", "ln!(\"x\"); }\n"].concat();
        let v = check_prints("a.rs", &bad);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), ("L004", 1));
        let err = ["fn f() { eprint", "ln!(\"x\"); }\n"].concat();
        let v = check_prints("a.rs", &err);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("eprint"), "{}", v[0].message);
        let gated = [
            "fn f() {}\n#[cfg(test)]\nmod t { fn g() { print",
            "ln!(\"ok\"); } }\n",
        ]
        .concat();
        assert!(check_prints("a.rs", &gated).is_empty());
        let comment = ["// print", "ln!(\"doc\")\nfn f() {}\n"].concat();
        assert!(check_prints("a.rs", &comment).is_empty());
    }

    #[test]
    fn pub_items_need_docs_attributes_notwithstanding() {
        let undocumented = "pub fn f() {}\n";
        assert_eq!(check_docs("a.rs", undocumented).len(), 1);
        let documented = "/// Does the thing.\npub fn f() {}\n";
        assert!(check_docs("a.rs", documented).is_empty());
        let derived = "/// A record.\n#[derive(\n    Debug,\n    Clone,\n)]\npub struct S;\n";
        assert!(check_docs("a.rs", derived).is_empty());
        let attr_only = "#[derive(Debug)]\npub struct S;\n";
        assert_eq!(check_docs("a.rs", attr_only).len(), 1);
        let private = "fn f() {}\npub(crate) fn g() {}\n";
        assert!(check_docs("a.rs", private).is_empty());
    }

    #[test]
    fn relaxed_needs_justification() {
        let bad = "fn f() { c.fetch_add(1, Ordering::Relaxed); }\n";
        let v = check_relaxed("a.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), ("L005", 1));
        let inline = "fn f() { c.fetch_add(1, Ordering::Relaxed); // relaxed: counter\n}\n";
        assert!(check_relaxed("a.rs", inline).is_empty());
        let above = "fn f() {\n    // relaxed: read only after join\n    \
                     c.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(check_relaxed("a.rs", above).is_empty());
        let far = "fn f() {\n    // relaxed: too far away\n    a();\n    b();\n    c();\n    \
                   c.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert_eq!(check_relaxed("a.rs", far).len(), 1);
        // Mentions inside comments (doc or tail) are not flagged.
        let comment = "// Ordering::Relaxed is discussed here\nfn f() {}\n";
        assert!(check_relaxed("a.rs", comment).is_empty());
        let gated = "#[cfg(test)]\nmod t {\n    fn g() { c.load(Ordering::Relaxed); }\n}\n";
        assert!(check_relaxed("a.rs", gated).is_empty());
    }

    #[test]
    fn violations_render_rustc_style() {
        let v = check_unwraps("crates/sim/src/x.rs", "fn f() { g().unwrap(); }\n");
        let text = v[0].to_string();
        assert!(text.starts_with("error[L001]:"), "{text}");
        assert!(text.contains("--> crates/sim/src/x.rs:1"), "{text}");
        assert!(text.contains("= note:"), "{text}");
    }

    #[test]
    fn the_workspace_itself_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("xtask sits two levels under the workspace root");
        let violations = run(root);
        assert!(
            violations.is_empty(),
            "workspace lint violations:\n{}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
