//! The `cargo xtask analyze` concurrency lint pass (DESIGN.md §12).
//!
//! Four repo-specific rules that `rustc`/`clippy` cannot express, enforced
//! over every workspace crate's `src/` tree (`crates/*/src/**/*.rs`, plus
//! [`VENDORED_SOURCES`] — the rest of `vendor/` is out of scope):
//!
//! 1. **`unsafe` needs `// SAFETY:`** — every `unsafe` block, fn, or impl
//!    must carry a `SAFETY` justification (a `// SAFETY:` comment or a
//!    `# Safety` doc section) on the same line, in the contiguous
//!    comment/attribute block above it, or within the preceding
//!    [`CONTEXT_LINES`] lines (multi-line statements put the comment above
//!    the statement head, not the `unsafe` token).
//! 2. **`Ordering::Relaxed` needs `// ORDERING:`** — every relaxed atomic
//!    access must carry an `ORDERING` comment in the same window.
//! 3. **No `.unwrap()` / `.expect(` in `crates/server`** — the long-running
//!    server must degrade, not abort; non-test server code may not use
//!    either. (`unwrap_or*` is fine and not matched.)
//! 4. **No std atomics outside the facade** — facade-covered crates
//!    ([`FACADE_CRATES`]) may not name `std::sync::atomic` or
//!    `core::sync::atomic` (spelled out or inside a `sync::{..}` group);
//!    their atomics come from `loom_shim::facade` so the `pathcas_loom`
//!    build checks the production code (DESIGN.md §12).  Registration
//!    atomics that must stay invisible to the model scheduler waive the
//!    line.
//!
//! Test code is skipped: `#[cfg(test)]`-gated modules (brace-tracked),
//! files under `tests/`, and the `models.rs` model suites (compiled only
//! under `cfg(all(test, pathcas_loom))`). A finding can be waived on a
//! specific line with `// xtask: allow(<rule>)` where `<rule>` is one of
//! `safety`, `ordering`, `unwrap`, `facade`.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// How far above a flagged line a justification comment may sit (in
/// addition to the contiguous comment/attribute block directly above).
pub const CONTEXT_LINES: usize = 12;

/// Vendored source trees that hold the workspace's own `unsafe` code: the
/// epoch shim carries the record manager every structure allocates from.
pub const VENDORED_SOURCES: &[&str] = &["vendor/crossbeam-epoch/src"];

/// Crates whose atomics must come from `loom_shim::facade` so the
/// `pathcas_loom` build model-checks the production source.
pub const FACADE_CRATES: &[&str] = &["kcas", "telemetry"];

/// Crates where `.unwrap()` / `.expect(` are forbidden outside tests.
pub const NO_UNWRAP_CRATES: &[&str] = &["server"];

/// One finding of the analysis pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: PathBuf,
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    Safety,
    Ordering,
    Unwrap,
    Facade,
}

impl Rule {
    fn allow_token(self) -> &'static str {
        match self {
            Rule::Safety => "safety",
            Rule::Ordering => "ordering",
            Rule::Unwrap => "unwrap",
            Rule::Facade => "facade",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.allow_token(),
            self.message
        )
    }
}

/// Analyze every `crates/*/src` tree and every [`VENDORED_SOURCES`] tree
/// under `root` (the workspace root).  Returns all findings, stable-ordered
/// by path then line.
pub fn analyze(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    let mut sources: Vec<PathBuf> = VENDORED_SOURCES.iter().map(|dir| root.join(dir)).collect();
    for entry in fs::read_dir(root.join("crates"))? {
        sources.push(entry?.path().join("src"));
    }
    for src in sources.iter().filter(|src| src.is_dir()) {
        collect_rs_files(src, &mut files)?;
    }
    files.sort();
    let mut out = Vec::new();
    for f in &files {
        let crate_name = crate_of(root, f);
        let text = fs::read_to_string(f)?;
        analyze_file(f, &crate_name, &text, &mut out);
    }
    Ok(out)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs_files(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// The directory name under `crates/` or `vendor/`: `kcas`, `crossbeam-epoch`.
fn crate_of(root: &Path, file: &Path) -> String {
    file.strip_prefix(root.join("crates"))
        .or_else(|_| file.strip_prefix(root.join("vendor")))
        .ok()
        .and_then(|rel| rel.components().next())
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .unwrap_or_default()
}

fn file_name(p: &Path) -> &str {
    p.file_name().and_then(|n| n.to_str()).unwrap_or("")
}

/// Strip `//` comments and (crudely) string literals from a line so rule
/// matching never fires on text inside either. Good enough for this
/// codebase's style; raw strings spanning lines are not handled (none of
/// the rules' tokens appear in any).
fn code_of(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => {
                    in_str = false;
                    out.push('"');
                }
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push('"');
            }
            '\'' => {
                // A char literal (possibly escaped); lifetimes ('a) have no
                // closing quote and fall through harmlessly.
                out.push('\'');
                if let Some(&n) = chars.peek() {
                    if n == '\\' {
                        chars.next();
                        chars.next();
                        if chars.peek() == Some(&'\'') {
                            chars.next();
                        }
                    } else if chars.clone().nth(1) == Some('\'') {
                        chars.next();
                        chars.next();
                    }
                }
            }
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

fn is_comment_or_attr(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") || t.starts_with("#[") || t.starts_with("#!")
}

/// True if `marker` (case-insensitive) appears in *comment text* on the
/// flagged line, in the contiguous comment/attribute block above it, or
/// within the preceding [`CONTEXT_LINES`] lines. Only the part of a line
/// from its first `//` counts, so code like `Ordering::Relaxed` can never
/// justify itself.
fn justified(lines: &[&str], idx: usize, marker: &str) -> bool {
    let has = |s: &str| {
        s.find("//")
            .is_some_and(|i| s[i..].to_ascii_lowercase().contains(marker))
    };
    if has(lines[idx]) {
        return true;
    }
    let mut j = idx;
    while j > 0 && is_comment_or_attr(lines[j - 1]) {
        j -= 1;
        if has(lines[j]) {
            return true;
        }
    }
    lines[idx.saturating_sub(CONTEXT_LINES)..idx].iter().any(|l| has(l))
}

fn allowed(line: &str, rule: Rule) -> bool {
    line.contains("xtask: allow(") && line.contains(rule.allow_token())
}

/// Tracks `#[cfg(test)] mod … { … }` regions so they can be skipped.
struct TestModTracker {
    /// Brace depth at which the innermost test module closes, if inside one.
    close_depth: Option<usize>,
    depth: usize,
    /// A `#[cfg(test)]`-ish attribute was seen and we are waiting for the
    /// `mod` item it gates.
    pending_cfg: bool,
}

impl TestModTracker {
    fn new() -> Self {
        TestModTracker { close_depth: None, depth: 0, pending_cfg: false }
    }

    /// Feed one (comment-stripped) line; returns true if the line is inside
    /// (or opens) a test-gated module.
    fn feed(&mut self, code: &str) -> bool {
        let trimmed = code.trim_start();
        if trimmed.starts_with("#[cfg(") && trimmed.contains("test") && !trimmed.contains("not(test") {
            self.pending_cfg = true;
            return true;
        }
        let mut in_test = self.close_depth.is_some();
        if self.pending_cfg && trimmed.starts_with("mod ") {
            if self.close_depth.is_none() && code.contains('{') {
                self.close_depth = Some(self.depth);
            }
            self.pending_cfg = false;
            in_test = true;
        } else if self.pending_cfg && !trimmed.is_empty() && !is_comment_or_attr(trimmed) {
            // The cfg gated something other than a module (an import, a
            // function, an expression attr) — treat just that item line as
            // test-gated, then resume.
            self.pending_cfg = false;
            in_test = true;
        }
        for c in code.chars() {
            match c {
                '{' => self.depth += 1,
                '}' => {
                    self.depth = self.depth.saturating_sub(1);
                    if self.close_depth == Some(self.depth) {
                        self.close_depth = None;
                    }
                }
                _ => {}
            }
        }
        in_test
    }
}

fn analyze_file(path: &Path, krate: &str, text: &str, out: &mut Vec<Violation>) {
    let fname = file_name(path);
    // The model suites are compiled only under cfg(all(test, pathcas_loom)).
    if fname == "models.rs" {
        return;
    }
    let lines: Vec<&str> = text.lines().collect();
    let codes: Vec<String> = lines.iter().map(|l| code_of(l)).collect();
    let mut tracker = TestModTracker::new();
    let facade_crate = FACADE_CRATES.contains(&krate);
    let no_unwrap_crate = NO_UNWRAP_CRATES.contains(&krate);
    let mut sync_group = 0;

    for (i, code) in codes.iter().enumerate() {
        let in_test = tracker.feed(code);
        let raw = lines[i];
        let lineno = i + 1;

        if in_test {
            continue;
        }

        if contains_unsafe_item(code)
            && !justified(&lines, i, "safety:")
            && !justified(&lines, i, "# safety")
            && !allowed(raw, Rule::Safety)
        {
            out.push(Violation {
                file: path.to_path_buf(),
                line: lineno,
                rule: Rule::Safety,
                message: "`unsafe` without a `// SAFETY:` justification".into(),
            });
        }

        if code.contains("Ordering::Relaxed")
            && !justified(&lines, i, "ordering:")
            && !allowed(raw, Rule::Ordering)
        {
            out.push(Violation {
                file: path.to_path_buf(),
                line: lineno,
                rule: Rule::Ordering,
                message: "`Ordering::Relaxed` without a `// ORDERING:` justification".into(),
            });
        }

        if no_unwrap_crate
            && (code.contains(".unwrap()") || code.contains(".expect("))
            && !allowed(raw, Rule::Unwrap)
        {
            out.push(Violation {
                file: path.to_path_buf(),
                line: lineno,
                rule: Rule::Unwrap,
                message: "`.unwrap()`/`.expect()` in server code (must degrade, not abort)".into(),
            });
        }

        if facade_crate && names_std_atomics(code, &mut sync_group) && !allowed(raw, Rule::Facade) {
            out.push(Violation {
                file: path.to_path_buf(),
                line: lineno,
                rule: Rule::Facade,
                message: format!(
                    "direct std atomics use in facade-covered crate `{krate}` (import through `loom_shim::facade` so the pathcas_loom build checks this code)"
                ),
            });
        }
    }
}

/// Does this (comment- and string-stripped) line name the std atomics:
/// `std::sync::atomic` / `core::sync::atomic`, or `atomic` inside a
/// `std::sync::{..}` / `core::sync::{..}` group?  `group` is the brace depth
/// of a group still open at the end of the previous line (0: none), so a
/// group spread over several lines is read as one.
fn names_std_atomics(code: &str, group: &mut usize) -> bool {
    let mut hit = false;
    let mut rest = code;
    while let Some(c) = rest.chars().next() {
        if *group == 0 {
            if let Some(after) =
                ["std::sync::", "core::sync::"].iter().find_map(|root| rest.strip_prefix(root))
            {
                hit |= after.starts_with("atomic");
                if let Some(inner) = after.strip_prefix('{') {
                    *group = 1;
                    rest = inner;
                } else {
                    rest = after;
                }
                continue;
            }
        } else {
            let word =
                rest.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(rest.len());
            if word > 0 {
                hit |= &rest[..word] == "atomic";
                rest = &rest[word..];
                continue;
            }
            match c {
                '{' => *group += 1,
                '}' => *group -= 1,
                _ => {}
            }
        }
        rest = &rest[c.len_utf8()..];
    }
    hit
}

/// Does this (comment- and string-stripped) line introduce an unsafe block,
/// fn, impl, or trait? Matches the `unsafe` keyword as a standalone token.
fn contains_unsafe_item(code: &str) -> bool {
    let mut rest = code;
    while let Some(pos) = rest.find("unsafe") {
        let before_ok = pos == 0
            || !rest[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = &rest[pos + "unsafe".len()..];
        let after_ok = !after.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        rest = &rest[pos + "unsafe".len()..];
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(krate: &str, src: &str) -> Vec<Violation> {
        let mut out = Vec::new();
        analyze_file(Path::new("lib.rs"), krate, src, &mut out);
        out
    }

    #[test]
    fn undocumented_unsafe_is_flagged_and_safety_comment_clears_it() {
        let bad = "fn f() {\n    unsafe { g() }\n}\n";
        assert_eq!(run("kcas", bad).len(), 1);
        let good = "fn f() {\n    // SAFETY: g upholds its contract here.\n    unsafe { g() }\n}\n";
        assert!(run("kcas", good).is_empty());
    }

    #[test]
    fn doc_safety_section_clears_unsafe_fn() {
        let good = "/// Does things.\n///\n/// # Safety\n/// Caller must not.\npub unsafe fn f() {}\n";
        assert!(run("kcas", good).is_empty());
    }

    #[test]
    fn relaxed_needs_ordering_comment() {
        let bad = "fn f(a: &AtomicU64) {\n    a.load(Ordering::Relaxed);\n}\n";
        assert_eq!(run("telemetry", bad).len(), 1);
        // No file name is exempt, `sync.rs` included.
        let mut in_sync_rs = Vec::new();
        analyze_file(Path::new("sync.rs"), "kcas", bad, &mut in_sync_rs);
        assert_eq!(in_sync_rs.len(), 1, "{in_sync_rs:#?}");
        let good = "fn f(a: &AtomicU64) {\n    // ORDERING: Relaxed - diagnostic only.\n    a.load(Ordering::Relaxed);\n}\n";
        assert!(run("telemetry", good).is_empty());
    }

    #[test]
    fn ordering_comment_may_sit_above_a_multiline_statement() {
        let good = "fn f(a: &AtomicU64) {\n    // ORDERING: Relaxed claim CAS; atomicity only.\n    if x\n        || a\n            .compare_exchange(c, o, Ordering::Relaxed, Ordering::Relaxed)\n            .is_err()\n    {}\n}\n";
        assert!(run("telemetry", good).is_empty());
    }

    #[test]
    fn unwrap_forbidden_in_server_only() {
        let src = "fn f() {\n    x.unwrap();\n    y.expect(\"nope\");\n    z.unwrap_or_default();\n}\n";
        assert_eq!(run("server", src).len(), 2);
        assert!(run("kcas", src).is_empty());
    }

    #[test]
    fn facade_bypass_flagged_in_facade_crates_only() {
        for src in [
            "use std::sync::atomic::AtomicU64;\n",
            "use core::sync::atomic::AtomicU64;\n",
            "use std::sync::{atomic::AtomicU64, Mutex};\n",
            "use std::sync::{Mutex, atomic::{AtomicU64, Ordering}};\n",
            // A group spread over lines is one group.
            "use std::sync::{\n    atomic::AtomicU64,\n    Mutex,\n};\n",
        ] {
            assert_eq!(run("kcas", src).len(), 1, "{src}");
            assert!(run("shard", src).is_empty(), "{src}");
        }
        for other_sync in [
            "use std::sync::{Mutex, OnceLock};\nuse std::sync::Arc;\n",
            // The group ends at its closing brace.
            "use std::sync::{\n    Arc,\n    Mutex,\n};\nmod atomic {}\n",
        ] {
            assert!(run("kcas", other_sync).is_empty(), "{other_sync}");
        }
        let waived = "use std::sync::atomic::AtomicUsize; // xtask: allow(facade)\n";
        assert!(run("kcas", waived).is_empty());
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::sync::atomic::AtomicU64;\n    fn f() {\n        unsafe { g() }\n        x.load(Ordering::Relaxed);\n    }\n}\n";
        assert!(run("kcas", src).is_empty());
    }

    #[test]
    fn code_after_test_module_is_still_checked() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n\nfn f() {\n    unsafe { g() }\n}\n";
        assert_eq!(run("kcas", src).len(), 1);
    }

    #[test]
    fn inline_allow_waives_a_finding() {
        let src = "fn f() {\n    unsafe { g() } // xtask: allow(safety) - justified elsewhere\n}\n";
        assert!(run("kcas", src).is_empty());
    }

    #[test]
    fn tokens_in_comments_and_strings_do_not_fire() {
        let src = "fn f() {\n    // this mentions unsafe and Ordering::Relaxed and .unwrap()\n    let s = \"unsafe Ordering::Relaxed .unwrap() std::sync::atomic\";\n    let _ = s;\n}\n";
        assert!(run("server", src).is_empty());
        assert!(run("kcas", src).is_empty());
    }

    #[test]
    fn unsafe_as_identifier_fragment_does_not_fire() {
        let src = "fn f() {\n    let not_unsafe_here = 1;\n    let _ = not_unsafe_here;\n}\n";
        assert!(run("kcas", src).is_empty());
    }
}
