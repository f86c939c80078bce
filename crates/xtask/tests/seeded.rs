//! End-to-end acceptance for the analysis pass: a scratch workspace seeded
//! with one violation of each rule yields exactly those findings, and a
//! clean seeded tree yields none — so a zero exit on the real tree means
//! the rules actually ran.

use std::fs;
use std::path::Path;

use xtask::{analyze, Rule};

fn write(root: &Path, rel: &str, content: &str) {
    let p = root.join(rel);
    fs::create_dir_all(p.parent().unwrap()).unwrap();
    fs::write(p, content).unwrap();
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xtask-seeded-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn seeded_violations_are_each_reported() {
    let root = scratch("dirty");
    write(
        &root,
        "crates/kcas/src/lib.rs",
        "use std::sync::atomic::AtomicU64;\n\nfn f() {\n    unsafe { g() }\n}\n",
    );
    write(
        &root,
        "crates/telemetry/src/lib.rs",
        "fn f(a: &A) {\n    a.load(Ordering::Relaxed);\n}\n",
    );
    write(&root, "crates/server/src/lib.rs", "fn f() {\n    x.unwrap();\n}\n");

    let vs = analyze(&root).unwrap();
    let count = |r: Rule| vs.iter().filter(|v| v.rule == r).count();
    assert_eq!(count(Rule::Facade), 1, "all findings: {vs:#?}");
    assert_eq!(count(Rule::Safety), 1, "all findings: {vs:#?}");
    assert_eq!(count(Rule::Ordering), 1, "all findings: {vs:#?}");
    assert_eq!(count(Rule::Unwrap), 1, "all findings: {vs:#?}");
    assert_eq!(vs.len(), 4, "all findings: {vs:#?}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn clean_seeded_tree_reports_nothing() {
    let root = scratch("clean");
    write(
        &root,
        "crates/kcas/src/lib.rs",
        concat!(
            "use loom_shim::facade::AtomicU64;\n\n",
            "fn f() {\n",
            "    // SAFETY: g is called under the conditions its contract names.\n",
            "    unsafe { g() }\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() {\n        unsafe { g() }\n    }\n",
            "}\n",
        ),
    );
    write(
        &root,
        "crates/telemetry/src/lib.rs",
        "fn f(a: &A) {\n    // ORDERING: Relaxed — diagnostic counter only.\n    a.load(Ordering::Relaxed);\n}\n",
    );
    write(
        &root,
        "crates/server/src/lib.rs",
        "fn f() {\n    x.unwrap_or_default();\n    y.lock().unwrap_or_else(|e| e.into_inner());\n}\n",
    );

    let vs = analyze(&root).unwrap();
    assert!(vs.is_empty(), "unexpected findings: {vs:#?}");
    let _ = fs::remove_dir_all(&root);
}

/// The epoch shim holds the record manager's `unsafe`, so its source is
/// analyzed like a workspace crate's; the other vendored shims are not.
#[test]
fn the_epoch_shim_is_analyzed_and_other_shims_are_not() {
    let root = scratch("vendor");
    let bad = "fn f() {\n    unsafe { g() }\n    a.load(Ordering::Relaxed);\n}\n";
    write(&root, "crates/kcas/src/lib.rs", "fn f() {}\n");
    write(&root, "vendor/crossbeam-epoch/src/slab.rs", bad);
    write(&root, "vendor/rand/src/lib.rs", bad);

    let vs = analyze(&root).unwrap();
    assert_eq!(vs.len(), 2, "all findings: {vs:#?}");
    assert!(vs.iter().all(|v| v.file.ends_with("vendor/crossbeam-epoch/src/slab.rs")), "{vs:#?}");
    let _ = fs::remove_dir_all(&root);
}

/// The shipped tree itself is clean — the same check CI runs via
/// `cargo xtask analyze`, kept here so plain `cargo test` covers it too.
#[test]
fn shipped_tree_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let vs = analyze(&root).unwrap();
    assert!(vs.is_empty(), "xtask analyze findings in the shipped tree:\n{}",
        vs.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n"));
}
