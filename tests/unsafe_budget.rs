//! The workspace's `unsafe` budget, enforced.
//!
//! Every crate root forbids `unsafe_code` outright, except
//! `ironsafe-crypto`, which *denies* it so that exactly one module — the
//! AES-NI intrinsics in `crates/crypto/src/aes/ni.rs` — can opt back in.
//! Outside test targets (which install counting allocators) no other
//! source file may contain the keyword at all.

use std::fs;
use std::path::{Path, PathBuf};

const UNSAFE_MODULE: &str = "crates/crypto/src/aes/ni.rs";
const DENY_ROOT: &str = "crates/crypto/src/lib.rs";

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

fn subdirs(dir: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs
}

fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files_under(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Each line of `source` with any `//` comment cut off.
fn code_lines(source: &str) -> impl Iterator<Item = &str> {
    source.lines().map(|line| line.split("//").next().unwrap_or(""))
}

/// True when `source` contains `unsafe` as a whole word outside comments.
fn has_unsafe_token(source: &str) -> bool {
    code_lines(source).any(|code| {
        code.match_indices("unsafe").any(|(at, word)| {
            let ident = |c: char| c.is_alphanumeric() || c == '_';
            !code[..at].chars().next_back().is_some_and(ident)
                && !code[at + word.len()..].chars().next().is_some_and(ident)
        })
    })
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).expect("under the workspace").to_string_lossy().replace('\\', "/")
}

#[test]
fn every_crate_root_forbids_unsafe_except_crypto() {
    let root = workspace_root();
    let mut roots = Vec::new();
    for package in subdirs(&root.join("crates")).into_iter().chain(subdirs(&root.join("shims"))) {
        let src = package.join("src");
        roots.extend([src.join("lib.rs"), src.join("main.rs")].into_iter().filter(|p| p.exists()));
        rust_files_under(&src.join("bin"), &mut roots);
    }
    assert!(roots.len() >= 19, "found only {} crate roots — did the layout move?", roots.len());
    for path in roots {
        let name = relative(&root, &path);
        let text = fs::read_to_string(&path).expect("crate root");
        let attr =
            if name == DENY_ROOT { "#![deny(unsafe_code)]" } else { "#![forbid(unsafe_code)]" };
        assert!(
            text.lines().any(|l| l.trim() == attr),
            "{name} must carry `{attr}` (only {DENY_ROOT} may deny instead of forbid)"
        );
    }
}

#[test]
fn only_the_aes_ni_module_contains_unsafe() {
    let root = workspace_root();
    let mut files = Vec::new();
    for package in subdirs(&root.join("crates")).into_iter().chain(subdirs(&root.join("shims"))) {
        rust_files_under(&package.join("src"), &mut files);
        rust_files_under(&package.join("benches"), &mut files);
    }
    rust_files_under(&root.join("examples"), &mut files);
    assert!(files.len() > 100, "found only {} source files — did the layout move?", files.len());
    let offenders: Vec<String> = files
        .iter()
        .filter(|p| has_unsafe_token(&fs::read_to_string(p).expect("source file")))
        .map(|p| relative(&root, p))
        .collect();
    assert_eq!(offenders, [UNSAFE_MODULE], "the unsafe budget is exactly one module");

    // Inside the budget, every block states why it is sound.
    let ni = fs::read_to_string(root.join(UNSAFE_MODULE)).expect("AES-NI module");
    let lines: Vec<&str> = ni.lines().collect();
    for (n, line) in lines.iter().enumerate() {
        if line.contains("unsafe {") {
            let justified = lines[..n]
                .iter()
                .rev()
                .take_while(|l| l.trim_start().starts_with("//"))
                .any(|l| l.contains("SAFETY:"));
            assert!(
                justified,
                "{UNSAFE_MODULE}:{} has an unsafe block without a SAFETY note",
                n + 1
            );
        }
    }
    // And the opt-in is a single `#[allow(unsafe_code)]` on that module.
    let aes = fs::read_to_string(root.join("crates/crypto/src/aes.rs")).expect("aes.rs");
    let allows: usize = files
        .iter()
        .map(|p| fs::read_to_string(p).expect("source file"))
        .map(|text| code_lines(&text).filter(|code| code.contains("allow(unsafe_code)")).count())
        .sum();
    assert_eq!(allows, 1, "exactly one allow(unsafe_code) in the workspace");
    assert!(aes.contains("#[allow(unsafe_code)]\nmod ni;"), "…and it sits on `mod ni`");
}

#[test]
fn token_matcher_knows_words_from_substrings() {
    assert!(has_unsafe_token("let x = unsafe { f() };"));
    assert!(has_unsafe_token("unsafe impl Send for T {}"));
    assert!(!has_unsafe_token("#![forbid(unsafe_code)]"));
    assert!(!has_unsafe_token("// unsafe in a comment"));
    assert!(!has_unsafe_token("let not_unsafe = 1;"));
}
