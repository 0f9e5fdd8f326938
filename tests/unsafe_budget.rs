//! The workspace's `unsafe` budget, enforced.
//!
//! Every crate root forbids `unsafe_code` outright, except
//! `ironsafe-crypto`, which *denies* it so that exactly three modules — the
//! AES-NI intrinsics in `crates/crypto/src/aes/ni.rs`, the SHA-NI
//! intrinsics in `crates/crypto/src/sha256/ni.rs` and the AVX-512
//! multi-buffer SHA-512 in `crates/crypto/src/sha512/avx512.rs` — can opt
//! back in.
//! Outside test targets (which install counting allocators) no other
//! source file may contain the keyword at all.

use std::fs;
use std::path::{Path, PathBuf};

/// The intrinsics modules, each with the file that declares it.
const UNSAFE_MODULES: [(&str, &str); 3] = [
    ("crates/crypto/src/aes/ni.rs", "crates/crypto/src/aes.rs"),
    ("crates/crypto/src/sha256/ni.rs", "crates/crypto/src/sha256.rs"),
    ("crates/crypto/src/sha512/avx512.rs", "crates/crypto/src/sha512.rs"),
];
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
fn only_the_intrinsics_modules_contain_unsafe() {
    let root = workspace_root();
    let mut files = Vec::new();
    for package in subdirs(&root.join("crates")).into_iter().chain(subdirs(&root.join("shims"))) {
        rust_files_under(&package.join("src"), &mut files);
        rust_files_under(&package.join("benches"), &mut files);
    }
    rust_files_under(&root.join("examples"), &mut files);
    assert!(files.len() > 100, "found only {} source files — did the layout move?", files.len());
    let mut offenders: Vec<String> = files
        .iter()
        .filter(|p| has_unsafe_token(&fs::read_to_string(p).expect("source file")))
        .map(|p| relative(&root, p))
        .collect();
    offenders.sort();
    assert_eq!(
        offenders,
        UNSAFE_MODULES.map(|(module, _)| module),
        "the unsafe budget is exactly three modules"
    );

    for (module, parent) in UNSAFE_MODULES {
        // Inside the budget, every block states why it is sound.
        let text = fs::read_to_string(root.join(module)).expect("intrinsics module");
        let lines: Vec<&str> = text.lines().collect();
        for (n, line) in lines.iter().enumerate() {
            if line.contains("unsafe {") {
                let justified = lines[..n]
                    .iter()
                    .rev()
                    .take_while(|l| l.trim_start().starts_with("//"))
                    .any(|l| l.contains("SAFETY:"));
                assert!(justified, "{module}:{} has an unsafe block without a SAFETY note", n + 1);
            }
        }
        // The feature-gated code is private to the module, and the module
        // asks the CPU for every feature it enables — so the only way in
        // is the constructor that asked.
        let mut gated = 0;
        for (n, line) in lines.iter().enumerate() {
            let Some(list) = line.trim().strip_prefix("#[target_feature(enable = \"") else {
                continue;
            };
            gated += 1;
            let next = lines[n + 1].trim_start();
            assert!(next.starts_with("fn "), "{module}:{} must stay module-private", n + 2);
            for feature in list.trim_end_matches("\")]").split(',') {
                assert!(
                    text.contains(&format!("is_x86_feature_detected!(\"{feature}\")")),
                    "{module} enables `{feature}` without detecting it"
                );
            }
        }
        assert!(gated > 0, "{module} has no feature-gated function — did the layout move?");
        // And the opt-in sits on that module's declaration.
        let name = Path::new(module).file_stem().and_then(|s| s.to_str()).expect("module name");
        let parent_text = fs::read_to_string(root.join(parent)).expect("parent module");
        assert!(
            parent_text.contains(&format!("#[allow(unsafe_code)]\nmod {name};")),
            "{parent} must opt `mod {name}` in, and nothing else"
        );
    }
    let allows: usize = files
        .iter()
        .map(|p| fs::read_to_string(p).expect("source file"))
        .map(|text| code_lines(&text).filter(|code| code.contains("allow(unsafe_code)")).count())
        .sum();
    assert_eq!(allows, UNSAFE_MODULES.len(), "one allow(unsafe_code) per intrinsics module");
}

#[test]
fn token_matcher_knows_words_from_substrings() {
    assert!(has_unsafe_token("let x = unsafe { f() };"));
    assert!(has_unsafe_token("unsafe impl Send for T {}"));
    assert!(!has_unsafe_token("#![forbid(unsafe_code)]"));
    assert!(!has_unsafe_token("// unsafe in a comment"));
    assert!(!has_unsafe_token("let not_unsafe = 1;"));
}
