//! Golden compiled *programs*: an FNV-1a hash over the printed main and
//! replication programs of every paper kernel under every
//! `CompileOptions` variant of `pass_preservation.rs`, plus each
//! kernel's naive plan, diffed against the checked-in
//! `golden/programs.golden`.
//!
//! The bytecode goldens pin only the default plan byte for byte; the
//! other variants are checked for semantics alone. A pass refactor that
//! reorders a sum, renames a temporary or drops a guard under one
//! toggle still computes the same numbers, but moves a hash here.
//!
//! Regenerate after an *intentional* change to a compiled program with:
//!
//! ```sh
//! SYSTEC_BLESS=1 cargo test --test program_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use systec::compiler::{CompileOptions, Compiler};
use systec::kernels::defs;

/// The variants of `tests/pass_preservation.rs`, in its order.
fn variants() -> Vec<(&'static str, CompileOptions)> {
    let all = CompileOptions::default();
    vec![
        ("full", all),
        ("no_visible_output", CompileOptions { visible_output: false, ..all }),
        ("no_distribute", CompileOptions { distribute: false, ..all }),
        ("with_lookup_tables", CompileOptions { lookup_tables: true, ..all }),
        ("no_consolidate", CompileOptions { consolidate: false, ..all }),
        ("no_cse", CompileOptions { cse: false, ..all }),
        ("no_diag_split", CompileOptions { diagonal_split: false, ..all }),
        ("no_group_branches", CompileOptions { group_branches: false, ..all }),
        ("no_workspace", CompileOptions { workspace: false, ..all }),
        ("no_licm", CompileOptions { licm: false, ..all }),
        ("no_concordize", CompileOptions { concordize: false, ..all }),
        ("no_output_detection", CompileOptions { output_symmetry_detection: false, ..all }),
        ("symmetrize_only", CompileOptions::none()),
    ]
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// One `kernel variant hash` line per plan; the hash covers the printed
/// programs in order, each followed by a NUL so a statement cannot slide
/// from one program into the next unseen.
fn snapshot() -> String {
    let mut text = String::new();
    let mut line = |kernel: &str, variant: &str, programs: &[String]| {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for program in programs {
            fnv1a(&mut hash, program.as_bytes());
            fnv1a(&mut hash, &[0]);
        }
        writeln!(text, "{kernel} {variant} {hash:016x}").unwrap();
    };
    for def in defs::all() {
        for (variant, options) in variants() {
            let kernel = Compiler::with_options(options)
                .compile(&def.einsum, &def.symmetry)
                .unwrap_or_else(|e| panic!("{} {variant}: {e}", def.name));
            let programs: Vec<String> = std::iter::once(&kernel.main)
                .chain(&kernel.replication)
                .map(ToString::to_string)
                .collect();
            line(def.name, variant, &programs);
        }
        line(def.name, "naive", &[Compiler::new().naive(&def.einsum).to_string()]);
    }
    text
}

#[test]
fn compiled_programs_match_golden() {
    let text = snapshot();
    assert_eq!(text, snapshot(), "compiling the same kernel twice printed different programs");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/programs.golden");
    if std::env::var_os("SYSTEC_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, &text).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless with SYSTEC_BLESS=1)", path.display()));
    let stale: Vec<String> = expected
        .lines()
        .zip(text.lines())
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("  - {a}\n  + {b}"))
        .collect();
    assert!(
        stale.is_empty() && expected.lines().count() == text.lines().count(),
        "{} diverged on {} of {} lines — a pass change moved a compiled program:\n{}",
        path.display(),
        stale.len(),
        text.lines().count(),
        stale.join("\n")
    );
}
