//! Loop-invariant read motion: hoist tensor reads out of loops that do
//! not bind any of their subscripts.
//!
//! Finch performs this as part of lowering; since our executor interprets
//! the IR directly, the motion must happen at this level or invariant
//! reads are re-evaluated every iteration. The symmetric kernels benefit
//! in particular: SSYMV's second update `y[j] += A[i,j] * x[i]` reads
//! `x[i]`, which is invariant in the inner `j` loop.

use std::collections::BTreeSet;

use systec_ir::{Access, Expr, Index, Stmt};

/// Hoists reads whose subscripts are all bound by outer loops into
/// `let`s just inside the loop binding their deepest subscript.
///
/// # Examples
///
/// ```
/// use systec_core::passes::licm;
/// use systec_ir::build::*;
/// use systec_ir::Stmt;
///
/// let p = Stmt::loops(
///     [idx("i"), idx("j")],
///     assign(access("y", ["j"]), mul([access("A", ["i", "j"]), access("x", ["i"])])),
/// );
/// let out = licm(p);
/// let printed = out.to_string();
/// // x[i] is bound once per i, outside the j loop.
/// assert!(printed.contains("let h_x = x[i]:\n    for j:"), "{printed}");
/// ```
pub fn licm(program: Stmt) -> Stmt {
    let mut counter = 0usize;
    walk(program, &mut BTreeSet::new(), &mut counter)
}

fn walk(stmt: Stmt, bound: &mut BTreeSet<Index>, counter: &mut usize) -> Stmt {
    match stmt {
        Stmt::Loop { index, body } => {
            bound.insert(index.clone());
            let body = walk(*body, bound, counter);
            // Hoist reads that are fully bound here but sit under deeper
            // loops — excluding tensors the body writes (reading those is
            // order-sensitive).
            let mut written: Vec<&str> = Vec::new();
            body.for_each_access(&mut |a, op| {
                if op.is_some() {
                    written.push(&a.tensor.name);
                }
            });
            let mut candidates: Vec<Access> = Vec::new();
            collect_hoistable(&body, bound, &mut candidates);
            candidates.retain(|a| !written.contains(&a.tensor.name.as_str()));
            let mut body = body;
            let mut lets: Vec<(String, Access)> = Vec::new();
            for access in candidates {
                let name = if *counter == 0 {
                    format!("h_{}", access.tensor.display_name())
                } else {
                    format!("h_{}{}", access.tensor.display_name(), counter)
                };
                *counter += 1;
                body = substitute_access(body, &access, &name);
                lets.push((name, access));
            }
            for (name, access) in lets.into_iter().rev() {
                body = Stmt::Let { name, value: Expr::Access(access), body: Box::new(body) };
            }
            bound.remove(&index);
            Stmt::Loop { index, body: Box::new(body) }
        }
        other => other.map_children(&mut |s| walk(s, bound, counter)),
    }
}

/// Collects accesses under at least one inner loop whose subscripts are
/// all bound (and which therefore re-read the same element every inner
/// iteration).
fn collect_hoistable(stmt: &Stmt, bound: &BTreeSet<Index>, out: &mut Vec<Access>) {
    match stmt {
        Stmt::Loop { body, .. } => body.for_each_access(&mut |a, op| {
            if op.is_none() && a.indices.iter().all(|i| bound.contains(i)) && !out.contains(a) {
                out.push(a.clone());
            }
        }),
        other => {
            for s in other.children() {
                collect_hoistable(s, bound, out);
            }
        }
    }
}

/// Replaces reads of `access` under inner loops with the scalar `name`.
fn substitute_access(stmt: Stmt, access: &Access, name: &str) -> Stmt {
    match stmt {
        Stmt::Loop { index, body } => {
            let body = body.map_exprs(&mut |e| {
                e.map_accesses(&mut |a| {
                    if a == *access {
                        Expr::Scalar(name.to_string())
                    } else {
                        Expr::Access(a)
                    }
                })
            });
            Stmt::Loop { index, body: Box::new(body) }
        }
        other => other.map_children(&mut |s| substitute_access(s, access, name)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systec_ir::build::*;

    #[test]
    fn hoists_invariant_read_out_of_inner_loop() {
        let p = Stmt::loops(
            [idx("i"), idx("j")],
            assign(access("y", ["j"]), mul([access("A", ["i", "j"]), access("x", ["i"])])),
        );
        let printed = licm(p).to_string();
        assert!(printed.contains("let h_x = x[i]"), "{printed}");
        assert!(printed.contains("A[i, j] * h_x"), "{printed}");
    }

    #[test]
    fn does_not_hoist_varying_read() {
        let p = Stmt::loops(
            [idx("i"), idx("j")],
            assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
        );
        assert_eq!(licm(p.clone()), p);
    }

    #[test]
    fn innermost_reads_stay_put() {
        // Access is not under any loop deeper than its binding loop.
        let p = Stmt::loops([idx("i")], assign(access("y", ["i"]), access("x", ["i"]).into()));
        assert_eq!(licm(p.clone()), p);
    }

    #[test]
    fn hoists_from_let_values_too() {
        let p = Stmt::loops(
            [idx("i"), idx("j")],
            Stmt::Let {
                name: "t".into(),
                value: mul([access("x", ["i"]), access("A", ["i", "j"])]),
                body: Box::new(assign(access("y", ["j"]), scalar("t"))),
            },
        );
        let printed = licm(p).to_string();
        assert!(printed.contains("let h_x = x[i]"), "{printed}");
        assert!(printed.contains("h_x * A[i, j]"), "{printed}");
    }

    #[test]
    fn multiple_invariants_get_distinct_names() {
        let p = Stmt::loops(
            [idx("i"), idx("j")],
            assign(
                access("y", ["j"]),
                mul([access("x", ["i"]), access("z", ["i"]), access("A", ["i", "j"])]),
            ),
        );
        let printed = licm(p).to_string();
        assert!(printed.contains("let h_x = x[i]"), "{printed}");
        assert!(printed.contains("let h_z"), "{printed}");
    }

    #[test]
    fn scalar_zero_index_reads_hoist_to_outermost_loop() {
        // x[] (rank 0) is invariant everywhere; it hoists to the
        // outermost loop.
        let p = Stmt::loops(
            [idx("i"), idx("j")],
            assign(
                access("y", ["j"]),
                mul([access("c", [] as [&str; 0]), access("A", ["i", "j"])]),
            ),
        );
        let printed = licm(p).to_string();
        assert!(printed.contains("let h_c = c[]"), "{printed}");
    }
}
