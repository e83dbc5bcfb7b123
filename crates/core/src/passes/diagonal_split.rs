//! §4.2.9 Diagonal splitting: compute diagonal and off-diagonal
//! contributions in separate loop nests over split tensors.
//!
//! Non-diagonal values form the bulk of a symmetric tensor, so the paper
//! treats diagonal entries as an edge case computed in its own loop nest
//! (Listing 7's `A_nondiag` / `A_diag`). Splitting the *tensor* — not
//! just the conditionals — means the main nest iterates only off-diagonal
//! entries with simple control flow, and the small diagonal nest touches
//! only the few diagonal entries.

use systec_ir::{Cond, Expr, Index, Stmt, TensorPart};

/// How a condition relates to the diagonal structure of the chain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    /// Requires all chain indices distinct (the off-diagonal case).
    NonDiag,
    /// Requires at least one equality (a diagonal case).
    Diag,
    /// Mentions no chain equalities either way.
    Neutral,
    /// Mixes diagonal and off-diagonal disjuncts.
    Mixed,
}

/// Splits the program into an off-diagonal nest (reading `*_nondiag`
/// variants of the symmetric tensors) and a diagonal nest (reading
/// `*_diag` variants). Returns the program unchanged when splitting does
/// not apply (no symmetry, fewer than two chain indices, or control flow
/// that mixes the two cases).
pub fn diagonal_split(program: Stmt, chain: &[Index], symmetric: &[String]) -> Stmt {
    if chain.len() < 2 || symmetric.is_empty() {
        return program;
    }
    let Some(nondiag) = filter_tree(&program, chain, Class::NonDiag) else {
        return program;
    };
    let Some(diag) = filter_tree(&program, chain, Class::Diag) else {
        return program;
    };
    let (Some(nondiag), Some(diag)) = (nondiag, diag) else {
        return program;
    };
    if nondiag.is_empty() || diag.is_empty() {
        return program;
    }
    // In the off-diagonal nest, the `p != q` guards are implied by the
    // split tensor's structure (every stored entry has pairwise-distinct
    // canonical coordinates), so they can be dropped — this is what makes
    // the hot nest's control flow as simple as Listing 7's.
    let nondiag = strip_nondiag_guards(nondiag, chain);
    let nondiag = retarget(nondiag, symmetric, TensorPart::OffDiagonal);
    let diag = retarget(diag, symmetric, TensorPart::Diagonal);
    Stmt::block([nondiag, diag])
}

/// Clones the tree keeping only conditional blocks of the wanted class.
/// Outer `Option` is `None` on a `Mixed` condition (abort); inner
/// `Option` is `None` when the subtree has nothing of the wanted class.
fn filter_tree(stmt: &Stmt, chain: &[Index], want: Class) -> Option<Option<Stmt>> {
    match stmt {
        Stmt::Block(ss) => {
            let mut kept = Vec::new();
            for s in ss {
                if let Some(sub) = filter_tree(s, chain, want)? {
                    kept.push(sub);
                }
            }
            Some((!kept.is_empty()).then(|| Stmt::block(kept)))
        }
        Stmt::If { cond, body } => match classify(cond, chain) {
            Class::Mixed => None,
            Class::Neutral => Some(
                filter_tree(body, chain, want)?
                    .map(|b| Stmt::If { cond: cond.clone(), body: Box::new(b) }),
            ),
            c if c == want => Some(Some(stmt.clone())),
            _ => Some(None),
        },
        Stmt::Assign { .. } => Some(Some(stmt.clone())),
        // A loop, `let` or workspace keeps its header around whatever
        // of its one body survives.
        Stmt::Loop { .. } | Stmt::Let { .. } | Stmt::Workspace { .. } => {
            let Some(body) = filter_tree(&stmt.children()[0], chain, want)? else {
                return Some(None);
            };
            let mut body = Some(body);
            Some(Some(stmt.clone().map_children(&mut |_| body.take().expect("one body"))))
        }
    }
}

/// Removes `Ne` conjuncts between chain indices (and pure-`Ne` guards)
/// from the off-diagonal nest, where the split tensor makes them
/// tautological.
fn strip_nondiag_guards(stmt: Stmt, chain: &[Index]) -> Stmt {
    match stmt {
        Stmt::If { cond, body } => {
            let body = strip_nondiag_guards(*body, chain);
            let kept = Cond::and(cond.conjuncts().into_iter().filter(|c| {
                !matches!(c, Cond::Cmp(systec_ir::CmpOp::Ne, a, b)
                    if chain.contains(a) && chain.contains(b))
            }));
            Stmt::guarded(kept, body)
        }
        other => other.map_children(&mut |s| strip_nondiag_guards(s, chain)),
    }
}

fn classify(cond: &Cond, chain: &[Index]) -> Class {
    let on_chain = |a: &Index, b: &Index| chain.contains(a) && chain.contains(b);
    match cond {
        Cond::True => Class::Neutral,
        Cond::Cmp(op, a, b) if on_chain(a, b) => match op {
            systec_ir::CmpOp::Eq => Class::Diag,
            systec_ir::CmpOp::Ne => Class::NonDiag,
            _ => Class::Neutral,
        },
        Cond::Cmp(..) => Class::Neutral,
        Cond::And(cs) => {
            let mut class = Class::Neutral;
            for c in cs {
                class = match (class, classify(c, chain)) {
                    (x, Class::Neutral) => x,
                    (Class::Neutral, y) => y,
                    (x, y) if x == y => x,
                    // An `and` mixing Eq and Ne over the chain is still a
                    // diagonal case (some indices equal).
                    _ => Class::Diag,
                };
            }
            class
        }
        Cond::Or(cs) => {
            let mut class = Class::Neutral;
            for c in cs {
                class = match (class, classify(c, chain)) {
                    (x, Class::Neutral) | (Class::Neutral, x) => x,
                    (x, y) if x == y => x,
                    _ => return Class::Mixed,
                };
            }
            class
        }
    }
}

/// Rewrites base accesses to the named symmetric tensors to read the
/// given part.
fn retarget(stmt: Stmt, symmetric: &[String], part: TensorPart) -> Stmt {
    stmt.map_exprs(&mut |e| {
        e.map_accesses(&mut |mut a| {
            if a.tensor.part == TensorPart::All && symmetric.contains(&a.tensor.name) {
                a.tensor.part = part;
            }
            Expr::Access(a)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use systec_ir::build::*;

    fn chain2() -> Vec<Index> {
        vec![idx("i"), idx("j")]
    }

    fn ssymv_symmetrized() -> Stmt {
        Stmt::loops(
            [idx("i"), idx("j")],
            Stmt::guarded(
                le("i", "j"),
                Stmt::block([
                    Stmt::guarded(
                        ne("i", "j"),
                        Stmt::block([
                            assign(
                                access("y", ["i"]),
                                mul([access("A", ["i", "j"]), access("x", ["j"])]),
                            ),
                            assign(
                                access("y", ["j"]),
                                mul([access("A", ["i", "j"]), access("x", ["i"])]),
                            ),
                        ]),
                    ),
                    Stmt::guarded(
                        eq("i", "j"),
                        assign(
                            access("y", ["i"]),
                            mul([access("A", ["i", "j"]), access("x", ["j"])]),
                        ),
                    ),
                ]),
            ),
        )
    }

    #[test]
    fn splits_into_two_nests_with_part_variants() {
        let out = diagonal_split(ssymv_symmetrized(), &chain2(), &["A".to_string()]);
        let printed = out.to_string();
        assert!(printed.contains("A_nondiag[i, j]"), "{printed}");
        assert!(printed.contains("A_diag[i, j]"), "{printed}");
        // Two separate loop nests.
        assert_eq!(printed.matches("for i:").count(), 2, "{printed}");
        // The off-diagonal nest holds 2 assignments, the diagonal nest 1.
        assert_eq!(out.assignments().len(), 3);
    }

    #[test]
    fn no_chain_means_no_split() {
        let p = ssymv_symmetrized();
        assert_eq!(diagonal_split(p.clone(), &[], &["A".to_string()]), p);
        assert_eq!(diagonal_split(p.clone(), &[idx("i")], &["A".to_string()]), p);
        assert_eq!(diagonal_split(p.clone(), &chain2(), &[]), p);
    }

    #[test]
    fn mixed_or_condition_aborts_split() {
        let p = Stmt::loops(
            [idx("i"), idx("j")],
            Stmt::guarded(
                or([eq("i", "j"), ne("i", "j")]),
                assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
            ),
        );
        assert_eq!(diagonal_split(p.clone(), &chain2(), &["A".to_string()]), p);
    }

    #[test]
    fn consolidated_diagonal_or_still_splits() {
        // (i == k && k != l) || (i != k && k == l) is diagonal throughout.
        let chain = vec![idx("i"), idx("k"), idx("l")];
        let p = Stmt::loops(
            [idx("i"), idx("k"), idx("l")],
            Stmt::block([
                Stmt::guarded(
                    and([ne("i", "k"), ne("k", "l")]),
                    assign(access("y", ["i"]), access("A", ["i", "k", "l"]).into()),
                ),
                Stmt::guarded(
                    or([and([eq("i", "k"), ne("k", "l")]), and([ne("i", "k"), eq("k", "l")])]),
                    assign(access("y", ["i"]), access("A", ["i", "k", "l"]).into()),
                ),
            ]),
        );
        let out = diagonal_split(p, &chain, &["A".to_string()]);
        let printed = out.to_string();
        assert!(printed.contains("A_nondiag"), "{printed}");
        assert!(printed.contains("A_diag"), "{printed}");
    }

    #[test]
    fn lets_are_preserved_in_both_nests() {
        let p = Stmt::loops(
            [idx("i"), idx("j")],
            Stmt::Let {
                name: "t".into(),
                value: access("A", ["i", "j"]).into(),
                body: Box::new(Stmt::block([
                    Stmt::guarded(ne("i", "j"), assign(access("y", ["i"]), scalar("t"))),
                    Stmt::guarded(eq("i", "j"), assign(access("y", ["j"]), scalar("t"))),
                ])),
            },
        );
        let out = diagonal_split(p, &chain2(), &["A".to_string()]);
        let printed = out.to_string();
        assert!(printed.contains("let t = A_nondiag[i, j]"), "{printed}");
        assert!(printed.contains("let t = A_diag[i, j]"), "{printed}");
    }
}
