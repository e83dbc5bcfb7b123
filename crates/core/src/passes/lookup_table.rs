//! §4.2.5 Simplicial lookup table: merge conditional blocks that differ
//! only by a constant factor, selecting the factor from a table indexed
//! by the pattern of equal indices.
//!
//! After distributive grouping, the off-diagonal block of a symmetric
//! kernel carries factor `n!/1` while each diagonal block carries a
//! smaller multinomial factor. When the remaining code is otherwise
//! identical, one block with a table lookup replaces them all.

use systec_ir::{AssignOp, BinOp, CmpOp, Cond, Expr, Index, Lhs, Stmt};

/// Merges factor-only-different conditional blocks into one block with a
/// simplicial lookup table. `chain` is the canonical order of the
/// permutable indices; table indices are built from the adjacent
/// equality pattern `Σ 2^m · (p_m == p_{m+1})`.
///
/// # Examples
///
/// ```
/// use systec_core::passes::lookup_table;
/// use systec_ir::build::*;
/// use systec_ir::Stmt;
///
/// let body = |f: f64| assign(access("y", ["i"]), mul([lit(f), access("A", ["i", "j"]).into(), access("x", ["j"]).into()]));
/// let p = Stmt::Block(vec![
///     Stmt::guarded(ne("i", "j"), body(2.0)),
///     Stmt::guarded(eq("i", "j"), body(1.0)),
/// ]);
/// let out = lookup_table(p, &[idx("i"), idx("j")]);
/// let printed = out.to_string();
/// assert!(printed.contains("[2, 1][(i == j)]"), "{printed}");
/// ```
pub fn lookup_table(program: Stmt, chain: &[Index]) -> Stmt {
    if chain.len() < 2 {
        return program;
    }
    program.postwalk(&|s| match s {
        Stmt::Block(stmts) => merge(stmts, chain).map(Stmt::block),
        _ => None,
    })
}

/// A conditional block decomposed into equality patterns, a factor, and
/// the factor-stripped body.
struct Candidate {
    patterns: Vec<usize>,
    factor: f64,
    stripped: Vec<(Lhs, AssignOp, Expr)>,
    cond: Cond,
}

fn merge(stmts: &[Stmt], chain: &[Index]) -> Option<Vec<Stmt>> {
    let mut candidates: Vec<Candidate> = Vec::new();
    for stmt in stmts {
        candidates.push(candidate(stmt, chain)?);
    }
    if candidates.len() < 2 {
        return None;
    }
    // All stripped bodies must agree.
    let first = &candidates[0];
    if candidates[1..].iter().any(|c| c.stripped != first.stripped) {
        return None;
    }
    // Factors must actually differ somewhere, or this is consolidate's job.
    if candidates.iter().all(|c| c.factor == first.factor) {
        return None;
    }
    let bits = chain.len() - 1;
    let mut table = vec![0.0; 1 << bits];
    for c in &candidates {
        for &p in &c.patterns {
            table[p] = c.factor;
        }
    }
    let index_expr = pattern_index_expr(chain);
    let factor = Expr::Lookup { table, index: Box::new(index_expr) };
    let assigns: Vec<Stmt> = first
        .stripped
        .iter()
        .map(|(lhs, op, rest)| Stmt::Assign {
            lhs: lhs.clone(),
            op: *op,
            rhs: Expr::call(BinOp::Mul, [factor.clone(), rest.clone()]),
        })
        .collect();
    let cond = Cond::or(candidates.iter().map(|c| c.cond.clone()));
    Some(vec![Stmt::guarded(cond, Stmt::block(assigns))])
}

fn candidate(stmt: &Stmt, chain: &[Index]) -> Option<Candidate> {
    let Stmt::If { cond, body } = stmt else {
        return None;
    };
    let patterns = cond_patterns(cond, chain)?;
    let assigns: Vec<&Stmt> = match body.as_ref() {
        Stmt::Block(ss) if ss.iter().all(|s| matches!(s, Stmt::Assign { .. })) => {
            ss.iter().collect()
        }
        a @ Stmt::Assign { .. } => vec![a],
        _ => return None,
    };
    let mut factor: Option<f64> = None;
    let mut stripped = Vec::new();
    for a in assigns {
        let Stmt::Assign { lhs, op, rhs } = a else { unreachable!("filtered above") };
        let (f, rest) = strip_factor(rhs);
        match factor {
            Some(existing) if existing != f => return None,
            _ => factor = Some(f),
        }
        stripped.push((lhs.clone(), *op, rest));
    }
    Some(Candidate { patterns, factor: factor?, stripped, cond: cond.clone() })
}

/// Splits `k * rest` into `(k, rest)`; plain expressions have factor 1.
fn strip_factor(rhs: &Expr) -> (f64, Expr) {
    match rhs {
        Expr::Call { op: BinOp::Mul, args } => match args.as_slice() {
            [Expr::Literal(k), rest @ ..] if !rest.is_empty() => {
                (*k, Expr::call(BinOp::Mul, rest.to_vec()))
            }
            _ => (1.0, rhs.clone()),
        },
        _ => (1.0, rhs.clone()),
    }
}

/// Extracts the adjacent-equality bitmask(s) a condition selects, or
/// `None` if the condition is not a (disjunction of) complete adjacent
/// Eq/Ne patterns over the chain.
fn cond_patterns(cond: &Cond, chain: &[Index]) -> Option<Vec<usize>> {
    let disjuncts = match cond {
        Cond::Or(cs) => cs.clone(),
        other => vec![other.clone()],
    };
    let bits = chain.len() - 1;
    let mut out = Vec::new();
    for d in disjuncts {
        let mut mask = 0usize;
        let mut seen = vec![false; bits];
        for conj in d.conjuncts() {
            let Cond::Cmp(op, a, b) = conj else { return None };
            let m = adjacent_pair(&a, &b, chain)?;
            match op {
                CmpOp::Eq => mask |= 1 << m,
                CmpOp::Ne => {}
                _ => return None,
            }
            seen[m] = true;
        }
        if !seen.iter().all(|&s| s) {
            return None;
        }
        out.push(mask);
    }
    Some(out)
}

fn adjacent_pair(a: &Index, b: &Index, chain: &[Index]) -> Option<usize> {
    let pa = chain.iter().position(|c| c == a)?;
    let pb = chain.iter().position(|c| c == b)?;
    (pb == pa + 1).then_some(pa)
}

/// Builds `Σ 2^m · (p_m == p_{m+1})` over the chain.
fn pattern_index_expr(chain: &[Index]) -> Expr {
    let terms: Vec<Expr> = chain
        .windows(2)
        .enumerate()
        .map(|(m, w)| {
            let cmp = Expr::CmpVal { op: CmpOp::Eq, lhs: w[0].clone(), rhs: w[1].clone() };
            if m == 0 {
                cmp
            } else {
                Expr::call(BinOp::Mul, [Expr::Literal((1u64 << m) as f64), cmp])
            }
        })
        .collect();
    if terms.len() == 1 {
        terms.into_iter().next().expect("nonempty")
    } else {
        Expr::call(BinOp::Add, terms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systec_ir::build::*;

    fn chain3() -> Vec<Index> {
        vec![idx("i"), idx("k"), idx("l")]
    }

    fn body(f: f64, out: &str) -> Stmt {
        assign(
            access("C", [out, "j"]),
            mul([lit(f), access("A", ["i", "k", "l"]).into(), access("B", ["i", "j"]).into()]),
        )
    }

    #[test]
    fn paper_style_three_block_merge() {
        // §4.2.5: factor 2 off-diagonal, factor 1 on single diagonals.
        let p = Stmt::Block(vec![
            Stmt::guarded(and([ne("i", "k"), ne("k", "l")]), body(2.0, "l")),
            Stmt::guarded(
                or([and([ne("i", "k"), eq("k", "l")]), and([eq("i", "k"), ne("k", "l")])]),
                body(1.0, "l"),
            ),
        ]);
        let out = lookup_table(p, &chain3());
        let printed = out.to_string();
        assert!(printed.contains("[2, 1, 1, 0]"), "{printed}");
        assert!(printed.contains("(i == k)"), "{printed}");
        assert!(printed.contains("2 * (k == l)"), "{printed}");
    }

    #[test]
    fn two_index_chain() {
        let b = |f: f64| {
            assign(
                access("y", ["i"]),
                mul([lit(f), access("A", ["i", "j"]).into(), access("x", ["j"]).into()]),
            )
        };
        let p = Stmt::Block(vec![
            Stmt::guarded(ne("i", "j"), b(2.0)),
            Stmt::guarded(eq("i", "j"), b(1.0)),
        ]);
        let out = lookup_table(p, &[idx("i"), idx("j")]);
        assert!(out.to_string().contains("[2, 1][(i == j)]"), "{out}");
    }

    #[test]
    fn different_bodies_do_not_merge() {
        let p = Stmt::Block(vec![
            Stmt::guarded(ne("i", "j"), assign(access("y", ["i"]), lit(1.0))),
            Stmt::guarded(eq("i", "j"), assign(access("z", ["i"]), lit(1.0))),
        ]);
        assert_eq!(lookup_table(p.clone(), &[idx("i"), idx("j")]), p);
    }

    #[test]
    fn equal_factors_left_for_consolidate() {
        let b = || assign(access("y", ["i"]), access("A", ["i", "j"]).into());
        let p =
            Stmt::Block(vec![Stmt::guarded(ne("i", "j"), b()), Stmt::guarded(eq("i", "j"), b())]);
        assert_eq!(lookup_table(p.clone(), &[idx("i"), idx("j")]), p);
    }

    #[test]
    fn incomplete_pattern_is_rejected() {
        // Condition covering only one of the two adjacent pairs.
        let p = Stmt::Block(vec![
            Stmt::guarded(ne("i", "k"), body(2.0, "l")),
            Stmt::guarded(eq("i", "k"), body(1.0, "l")),
        ]);
        assert_eq!(lookup_table(p.clone(), &chain3()), p);
    }

    #[test]
    fn short_chain_is_a_no_op() {
        let p = Stmt::Block(vec![Stmt::guarded(eq("i", "j"), body(1.0, "l"))]);
        assert_eq!(lookup_table(p.clone(), &[idx("i")]), p);
    }
}
