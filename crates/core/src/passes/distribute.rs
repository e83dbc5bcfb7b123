//! §4.2.7 Distributive assignment grouping: replace `N` equivalent
//! additions in a block with one addition scaled by `N`.
//!
//! This is the transform that cashes in *invisible output symmetry*
//! (§3.2.2): after normalization, the symmetrizer's equivalent
//! assignments to the *same* location are syntactically identical, and
//! `N` repeated `x += v` collapse to `x += N * v`. Idempotent reductions
//! (`min=`, `max=`) simply drop the duplicates.

use systec_ir::{AssignOp, BinOp, Expr, Stmt};

/// Applies distributive assignment grouping everywhere in the program.
///
/// # Examples
///
/// ```
/// use systec_core::passes::distribute;
/// use systec_ir::build::*;
/// use systec_ir::Stmt;
///
/// let a = assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])]));
/// let program = Stmt::Block(vec![a.clone(), a]);
/// let out = distribute(program);
/// assert_eq!(out.to_string(), "y[i] += 2 * A[i, j] * x[j]");
/// ```
pub fn distribute(program: Stmt) -> Stmt {
    program.postwalk(&|s| match s {
        Stmt::Block(stmts) => {
            let grouped = group_block(stmts)?;
            Some(Stmt::block(grouped))
        }
        _ => None,
    })
}

/// Groups identical assignments in a block; returns `None` when nothing
/// changes (so the rewrite reaches a fixpoint).
///
/// When every statement is a *reducing* assignment (whose order within
/// the block is immaterial), duplicates are grouped globally; otherwise
/// only adjacent runs merge.
fn group_block(stmts: &[Stmt]) -> Option<Vec<Stmt>> {
    let reorderable =
        stmts.iter().all(|s| matches!(s, Stmt::Assign { op, .. } if *op != AssignOp::Overwrite));
    let mut out: Vec<Stmt> = Vec::with_capacity(stmts.len());
    let mut counts: Vec<f64> = Vec::new();
    let mut changed = false;
    for stmt in stmts {
        let existing = if reorderable {
            out.iter().position(|prev| prev == stmt)
        } else {
            out.last().filter(|prev| *prev == stmt).map(|_| out.len() - 1)
        };
        match existing {
            Some(at) => {
                counts[at] += 1.0;
                changed = true;
            }
            None => {
                out.push(stmt.clone());
                counts.push(1.0);
            }
        }
    }
    if !changed {
        return None;
    }
    Some(out.into_iter().zip(counts).map(|(s, n)| if n > 1.0 { scale(s, n) } else { s }).collect())
}

/// `x += v, x += v` → `x += 2 * v`; `x min= v, x min= v` → `x min= v`.
fn scale(stmt: Stmt, factor: f64) -> Stmt {
    let Stmt::Assign { lhs, op, rhs } = stmt else {
        unreachable!("scale is only called on assignments");
    };
    if op.is_idempotent() || op != AssignOp::Add {
        return Stmt::Assign { lhs, op, rhs };
    }
    Stmt::Assign { lhs, op, rhs: Expr::call(BinOp::Mul, [Expr::Literal(factor), rhs]) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systec_ir::build::*;

    fn a() -> Stmt {
        assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])]))
    }

    #[test]
    fn two_duplicates_become_factor_two() {
        let out = distribute(Stmt::Block(vec![a(), a()]));
        assert_eq!(out.to_string(), "y[i] += 2 * A[i, j] * x[j]");
    }

    #[test]
    fn three_duplicates_become_factor_three() {
        let out = distribute(Stmt::Block(vec![a(), a(), a()]));
        assert_eq!(out.to_string(), "y[i] += 3 * A[i, j] * x[j]");
    }

    #[test]
    fn distinct_assignments_untouched() {
        let b = assign(access("y", ["j"]), mul([access("A", ["i", "j"]), access("x", ["i"])]));
        let block = Stmt::Block(vec![a(), b.clone()]);
        let out = distribute(block.clone());
        assert_eq!(out, block);
    }

    #[test]
    fn mttkrp_listing6_block_collapses() {
        // Lines 5–10 of Listing 6: three pairs of duplicates.
        let c_i = assign(
            access("C", ["i", "j"]),
            mul([access("A", ["i", "k", "l"]), access("B", ["k", "j"]), access("B", ["l", "j"])]),
        );
        let c_k = assign(
            access("C", ["k", "j"]),
            mul([access("A", ["i", "k", "l"]), access("B", ["i", "j"]), access("B", ["l", "j"])]),
        );
        let c_l = assign(
            access("C", ["l", "j"]),
            mul([access("A", ["i", "k", "l"]), access("B", ["i", "j"]), access("B", ["k", "j"])]),
        );
        let block = Stmt::Block(vec![c_i.clone(), c_i, c_k.clone(), c_k, c_l.clone(), c_l]);
        let out = distribute(block);
        let printed = out.to_string();
        assert_eq!(printed.matches("+= 2 *").count(), 3, "{printed}");
    }

    #[test]
    fn idempotent_min_drops_duplicates_without_factor() {
        let m = assign_op(
            access("y", ["i"]),
            systec_ir::AssignOp::Min,
            add([access("A", ["i", "j"]), access("x", ["j"])]),
        );
        let out = distribute(Stmt::Block(vec![m.clone(), m.clone()]));
        assert_eq!(out, m);
    }

    #[test]
    fn grouping_applies_under_conditionals() {
        let s = Stmt::guarded(lt("i", "j"), Stmt::Block(vec![a(), a()]));
        let out = distribute(s);
        assert!(out.to_string().contains("2 *"), "{out}");
    }
}
