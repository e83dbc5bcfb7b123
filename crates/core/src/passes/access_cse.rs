//! §4.2.1 Common tensor access elimination: replace repeated reads of
//! the same tensor element with one `let`-bound scalar.
//!
//! After normalization, all reads of a fully symmetric tensor within a
//! conditional block are syntactically equal, so this pass cuts its
//! memory reads by `n!`. The paper notes this step is *required* before
//! Finch compilation — each access is an iterator, and redundant
//! accesses would force redundant iterator intersections; our executor
//! benefits the same way (one path probe instead of several).

use std::collections::HashMap;

use systec_ir::{Access, Expr, Stmt};

/// Applies common tensor access elimination to every conditional block
/// and loop body.
///
/// # Examples
///
/// ```
/// use systec_core::passes::access_cse;
/// use systec_ir::build::*;
/// use systec_ir::Stmt;
///
/// let block = Stmt::Block(vec![
///     assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
///     assign(access("y", ["j"]), mul([access("A", ["i", "j"]), access("x", ["i"])])),
/// ]);
/// let out = access_cse(block);
/// let printed = out.to_string();
/// assert!(printed.starts_with("let t_A"), "{printed}");
/// assert_eq!(printed.matches("A[i, j]").count(), 1, "{printed}");
/// ```
pub fn access_cse(program: Stmt) -> Stmt {
    program.postwalk(&|s| match s {
        Stmt::Block(stmts) => cse_block(stmts),
        _ => None,
    })
}

/// Finds accesses read two or more times across the block's assignment
/// right-hand sides, binds each to a scalar, and substitutes.
fn cse_block(stmts: &[Stmt]) -> Option<Stmt> {
    // Only transform blocks of plain assignments (the shape the
    // symmetrizer emits); blocks that already contain control flow have
    // been processed or are replication loops.
    if !stmts.iter().all(|s| matches!(s, Stmt::Assign { .. })) {
        return None;
    }
    let mut counts: Vec<(Access, usize)> = Vec::new();
    for stmt in stmts {
        let Stmt::Assign { rhs, .. } = stmt else { unreachable!("checked above") };
        for access in rhs.accesses() {
            match counts.iter_mut().find(|(a, _)| a == access) {
                Some((_, n)) => *n += 1,
                None => counts.push((access.clone(), 1)),
            }
        }
    }
    let repeated: Vec<Access> =
        counts.into_iter().filter(|(_, n)| *n >= 2).map(|(a, _)| a).collect();
    if repeated.is_empty() {
        return None;
    }
    // Name the scalars deterministically: t_<tensor>, t_<tensor>1, ...
    let mut names: HashMap<Access, String> = HashMap::new();
    let mut per_tensor: HashMap<String, usize> = HashMap::new();
    for access in &repeated {
        let base = access.tensor.display_name();
        let k = per_tensor.entry(base.clone()).or_insert(0);
        let name = if *k == 0 { format!("t_{base}") } else { format!("t_{base}{k}") };
        *k += 1;
        names.insert(access.clone(), name);
    }
    let mut body = Stmt::block(stmts.to_vec()).map_exprs(&mut |rhs| {
        rhs.map_accesses(&mut |a| match names.get(&a) {
            Some(name) => Expr::Scalar(name.clone()),
            None => Expr::Access(a),
        })
    });
    for access in repeated.iter().rev() {
        body = Stmt::Let {
            name: names[access].clone(),
            value: Expr::Access(access.clone()),
            body: Box::new(body),
        };
    }
    Some(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use systec_ir::build::*;

    #[test]
    fn single_use_access_is_left_alone() {
        let block = Stmt::Block(vec![
            assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
            assign(access("z", ["i"]), access("B", ["i"]).into()),
        ]);
        assert_eq!(access_cse(block.clone()), block);
    }

    #[test]
    fn repeated_access_is_bound_once() {
        let block = Stmt::Block(vec![
            assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
            assign(access("y", ["j"]), mul([access("A", ["i", "j"]), access("x", ["i"])])),
        ]);
        let printed = access_cse(block).to_string();
        assert!(printed.contains("let t_A = A[i, j]"), "{printed}");
        assert!(printed.contains("y[i] += t_A * x[j]"), "{printed}");
        assert!(printed.contains("y[j] += t_A * x[i]"), "{printed}");
    }

    #[test]
    fn multiple_repeated_accesses_get_distinct_names() {
        let block = Stmt::Block(vec![
            assign(
                access("C", ["i", "j"]),
                mul([access("A", ["i", "k"]), access("B", ["k", "j"])]),
            ),
            assign(
                access("C", ["j", "i"]),
                mul([access("A", ["i", "k"]), access("B", ["k", "j"])]),
            ),
        ]);
        let printed = access_cse(block).to_string();
        assert!(printed.contains("let t_A = A[i, k]"), "{printed}");
        assert!(printed.contains("let t_B = B[k, j]"), "{printed}");
    }

    #[test]
    fn same_tensor_different_subscripts_get_numbered_names() {
        let block = Stmt::Block(vec![
            assign(access("y", ["i"]), mul([access("B", ["k", "j"]), access("B", ["l", "j"])])),
            assign(access("y", ["k"]), mul([access("B", ["k", "j"]), access("B", ["l", "j"])])),
        ]);
        let printed = access_cse(block).to_string();
        assert!(printed.contains("let t_B = "), "{printed}");
        assert!(printed.contains("let t_B1 = "), "{printed}");
    }

    #[test]
    fn applies_inside_conditionals() {
        let s = Stmt::guarded(
            lt("i", "j"),
            Stmt::Block(vec![
                assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
                assign(access("y", ["j"]), mul([access("A", ["i", "j"]), access("x", ["i"])])),
            ]),
        );
        let printed = access_cse(s).to_string();
        assert!(printed.contains("if i < j:\n  let t_A"), "{printed}");
    }

    #[test]
    fn counts_multiple_uses_within_one_assignment() {
        // B[k, j] appearing twice in one product still gets bound.
        let block = Stmt::Block(vec![assign(
            access("y", ["k"]),
            mul([access("B", ["k", "j"]), access("B", ["k", "j"])]),
        )]);
        let printed = access_cse(block).to_string();
        assert!(printed.contains("let t_B"), "{printed}");
        assert!(printed.contains("t_B * t_B"), "{printed}");
    }
}
