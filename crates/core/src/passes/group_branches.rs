//! §4.2.6 Group assignments across branches: when the same assignment
//! appears under several conditions, emit it once under the disjunction.
//!
//! The paper applies this only when the number of unique assignments
//! (after the earlier transforms) is smaller than the number of
//! conditional blocks — otherwise the restructuring adds blocks instead
//! of removing them. This implementation follows the same rule.

use systec_ir::{Cond, Stmt};

/// Regroups assignments shared across sibling conditional blocks.
///
/// # Examples
///
/// The paper's §4.2.6 example — `y[i] += A[i,j] * x[j]` appears in both
/// the `i < j` and `i == j` branches:
///
/// ```
/// use systec_core::passes::group_branches;
/// use systec_ir::build::*;
/// use systec_ir::Stmt;
///
/// let shared = assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])]));
/// let extra = assign(access("y", ["j"]), mul([access("A", ["i", "j"]), access("x", ["i"])]));
/// let program = Stmt::Block(vec![
///     Stmt::guarded(lt("i", "j"), Stmt::Block(vec![shared.clone(), extra])),
///     Stmt::guarded(eq("i", "j"), shared),
/// ]);
/// let out = group_branches(program);
/// let printed = out.to_string();
/// assert!(printed.contains("if i < j || i == j"), "{printed}");
/// ```
pub fn group_branches(program: Stmt) -> Stmt {
    program.postwalk(&|s| match s {
        Stmt::Block(stmts) => regroup(stmts),
        _ => None,
    })
}

fn regroup(stmts: &[Stmt]) -> Option<Stmt> {
    // Only fire on blocks made purely of conditional assignment groups.
    let mut branches: Vec<(Cond, Vec<Stmt>)> = Vec::new();
    for stmt in stmts {
        let Stmt::If { cond, body } = stmt else {
            return None;
        };
        let assigns = match body.as_ref() {
            Stmt::Block(inner) if inner.iter().all(|s| matches!(s, Stmt::Assign { .. })) => {
                inner.clone()
            }
            a @ Stmt::Assign { .. } => vec![a.clone()],
            _ => return None,
        };
        branches.push((cond.clone(), assigns));
    }
    if branches.len() < 2 {
        return None;
    }
    // Collect unique assignments with the conditions they appear under.
    let mut grouped: Vec<(Stmt, Vec<Cond>)> = Vec::new();
    for (cond, assigns) in &branches {
        for a in assigns {
            match grouped.iter_mut().find(|(s, _)| s == a) {
                Some((_, conds)) => conds.push(cond.clone()),
                None => grouped.push((a.clone(), vec![cond.clone()])),
            }
        }
    }
    // The paper's profitability rule: only restructure when some
    // assignment is shared across branches (fewer unique assignments
    // than assignment instances).
    if grouped.iter().all(|(_, conds)| conds.len() == 1) {
        return None;
    }
    let rebuilt: Vec<Stmt> =
        grouped.into_iter().map(|(assign, conds)| Stmt::guarded(Cond::or(conds), assign)).collect();
    Some(Stmt::block(rebuilt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use systec_ir::build::*;

    fn shared() -> Stmt {
        assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])]))
    }

    fn extra() -> Stmt {
        assign(access("y", ["j"]), mul([access("A", ["i", "j"]), access("x", ["i"])]))
    }

    #[test]
    fn paper_example_shape() {
        let program = Stmt::Block(vec![
            Stmt::guarded(lt("i", "j"), Stmt::Block(vec![shared(), extra()])),
            Stmt::guarded(eq("i", "j"), shared()),
        ]);
        let out = group_branches(program);
        let printed = out.to_string();
        // Two blocks in, two statements out — but the shared assignment
        // is now written once.
        assert_eq!(printed.matches("y[i] += A[i, j] * x[j]").count(), 1, "{printed}");
        assert!(printed.contains("if i < j || i == j"), "{printed}");
        assert!(printed.contains("if i < j:\n  y[j] += A[i, j] * x[i]"), "{printed}");
    }

    #[test]
    fn unprofitable_restructure_is_skipped() {
        // Two branches with entirely distinct assignments: grouping would
        // not reduce block count.
        let program = Stmt::Block(vec![
            Stmt::guarded(lt("i", "j"), shared()),
            Stmt::guarded(eq("i", "j"), extra()),
        ]);
        assert_eq!(group_branches(program.clone()), program);
    }

    #[test]
    fn non_conditional_blocks_are_left_alone() {
        let program = Stmt::Block(vec![shared(), extra()]);
        assert_eq!(group_branches(program.clone()), program);
    }
}
