//! §4.2.4 Consolidate conditional blocks: merge `if`-blocks with equal
//! bodies into one block guarded by the disjunction of their conditions.

use systec_ir::{Cond, Stmt};

/// Merges sibling conditional blocks with identical bodies.
///
/// # Examples
///
/// ```
/// use systec_core::passes::consolidate;
/// use systec_ir::build::*;
/// use systec_ir::Stmt;
///
/// let body = assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])]));
/// let program = Stmt::Block(vec![
///     Stmt::guarded(eq("i", "j"), body.clone()),
///     Stmt::guarded(lt("i", "j"), body),
/// ]);
/// let out = consolidate(program);
/// assert!(out.to_string().starts_with("if i == j || i < j:"), "{out}");
/// ```
pub fn consolidate(program: Stmt) -> Stmt {
    program.postwalk(&|s| match s {
        Stmt::Block(stmts) => merge_blocks(stmts).map(Stmt::block),
        _ => None,
    })
}

fn merge_blocks(stmts: &[Stmt]) -> Option<Vec<Stmt>> {
    let mut out: Vec<Stmt> = Vec::with_capacity(stmts.len());
    let mut changed = false;
    for stmt in stmts {
        let Stmt::If { cond, body } = stmt else {
            out.push(stmt.clone());
            continue;
        };
        // Find an earlier conditional with the same body.
        let merged = out.iter_mut().find_map(|prev| match prev {
            Stmt::If { cond: pc, body: pb } if pb == body => Some(pc),
            _ => None,
        });
        match merged {
            Some(pc) => {
                *pc = Cond::or([pc.clone(), cond.clone()]);
                changed = true;
            }
            None => out.push(stmt.clone()),
        }
    }
    changed.then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use systec_ir::build::*;

    fn body() -> Stmt {
        assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])]))
    }

    #[test]
    fn equal_bodies_merge_with_or() {
        let program = Stmt::Block(vec![
            Stmt::guarded(eq("i", "j"), body()),
            Stmt::guarded(lt("i", "j"), body()),
        ]);
        let out = consolidate(program);
        assert_eq!(out.to_string(), "if i == j || i < j:\n  y[i] += A[i, j] * x[j]");
    }

    #[test]
    fn different_bodies_stay_separate() {
        let other = assign(access("z", ["i"]), lit(1.0));
        let program = Stmt::Block(vec![
            Stmt::guarded(eq("i", "j"), body()),
            Stmt::guarded(lt("i", "j"), other),
        ]);
        let out = consolidate(program.clone());
        assert_eq!(out, program);
    }

    #[test]
    fn three_way_merge() {
        let program = Stmt::Block(vec![
            Stmt::guarded(eq("i", "j"), body()),
            Stmt::guarded(lt("i", "j"), body()),
            Stmt::guarded(gt("i", "j"), body()),
        ]);
        let out = consolidate(program);
        assert!(out.to_string().starts_with("if i == j || i < j || i > j:"), "{out}");
    }

    #[test]
    fn non_adjacent_blocks_merge() {
        let other = assign(access("z", ["i"]), lit(1.0));
        let program = Stmt::Block(vec![
            Stmt::guarded(eq("i", "j"), body()),
            other.clone(),
            Stmt::guarded(lt("i", "j"), body()),
        ]);
        let out = consolidate(program);
        let printed = out.to_string();
        assert!(printed.contains("if i == j || i < j"), "{printed}");
        assert!(printed.contains("z[i] += 1"), "{printed}");
    }

    #[test]
    fn merges_mttkrp_diagonal_blocks() {
        // The two single-equality MTTKRP blocks share the same body after
        // distribution; Listing 7 lines 12 show the merged condition.
        let b = Stmt::block([
            assign(
                access("C", ["i", "j"]),
                mul([
                    access("A", ["i", "k", "l"]),
                    access("B", ["k", "j"]),
                    access("B", ["l", "j"]),
                ]),
            ),
            assign(
                access("C", ["l", "j"]),
                mul([
                    access("A", ["i", "k", "l"]),
                    access("B", ["i", "j"]),
                    access("B", ["k", "j"]),
                ]),
            ),
        ]);
        let program = Stmt::Block(vec![
            Stmt::guarded(and([eq("i", "k"), ne("k", "l")]), b.clone()),
            Stmt::guarded(and([ne("i", "k"), eq("k", "l")]), b),
        ]);
        let out = consolidate(program);
        assert!(
            out.to_string().starts_with("if (i == k && k != l) || (i != k && k == l):"),
            "{out}"
        );
    }
}
