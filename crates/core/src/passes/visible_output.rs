//! §4.2.2 Restrict computation of the output to its canonical triangle.
//!
//! *Visible* output symmetry (§3.2.1) shows up after symmetrization as
//! groups of assignments with equal right-hand sides whose output
//! subscripts are permutations of one another. This pass keeps only the
//! assignment writing the canonical coordinate — halving (or better) the
//! compute — and emits a separate replication loop nest that copies the
//! canonical triangle to the other triangles afterwards (kept separate
//! because the main loop updates each location many times, §4.2.2).

use std::collections::BTreeSet;

use systec_ir::{Access, Cond, Index, Lhs, Stmt};

use crate::SymmetryPartition;

/// The result of the visible-output restriction.
#[derive(Clone, PartialEq, Debug)]
pub struct VisibleOutputResult {
    /// The main program, now writing only canonical output coordinates.
    pub program: Stmt,
    /// The post-processing loop nest replicating the canonical triangle,
    /// if any symmetry was found.
    pub replication: Option<Stmt>,
    /// The detected partition of the output's mode positions.
    pub partition: Option<SymmetryPartition>,
}

/// Detects visible output symmetry and restricts computation to the
/// output's canonical triangle.
///
/// `chain` is the canonical order of permutable indices (used to decide
/// which group member is the canonical one) and `loop_order` fixes the
/// replication nest's loop order.
pub fn visible_output(program: Stmt, chain: &[Index], loop_order: &[Index]) -> VisibleOutputResult {
    let mut detected: Vec<BTreeSet<usize>> = Vec::new();
    let mut out_access: Option<Access> = None;
    let rank = |i: &Index| {
        chain
            .iter()
            .position(|c| c == i)
            .unwrap_or_else(|| chain.len() + loop_order.iter().position(|c| c == i).unwrap_or(0))
    };
    let reduced = reduce(program, &rank, &mut detected, &mut out_access);
    let (Some(access), false) = (out_access, detected.is_empty()) else {
        return VisibleOutputResult { program: reduced, replication: None, partition: None };
    };

    // Merge overlapping varying-position sets into parts.
    let mut parts: Vec<BTreeSet<usize>> = Vec::new();
    for set in detected {
        let mut merged = set;
        parts.retain(|p| {
            if p.is_disjoint(&merged) {
                true
            } else {
                merged.extend(p.iter().copied());
                false
            }
        });
        parts.push(merged);
    }
    let mut all_parts: Vec<Vec<usize>> =
        parts.iter().map(|p| p.iter().copied().collect()).collect();
    for m in 0..access.indices.len() {
        if !parts.iter().any(|p| p.contains(&m)) {
            all_parts.push(vec![m]);
        }
    }
    let partition = SymmetryPartition::from_parts(all_parts)
        .expect("parts are disjoint and cover the output rank by construction");

    let replication = build_replication(&access, &partition, loop_order);
    VisibleOutputResult {
        program: reduced,
        replication: Some(replication),
        partition: Some(partition),
    }
}

/// Walks the tree, reducing groups of permuted-output assignments inside
/// blocks.
fn reduce(
    stmt: Stmt,
    rank: &impl Fn(&Index) -> usize,
    detected: &mut Vec<BTreeSet<usize>>,
    out_access: &mut Option<Access>,
) -> Stmt {
    match stmt {
        Stmt::Block(stmts) if stmts.iter().all(|s| matches!(s, Stmt::Assign { .. })) => {
            Stmt::block(reduce_block(stmts, rank, detected, out_access))
        }
        other => other.map_children(&mut |s| reduce(s, rank, detected, out_access)),
    }
}

fn reduce_block(
    stmts: Vec<Stmt>,
    rank: &impl Fn(&Index) -> usize,
    detected: &mut Vec<BTreeSet<usize>>,
    out_access: &mut Option<Access>,
) -> Vec<Stmt> {
    let mut groups: Vec<Vec<Stmt>> = Vec::new();
    for stmt in stmts {
        let key_of = |s: &Stmt| {
            let Stmt::Assign { op, rhs, .. } = s else { unreachable!("assignments only") };
            (*op, rhs.clone())
        };
        let key = key_of(&stmt);
        match groups.iter_mut().find(|g| key_of(&g[0]) == key) {
            Some(g) => g.push(stmt),
            None => groups.push(vec![stmt]),
        }
    }
    let mut out = Vec::new();
    for group in groups {
        match reduce_group(&group, rank) {
            Some((canonical, varying)) => {
                if let Stmt::Assign { lhs: Lhs::Tensor(a), .. } = &canonical {
                    *out_access = Some(a.clone());
                }
                detected.push(varying);
                out.push(canonical);
            }
            None => out.extend(group),
        }
    }
    out
}

/// If the group's outputs are distinct permutations of one tuple with a
/// common tensor, returns the canonical member and the varying mode
/// positions.
fn reduce_group(
    group: &[Stmt],
    rank: &impl Fn(&Index) -> usize,
) -> Option<(Stmt, BTreeSet<usize>)> {
    if group.len() < 2 {
        return None;
    }
    let tuples: Vec<&Access> = group
        .iter()
        .map(|s| match s {
            Stmt::Assign { lhs: Lhs::Tensor(a), .. } => Some(a),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    let first = tuples[0];
    if tuples.iter().any(|a| a.tensor != first.tensor || a.rank() != first.rank()) {
        return None;
    }
    // All tuples must be distinct permutations of the same index multiset.
    fn multiset(a: &Access) -> Vec<&Index> {
        let mut v: Vec<&Index> = a.indices.iter().collect();
        v.sort();
        v
    }
    let base = multiset(first);
    if tuples.iter().any(|a| multiset(a) != base) {
        return None;
    }
    let distinct: BTreeSet<&Access> = tuples.iter().copied().collect();
    if distinct.len() != tuples.len() {
        return None;
    }
    let varying: BTreeSet<usize> = (0..first.rank())
        .filter(|&m| tuples.iter().any(|a| a.indices[m] != first.indices[m]))
        .collect();
    if varying.is_empty() {
        return None;
    }
    // The canonical member has its varying indices in ascending chain
    // order.
    let canonical_at = tuples.iter().position(|a| {
        let vals: Vec<usize> = varying.iter().map(|&m| rank(&a.indices[m])).collect();
        vals.windows(2).all(|w| w[0] <= w[1])
    })?;
    Some((group[canonical_at].clone(), varying))
}

/// Builds a replication nest for an output with the given mode
/// partition: for every non-identity permutation of the symmetric output
/// modes, copy from the canonical (ascending) source. Exposed for the
/// pipeline's einsum-level output-symmetry detection (SSYRK-style
/// kernels).
pub fn replication_nest(
    access: &Access,
    partition: &SymmetryPartition,
    loop_order: &[Index],
) -> Stmt {
    build_replication(access, partition, loop_order)
}

/// Builds the replication nest: for every non-identity permutation of the
/// symmetric output modes, copy from the canonical (ascending) source.
fn build_replication(access: &Access, partition: &SymmetryPartition, loop_order: &[Index]) -> Stmt {
    let out_indices: BTreeSet<&Index> = access.indices.iter().collect();
    let nest_order: Vec<Index> =
        loop_order.iter().filter(|i| out_indices.contains(i)).cloned().collect();
    let mut blocks = Vec::new();
    for perm in partition.permutations() {
        if perm.iter().enumerate().all(|(k, &p)| k == p) {
            continue;
        }
        // Source subscripts: position m reads the index at perm[m].
        let src = Access {
            tensor: access.tensor.clone(),
            indices: perm.iter().map(|&p| access.indices[p].clone()).collect(),
        };
        // Guard: the source must be canonical (ascending within each
        // part), and the target must not be (strictly descending
        // somewhere), so canonical coordinates keep their values.
        let mut conds = Vec::new();
        for part in partition.nontrivial_parts() {
            let mut modes: Vec<usize> = part.to_vec();
            modes.sort_unstable();
            for w in modes.windows(2) {
                conds.push(Cond::Cmp(
                    systec_ir::CmpOp::Le,
                    src.indices[w[0]].clone(),
                    src.indices[w[1]].clone(),
                ));
            }
        }
        // Exclude the already-canonical target (avoid a redundant self
        // copy): at least one adjacent pair out of order.
        let mut noncanon = Vec::new();
        for part in partition.nontrivial_parts() {
            let mut modes: Vec<usize> = part.to_vec();
            modes.sort_unstable();
            for w in modes.windows(2) {
                noncanon.push(Cond::Cmp(
                    systec_ir::CmpOp::Gt,
                    access.indices[w[0]].clone(),
                    access.indices[w[1]].clone(),
                ));
            }
        }
        conds.push(Cond::or(noncanon));
        blocks.push(Stmt::guarded(
            Cond::and(conds),
            Stmt::Assign {
                lhs: Lhs::Tensor(access.clone()),
                op: systec_ir::AssignOp::Overwrite,
                rhs: src.into(),
            },
        ));
    }
    Stmt::loops(nest_order, Stmt::block(blocks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use systec_ir::build::*;

    /// The SSYRK shape: C[i,j] += A[i,k] * A[j,k]; C[j,i] += same rhs.
    #[test]
    fn ssyrk_outputs_reduce_to_canonical() {
        let rhs = mul([access("A", ["i", "k"]), access("A", ["j", "k"])]);
        let program = Stmt::loops(
            [idx("i"), idx("j"), idx("k")],
            Stmt::Block(vec![
                assign(access("C", ["i", "j"]), rhs.clone()),
                assign(access("C", ["j", "i"]), rhs),
            ]),
        );
        let result = visible_output(program, &[], &[idx("i"), idx("j"), idx("k")]);
        let printed = result.program.to_string();
        assert_eq!(printed.matches("C[").count(), 1, "{printed}");
        assert!(printed.contains("C[i, j]"), "{printed}");
        let replication = result.replication.expect("replication emitted");
        let rp = replication.to_string();
        assert!(rp.contains("C[i, j] = C[j, i]"), "{rp}");
        assert!(rp.contains("if j <= i && i > j") || rp.contains("if j <= i && (i > j)"), "{rp}");
        let partition = result.partition.expect("partition detected");
        assert!(partition.is_full());
    }

    /// The TTM shape of Listing 2 → Listing 3: six assignments collapse
    /// to three canonical ones plus replication over (j, l).
    #[test]
    fn ttm_block_reduces_by_factor_two() {
        let a = |out: [&str; 3], b: &str| {
            assign(
                Access::new("C", out.iter().map(|s| Index::new(*s))),
                mul([access("A", ["j", "k", "l"]), access("B", [b, "i"])]),
            )
        };
        let program = Stmt::loops(
            [idx("j"), idx("k"), idx("l"), idx("i")],
            Stmt::Block(vec![
                a(["i", "j", "l"], "k"),
                a(["i", "l", "j"], "k"),
                a(["i", "j", "k"], "l"),
                a(["i", "k", "j"], "l"),
                a(["i", "k", "l"], "j"),
                a(["i", "l", "k"], "j"),
            ]),
        );
        let chain = [idx("j"), idx("k"), idx("l")];
        let result = visible_output(program, &chain, &[idx("j"), idx("k"), idx("l"), idx("i")]);
        assert_eq!(result.program.assignments().len(), 3);
        let printed = result.program.to_string();
        assert!(printed.contains("C[i, j, l]"), "{printed}");
        assert!(printed.contains("C[i, j, k]"), "{printed}");
        assert!(printed.contains("C[i, k, l]"), "{printed}");
        // Replication copies across modes 1 and 2 of C.
        let rp = result.replication.unwrap().to_string();
        assert!(rp.contains("= C["), "{rp}");
    }

    #[test]
    fn no_symmetry_leaves_program_alone() {
        let program = Stmt::loops(
            [idx("i"), idx("j")],
            Stmt::Block(vec![
                assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
                assign(access("y", ["j"]), mul([access("A", ["i", "j"]), access("x", ["i"])])),
            ]),
        );
        let result = visible_output(program.clone(), &[idx("i"), idx("j")], &[idx("i"), idx("j")]);
        assert_eq!(result.program, program);
        assert!(result.replication.is_none());
        assert!(result.partition.is_none());
    }

    #[test]
    fn duplicate_tuples_are_not_reduced() {
        // Two identical assignments are invisible symmetry (distribute's
        // job), not visible symmetry.
        let a = assign(
            access("C", ["i", "j"]),
            mul([access("A", ["i", "k"]), access("A", ["j", "k"])]),
        );
        let program = Stmt::Block(vec![a.clone(), a.clone()]);
        let result = visible_output(program.clone(), &[], &[idx("i"), idx("j"), idx("k")]);
        assert_eq!(result.program, program);
    }
}
