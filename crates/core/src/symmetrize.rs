//! Symmetrization (§4.1): the four-stage process that restricts
//! iteration to canonical triangles and emits one assignment per unique
//! symmetry-group permutation.

use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

use systec_ir::{Access, Cond, Einsum, Expr, Index, Stmt};

use crate::perms::{equivalence_groups, unique_symmetry_group};
use crate::{CompileError, SymmetrySpec};

/// The output of symmetrization: a loop nest whose body is guarded by
/// the monotone chain `p_1 ≤ … ≤ p_n` and split into one conditional
/// block per equivalence group.
#[derive(Clone, PartialEq, Debug)]
pub struct SymmetrizedKernel {
    /// The symmetrized program.
    pub program: Stmt,
    /// The permutable indices `P`, in canonical (chain) order.
    pub chain: Vec<Index>,
    /// The names of the tensors declared symmetric.
    pub symmetric_tensors: Vec<String>,
    /// The einsum this kernel was derived from (with symmetric accesses
    /// normalized to canonical index order).
    pub einsum: Einsum,
}

/// Runs the four symmetrization stages on an einsum.
///
/// 1. **Identify symmetry**: `P` = every index sitting in a symmetric
///    part of size ≥ 2 of some input access.
/// 2. **Restrict iteration space**: order `P` so that the monotone chain
///    visits only canonical coordinates of every symmetric tensor (a
///    topological sort of the per-tensor mode orders).
/// 3. **Define assignments**: for each equivalence group `E` compatible
///    with the chain, apply each permutation in `S_P|E` to the assignment.
/// 4. **Normalize**: sort symmetric-access indices to canonical order
///    and sort commutative operands, making equivalent assignments
///    syntactically equal.
///
/// # Errors
///
/// Returns a [`CompileError`] if the symmetry declarations do not match
/// the einsum (unknown tensor, rank mismatch, repeated index, multiple
/// differently-indexed accesses, or a cyclic canonical order).
pub fn symmetrize(einsum: &Einsum, spec: &SymmetrySpec) -> Result<SymmetrizedKernel, CompileError> {
    let accesses = symmetric_accesses(einsum, spec)?;

    // Stage 1: permutable indices.
    let mut permutable: BTreeSet<Index> = BTreeSet::new();
    for (access, partition) in &accesses {
        for part in partition.nontrivial_parts() {
            for &mode in part {
                permutable.insert(access.indices[mode].clone());
            }
        }
    }

    // Stage 2: canonical chain order (topological sort of per-part mode
    // orders, tie-broken by loop order for determinism).
    let chain = canonical_chain(&permutable, &accesses, &einsum.loop_order)?;

    // Normalize the base einsum's symmetric accesses to canonical order.
    let chain_rank: HashMap<Index, usize> =
        chain.iter().enumerate().map(|(k, i)| (i.clone(), k)).collect();
    let by_rank = |a: &Index, b: &Index| {
        let rank = |i: &Index| chain_rank.get(i).copied().unwrap_or(usize::MAX);
        rank(a).cmp(&rank(b))
    };
    let base_rhs = normalize_accesses(einsum.rhs.clone(), spec, &by_rank);
    let mut norm_einsum = einsum.clone();
    norm_einsum.rhs = base_rhs.clone();

    // Stages 3 and 4: equivalence groups, unique permutations, normalize.
    let chain_guard = Cond::and(
        chain.windows(2).map(|w| Cond::Cmp(systec_ir::CmpOp::Le, w[0].clone(), w[1].clone())),
    );
    let mut blocks: Vec<Stmt> = Vec::new();
    for group in equivalence_groups(chain.len()) {
        let cond = group.condition(&chain);
        let mut assigns: Vec<Stmt> = Vec::new();
        for sigma in unique_symmetry_group(&group) {
            let map: HashMap<Index, Index> = sigma
                .iter()
                .enumerate()
                .map(|(m, &src)| (chain[m].clone(), chain[src].clone()))
                .collect();
            let out = einsum.output.substitute(&map);
            let rhs = normalize_accesses(base_rhs.substitute(&map), spec, &by_rank);
            let rhs = rhs.sort_commutative();
            assigns.push(Stmt::Assign { lhs: out.into(), op: einsum.op, rhs });
        }
        blocks.push(Stmt::guarded(cond, Stmt::block(assigns)));
    }

    let body = Stmt::guarded(chain_guard, Stmt::block(blocks));
    let program = Stmt::loops(einsum.loop_order.iter().cloned(), body);
    Ok(SymmetrizedKernel {
        program,
        chain,
        symmetric_tensors: spec.names().iter().map(|s| s.to_string()).collect(),
        einsum: norm_einsum,
    })
}

/// Validates the spec against the einsum and returns the (deduplicated)
/// symmetric accesses paired with their partitions.
fn symmetric_accesses<'a>(
    einsum: &Einsum,
    spec: &'a SymmetrySpec,
) -> Result<Vec<(Access, &'a crate::SymmetryPartition)>, CompileError> {
    let mut out = Vec::new();
    for (name, partition) in spec.iter() {
        let mut accesses: Vec<&Access> = einsum
            .rhs
            .accesses()
            .into_iter()
            .filter(|a| a.tensor.is_base() && a.tensor.name == name)
            .collect();
        accesses.dedup();
        let Some(first) = accesses.first().copied() else {
            return Err(CompileError::UnknownSymmetricTensor { name: name.to_string() });
        };
        if accesses.iter().any(|a| *a != first) {
            return Err(CompileError::MultipleSymmetricAccesses { name: name.to_string() });
        }
        if partition.rank() != first.indices.len() {
            return Err(CompileError::SymmetryRankMismatch {
                name: name.to_string(),
                partition_rank: partition.rank(),
                access_rank: first.indices.len(),
            });
        }
        let mut seen: BTreeSet<&Index> = BTreeSet::new();
        for part in partition.nontrivial_parts() {
            for &mode in part {
                if !seen.insert(&first.indices[mode]) {
                    return Err(CompileError::RepeatedIndexInSymmetricAccess {
                        name: name.to_string(),
                        index: first.indices[mode].clone(),
                    });
                }
            }
        }
        out.push((first.clone(), partition));
    }
    Ok(out)
}

/// Topologically sorts the permutable indices so the monotone chain
/// visits only canonical coordinates of every symmetric access.
fn canonical_chain(
    permutable: &BTreeSet<Index>,
    accesses: &[(Access, &crate::SymmetryPartition)],
    loop_order: &[Index],
) -> Result<Vec<Index>, CompileError> {
    let nodes: Vec<Index> =
        loop_order.iter().filter(|i| permutable.contains(*i)).cloned().collect();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let pos = |i: &Index| nodes.iter().position(|n| n == i).expect("permutable ⊆ loop order");
    for (access, partition) in accesses {
        for part in partition.nontrivial_parts() {
            // Within a symmetric part the indices can be permuted freely,
            // so the canonical order of the part's indices is ours to
            // choose: take loop order (the access is normalized to match
            // afterwards). Consecutive indices in that order constrain
            // the chain.
            let mut members: Vec<usize> = part.iter().map(|&m| pos(&access.indices[m])).collect();
            members.sort_unstable();
            for w in members.windows(2) {
                edges.push((w[0], w[1]));
            }
        }
    }
    // Kahn's algorithm, preferring loop order for determinism.
    let n = nodes.len();
    let mut indegree = vec![0usize; n];
    for &(_, b) in &edges {
        indegree[b] += 1;
    }
    let mut order = Vec::with_capacity(n);
    let mut emitted = vec![false; n];
    while order.len() < n {
        let Some(next) = (0..n).find(|&k| !emitted[k] && indegree[k] == 0) else {
            return Err(CompileError::CyclicCanonicalOrder);
        };
        emitted[next] = true;
        order.push(nodes[next].clone());
        for &(a, b) in &edges {
            if a == next {
                indegree[b] -= 1;
            }
        }
    }
    Ok(order)
}

/// Sorts the subscripts of every access to a declared-symmetric tensor
/// within each symmetric part, in the order `cmp` gives, so accesses that
/// are equal under the tensor's symmetry compare equal.
pub(crate) fn normalize_accesses(
    expr: Expr,
    spec: &SymmetrySpec,
    cmp: &impl Fn(&Index, &Index) -> Ordering,
) -> Expr {
    expr.map_accesses(&mut |mut a| {
        let partition = spec.partition(&a.tensor.name);
        if let Some(partition) = partition.filter(|p| a.tensor.is_base() && p.rank() == a.rank()) {
            for part in partition.nontrivial_parts() {
                let mut modes: Vec<usize> = part.to_vec();
                modes.sort_unstable();
                let mut vals: Vec<Index> = modes.iter().map(|&m| a.indices[m].clone()).collect();
                vals.sort_by(cmp);
                for (&m, v) in modes.iter().zip(vals) {
                    a.indices[m] = v;
                }
            }
        }
        Expr::Access(a)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use systec_ir::build::*;
    use systec_ir::AssignOp;

    fn ssymv() -> Einsum {
        Einsum::new(
            access("y", ["i"]),
            AssignOp::Add,
            mul([access("A", ["i", "j"]), access("x", ["j"])]),
            [idx("i"), idx("j")],
        )
    }

    fn mttkrp3() -> Einsum {
        Einsum::new(
            access("C", ["i", "j"]),
            AssignOp::Add,
            mul([access("A", ["i", "k", "l"]), access("B", ["k", "j"]), access("B", ["l", "j"])]),
            [idx("i"), idx("k"), idx("l"), idx("j")],
        )
    }

    #[test]
    fn ssymv_chain_and_blocks() {
        let spec = SymmetrySpec::new().with_full("A", 2);
        let k = symmetrize(&ssymv(), &spec).unwrap();
        assert_eq!(k.chain, vec![idx("i"), idx("j")]);
        let printed = k.program.to_string();
        assert!(printed.contains("if i <= j"), "{printed}");
        assert!(printed.contains("if i != j"), "{printed}");
        assert!(printed.contains("if i == j"), "{printed}");
        // Off-diagonal block: two assignments, one to y[i], one to y[j].
        assert!(printed.contains("y[i] += A[i, j] * x[j]"), "{printed}");
        assert!(printed.contains("y[j] += A[i, j] * x[i]"), "{printed}");
        // 2 + 1 assignments in total.
        assert_eq!(k.program.assignments().len(), 3);
    }

    #[test]
    fn mttkrp_block_structure_matches_listing_6() {
        let spec = SymmetrySpec::new().with_full("A", 3);
        let k = symmetrize(&mttkrp3(), &spec).unwrap();
        assert_eq!(k.chain, vec![idx("i"), idx("k"), idx("l")]);
        // Listing 6: 6 assignments (with duplicates) in the all-distinct
        // block, 3 each in the two single-equality blocks, 1 in the
        // all-equal block.
        assert_eq!(k.program.assignments().len(), 6 + 3 + 3 + 1);
        let printed = k.program.to_string();
        assert!(printed.contains("if i <= k && k <= l"), "{printed}");
        // Normalization makes the duplicate pattern of Listing 6 visible:
        // the same normalized line appears twice.
        let line = "C[i, j] += A[i, k, l] * B[k, j] * B[l, j]";
        assert!(printed.matches(line).count() >= 2, "{printed}");
    }

    #[test]
    fn syprd_diagonal_block_single_assignment() {
        // y[] += x[i] * A[i, j] * x[j] — Listing 4's structure.
        let e = Einsum::new(
            access("y", [] as [&str; 0]),
            AssignOp::Add,
            mul([access("x", ["i"]), access("A", ["i", "j"]), access("x", ["j"])]),
            [idx("i"), idx("j")],
        );
        let spec = SymmetrySpec::new().with_full("A", 2);
        let k = symmetrize(&e, &spec).unwrap();
        // Off-diagonal: two equivalent assignments (after normalization,
        // syntactically identical — invisible output symmetry made plain).
        let assigns = k.program.assignments();
        assert_eq!(assigns.len(), 3);
        assert_eq!(assigns[0], assigns[1], "normalization exposes the duplicate");
    }

    #[test]
    fn partial_symmetry_restricts_chain() {
        // T[i, j, k] symmetric only in {1, 2}: chain is (j, k); i free.
        let e = Einsum::new(
            access("y", ["i"]),
            AssignOp::Add,
            mul([access("T", ["i", "j", "k"]), access("x", ["j"]), access("x", ["k"])]),
            [idx("i"), idx("j"), idx("k")],
        );
        let part = crate::SymmetryPartition::from_parts(vec![vec![0], vec![1, 2]]).unwrap();
        let spec = SymmetrySpec::new().with_partition("T", part);
        let k = symmetrize(&e, &spec).unwrap();
        assert_eq!(k.chain, vec![idx("j"), idx("k")]);
        assert_eq!(k.program.assignments().len(), 2 + 1);
    }

    #[test]
    fn no_symmetry_degenerates_to_naive() {
        let k = symmetrize(&ssymv(), &SymmetrySpec::new()).unwrap();
        assert!(k.chain.is_empty());
        assert_eq!(k.program.assignments().len(), 1);
    }

    #[test]
    fn unknown_tensor_rejected() {
        let spec = SymmetrySpec::new().with_full("Q", 2);
        assert!(matches!(
            symmetrize(&ssymv(), &spec),
            Err(CompileError::UnknownSymmetricTensor { .. })
        ));
    }

    #[test]
    fn rank_mismatch_rejected() {
        let spec = SymmetrySpec::new().with_full("A", 3);
        assert!(matches!(
            symmetrize(&ssymv(), &spec),
            Err(CompileError::SymmetryRankMismatch { .. })
        ));
    }

    #[test]
    fn repeated_index_rejected() {
        let e = Einsum::new(
            access("y", ["i"]),
            AssignOp::Add,
            access("A", ["i", "i"]).into(),
            [idx("i")],
        );
        let spec = SymmetrySpec::new().with_full("A", 2);
        assert!(matches!(
            symmetrize(&e, &spec),
            Err(CompileError::RepeatedIndexInSymmetricAccess { .. })
        ));
    }

    #[test]
    fn access_normalization_sorts_modes() {
        // TTM reads A[k, j, l]; normalization rewrites to A[j, k, l] given
        // loop order (j, k, l, i).
        let e = Einsum::new(
            access("C", ["i", "j", "l"]),
            AssignOp::Add,
            mul([access("A", ["k", "j", "l"]), access("B", ["k", "i"])]),
            [idx("j"), idx("k"), idx("l"), idx("i")],
        );
        let spec = SymmetrySpec::new().with_full("A", 3);
        let k = symmetrize(&e, &spec).unwrap();
        assert_eq!(k.chain, vec![idx("j"), idx("k"), idx("l")]);
        let printed = k.program.to_string();
        assert!(printed.contains("A[j, k, l]"), "{printed}");
        assert!(!printed.contains("A[k, j, l]"), "{printed}");
    }

    #[test]
    fn four_dimensional_counts() {
        // 4-d MTTKRP: blocks sum to Σ over E of |S_P|E| = 24+12+12+12+6+4+4+1? —
        // just check the total against the multinomial formula.
        let e = Einsum::new(
            access("C", ["i", "j"]),
            AssignOp::Add,
            mul([
                access("A", ["i", "k", "l", "m"]),
                access("B", ["k", "j"]),
                access("B", ["l", "j"]),
                access("B", ["m", "j"]),
            ]),
            [idx("i"), idx("k"), idx("l"), idx("m"), idx("j")],
        );
        let spec = SymmetrySpec::new().with_full("A", 4);
        let k = symmetrize(&e, &spec).unwrap();
        let total: usize = crate::equivalence_groups(4)
            .iter()
            .map(|g| crate::unique_symmetry_group(g).len())
            .sum();
        assert_eq!(k.program.assignments().len(), total);
    }
}
