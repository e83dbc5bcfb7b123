//! §4.2.3 Concordize tensors: rewrite accesses so every tensor is
//! traversed in loop-nesting order.
//!
//! A program is *concordant* when the subscripts of each access bind
//! outermost-first. Hierarchical sparse formats can only be iterated
//! concordantly, so a discordant sparse access would fall back to
//! per-element binary search. This pass rewrites a discordant access
//! `A[i, k]` (with `k` binding outside `i`) into `A_T[k, i]` over a
//! transposed variant, which the runtime materializes once, outside the
//! timed kernel (§5.2 excludes rearrangement time).
//!
//! When the needed permutation only moves modes within a symmetric part
//! of a declared-symmetric tensor, no variant is needed at all: the
//! subscripts are simply reordered (the tensor is invariant under the
//! permutation).

use std::collections::HashMap;

use systec_ir::{Access, Expr, Index, Stmt, TensorRef};

use crate::SymmetrySpec;

/// Rewrites every discordant read access into a concordant access of a
/// transposed variant (or a subscript reordering when symmetry allows).
///
/// # Examples
///
/// ```
/// use systec_core::passes::concordize;
/// use systec_core::SymmetrySpec;
/// use systec_ir::build::*;
/// use systec_ir::Stmt;
///
/// // for j, i: y[i] += A[i, j] * x[j] — A binds j (outer) at mode 1.
/// let p = Stmt::loops(
///     [idx("j"), idx("i")],
///     assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
/// );
/// let out = concordize(p, &SymmetrySpec::new());
/// assert!(out.to_string().contains("A_T[j, i]"), "{out}");
/// ```
pub fn concordize(program: Stmt, spec: &SymmetrySpec) -> Stmt {
    let mut depths: HashMap<Index, usize> = HashMap::new();
    walk(program, &mut depths, 0, spec)
}

fn walk(stmt: Stmt, depths: &mut HashMap<Index, usize>, depth: usize, spec: &SymmetrySpec) -> Stmt {
    match stmt {
        Stmt::Loop { index, body } => {
            let previous = depths.insert(index.clone(), depth);
            let body = walk(*body, depths, depth + 1, spec);
            match previous {
                Some(d) => depths.insert(index.clone(), d),
                None => depths.remove(&index),
            };
            Stmt::Loop { index, body: Box::new(body) }
        }
        Stmt::Let { name, value, body } => Stmt::Let {
            name,
            value: value.map_accesses(&mut |a| Expr::Access(fix_access(a, depths, spec))),
            body: Box::new(walk(*body, depths, depth, spec)),
        },
        assign @ Stmt::Assign { .. } => assign.map_exprs(&mut |rhs| {
            rhs.map_accesses(&mut |a| Expr::Access(fix_access(a, depths, spec)))
        }),
        other => {
            let mut d = std::mem::take(depths);
            let out = other.map_children(&mut |s| walk(s, &mut d, depth, spec));
            *depths = d;
            out
        }
    }
}

fn fix_access(access: Access, depths: &HashMap<Index, usize>, spec: &SymmetrySpec) -> Access {
    let ds: Option<Vec<usize>> = access.indices.iter().map(|i| depths.get(i).copied()).collect();
    let Some(ds) = ds else {
        return access; // unbound index: leave for the executor to report
    };
    if ds.windows(2).all(|w| w[0] < w[1]) {
        return access;
    }
    // Permutation sorting modes by binding depth (stable for safety).
    let mut perm: Vec<usize> = (0..ds.len()).collect();
    perm.sort_by_key(|&m| ds[m]);
    if perm.iter().enumerate().all(|(k, &m)| k == m) {
        return access; // e.g. a repeated subscript: already depth-sorted
    }
    let indices: Vec<Index> = perm.iter().map(|&m| access.indices[m].clone()).collect();
    // If the tensor is symmetric under this permutation, reorder the
    // subscripts in place — the tensor itself is invariant.
    if access.tensor.is_base() {
        if let Some(partition) = spec.partition(&access.tensor.name) {
            if partition.fixes(&perm) {
                return Access { tensor: access.tensor, indices };
            }
        }
    }
    let combined = compose(&access.tensor.perm, &perm);
    Access {
        tensor: TensorRef { name: access.tensor.name, perm: combined, part: access.tensor.part },
        indices,
    }
}

/// Composes an existing variant permutation with a new one:
/// `V2[c] = V1[c ∘ perm] = base[…]`.
fn compose(existing: &[usize], perm: &[usize]) -> Vec<usize> {
    if existing.is_empty() {
        return perm.to_vec();
    }
    perm.iter().map(|&k| existing[k]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use systec_ir::build::*;

    #[test]
    fn concordant_access_untouched() {
        let p = Stmt::loops(
            [idx("i"), idx("j")],
            assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
        );
        assert_eq!(concordize(p.clone(), &SymmetrySpec::new()), p);
    }

    #[test]
    fn csc_style_access_gets_transposed_variant() {
        let p = Stmt::loops(
            [idx("j"), idx("i")],
            assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
        );
        let out = concordize(p, &SymmetrySpec::new());
        assert!(out.to_string().contains("A_T[j, i]"), "{out}");
    }

    #[test]
    fn symmetric_tensor_reorders_subscripts_without_variant() {
        let p = Stmt::loops(
            [idx("j"), idx("i")],
            assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
        );
        let spec = SymmetrySpec::new().with_full("A", 2);
        let out = concordize(p, &spec);
        let printed = out.to_string();
        assert!(printed.contains("A[j, i]"), "{printed}");
        assert!(!printed.contains("A_T"), "{printed}");
    }

    #[test]
    fn three_mode_discordant_access() {
        // Loops (l, k, i); access A[i, k, l] binds at depths (2, 1, 0).
        let p = Stmt::loops(
            [idx("l"), idx("k"), idx("i")],
            assign(access("y", ["i"]), access("A", ["i", "k", "l"]).into()),
        );
        let out = concordize(p, &SymmetrySpec::new());
        let printed = out.to_string();
        assert!(
            printed.contains("A_T210[l, k, i]") || printed.contains("A_T[l, k, i]"),
            "{printed}"
        );
    }

    #[test]
    fn partial_symmetry_insufficient_for_reorder_falls_back() {
        // A symmetric in {0, 1} only; required permutation swaps 0 and 2.
        let p = Stmt::loops(
            [idx("l"), idx("k"), idx("i")],
            assign(access("y", ["i"]), access("A", ["l", "k", "i"]).into()),
        );
        // A[l, k, i] binds depths (0, 1, 2): concordant already.
        let spec = SymmetrySpec::new().with_partition(
            "A",
            crate::SymmetryPartition::from_parts(vec![vec![0, 1], vec![2]]).unwrap(),
        );
        assert_eq!(concordize(p.clone(), &spec), p);
    }

    #[test]
    fn shadowed_loop_indices_restore_depths() {
        // Two sibling nests over the same index names.
        let nest = |a: &str, b: &str| {
            Stmt::loops(
                [idx(a), idx(b)],
                assign(access("y", ["i"]), access("A", ["i", "j"]).into()),
            )
        };
        let p = Stmt::block([nest("i", "j"), nest("j", "i")]);
        let out = concordize(p, &SymmetrySpec::new());
        let printed = out.to_string();
        // First nest concordant, second becomes a transposed read.
        assert!(printed.contains("A[i, j]"), "{printed}");
        assert!(printed.contains("A_T[j, i]"), "{printed}");
    }
}
