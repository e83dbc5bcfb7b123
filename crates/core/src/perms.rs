//! Equivalence groups (Definition 4.1) and unique symmetry groups
//! (Definition 4.2) over the chain of permutable indices.

use systec_ir::{CmpOp, Cond, Index};

/// An equivalence group `E` over the ordered permutable indices
/// `p_1 ≤ … ≤ p_n`: a partition of chain positions into *consecutive
/// runs* of equal indices — the tensor generalization of a diagonal.
///
/// With the monotone chain enforced, the only equivalence groups a
/// coordinate can satisfy are run-structured (if `p_1 = p_3` then
/// necessarily `p_1 = p_2 = p_3`), so there are exactly `2^(n-1)` of
/// them.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EquivalenceGroup {
    /// `classes[m]` is the run id of chain position `m`; nondecreasing,
    /// starting at 0, stepping by at most 1.
    classes: Vec<usize>,
}

impl EquivalenceGroup {
    /// Builds a group from the "equal to predecessor" bit per adjacent
    /// pair (`merges.len() == n - 1`).
    pub fn from_merges(merges: &[bool]) -> Self {
        let mut classes = Vec::with_capacity(merges.len() + 1);
        let mut class = 0usize;
        classes.push(0);
        for &merged in merges {
            if !merged {
                class += 1;
            }
            classes.push(class);
        }
        EquivalenceGroup { classes }
    }

    /// The number of chain positions.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Returns `true` if the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The run id of chain position `m`.
    pub fn class_of(&self, m: usize) -> usize {
        self.classes[m]
    }

    /// The number of runs.
    pub fn n_classes(&self) -> usize {
        self.classes.last().map_or(0, |c| c + 1)
    }

    /// Returns `true` if every index is in its own run (the off-diagonal
    /// case).
    pub fn all_distinct(&self) -> bool {
        self.n_classes() == self.len()
    }

    /// Returns `true` if any run has at least two indices (the coordinate
    /// lies on some diagonal).
    pub fn on_diagonal(&self) -> bool {
        !self.all_distinct()
    }

    /// The runtime condition selecting exactly this group, as a
    /// conjunction over adjacent chain pairs: `p_m == p_{m+1}` within a
    /// run, `p_m != p_{m+1}` across runs (the enclosing chain `≤` makes
    /// `!=` equivalent to `<`).
    pub fn condition(&self, chain: &[Index]) -> Cond {
        let conjuncts = (0..chain.len().saturating_sub(1)).map(|m| {
            let op = if self.classes[m] == self.classes[m + 1] { CmpOp::Eq } else { CmpOp::Ne };
            Cond::Cmp(op, chain[m].clone(), chain[m + 1].clone())
        });
        Cond::and(conjuncts)
    }

    /// The sizes of the runs, in order (e.g. `[2, 1]` for `{(p1=p2),(p3)}`).
    pub fn run_lengths(&self) -> Vec<usize> {
        let mut lens = vec![0usize; self.n_classes()];
        for &c in &self.classes {
            lens[c] += 1;
        }
        lens
    }
}

/// Enumerates all `2^(n-1)` equivalence groups of an `n`-index chain,
/// from all-distinct to all-equal.
///
/// # Examples
///
/// ```
/// use systec_core::equivalence_groups;
///
/// let groups = equivalence_groups(3);
/// assert_eq!(groups.len(), 4);
/// assert!(groups[0].all_distinct());
/// assert_eq!(groups.last().unwrap().n_classes(), 1);
/// ```
pub fn equivalence_groups(n: usize) -> Vec<EquivalenceGroup> {
    if n == 0 {
        return vec![EquivalenceGroup { classes: Vec::new() }];
    }
    let bits = n - 1;
    (0..(1usize << bits))
        .map(|mask| {
            let merges: Vec<bool> = (0..bits).map(|b| mask & (1 << b) != 0).collect();
            EquivalenceGroup::from_merges(&merges)
        })
        .collect()
}

/// The unique symmetry group `S_P|E` (Definition 4.2): permutations of
/// the chain positions, deduplicated modulo the equivalence group (two
/// permutations that place equal indices in the same positions are the
/// same assignment).
///
/// Each permutation is returned as `σ` with `σ[m] = source position`,
/// i.e. the substitution `p_m ↦ p_{σ[m]}`.
///
/// # Examples
///
/// ```
/// use systec_core::{equivalence_groups, unique_symmetry_group};
///
/// let groups = equivalence_groups(3);
/// // All distinct: all 3! permutations are unique.
/// assert_eq!(unique_symmetry_group(&groups[0]).len(), 6);
/// // p1 = p2: 3!/2! = 3 unique permutations.
/// assert_eq!(unique_symmetry_group(&groups[1]).len(), 3);
/// // All equal: only the identity.
/// assert_eq!(unique_symmetry_group(&groups[3]).len(), 1);
/// ```
pub fn unique_symmetry_group(group: &EquivalenceGroup) -> Vec<Vec<usize>> {
    let n = group.len();
    let mut out: Vec<Vec<usize>> = Vec::new();
    let mut seen: Vec<Vec<usize>> = Vec::new();
    for perm in permutations_of(&(0..n).collect::<Vec<_>>()) {
        let key: Vec<usize> = perm.iter().map(|&src| group.class_of(src)).collect();
        if !seen.contains(&key) {
            seen.push(key);
            out.push(perm);
        }
    }
    out
}

/// Every ordering of `items`, in lexicographic order of positions (of
/// values, when `items` is sorted).
pub(crate) fn permutations_of(items: &[usize]) -> Vec<Vec<usize>> {
    let n = items.len();
    let mut out = Vec::new();
    let mut current: Vec<usize> = (0..n).collect();
    loop {
        out.push(current.iter().map(|&k| items[k]).collect());
        let Some(i) = (0..n.saturating_sub(1)).rev().find(|&i| current[i] < current[i + 1]) else {
            break;
        };
        let j = (i + 1..n).rev().find(|&j| current[j] > current[i]).expect("by choice of i");
        current.swap(i, j);
        current[i + 1..].reverse();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use systec_ir::build::*;

    #[test]
    fn groups_count_is_power_of_two() {
        assert_eq!(equivalence_groups(1).len(), 1);
        assert_eq!(equivalence_groups(2).len(), 2);
        assert_eq!(equivalence_groups(4).len(), 8);
        assert_eq!(equivalence_groups(5).len(), 16);
    }

    #[test]
    fn group_conditions_match_paper_mttkrp() {
        // P = (i, k, l): the four groups of §4.3.
        let chain = [idx("i"), idx("k"), idx("l")];
        let conds: Vec<String> =
            equivalence_groups(3).iter().map(|g| g.condition(&chain).to_string()).collect();
        assert!(conds.contains(&"i != k && k != l".to_string()));
        assert!(conds.contains(&"i == k && k != l".to_string()));
        assert!(conds.contains(&"i != k && k == l".to_string()));
        assert!(conds.contains(&"i == k && k == l".to_string()));
    }

    #[test]
    fn unique_group_sizes_follow_multinomials() {
        // For n = 4: runs [2, 2] -> 4!/(2!2!) = 6; runs [3, 1] -> 4.
        for g in equivalence_groups(4) {
            let expected: usize =
                factorial(4) / g.run_lengths().iter().map(|&l| factorial(l)).product::<usize>();
            assert_eq!(unique_symmetry_group(&g).len(), expected, "group {g:?}");
        }
    }

    #[test]
    fn unique_group_matches_paper_example() {
        // §4.3: E = {(i = k), (l)} has S_P|E = {(1,2,3), (1,3,2), (3,1,2)}
        // in 1-based notation.
        let g = EquivalenceGroup::from_merges(&[true, false]);
        let perms = unique_symmetry_group(&g);
        let one_based: Vec<Vec<usize>> =
            perms.iter().map(|p| p.iter().map(|&x| x + 1).collect()).collect();
        assert_eq!(one_based, vec![vec![1, 2, 3], vec![1, 3, 2], vec![3, 1, 2]]);
    }

    #[test]
    fn run_lengths() {
        let g = EquivalenceGroup::from_merges(&[true, false, true]);
        assert_eq!(g.run_lengths(), vec![2, 2]);
        assert_eq!(g.n_classes(), 2);
        assert!(g.on_diagonal());
    }

    #[test]
    fn empty_and_single_chains() {
        assert_eq!(equivalence_groups(0).len(), 1);
        let g1 = &equivalence_groups(1)[0];
        assert!(g1.all_distinct());
        assert_eq!(unique_symmetry_group(g1), vec![vec![0]]);
        assert_eq!(g1.condition(&[idx("i")]), systec_ir::Cond::True);
    }

    fn factorial(n: usize) -> usize {
        (1..=n).product()
    }
}
