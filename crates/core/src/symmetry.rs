//! The symmetry taxonomy: partitions and per-kernel symmetry
//! declarations.

use std::collections::HashMap;

use crate::perms::permutations_of;

/// A partition of a tensor's mode positions `0..rank`, declaring which
/// groups of modes may be permuted without changing the tensor
/// (Definition 2.2, partial symmetry). Full symmetry is the one-part
/// partition (Definition 2.1).
///
/// # Examples
///
/// ```
/// use systec_core::SymmetryPartition;
///
/// let full = SymmetryPartition::full(3);
/// assert_eq!(full.permutations().len(), 6);
///
/// // {{0, 1}, {2}} symmetry: modes 0 and 1 interchangeable.
/// let partial = SymmetryPartition::from_parts(vec![vec![0, 1], vec![2]]).unwrap();
/// assert_eq!(partial.permutations().len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SymmetryPartition {
    parts: Vec<Vec<usize>>,
    rank: usize,
}

impl SymmetryPartition {
    /// The fully symmetric partition `{{0, …, rank-1}}`.
    pub fn full(rank: usize) -> Self {
        SymmetryPartition { parts: vec![(0..rank).collect()], rank }
    }

    /// The trivial partition (no symmetry): all singleton parts.
    pub fn trivial(rank: usize) -> Self {
        SymmetryPartition { parts: (0..rank).map(|m| vec![m]).collect(), rank }
    }

    /// Builds a partition from explicit parts.
    ///
    /// Returns `None` unless the parts are non-empty, disjoint, and cover
    /// a contiguous `0..rank` exactly.
    pub fn from_parts(parts: Vec<Vec<usize>>) -> Option<Self> {
        let mut seen: Vec<usize> = parts.iter().flatten().copied().collect();
        seen.sort_unstable();
        let rank = seen.len();
        let covers = seen.iter().copied().eq(0..rank);
        let nonempty = parts.iter().all(|p| !p.is_empty());
        (covers && nonempty).then_some(SymmetryPartition { parts, rank })
    }

    /// The number of modes covered.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The parts, each a sorted list of mode positions.
    pub fn parts(&self) -> impl Iterator<Item = &[usize]> {
        self.parts.iter().map(Vec::as_slice)
    }

    /// Parts with at least two modes (the ones contributing permutable
    /// indices, §4.1 stage 1).
    pub fn nontrivial_parts(&self) -> impl Iterator<Item = &[usize]> {
        self.parts.iter().filter(|p| p.len() >= 2).map(Vec::as_slice)
    }

    /// Returns `true` if any part has at least two modes.
    pub fn is_nontrivial(&self) -> bool {
        self.nontrivial_parts().next().is_some()
    }

    /// Returns `true` if the partition is the single full part.
    pub fn is_full(&self) -> bool {
        self.parts.len() == 1 && self.parts[0].len() == self.rank && self.rank >= 2
    }

    /// The part index containing `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `mode >= rank` (partitions always cover `0..rank`).
    pub fn part_of(&self, mode: usize) -> usize {
        self.parts
            .iter()
            .position(|p| p.contains(&mode))
            .unwrap_or_else(|| panic!("mode {mode} out of range for rank {}", self.rank))
    }

    /// All mode permutations `σ` that permute only within parts — the
    /// set `S_T` of the paper (§4.1). The identity is always included.
    pub fn permutations(&self) -> Vec<Vec<usize>> {
        let mut result = vec![vec![usize::MAX; self.rank]];
        for part in &self.parts {
            let part_perms = permutations_of(part);
            let mut next = Vec::with_capacity(result.len() * part_perms.len());
            for base in &result {
                for pp in &part_perms {
                    let mut combined = base.clone();
                    for (slot, &src) in part.iter().zip(pp.iter()) {
                        combined[*slot] = src;
                    }
                    next.push(combined);
                }
            }
            result = next;
        }
        result
    }

    /// Returns `true` if `perm` only permutes modes within parts (so the
    /// tensor is invariant under it).
    pub fn fixes(&self, perm: &[usize]) -> bool {
        perm.len() == self.rank
            && perm
                .iter()
                .enumerate()
                .all(|(dst, &src)| src < self.rank && self.part_of(dst) == self.part_of(src))
    }
}

/// A per-kernel declaration of which input tensors are symmetric, and
/// how — the "map of input tensors that are known to be symmetric and
/// the partitions that represent their symmetries" of §4.
///
/// # Examples
///
/// ```
/// use systec_core::{SymmetryPartition, SymmetrySpec};
///
/// let spec = SymmetrySpec::new()
///     .with_full("A", 3)
///     .with_partition("T", SymmetryPartition::from_parts(vec![vec![0], vec![1, 2]]).unwrap());
/// assert!(spec.partition("A").unwrap().is_full());
/// assert!(spec.partition("x").is_none());
/// ```
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SymmetrySpec {
    map: HashMap<String, SymmetryPartition>,
}

impl SymmetrySpec {
    /// An empty spec (no tensor is symmetric).
    pub fn new() -> Self {
        SymmetrySpec::default()
    }

    /// Declares `name` fully symmetric with the given rank.
    #[must_use]
    pub fn with_full(mut self, name: impl Into<String>, rank: usize) -> Self {
        self.map.insert(name.into(), SymmetryPartition::full(rank));
        self
    }

    /// Declares `name` partially symmetric with an explicit partition.
    #[must_use]
    pub fn with_partition(mut self, name: impl Into<String>, partition: SymmetryPartition) -> Self {
        self.map.insert(name.into(), partition);
        self
    }

    /// The partition declared for `name`, if any.
    pub fn partition(&self, name: &str) -> Option<&SymmetryPartition> {
        self.map.get(name)
    }

    /// Iterates over `(name, partition)` pairs in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &SymmetryPartition)> {
        let mut pairs: Vec<(&str, &SymmetryPartition)> =
            self.map.iter().map(|(k, v)| (k.as_str(), v)).collect();
        pairs.sort_by_key(|(k, _)| *k);
        pairs.into_iter()
    }

    /// The declared tensor names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.map.keys().map(String::as_str).collect();
        names.sort();
        names
    }

    /// Returns `true` if no tensor is declared symmetric.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_partition_permutation_count() {
        assert_eq!(SymmetryPartition::full(1).permutations().len(), 1);
        assert_eq!(SymmetryPartition::full(2).permutations().len(), 2);
        assert_eq!(SymmetryPartition::full(4).permutations().len(), 24);
    }

    #[test]
    fn trivial_partition_only_identity() {
        let t = SymmetryPartition::trivial(3);
        assert_eq!(t.permutations(), vec![vec![0, 1, 2]]);
        assert!(!t.is_nontrivial());
        assert!(!t.is_full());
    }

    #[test]
    fn partial_partition_permutations() {
        // {{0, 1}, {2, 3}}: 2 * 2 = 4 permutations.
        let p = SymmetryPartition::from_parts(vec![vec![0, 1], vec![2, 3]]).unwrap();
        let perms = p.permutations();
        assert_eq!(perms.len(), 4);
        assert!(perms.contains(&vec![0, 1, 2, 3]));
        assert!(perms.contains(&vec![1, 0, 3, 2]));
        assert!(!perms.contains(&vec![2, 1, 0, 3]));
    }

    #[test]
    fn from_parts_validates() {
        assert!(SymmetryPartition::from_parts(vec![vec![0, 1], vec![1]]).is_none()); // overlap
        assert!(SymmetryPartition::from_parts(vec![vec![0, 2]]).is_none()); // gap
        assert!(SymmetryPartition::from_parts(vec![vec![0], vec![]]).is_none()); // empty part
        assert!(SymmetryPartition::from_parts(vec![vec![1, 0]]).is_some());
    }

    #[test]
    fn part_of_and_fixes() {
        let p = SymmetryPartition::from_parts(vec![vec![0, 1], vec![2]]).unwrap();
        assert_eq!(p.part_of(0), 0);
        assert_eq!(p.part_of(2), 1);
        assert!(p.fixes(&[1, 0, 2]));
        assert!(!p.fixes(&[2, 1, 0]));
        assert!(!p.fixes(&[0, 1]));
    }

    #[test]
    fn permutations_are_valid_perms() {
        let p = SymmetryPartition::full(3);
        for perm in p.permutations() {
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2]);
            assert!(p.fixes(&perm));
        }
    }

    #[test]
    fn spec_builders() {
        let spec = SymmetrySpec::new().with_full("A", 2);
        assert_eq!(spec.names(), vec!["A"]);
        assert!(!spec.is_empty());
        assert!(SymmetrySpec::new().is_empty());
    }
}
