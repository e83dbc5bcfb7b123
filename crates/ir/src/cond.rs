//! Boolean conditions over loop indices.

use std::collections::BTreeSet;
use std::collections::HashMap;

use crate::{CmpOp, Index};

/// A boolean condition over loop indices, guarding a conditional block.
///
/// Conditions are restricted to comparisons between indices and their
/// conjunctions/disjunctions — exactly the control flow symmetrization
/// produces: the canonical-triangle chain `p1 <= p2 <= …` and the
/// equivalence-group cases (`i == j && j != k`, …). Keeping the language
/// this small lets the executor lift comparisons into loop bounds.
///
/// # Examples
///
/// ```
/// use systec_ir::build::*;
///
/// let c = and([le("i", "j"), ne("j", "k")]);
/// assert_eq!(c.to_string(), "i <= j && j != k");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Default)]
pub enum Cond {
    /// Always true (the neutral guard).
    #[default]
    True,
    /// A single comparison `lhs ⋈ rhs`.
    Cmp(CmpOp, Index, Index),
    /// Conjunction of conditions.
    And(Vec<Cond>),
    /// Disjunction of conditions.
    Or(Vec<Cond>),
}

impl Cond {
    /// Builds a conjunction, flattening nested `And`s and dropping `True`.
    pub fn and(conds: impl IntoIterator<Item = Cond>) -> Cond {
        let mut flat = Vec::new();
        for c in conds {
            match c {
                Cond::True => {}
                Cond::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Cond::True,
            1 => flat.pop().expect("len checked"),
            _ => Cond::And(flat),
        }
    }

    /// Builds a disjunction, flattening nested `Or`s.
    ///
    /// A `True` disjunct collapses the whole condition to `True`.
    pub fn or(conds: impl IntoIterator<Item = Cond>) -> Cond {
        let mut flat = Vec::new();
        for c in conds {
            match c {
                Cond::True => return Cond::True,
                Cond::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Cond::True,
            1 => flat.pop().expect("len checked"),
            _ => Cond::Or(flat),
        }
    }

    /// Evaluates the condition under a concrete index valuation.
    ///
    /// # Panics
    ///
    /// Panics if a mentioned index is missing from `env` (programs are
    /// validated before execution; an unbound index is a compiler bug).
    pub fn eval(&self, env: &HashMap<Index, usize>) -> bool {
        match self {
            Cond::True => true,
            Cond::Cmp(op, a, b) => {
                let va = *env.get(a).unwrap_or_else(|| panic!("unbound index {a} in condition"));
                let vb = *env.get(b).unwrap_or_else(|| panic!("unbound index {b} in condition"));
                op.eval(va, vb)
            }
            Cond::And(cs) => cs.iter().all(|c| c.eval(env)),
            Cond::Or(cs) => cs.iter().any(|c| c.eval(env)),
        }
    }

    /// The set of indices mentioned by the condition.
    pub fn indices(&self) -> BTreeSet<Index> {
        let mut out = BTreeSet::new();
        self.for_each(&mut |c| {
            if let Cond::Cmp(_, a, b) = c {
                out.extend([a.clone(), b.clone()]);
            }
        });
        out
    }

    /// Applies an index substitution.
    pub fn substitute(&self, map: &HashMap<Index, Index>) -> Cond {
        self.clone().into_substituted(map)
    }

    /// [`Cond::substitute`] on an owned condition: comparisons are
    /// renamed, and conjunctions and disjunctions rebuilt through
    /// [`Cond::and`] / [`Cond::or`], which flatten them.
    fn into_substituted(self, map: &HashMap<Index, Index>) -> Cond {
        let sub = |i: Index| map.get(&i).cloned().unwrap_or(i);
        match self.map_children(&mut |c| c.into_substituted(map)) {
            Cond::Cmp(op, a, b) => Cond::Cmp(op, sub(a), sub(b)),
            Cond::And(cs) => Cond::and(cs),
            Cond::Or(cs) => Cond::or(cs),
            Cond::True => Cond::True,
        }
    }

    /// Flattens a conjunction into its conjuncts (a `True` yields none, a
    /// non-`And` condition yields itself).
    pub fn conjuncts(&self) -> Vec<Cond> {
        match self {
            Cond::True => Vec::new(),
            Cond::And(cs) => cs.clone(),
            other => vec![other.clone()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;

    fn env(pairs: &[(&str, usize)]) -> HashMap<Index, usize> {
        pairs.iter().map(|(n, v)| (Index::new(n), *v)).collect()
    }

    #[test]
    fn and_flattens_and_drops_true() {
        let c = Cond::and([Cond::True, and([le("i", "j")]), lt("j", "k")]);
        assert_eq!(c, Cond::And(vec![le("i", "j"), lt("j", "k")]));
    }

    #[test]
    fn and_of_nothing_is_true() {
        assert_eq!(Cond::and([]), Cond::True);
        assert_eq!(Cond::and([Cond::True, Cond::True]), Cond::True);
    }

    #[test]
    fn or_short_circuits_true() {
        assert_eq!(Cond::or([lt("i", "j"), Cond::True]), Cond::True);
    }

    #[test]
    fn eval_chain() {
        let c = and([le("i", "j"), le("j", "k")]);
        assert!(c.eval(&env(&[("i", 0), ("j", 1), ("k", 1)])));
        assert!(!c.eval(&env(&[("i", 2), ("j", 1), ("k", 3)])));
    }

    #[test]
    fn eval_or() {
        let c = or([eq("i", "j"), lt("i", "j")]);
        assert!(c.eval(&env(&[("i", 1), ("j", 1)])));
        assert!(c.eval(&env(&[("i", 0), ("j", 1)])));
        assert!(!c.eval(&env(&[("i", 2), ("j", 1)])));
    }

    #[test]
    fn indices_collected() {
        let c = and([le("i", "j"), ne("k", "l")]);
        let names: Vec<_> = c.indices().iter().map(|i| i.name().to_string()).collect();
        assert_eq!(names, ["i", "j", "k", "l"]);
    }

    #[test]
    fn substitute_swaps() {
        let map: HashMap<Index, Index> =
            [(Index::new("i"), Index::new("j")), (Index::new("j"), Index::new("i"))]
                .into_iter()
                .collect();
        assert_eq!(lt("i", "j").substitute(&map), lt("j", "i"));
    }

    #[test]
    fn conjuncts_of_true_empty() {
        assert!(Cond::True.conjuncts().is_empty());
        assert_eq!(lt("i", "j").conjuncts(), vec![lt("i", "j")]);
        assert_eq!(and([lt("i", "j"), eq("j", "k")]).conjuncts().len(), 2);
    }
}
