//! Right-hand-side expressions and tensor accesses.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::collections::HashMap;

use crate::{BinOp, CmpOp, Index};

/// A reference to a named tensor, possibly to a derived *variant* of it.
///
/// The concordize pass (§4.2.3) rewrites accesses to use transposed copies
/// (`B_T`), and diagonal splitting (§4.2.9, Listing 7) rewrites accesses to
/// use the diagonal / off-diagonal split of a symmetric tensor (`A_diag`,
/// `A_nondiag`). Rather than inventing fresh opaque names, a [`TensorRef`]
/// records the base name together with the derivation, so the runtime can
/// materialize the variant from the base tensor (the paper excludes this
/// rearrangement from kernel timings; so do our benchmarks).
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TensorRef {
    /// The base tensor's name, e.g. `"A"`.
    pub name: String,
    /// Mode permutation applied to the base tensor; empty means identity.
    ///
    /// `perm[k]` is the base-tensor mode stored at mode `k` of the variant:
    /// `variant[i_0, …] == base[i_{perm^-1(0)}, …]`; concretely
    /// `variant[j_0, …, j_{n-1}] == base[j at positions perm]`, i.e.
    /// `variant[coords] == base[apply_perm(perm, coords)]`.
    pub perm: Vec<usize>,
    /// Which entries of the base tensor the variant retains.
    pub part: TensorPart,
}

/// Which entries of a base tensor a [`TensorRef`] variant retains.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Default)]
pub enum TensorPart {
    /// All stored entries.
    #[default]
    All,
    /// Only entries lying on some diagonal of the given symmetric index
    /// positions (at least two of the listed modes equal).
    Diagonal,
    /// Only entries on no diagonal (all listed modes pairwise distinct).
    OffDiagonal,
}

impl TensorRef {
    /// A reference to the base tensor itself.
    pub fn base(name: impl Into<String>) -> Self {
        TensorRef { name: name.into(), perm: Vec::new(), part: TensorPart::All }
    }

    /// A reference to a transposed variant with the given mode permutation.
    pub fn transposed(name: impl Into<String>, perm: Vec<usize>) -> Self {
        let perm = if is_identity(&perm) { Vec::new() } else { perm };
        TensorRef { name: name.into(), perm, part: TensorPart::All }
    }

    /// Returns `true` if this is the base tensor (no permutation, all parts).
    pub fn is_base(&self) -> bool {
        self.perm.is_empty() && self.part == TensorPart::All
    }

    /// The display name of the variant, e.g. `A`, `B_T`, `A_diag`,
    /// `A_nondiag`, `A_T_diag`.
    pub fn display_name(&self) -> String {
        let mut s = self.name.clone();
        if !self.perm.is_empty() {
            s.push_str("_T");
            // Distinguish non-reversal permutations of rank > 2 explicitly.
            let n = self.perm.len();
            let reversal: Vec<usize> = (0..n).rev().collect();
            if n > 2 && self.perm != reversal {
                for p in &self.perm {
                    s.push_str(&p.to_string());
                }
            }
        }
        match self.part {
            TensorPart::All => {}
            TensorPart::Diagonal => s.push_str("_diag"),
            TensorPart::OffDiagonal => s.push_str("_nondiag"),
        }
        s
    }
}

fn is_identity(perm: &[usize]) -> bool {
    perm.iter().enumerate().all(|(i, &p)| i == p)
}

/// A tensor access `T[i_1, …, i_n]` (a read on the right-hand side, or a
/// write target on the left-hand side).
///
/// In Finch semantics an access is an *iterator* over the tensor's stored
/// values; the executor drives loops from accesses whose levels are sparse.
///
/// # Examples
///
/// ```
/// use systec_ir::build::access;
///
/// let a = access("A", ["i", "j"]);
/// assert_eq!(a.to_string(), "A[i, j]");
/// assert_eq!(a.rank(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Access {
    /// The tensor (or tensor variant) being accessed.
    pub tensor: TensorRef,
    /// The subscript indices, outermost mode first.
    pub indices: Vec<Index>,
}

impl Access {
    /// Creates an access to the base tensor `name` at `indices`.
    pub fn new<I: Into<Index>>(
        name: impl Into<String>,
        indices: impl IntoIterator<Item = I>,
    ) -> Self {
        Access {
            tensor: TensorRef::base(name),
            indices: indices.into_iter().map(Into::into).collect(),
        }
    }

    /// The number of subscripts.
    pub fn rank(&self) -> usize {
        self.indices.len()
    }

    /// Applies an index substitution to the subscripts.
    pub fn substitute(&self, map: &HashMap<Index, Index>) -> Access {
        Access {
            tensor: self.tensor.clone(),
            indices: self
                .indices
                .iter()
                .map(|i| map.get(i).cloned().unwrap_or_else(|| i.clone()))
                .collect(),
        }
    }
}

/// A right-hand-side expression.
///
/// Commutative, associative operators are stored *flattened* as n-ary
/// [`Expr::Call`] nodes, which makes the normalization stage (sorting
/// operands) and the distributive-grouping pass straightforward.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// A floating-point literal.
    Literal(f64),
    /// A reference to a `let`-bound scalar variable.
    Scalar(String),
    /// A tensor read.
    Access(Access),
    /// An n-ary operator application. Non-commutative operators
    /// (`Sub`, `Div`) always have exactly two arguments.
    Call {
        /// The element operator.
        op: BinOp,
        /// The operands (2 or more).
        args: Vec<Expr>,
    },
    /// A comparison between two indices, evaluating to `1.0` or `0.0`.
    ///
    /// Used to build the index of a simplicial lookup table (§4.2.5).
    CmpVal {
        /// The comparison operator.
        op: CmpOp,
        /// Left index.
        lhs: Index,
        /// Right index.
        rhs: Index,
    },
    /// A constant-table lookup `table[index]` with zero-based `index`.
    ///
    /// Produced by the simplicial-lookup-table pass (§4.2.5) to select the
    /// multiplicity factor from the pattern of equal indices.
    Lookup {
        /// The constant table.
        table: Vec<f64>,
        /// The index expression (evaluated and truncated to `usize`).
        index: Box<Expr>,
    },
}

impl Expr {
    /// Creates a flattened n-ary call, merging nested calls of the same
    /// associative operator.
    ///
    /// # Panics
    ///
    /// Panics if fewer than one argument is supplied.
    pub fn call(op: BinOp, args: impl IntoIterator<Item = Expr>) -> Expr {
        let mut flat = Vec::new();
        for a in args {
            match a {
                Expr::Call { op: o2, args: inner } if o2 == op && op.is_associative() => {
                    flat.extend(inner);
                }
                other => flat.push(other),
            }
        }
        assert!(!flat.is_empty(), "Expr::call requires at least one argument");
        if flat.len() == 1 {
            flat.pop().expect("len checked")
        } else {
            Expr::Call { op, args: flat }
        }
    }

    /// All tensor accesses in the expression, left to right.
    pub fn accesses(&self) -> Vec<&Access> {
        let mut out = Vec::new();
        self.for_each_access(&mut |a| out.push(a));
        out
    }

    /// The set of loop indices mentioned anywhere in the expression.
    pub fn indices(&self) -> BTreeSet<Index> {
        let mut out = BTreeSet::new();
        self.for_each(&mut |e| match e {
            Expr::Access(a) => out.extend(a.indices.iter().cloned()),
            Expr::CmpVal { lhs, rhs, .. } => out.extend([lhs.clone(), rhs.clone()]),
            _ => {}
        });
        out
    }

    /// Applies an index substitution throughout the expression.
    pub fn substitute(&self, map: &HashMap<Index, Index>) -> Expr {
        self.clone().into_substituted(map)
    }

    /// [`Expr::substitute`] on an owned tree: the leaves that name
    /// indices are renamed, every other node is rebuilt around its
    /// renamed children.
    pub(crate) fn into_substituted(self, map: &HashMap<Index, Index>) -> Expr {
        let sub = |i: Index| map.get(&i).cloned().unwrap_or(i);
        match self {
            Expr::Access(a) => Expr::Access(a.substitute(map)),
            Expr::CmpVal { op, lhs, rhs } => Expr::CmpVal { op, lhs: sub(lhs), rhs: sub(rhs) },
            other => other.map_children(&mut |c| c.into_substituted(map)),
        }
    }

    /// A total order on expressions (literals compared with
    /// [`f64::total_cmp`]), used to sort commutative operands during
    /// normalization.
    pub fn total_cmp(&self, other: &Expr) -> Ordering {
        use Expr::*;
        fn tag(e: &Expr) -> u8 {
            match e {
                Literal(_) => 0,
                Scalar(_) => 1,
                Access(_) => 2,
                CmpVal { .. } => 3,
                Call { .. } => 4,
                Lookup { .. } => 5,
            }
        }
        match (self, other) {
            (Literal(a), Literal(b)) => a.total_cmp(b),
            (Scalar(a), Scalar(b)) => a.cmp(b),
            (Access(a), Access(b)) => a.cmp(b),
            (CmpVal { op: o1, lhs: l1, rhs: r1 }, CmpVal { op: o2, lhs: l2, rhs: r2 }) => {
                o1.cmp(o2).then_with(|| l1.cmp(l2)).then_with(|| r1.cmp(r2))
            }
            (Call { op: o1, args: a1 }, Call { op: o2, args: a2 }) => o1.cmp(o2).then_with(|| {
                for (x, y) in a1.iter().zip(a2.iter()) {
                    let c = x.total_cmp(y);
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                a1.len().cmp(&a2.len())
            }),
            (Lookup { table: t1, index: i1 }, Lookup { table: t2, index: i2 }) => {
                for (x, y) in t1.iter().zip(t2.iter()) {
                    let c = x.total_cmp(y);
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                t1.len().cmp(&t2.len()).then_with(|| i1.total_cmp(i2))
            }
            (a, b) => tag(a).cmp(&tag(b)),
        }
    }

    /// Sorts the operands of commutative calls recursively, producing the
    /// canonical operand order the normalization stage requires.
    pub fn sort_commutative(&self) -> Expr {
        self.clone().into_sorted()
    }

    fn into_sorted(self) -> Expr {
        match self.map_children(&mut Expr::into_sorted) {
            Expr::Call { op, mut args } if op.is_commutative() => {
                args.sort_by(|a, b| a.total_cmp(b));
                Expr::Call { op, args }
            }
            other => other,
        }
    }
}

impl From<f64> for Expr {
    fn from(v: f64) -> Self {
        Expr::Literal(v)
    }
}

impl From<Access> for Expr {
    fn from(a: Access) -> Self {
        Expr::Access(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;

    #[test]
    fn call_flattens_associative_ops() {
        let e = Expr::call(
            BinOp::Mul,
            [
                Expr::call(BinOp::Mul, [lit(2.0), Expr::from(access("A", ["i"]))]),
                Expr::from(access("x", ["i"])),
            ],
        );
        match e {
            Expr::Call { op: BinOp::Mul, args } => assert_eq!(args.len(), 3),
            other => panic!("expected flattened call, got {other:?}"),
        }
    }

    #[test]
    fn call_single_arg_unwraps() {
        let e = Expr::call(BinOp::Add, [lit(1.0)]);
        assert_eq!(e, lit(1.0));
    }

    #[test]
    fn accesses_and_indices() {
        let e = mul([access("A", ["i", "j"]), access("x", ["j"])]);
        assert_eq!(e.accesses().len(), 2);
        let names: Vec<String> = e.indices().iter().map(|i| i.name().to_string()).collect();
        assert_eq!(names, ["i", "j"]);
    }

    #[test]
    fn substitute_renames() {
        let map: HashMap<Index, Index> =
            [(Index::new("i"), Index::new("j")), (Index::new("j"), Index::new("i"))]
                .into_iter()
                .collect();
        let e = mul([access("A", ["i", "j"]), access("x", ["j"])]);
        let s = e.substitute(&map);
        assert_eq!(s, mul([access("A", ["j", "i"]), access("x", ["i"])]));
    }

    #[test]
    fn sort_commutative_orders_operands() {
        let e = mul([Expr::from(access("x", ["j"])), lit(2.0), access("A", ["i", "j"]).into()]);
        let s = e.sort_commutative();
        match s {
            Expr::Call { args, .. } => {
                assert_eq!(args[0], lit(2.0));
                assert_eq!(args[1], Expr::from(access("A", ["i", "j"])));
                assert_eq!(args[2], Expr::from(access("x", ["j"])));
            }
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn sort_commutative_preserves_noncommutative_order() {
        let e = Expr::call(
            BinOp::Sub,
            [Expr::from(access("b", ["i"])), Expr::from(access("a", ["i"]))],
        );
        assert_eq!(e.sort_commutative(), e);
    }

    #[test]
    fn tensor_ref_display_names() {
        assert_eq!(TensorRef::base("A").display_name(), "A");
        assert_eq!(TensorRef::transposed("B", vec![1, 0]).display_name(), "B_T");
        assert_eq!(TensorRef::transposed("B", vec![0, 1]).display_name(), "B");
        let mut r = TensorRef::base("A");
        r.part = TensorPart::Diagonal;
        assert_eq!(r.display_name(), "A_diag");
        assert_eq!(TensorRef::transposed("C", vec![2, 0, 1]).display_name(), "C_T201");
    }

    #[test]
    fn identity_perm_is_base() {
        assert!(TensorRef::transposed("B", vec![0, 1, 2]).is_base());
        assert!(!TensorRef::transposed("B", vec![1, 0]).is_base());
    }
}
