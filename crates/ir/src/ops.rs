//! Element operators, comparison operators and reduction operators.
//!
//! SySTeC is "easily extensible to general operators beyond `+` and `*`"
//! (paper §1, contribution 3); the Bellman-Ford evaluation (§5.2.2) uses
//! the tropical `(min, +)` semiring. All operator enums here carry the
//! algebraic facts (identity, commutativity, idempotence) that the
//! symmetrizer and the optimization passes rely on.

use std::fmt;

/// A binary element operator appearing in right-hand-side expressions.
///
/// `Add`/`Mul` form the usual arithmetic semiring; `Min`/`Max` appear in
/// tropical kernels such as the Bellman-Ford update `y[i] min= A[i,j] + d[j]`.
///
/// # Examples
///
/// ```
/// use systec_ir::BinOp;
///
/// assert!(BinOp::Add.is_commutative());
/// assert_eq!(BinOp::Mul.identity(), Some(1.0));
/// assert_eq!(BinOp::Min.identity(), Some(f64::INFINITY));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum BinOp {
    /// Addition `a + b`.
    Add,
    /// Multiplication `a * b`.
    Mul,
    /// Subtraction `a - b` (not commutative).
    Sub,
    /// Division `a / b` (not commutative).
    Div,
    /// Minimum `min(a, b)`.
    Min,
    /// Maximum `max(a, b)`.
    Max,
}

impl BinOp {
    /// Applies the operator to two values.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Mul => a * b,
            BinOp::Sub => a - b,
            BinOp::Div => a / b,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        }
    }

    /// Returns `true` if `a ⊗ b == b ⊗ a` for all inputs.
    ///
    /// The normalization stage may only sort the operands of commutative
    /// operators (§4.1 stage 4).
    pub fn is_commutative(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Mul | BinOp::Min | BinOp::Max)
    }

    /// Returns `true` if the operator is associative.
    pub fn is_associative(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Mul | BinOp::Min | BinOp::Max)
    }

    /// Returns `true` if `a ⊗ a == a` for all inputs.
    ///
    /// Idempotent reductions (min/max) cannot be strength-reduced by the
    /// distributive-assignment-grouping pass: `N` repeated `min=` updates
    /// collapse to one update with *no* scale factor.
    pub fn is_idempotent(self) -> bool {
        matches!(self, BinOp::Min | BinOp::Max)
    }

    /// The identity element `e` with `a ⊗ e == a`, if one exists.
    pub fn identity(self) -> Option<f64> {
        match self {
            BinOp::Add => Some(0.0),
            BinOp::Mul => Some(1.0),
            BinOp::Sub | BinOp::Div => None,
            BinOp::Min => Some(f64::INFINITY),
            BinOp::Max => Some(f64::NEG_INFINITY),
        }
    }

    /// The operator's symbol as printed by the pretty printer.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Mul => "*",
            BinOp::Sub => "-",
            BinOp::Div => "/",
            BinOp::Min => "min",
            BinOp::Max => "max",
        }
    }

    /// Returns `true` if the operator is printed in infix position.
    pub fn is_infix(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Mul | BinOp::Sub | BinOp::Div)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A comparison operator between two loop indices.
///
/// Comparisons guard the canonical-triangle restriction (`p1 <= p2`) and
/// the diagonal cases (`i == j`). The executor lifts comparisons between a
/// loop index and outer indices into loop bounds, Finch-style (§2.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum CmpOp {
    /// `a < b`
    Lt,
    /// `a <= b`
    Le,
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// `a > b`
    Gt,
    /// `a >= b`
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison on concrete index values.
    pub fn eval(self, a: usize, b: usize) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The comparison with its arguments swapped: `a ⋈ b == b ⋈' a`.
    ///
    /// ```
    /// use systec_ir::CmpOp;
    /// assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
    /// assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
    /// ```
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The logical negation: `!(a ⋈ b) == a ⋈' b`.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The operator's symbol as printed by the pretty printer.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// The reduction operator of an assignment statement.
///
/// `Add` corresponds to `+=`, `Min` to `min=` (Bellman-Ford), `Max` to
/// `max=`, and `Overwrite` to plain `=` (used by the output-replication
/// loops emitted by the visible-output-symmetry pass, §4.2.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum AssignOp {
    /// `lhs = rhs`
    Overwrite,
    /// `lhs += rhs`
    Add,
    /// `lhs min= rhs`
    Min,
    /// `lhs max= rhs`
    Max,
}

impl AssignOp {
    /// Combines the current value with the incoming value.
    pub fn apply(self, current: f64, incoming: f64) -> f64 {
        match self {
            AssignOp::Overwrite => incoming,
            AssignOp::Add => current + incoming,
            AssignOp::Min => current.min(incoming),
            AssignOp::Max => current.max(incoming),
        }
    }

    /// The reduction's identity (the value output tensors are initialized
    /// to), if the reduction has one.
    pub fn identity(self) -> Option<f64> {
        match self {
            AssignOp::Overwrite => None,
            AssignOp::Add => Some(0.0),
            AssignOp::Min => Some(f64::INFINITY),
            AssignOp::Max => Some(f64::NEG_INFINITY),
        }
    }

    /// Returns `true` if `N` repeated applications of the same incoming
    /// value equal a single application (min/max).
    ///
    /// The distributive-assignment-grouping pass (§4.2.7) turns `N`
    /// repeated `+=` into one `+=` of `N * rhs`; for idempotent reductions
    /// it simply drops the duplicates.
    pub fn is_idempotent(self) -> bool {
        matches!(self, AssignOp::Min | AssignOp::Max | AssignOp::Overwrite)
    }

    /// The assignment symbol as printed by the pretty printer.
    pub fn symbol(self) -> &'static str {
        match self {
            AssignOp::Overwrite => "=",
            AssignOp::Add => "+=",
            AssignOp::Min => "min=",
            AssignOp::Max => "max=",
        }
    }
}

impl fmt::Display for AssignOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_apply() {
        assert_eq!(BinOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinOp::Mul.apply(2.0, 3.0), 6.0);
        assert_eq!(BinOp::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(BinOp::Div.apply(3.0, 2.0), 1.5);
        assert_eq!(BinOp::Min.apply(2.0, 3.0), 2.0);
        assert_eq!(BinOp::Max.apply(2.0, 3.0), 3.0);
    }

    #[test]
    fn identities_are_identities() {
        for op in [BinOp::Add, BinOp::Mul, BinOp::Min, BinOp::Max] {
            let e = op.identity().unwrap();
            for x in [-3.5, 0.0, 7.25] {
                assert_eq!(op.apply(x, e), x, "{op:?} identity failed on {x}");
            }
        }
        assert_eq!(BinOp::Sub.identity(), None);
        assert_eq!(BinOp::Div.identity(), None);
    }

    #[test]
    fn commutativity_flags() {
        assert!(BinOp::Add.is_commutative());
        assert!(BinOp::Mul.is_commutative());
        assert!(BinOp::Min.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(!BinOp::Div.is_commutative());
    }

    #[test]
    fn idempotence() {
        assert!(BinOp::Min.is_idempotent());
        assert!(BinOp::Max.is_idempotent());
        assert!(!BinOp::Add.is_idempotent());
        assert!(AssignOp::Min.is_idempotent());
        assert!(!AssignOp::Add.is_idempotent());
    }

    #[test]
    fn cmp_eval_all() {
        assert!(CmpOp::Lt.eval(1, 2));
        assert!(CmpOp::Le.eval(2, 2));
        assert!(CmpOp::Eq.eval(2, 2));
        assert!(CmpOp::Ne.eval(1, 2));
        assert!(CmpOp::Gt.eval(3, 2));
        assert!(CmpOp::Ge.eval(2, 2));
    }

    #[test]
    fn cmp_flip_negate_consistency() {
        let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ne, CmpOp::Gt, CmpOp::Ge];
        for op in ops {
            for a in 0..3usize {
                for b in 0..3usize {
                    assert_eq!(op.eval(a, b), op.flip().eval(b, a), "{op:?} flip");
                    assert_eq!(op.eval(a, b), !op.negate().eval(a, b), "{op:?} negate");
                }
            }
        }
    }

    #[test]
    fn assign_apply_and_identity() {
        assert_eq!(AssignOp::Add.apply(1.0, 2.0), 3.0);
        assert_eq!(AssignOp::Min.apply(1.0, 2.0), 1.0);
        assert_eq!(AssignOp::Max.apply(1.0, 2.0), 2.0);
        assert_eq!(AssignOp::Overwrite.apply(1.0, 2.0), 2.0);
        let v = AssignOp::Min.identity().unwrap();
        assert_eq!(AssignOp::Min.apply(v, 9.0), 9.0);
    }

    #[test]
    fn symbols() {
        assert_eq!(BinOp::Mul.to_string(), "*");
        assert_eq!(CmpOp::Le.to_string(), "<=");
        assert_eq!(AssignOp::Min.to_string(), "min=");
    }
}
