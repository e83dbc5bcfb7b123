//! Statements: loops, conditionals, lets, blocks and assignments.

use std::collections::HashMap;

use crate::{Access, AssignOp, Cond, Expr, Index};

/// The target of an assignment.
#[derive(Clone, PartialEq, Debug)]
pub enum Lhs {
    /// Write to a tensor element, e.g. `y[i] += …`.
    Tensor(Access),
    /// Write to a scoped mutable scalar (introduced by
    /// [`Stmt::Workspace`]), e.g. `temp += …`.
    Scalar(String),
}

impl From<Access> for Lhs {
    fn from(a: Access) -> Self {
        Lhs::Tensor(a)
    }
}

/// A statement in a tensor program.
///
/// Programs are trees of statements; the executor walks the tree, binding
/// loop indices and performing assignments. The set of constructors mirrors
/// the control flow Finch provides and SySTeC's generated kernels need
/// (paper §2.2): loop nests, conditionals over index comparisons, multiple
/// assignments per iteration, scalar bindings, and workspace accumulators.
#[derive(Clone, PartialEq, Debug)]
pub enum Stmt {
    /// A sequence of statements.
    Block(Vec<Stmt>),
    /// `for index = 1:_ body` — iterates over the full extent of the
    /// index's dimension (possibly narrowed by lifted bounds, and possibly
    /// driven by a sparse level).
    Loop {
        /// The loop index.
        index: Index,
        /// The loop body.
        body: Box<Stmt>,
    },
    /// `if cond then body`.
    If {
        /// The guard.
        cond: Cond,
        /// The guarded body.
        body: Box<Stmt>,
    },
    /// `let name = value in body` — an immutable scalar binding, produced
    /// by common-tensor-access elimination (§4.2.1).
    Let {
        /// The bound variable's name.
        name: String,
        /// The bound value.
        value: Expr,
        /// The scope of the binding.
        body: Box<Stmt>,
    },
    /// A scoped mutable scalar accumulator, produced by the workspace
    /// transformation (§4.2.8): `name` is initialized to `init`, `body`
    /// may assign to it via [`Lhs::Scalar`] and read it via
    /// [`Expr::Scalar`].
    Workspace {
        /// The accumulator variable's name.
        name: String,
        /// The initial value (the reduction identity).
        init: f64,
        /// The scope of the accumulator.
        body: Box<Stmt>,
    },
    /// `lhs op= rhs`.
    Assign {
        /// The write target.
        lhs: Lhs,
        /// The reduction operator.
        op: AssignOp,
        /// The value.
        rhs: Expr,
    },
}

impl Stmt {
    /// Wraps `body` in a loop nest with `order` outermost-first.
    ///
    /// # Examples
    ///
    /// ```
    /// use systec_ir::build::*;
    /// use systec_ir::Stmt;
    ///
    /// let s = Stmt::loops([idx("j"), idx("i")], assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])));
    /// assert!(s.to_string().starts_with("for j"));
    /// ```
    pub fn loops(order: impl IntoIterator<Item = Index>, body: Stmt) -> Stmt {
        let order: Vec<Index> = order.into_iter().collect();
        order.into_iter().rev().fold(body, |acc, index| Stmt::Loop { index, body: Box::new(acc) })
    }

    /// Wraps `body` in a conditional unless the condition is `True`.
    pub fn guarded(cond: Cond, body: Stmt) -> Stmt {
        match cond {
            Cond::True => body,
            cond => Stmt::If { cond, body: Box::new(body) },
        }
    }

    /// Builds a block, flattening nested blocks and dropping empty ones.
    pub fn block(stmts: impl IntoIterator<Item = Stmt>) -> Stmt {
        let mut flat = Vec::new();
        for s in stmts {
            match s {
                Stmt::Block(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().expect("len checked")
        } else {
            Stmt::Block(flat)
        }
    }

    /// All assignment statements in the subtree, in program order.
    pub fn assignments(&self) -> Vec<&Stmt> {
        let mut out = Vec::new();
        self.for_each(&mut |s| {
            if let Stmt::Assign { .. } = s {
                out.push(s);
            }
        });
        out
    }

    /// Applies an index substitution throughout the statement.
    pub fn substitute(&self, map: &HashMap<Index, Index>) -> Stmt {
        self.clone().into_substituted(map)
    }

    /// [`Stmt::substitute`] on an owned tree: each node that names
    /// indices is renamed around its renamed children.
    fn into_substituted(self, map: &HashMap<Index, Index>) -> Stmt {
        match self.map_children(&mut |s| s.into_substituted(map)) {
            Stmt::Loop { index, body } => {
                Stmt::Loop { index: map.get(&index).cloned().unwrap_or(index), body }
            }
            Stmt::If { cond, body } => Stmt::If { cond: cond.substitute(map), body },
            Stmt::Let { name, value, body } => {
                Stmt::Let { name, value: value.into_substituted(map), body }
            }
            Stmt::Assign { lhs, op, rhs } => Stmt::Assign {
                lhs: match lhs {
                    Lhs::Tensor(a) => Lhs::Tensor(a.substitute(map)),
                    scalar @ Lhs::Scalar(_) => scalar,
                },
                op,
                rhs: rhs.into_substituted(map),
            },
            other => other,
        }
    }

    /// Counts the statements in the subtree (for size-based pass
    /// heuristics and tests).
    pub fn len(&self) -> usize {
        let mut n = 0;
        self.for_each(&mut |_| n += 1);
        n
    }

    /// Returns `true` if the subtree contains no assignments.
    pub fn is_empty(&self) -> bool {
        self.assignments().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;

    #[test]
    fn loops_nest_outermost_first() {
        let s = Stmt::loops(
            [idx("j"), idx("i")],
            assign(access("y", ["i"]), access("x", ["i"]).into()),
        );
        match s {
            Stmt::Loop { index, body } => {
                assert_eq!(index.name(), "j");
                match *body {
                    Stmt::Loop { index, .. } => assert_eq!(index.name(), "i"),
                    other => panic!("expected inner loop, got {other:?}"),
                }
            }
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn guarded_true_is_transparent() {
        let a = assign(access("y", ["i"]), lit(1.0));
        assert_eq!(Stmt::guarded(Cond::True, a.clone()), a);
    }

    #[test]
    fn block_flattens() {
        let a = assign(access("y", ["i"]), lit(1.0));
        let b = Stmt::block([Stmt::Block(vec![a.clone()]), a.clone()]);
        match b {
            Stmt::Block(ss) => assert_eq!(ss.len(), 2),
            other => panic!("expected block, got {other:?}"),
        }
    }

    #[test]
    fn block_of_one_unwraps() {
        let a = assign(access("y", ["i"]), lit(1.0));
        assert_eq!(Stmt::block([a.clone()]), a);
    }

    #[test]
    fn assignments_collects_in_order() {
        let s = Stmt::loops(
            [idx("i")],
            Stmt::block([
                assign(access("y", ["i"]), lit(1.0)),
                Stmt::guarded(lt("i", "j"), assign(access("z", ["i"]), lit(2.0))),
            ]),
        );
        assert_eq!(s.assignments().len(), 2);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn substitute_renames_loop_index() {
        let s = Stmt::loops([idx("i")], assign(access("y", ["i"]), lit(1.0)));
        let map: HashMap<Index, Index> = [(Index::new("i"), Index::new("k"))].into_iter().collect();
        let r = s.substitute(&map);
        match r {
            Stmt::Loop { index, .. } => assert_eq!(index.name(), "k"),
            other => panic!("expected loop, got {other:?}"),
        }
    }
}
