//! Structural traversal helpers. [`Stmt::postwalk`] is the one rewrite
//! strategy the §4.2 passes share, as RewriteTools' `Postwalk` is in §5.1.

use crate::{Expr, Stmt};

impl Expr {
    /// Rebuilds the expression with each direct child replaced by
    /// `f(child)`. Leaves are returned unchanged.
    pub fn map_children(self, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
        match self {
            Expr::Call { op, args } => {
                Expr::Call { op, args: args.into_iter().map(&mut *f).collect() }
            }
            Expr::Lookup { table, index } => Expr::Lookup { table, index: Box::new(f(*index)) },
            leaf @ (Expr::Literal(_) | Expr::Scalar(_) | Expr::Access(_) | Expr::CmpVal { .. }) => {
                leaf
            }
        }
    }

    /// Immutable references to the direct children.
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Call { args, .. } => args.iter().collect(),
            Expr::Lookup { index, .. } => vec![index],
            Expr::Literal(_) | Expr::Scalar(_) | Expr::Access(_) | Expr::CmpVal { .. } => {
                Vec::new()
            }
        }
    }
}

impl Stmt {
    /// Rebuilds the statement with each direct *statement* child replaced
    /// by `f(child)`. Expressions are not visited.
    pub fn map_children(self, f: &mut impl FnMut(Stmt) -> Stmt) -> Stmt {
        match self {
            Stmt::Block(ss) => Stmt::Block(ss.into_iter().map(&mut *f).collect()),
            Stmt::Loop { index, body } => Stmt::Loop { index, body: Box::new(f(*body)) },
            Stmt::If { cond, body } => Stmt::If { cond, body: Box::new(f(*body)) },
            Stmt::Let { name, value, body } => Stmt::Let { name, value, body: Box::new(f(*body)) },
            Stmt::Workspace { name, init, body } => {
                Stmt::Workspace { name, init, body: Box::new(f(*body)) }
            }
            leaf @ Stmt::Assign { .. } => leaf,
        }
    }

    /// Immutable references to the direct statement children.
    pub fn children(&self) -> Vec<&Stmt> {
        match self {
            Stmt::Block(ss) => ss.iter().collect(),
            Stmt::Loop { body, .. }
            | Stmt::If { body, .. }
            | Stmt::Let { body, .. }
            | Stmt::Workspace { body, .. } => vec![body],
            Stmt::Assign { .. } => Vec::new(),
        }
    }

    /// Applies `rule` bottom-up: children are rewritten first, then the
    /// rule is tried once on the rebuilt node.
    pub fn postwalk(self, rule: &impl Fn(&Stmt) -> Option<Stmt>) -> Stmt {
        let rebuilt = self.map_children(&mut |c| c.postwalk(rule));
        rule(&rebuilt).unwrap_or(rebuilt)
    }

    /// Rewrites every *expression* in the subtree (assignment right-hand
    /// sides and `let` values) with `f`, leaving control flow intact.
    pub fn map_exprs(self, f: &mut impl FnMut(Expr) -> Expr) -> Stmt {
        match self {
            Stmt::Let { name, value, body } => {
                Stmt::Let { name, value: f(value), body: Box::new(body.map_exprs(f)) }
            }
            Stmt::Assign { lhs, op, rhs } => Stmt::Assign { lhs, op, rhs: f(rhs) },
            other => other.map_children(&mut |s| s.map_exprs(f)),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::build::*;
    use crate::{Expr, Stmt};

    #[test]
    fn expr_map_children_replaces_args() {
        let e = mul([access("A", ["i"]), access("B", ["i"])]);
        let doubled = e.map_children(&mut |c| match c {
            Expr::Access(_) => lit(1.0),
            other => other,
        });
        assert_eq!(doubled.to_string(), "1 * 1");
    }

    #[test]
    fn stmt_children_counts() {
        let s = Stmt::loops([idx("i")], assign(access("y", ["i"]), lit(1.0)));
        assert_eq!(s.children().len(), 1);
        let a = assign(access("y", ["i"]), lit(1.0));
        assert!(a.children().is_empty());
    }

    /// Merges a block of two identical statements into one.
    fn dedup(s: &Stmt) -> Option<Stmt> {
        match s {
            Stmt::Block(ss) if ss.len() == 2 && ss[0] == ss[1] => Some(ss[0].clone()),
            _ => None,
        }
    }

    #[test]
    fn stmt_postwalk_rewrites_blocks() {
        let a = assign(access("y", ["i"]), lit(1.0));
        let s = Stmt::Block(vec![a.clone(), a.clone()]);
        assert_eq!(s.postwalk(&dedup), a);
    }

    #[test]
    fn stmt_postwalk_rewrites_children_before_the_parent() {
        // The inner block collapses to `a`, which only then makes the
        // outer block a pair of equal statements for the rule to fire on.
        let a = assign(access("y", ["i"]), lit(1.0));
        let s = Stmt::Block(vec![Stmt::Block(vec![a.clone(), a.clone()]), a.clone()]);
        assert_eq!(s.postwalk(&dedup), a);
    }

    #[test]
    fn map_exprs_reaches_assignments_under_loops() {
        let s = Stmt::loops([idx("i")], assign(access("y", ["i"]), lit(1.0)));
        let s2 = s.map_exprs(&mut |_| lit(7.0));
        let printed = s2.to_string();
        assert!(printed.contains("y[i] += 7"), "got {printed}");
    }
}
