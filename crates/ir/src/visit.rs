//! Structural traversal helpers: the one place each IR's shape is
//! written out. [`Stmt::postwalk`] is the rewrite strategy the §4.2
//! passes share, as RewriteTools' `Postwalk` is in §5.1; the `map_*`
//! helpers rebuild a tree, and the `for_each*` helpers visit one in
//! program order for the analyses (access collection, written-tensor
//! sets). Walkers that carry context down the tree (bound loops, guard
//! stacks) keep their own recursion and hand every other node back here.

use crate::{Access, AssignOp, Cond, Expr, Lhs, Stmt};

impl Expr {
    /// Rebuilds the expression with each direct child replaced by
    /// `f(child)`. Leaves are returned unchanged.
    pub fn map_children(self, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
        self.map_children_dyn(f)
    }

    /// Rebuilds the expression children first, replacing each `Access`
    /// leaf with `f(access)`.
    pub fn map_accesses(self, f: &mut impl FnMut(Access) -> Expr) -> Expr {
        self.map_accesses_dyn(f)
    }

    /// The direct children.
    pub fn children(&self) -> &[Expr] {
        match self {
            Expr::Call { args, .. } => args,
            Expr::Lookup { index, .. } => std::slice::from_ref(index),
            Expr::Literal(_) | Expr::Scalar(_) | Expr::Access(_) | Expr::CmpVal { .. } => &[],
        }
    }

    /// Calls `f` on every node, parents before children, left to right.
    pub fn for_each<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        self.for_each_dyn(f)
    }

    /// Calls `f` on every tensor access, left to right.
    pub fn for_each_access<'a>(&'a self, f: &mut impl FnMut(&'a Access)) {
        self.for_each_access_dyn(f)
    }

    // The walks themselves take `&mut dyn FnMut`, so each is compiled
    // once; the generic fronts above only coerce the caller's closure.

    fn map_children_dyn(self, f: &mut dyn FnMut(Expr) -> Expr) -> Expr {
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

    fn map_accesses_dyn(self, f: &mut dyn FnMut(Access) -> Expr) -> Expr {
        match self {
            Expr::Access(a) => f(a),
            other => other.map_children_dyn(&mut |c| c.map_accesses_dyn(f)),
        }
    }

    fn for_each_dyn<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        f(self);
        for c in self.children() {
            c.for_each_dyn(f);
        }
    }

    fn for_each_access_dyn<'a>(&'a self, f: &mut dyn FnMut(&'a Access)) {
        self.for_each_dyn(&mut |e| {
            if let Expr::Access(a) = e {
                f(a);
            }
        });
    }
}

impl Stmt {
    /// Rebuilds the statement with each direct *statement* child replaced
    /// by `f(child)`. Expressions are not visited.
    pub fn map_children(self, f: &mut impl FnMut(Stmt) -> Stmt) -> Stmt {
        self.map_children_dyn(f)
    }

    /// The direct statement children.
    pub fn children(&self) -> &[Stmt] {
        match self {
            Stmt::Block(ss) => ss,
            Stmt::Loop { body, .. }
            | Stmt::If { body, .. }
            | Stmt::Let { body, .. }
            | Stmt::Workspace { body, .. } => std::slice::from_ref(body),
            Stmt::Assign { .. } => &[],
        }
    }

    /// Applies `rule` bottom-up: children are rewritten first, then the
    /// rule is tried once on the rebuilt node.
    pub fn postwalk(self, rule: &impl Fn(&Stmt) -> Option<Stmt>) -> Stmt {
        let rebuilt = self.map_children_dyn(&mut |c| c.postwalk(rule));
        rule(&rebuilt).unwrap_or(rebuilt)
    }

    /// Rewrites every *expression* in the subtree (assignment right-hand
    /// sides and `let` values) with `f`, leaving control flow intact.
    pub fn map_exprs(self, f: &mut impl FnMut(Expr) -> Expr) -> Stmt {
        self.map_exprs_dyn(f)
    }

    /// Calls `f` on every statement, parents before children, in
    /// program order.
    pub fn for_each<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        self.for_each_dyn(f)
    }

    /// Calls `f` on every tensor access in program order: a `let`'s
    /// value, then each assignment's target (with its operator) and
    /// then its right-hand side's reads (with `None`).
    pub fn for_each_access<'a>(&'a self, f: &mut impl FnMut(&'a Access, Option<AssignOp>)) {
        self.for_each_access_dyn(f)
    }

    // As for `Expr`: one compiled walk each, behind the generic fronts.

    fn map_children_dyn(self, f: &mut dyn FnMut(Stmt) -> Stmt) -> Stmt {
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

    fn map_exprs_dyn(self, f: &mut dyn FnMut(Expr) -> Expr) -> Stmt {
        match self {
            Stmt::Let { name, value, body } => {
                Stmt::Let { name, value: f(value), body: Box::new(body.map_exprs_dyn(f)) }
            }
            Stmt::Assign { lhs, op, rhs } => Stmt::Assign { lhs, op, rhs: f(rhs) },
            other => other.map_children_dyn(&mut |s| s.map_exprs_dyn(f)),
        }
    }

    fn for_each_dyn<'a>(&'a self, f: &mut dyn FnMut(&'a Stmt)) {
        f(self);
        for c in self.children() {
            c.for_each_dyn(f);
        }
    }

    fn for_each_access_dyn<'a>(&'a self, f: &mut dyn FnMut(&'a Access, Option<AssignOp>)) {
        self.for_each_dyn(&mut |s| match s {
            Stmt::Let { value, .. } => value.for_each_access_dyn(&mut |a| f(a, None)),
            Stmt::Assign { lhs, op, rhs } => {
                if let Lhs::Tensor(a) = lhs {
                    f(a, Some(*op));
                }
                rhs.for_each_access_dyn(&mut |a| f(a, None));
            }
            _ => {}
        });
    }
}

impl Cond {
    /// Rebuilds the condition with each direct child replaced by
    /// `f(child)`. Leaves are returned unchanged.
    pub fn map_children(self, f: &mut impl FnMut(Cond) -> Cond) -> Cond {
        match self {
            Cond::And(cs) => Cond::And(cs.into_iter().map(&mut *f).collect()),
            Cond::Or(cs) => Cond::Or(cs.into_iter().map(&mut *f).collect()),
            leaf @ (Cond::True | Cond::Cmp(..)) => leaf,
        }
    }

    /// The direct children.
    pub fn children(&self) -> &[Cond] {
        match self {
            Cond::And(cs) | Cond::Or(cs) => cs,
            Cond::True | Cond::Cmp(..) => &[],
        }
    }

    /// Calls `f` on every node, parents before children, left to right.
    pub fn for_each<'a>(&'a self, f: &mut impl FnMut(&'a Cond)) {
        self.for_each_dyn(f)
    }

    fn for_each_dyn<'a>(&'a self, f: &mut dyn FnMut(&'a Cond)) {
        f(self);
        for c in self.children() {
            c.for_each_dyn(f);
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
    fn map_accesses_rewrites_leaves_under_calls_and_lookups() {
        let e = Expr::Lookup {
            table: vec![0.0, 1.0],
            index: Box::new(mul([access("A", ["i"]), access("x", ["i"])])),
        };
        let renamed = e.map_accesses(&mut |a| Expr::Scalar(format!("t_{}", a.tensor.name)));
        assert_eq!(renamed.accesses().len(), 0);
        assert!(renamed.to_string().contains("t_A * t_x"), "{renamed}");
    }

    #[test]
    fn for_each_access_visits_in_program_order() {
        let s = Stmt::Block(vec![
            Stmt::Let {
                name: "t".into(),
                value: access("B", ["i"]).into(),
                body: Box::new(assign(access("y", ["i"]), access("A", ["i"]).into())),
            },
            Stmt::loops([idx("j")], assign(access("z", ["j"]), access("C", ["j"]).into())),
        ]);
        let mut seen = Vec::new();
        s.for_each_access(&mut |a, op| seen.push(format!("{}{}", a.tensor.name, op.is_some())));
        assert_eq!(seen, ["Bfalse", "ytrue", "Afalse", "ztrue", "Cfalse"]);
    }

    #[test]
    fn map_exprs_reaches_assignments_under_loops() {
        let s = Stmt::loops([idx("i")], assign(access("y", ["i"]), lit(1.0)));
        let s2 = s.map_exprs(&mut |_| lit(7.0));
        let printed = s2.to_string();
        assert!(printed.contains("y[i] += 7"), "got {printed}");
    }
}
