//! Error type for lowering and execution.

use std::error::Error;
use std::fmt;

use systec_ir::Index;
use systec_tensor::LevelFormat;

/// An error raised while lowering or executing a program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExecError {
    /// An accessed tensor was not supplied in the input bindings.
    UnknownTensor {
        /// The missing tensor's display name.
        name: String,
    },
    /// An access arity did not match the bound tensor's rank.
    AccessRankMismatch {
        /// The tensor's display name.
        name: String,
        /// The tensor's rank.
        rank: usize,
        /// The access's subscript count.
        subscripts: usize,
    },
    /// Two uses of the same index implied different extents.
    ExtentMismatch {
        /// The index in question.
        index: Index,
        /// First implied extent.
        a: usize,
        /// Second implied extent.
        b: usize,
    },
    /// A loop index's extent could not be inferred from any access.
    UnknownExtent {
        /// The index in question.
        index: Index,
    },
    /// An index was used in an access or condition without an enclosing
    /// loop binding it.
    UnboundIndex {
        /// The index in question.
        index: Index,
    },
    /// A scalar variable was referenced outside any `let`/workspace scope
    /// binding it.
    UnboundScalar {
        /// The scalar's name.
        name: String,
    },
    /// A supplied output tensor's shape did not match the program.
    OutputShapeMismatch {
        /// The output's display name.
        name: String,
        /// Expected shape.
        expected: Vec<usize>,
        /// Supplied shape.
        got: Vec<usize>,
    },
    /// A bound tensor's shape did not match the shape a compiled plan
    /// was built against (inputs and outputs alike).
    BindingShapeMismatch {
        /// The tensor's display name.
        name: String,
        /// The shape the plan was compiled for.
        expected: Vec<usize>,
        /// The supplied shape.
        got: Vec<usize>,
    },
    /// A bound sparse input's level formats did not match the formats a
    /// compiled plan was built against (its loops are monomorphized per
    /// level format).
    BindingFormatMismatch {
        /// The tensor's display name.
        name: String,
        /// The level formats the plan was compiled for.
        expected: Vec<LevelFormat>,
        /// The supplied level formats.
        got: Vec<LevelFormat>,
    },
    /// A tensor appears both as an input and as a write target.
    InputOutputClash {
        /// The display name used both ways.
        name: String,
    },
    /// The kernel specification itself (einsum + symmetry declarations)
    /// was rejected by the compiler — raised by preparation paths that
    /// accept specs from untrusted callers (the serving layer) instead
    /// of statically known kernel definitions.
    InvalidKernel {
        /// The compiler's rejection message.
        message: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownTensor { name } => write!(f, "tensor `{name}` is not bound"),
            ExecError::AccessRankMismatch { name, rank, subscripts } => write!(
                f,
                "access to `{name}` has {subscripts} subscripts but the tensor has rank {rank}"
            ),
            ExecError::ExtentMismatch { index, a, b } => {
                write!(f, "index `{index}` is used with conflicting extents {a} and {b}")
            }
            ExecError::UnknownExtent { index } => {
                write!(f, "extent of loop index `{index}` cannot be inferred from any access")
            }
            ExecError::UnboundIndex { index } => {
                write!(f, "index `{index}` is used without an enclosing loop")
            }
            ExecError::UnboundScalar { name } => {
                write!(f, "scalar `{name}` is referenced outside its binding scope")
            }
            ExecError::OutputShapeMismatch { name, expected, got } => {
                write!(f, "output `{name}` has shape {got:?}, expected {expected:?}")
            }
            ExecError::BindingShapeMismatch { name, expected, got } => {
                write!(
                    f,
                    "tensor `{name}` has shape {got:?}, but the plan was compiled for {expected:?}"
                )
            }
            ExecError::BindingFormatMismatch { name, expected, got } => {
                write!(
                    f,
                    "tensor `{name}` is packed {got:?}, but the plan was compiled for {expected:?}"
                )
            }
            ExecError::InputOutputClash { name } => {
                write!(f, "tensor `{name}` is bound as an input but written as an output")
            }
            ExecError::InvalidKernel { message } => {
                write!(f, "invalid kernel specification: {message}")
            }
        }
    }
}

impl Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = ExecError::UnknownTensor { name: "A_T".into() };
        assert_eq!(e.to_string(), "tensor `A_T` is not bound");
        let e = ExecError::ExtentMismatch { index: Index::new("i"), a: 3, b: 4 };
        assert!(e.to_string().contains("conflicting extents"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<ExecError>();
    }
}
