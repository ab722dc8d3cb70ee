//! Error type for application-object operations.

use std::error::Error;
use std::fmt;

/// An error from a model operation (serialization, copying, rendering).
///
/// The variants mirror the run-time failures the paper relies on the Java
/// runtime to report — e.g. "an object in the tree is not serializable".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The operation requires a capability the type does not declare
    /// (e.g. cloning a non-cloneable type). The payload names the type and
    /// the missing capability.
    NotSupported {
        /// Type that lacks the capability.
        type_name: String,
        /// The capability that was required.
        capability: &'static str,
    },
    /// A struct type was not found in the registry.
    UnknownType(String),
    /// A field access did not match the type descriptor.
    UnknownField {
        /// The struct type.
        type_name: String,
        /// The field that does not exist.
        field: String,
    },
    /// Serialized data was malformed.
    Corrupt(String),
    /// A value did not match the expected shape (e.g. setting an `Int`
    /// field to a `String`).
    TypeMismatch {
        /// What was expected.
        expected: String,
        /// What was found.
        found: String,
    },
    /// A tree's text, or the nodes of one of its nesting levels, exceed
    /// the `u32` range the handles of a built tree address.
    TooLarge,
}

impl ModelError {
    /// Convenience for corrupt-data errors.
    pub(crate) fn corrupt(msg: impl Into<String>) -> Self {
        ModelError::Corrupt(msg.into())
    }
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::NotSupported {
                type_name,
                capability,
            } => {
                write!(f, "type '{type_name}' does not support {capability}")
            }
            ModelError::UnknownType(t) => write!(f, "unknown type '{t}'"),
            ModelError::UnknownField { type_name, field } => {
                write!(f, "type '{type_name}' has no field '{field}'")
            }
            ModelError::Corrupt(m) => write!(f, "corrupt serialized data: {m}"),
            ModelError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            ModelError::TooLarge => {
                f.write_str("a tree's text or one of its levels exceeds the u32 range")
            }
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ModelError::NotSupported {
            type_name: "X".into(),
            capability: "clone",
        };
        assert_eq!(e.to_string(), "type 'X' does not support clone");
        assert!(ModelError::UnknownType("T".into())
            .to_string()
            .contains("'T'"));
        assert!(ModelError::corrupt("short read")
            .to_string()
            .contains("short read"));
        let tm = ModelError::TypeMismatch {
            expected: "Int".into(),
            found: "String".into(),
        };
        assert!(tm.to_string().contains("expected Int"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync + Error>() {}
        assert_bounds::<ModelError>();
    }
}
