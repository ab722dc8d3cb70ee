//! Error type for application-object operations.

use std::error::Error;
use std::fmt;

/// An error from a model operation (serialization, copying, rendering).
///
/// The variants mirror the run-time failures the paper relies on the Java
/// runtime to report — e.g. "an object in the tree is not serializable".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The operation does not apply to the value (e.g. cloning a bare
    /// string, or serializing a struct of an unregistered type). The
    /// payload names the type and the operation.
    NotSupported {
        /// Type of the value the operation does not apply to.
        type_name: String,
        /// The operation that was asked for.
        capability: &'static str,
    },
    /// A struct type was not found in the registry.
    UnknownType(String),
    /// Serialized data was malformed.
    Corrupt(String),
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
            ModelError::Corrupt(m) => write!(f, "corrupt serialized data: {m}"),
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
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync + Error>() {}
        assert_bounds::<ModelError>();
    }
}
