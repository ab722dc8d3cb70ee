//! Error type for XML processing.

use std::error::Error;
use std::fmt;

/// An error raised while reading or writing XML.
///
/// Carries the byte offset into the input at which the problem was detected
/// (0 for errors that are not tied to a position, e.g. writer misuse).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    message: String,
    offset: usize,
}

impl XmlError {
    /// Creates an error at a specific byte offset of the input.
    pub fn at(offset: usize, message: impl Into<String>) -> Self {
        XmlError {
            message: message.into(),
            offset,
        }
    }

    /// Creates an error that is not tied to an input position.
    pub fn new(message: impl Into<String>) -> Self {
        XmlError {
            message: message.into(),
            offset: 0,
        }
    }

    /// The human-readable description of the problem.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Byte offset into the input at which the problem was detected.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.offset == 0 {
            write!(f, "xml error: {}", self.message)
        } else {
            write!(f, "xml error at byte {}: {}", self.offset, self.message)
        }
    }
}

impl Error for XmlError {}

/// Characters of input an error message quotes at most.
pub const QUOTE_LIMIT: usize = 64;

/// Input as an error message quotes it: the first [`QUOTE_LIMIT`]
/// characters of its `Display` form, then `…` when there were more. A
/// message that echoes what it was sent stays small however large the
/// input.
///
/// ```
/// use wsrc_xml::error::Quoted;
/// assert_eq!(Quoted("short").to_string(), "short");
/// let long = "x".repeat(1000);
/// assert_eq!(Quoted(&long).to_string(), format!("{}…", "x".repeat(64)));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Quoted<T>(pub T);

impl<T: fmt::Display> fmt::Display for Quoted<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use fmt::Write;
        let mut bounded = Bounded {
            out: f,
            left: QUOTE_LIMIT,
        };
        write!(bounded, "{}", self.0)
    }
}

/// Passes on the first `left` characters written to it, then `…` once.
struct Bounded<'a, 'f> {
    out: &'a mut fmt::Formatter<'f>,
    left: usize,
}

impl fmt::Write for Bounded<'_, '_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if self.left == usize::MAX {
            return Ok(());
        }
        match s.char_indices().nth(self.left) {
            Some((cut, _)) => {
                self.left = usize::MAX;
                self.out.write_str(&s[..cut])?;
                self.out.write_str("…")
            }
            None => {
                self.left -= s.chars().count();
                self.out.write_str(s)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_offset_when_present() {
        let e = XmlError::at(17, "unexpected '<'");
        assert_eq!(e.to_string(), "xml error at byte 17: unexpected '<'");
        assert_eq!(e.offset(), 17);
    }

    #[test]
    fn display_omits_offset_when_absent() {
        let e = XmlError::new("writer misuse");
        assert_eq!(e.to_string(), "xml error: writer misuse");
        assert_eq!(e.message(), "writer misuse");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync + Error>() {}
        assert_bounds::<XmlError>();
    }
}
