//! Qualified names.

use crate::symbol::Symbol;
use std::fmt;

/// A qualified XML name: an optional prefix plus a local part.
///
/// `QName` stores the *lexical* form (`soap:Envelope` → prefix `soap`,
/// local `Envelope`). Prefixes are not resolved to namespace URIs:
/// `xmlns` declarations travel as ordinary attributes, and the SOAP layer
/// matches elements on their local parts.
///
/// Both parts are interned [`Symbol`]s: cloning a `QName` is two pointer
/// bumps, names produced through one `crate::symbol::SymbolTable`
/// share their text allocations, and equality/hashing reuse the hash
/// computed when the name was interned.
///
/// ```
/// use wsrc_xml::QName;
/// let q = QName::parse("soap:Envelope");
/// assert_eq!(q.prefix(), "soap");
/// assert_eq!(q.local_part(), "Envelope");
/// assert_eq!(q.to_string(), "soap:Envelope");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QName {
    prefix: Option<Symbol>,
    local: Symbol,
}

impl QName {
    /// Creates a name with no prefix.
    pub(crate) fn local(name: impl AsRef<str>) -> Self {
        QName {
            prefix: None,
            local: Symbol::new(name.as_ref()),
        }
    }

    /// Creates a prefixed name.
    pub(crate) fn prefixed(prefix: impl AsRef<str>, local: impl AsRef<str>) -> Self {
        let prefix = prefix.as_ref();
        QName {
            prefix: if prefix.is_empty() {
                None
            } else {
                Some(Symbol::new(prefix))
            },
            local: Symbol::new(local.as_ref()),
        }
    }

    /// Parses a lexical QName such as `ns:elem` or `elem`.
    pub fn parse(s: &str) -> Self {
        match s.split_once(':') {
            Some((p, l)) => QName::prefixed(p, l),
            None => QName::local(s),
        }
    }

    /// Assembles a name from already interned symbols (the allocation-free
    /// constructor used by [`crate::symbol::SymbolTable::intern_qname`]).
    pub(crate) fn from_symbols(prefix: Option<Symbol>, local: Symbol) -> Self {
        QName {
            prefix: prefix.filter(|p| !p.is_empty()),
            local,
        }
    }

    /// The prefix part; empty for unprefixed names.
    pub fn prefix(&self) -> &str {
        self.prefix.as_ref().map(Symbol::as_str).unwrap_or("")
    }

    /// The local part of the name.
    pub fn local_part(&self) -> &str {
        self.local.as_str()
    }

    /// The interned prefix symbol, if any.
    pub(crate) fn prefix_symbol(&self) -> Option<&Symbol> {
        self.prefix.as_ref()
    }

    /// The interned local-part symbol.
    pub fn local_symbol(&self) -> &Symbol {
        &self.local
    }

    /// Heap bytes retained by this name if it were the only owner of its
    /// text (interned names are typically shared; see
    /// [`crate::event::SaxEventSequence::names_bytes`] for charged-once
    /// accounting).
    pub(crate) fn text_len(&self) -> usize {
        self.prefix().len() + self.local.len()
    }
}

// A second accessor name kept for call-site readability: `q.local()` is the
// constructor, `q.local_part()` the getter, matching `std`'s split between
// constructors and getters.
impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.prefix {
            None => f.write_str(self.local.as_str()),
            Some(prefix) => write!(f, "{}:{}", prefix, self.local),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_splits_on_first_colon() {
        let q = QName::parse("a:b:c");
        assert_eq!(q.prefix(), "a");
        assert_eq!(q.local_part(), "b:c");
    }

    #[test]
    fn display_roundtrips() {
        assert_eq!(QName::parse("x:y").to_string(), "x:y");
        assert_eq!(QName::parse("plain").to_string(), "plain");
    }
}
