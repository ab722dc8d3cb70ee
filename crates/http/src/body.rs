//! Shared, immutable message bodies.
//!
//! A [`Body`] is an `Arc<[u8]>`: the payload bytes are copied exactly
//! once, when the body is constructed from the socket read buffer (or
//! from a serializer's output), and every layer after that — transport,
//! the cache store — shares the same allocation by bumping the
//! reference count. `Body` is deeply immutable: the cache keeps the
//! [`Body::shared`] bytes as a plain `Arc<[u8]>`, which invariant R1
//! (no interior mutability below a cached value) allows like any other
//! plain data.

use crate::error::HttpError;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted body payload.
///
/// Cloning is a pointer bump; `Deref<Target = [u8]>` gives byte access.
/// Use [`Body::shared`] to hand the underlying `Arc<[u8]>` to layers
/// outside the HTTP crate (e.g. the cache store) without copying.
#[derive(Clone)]
pub struct Body(Arc<[u8]>);

impl Body {
    /// An empty body (no allocation is shared repeatedly; construction
    /// of an empty `Arc<[u8]>` is cheap and rare).
    pub(crate) fn empty() -> Self {
        Body(Arc::from(&[][..]))
    }

    /// The body bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The shared buffer itself — a clone is a reference-count bump,
    /// letting non-HTTP layers (the cache store) hold the same
    /// allocation.
    pub fn shared(&self) -> Arc<[u8]> {
        Arc::clone(&self.0)
    }

    /// Body length in bytes.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the body is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The body as UTF-8 text, strictly validated.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError::BodyNotUtf8`] when the bytes are not valid
    /// UTF-8 (the old accessors silently replaced bad sequences, which
    /// corrupted cached XML; see DESIGN.md §3b).
    pub(crate) fn text(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.0).map_err(HttpError::BodyNotUtf8)
    }

    /// Whether two bodies share one allocation (zero-copy check used in
    /// tests).
    #[cfg(test)]
    pub(crate) fn ptr_eq(&self, other: &Body) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Default for Body {
    fn default() -> Self {
        Body::empty()
    }
}

impl Deref for Body {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Body {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Body {
    fn from(bytes: Vec<u8>) -> Self {
        Body(Arc::from(bytes))
    }
}

impl From<Arc<[u8]>> for Body {
    fn from(bytes: Arc<[u8]>) -> Self {
        Body(bytes)
    }
}

impl From<&[u8]> for Body {
    fn from(bytes: &[u8]) -> Self {
        Body(Arc::from(bytes))
    }
}

impl<const N: usize> From<&[u8; N]> for Body {
    fn from(bytes: &[u8; N]) -> Self {
        Body(Arc::from(&bytes[..]))
    }
}

impl From<String> for Body {
    fn from(text: String) -> Self {
        Body(Arc::from(text.into_bytes()))
    }
}

impl From<&str> for Body {
    fn from(text: &str) -> Self {
        Body(Arc::from(text.as_bytes()))
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for Body {}

impl PartialEq<[u8]> for Body {
    fn eq(&self, other: &[u8]) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&[u8]> for Body {
    fn eq(&self, other: &&[u8]) -> bool {
        &*self.0 == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Body {
    fn eq(&self, other: &[u8; N]) -> bool {
        &*self.0 == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Body {
    fn eq(&self, other: &&[u8; N]) -> bool {
        *self.0 == other[..]
    }
}

impl PartialEq<Vec<u8>> for Body {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &*self.0 == other.as_slice()
    }
}

impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(&self.0) {
            Ok(text) if text.len() <= 64 => write!(f, "Body({text:?})"),
            Ok(text) => write!(f, "Body({:?}… {} bytes)", &text[..64], self.0.len()),
            Err(_) => write!(f, "Body({} bytes)", self.0.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_allocation() {
        let body = Body::from(b"<soapenv:Envelope/>".to_vec());
        let other = body.clone();
        assert!(body.ptr_eq(&other));
        let shared = body.shared();
        assert!(Arc::ptr_eq(&shared, &other.shared()));
    }

    #[test]
    fn equality_against_byte_forms() {
        let body = Body::from(b"abc".to_vec());
        assert_eq!(body, *b"abc");
        assert_eq!(body, b"abc");
        assert_eq!(body, &b"abc"[..]);
        assert_eq!(body, b"abc".to_vec());
        assert_eq!(body, Body::from("abc"));
        assert_ne!(body, Body::from("abd"));
    }

    #[test]
    fn strict_text_rejects_bad_utf8() {
        let good = Body::from(b"ok".to_vec());
        assert_eq!(good.text().unwrap(), "ok");
        let bad = Body::from(vec![0xff, 0xfe]);
        assert!(matches!(bad.text(), Err(HttpError::BodyNotUtf8(_))));
    }

    #[test]
    fn empty_and_default() {
        assert!(Body::empty().is_empty());
        assert_eq!(Body::default().len(), 0);
        assert_eq!(Body::empty().text().unwrap(), "");
    }
}
