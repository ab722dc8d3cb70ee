//! Cache-key generation — the three methods of the paper's Table 2.
//!
//! A complete key identifies "the endpoint URL, operation name, and all
//! parameter names and values" (§3.3). The three representations differ
//! in how parameter values are rendered:
//!
//! | strategy          | rendering                     | limitation |
//! |-------------------|-------------------------------|------------|
//! | `XmlMessage`      | serialize the request envelope| none (but slow) |
//! | `Serialization`   | binary-serialize each value   | struct types must be registered |
//! | `ToString`        | `toString()` each value       | registered struct types, no `byte[]` |
//!
//! A [`ResponseCache`](crate::ResponseCache) keys every request one
//! way: by the fastest method that applies to it. It renders the key
//! into the thread's scratch and hashes it there, probes the store with
//! it borrowed, and copies it only into a new entry; `generate_key` is
//! that render plus one exact-size copy.

#![expect(
    clippy::disallowed_types,
    reason = "the per-thread key scratch; a rendered key never reaches a value"
)]

use crate::error::CacheError;
use crate::store::{key_hash, KeyRef};
use std::cell::Cell;
use wsrc_model::typeinfo::TypeRegistry;
use wsrc_model::{binser, tostring};
use wsrc_soap::rpc::RpcRequest;
use wsrc_soap::serializer::serialize_request_as;

/// How cache keys are generated from requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyStrategy {
    /// Serialize the whole request XML message (always applicable, slow).
    XmlMessage,
    /// Binary-serialize parameter values (requires serializable values).
    Serialization,
    /// Render parameter values with their value-based `toString`
    /// (fastest; requires suitable `toString`).
    ToString,
}

impl KeyStrategy {
    /// All concrete strategies, in paper Table 6 order.
    pub const CONCRETE: [KeyStrategy; 3] = [
        KeyStrategy::XmlMessage,
        KeyStrategy::Serialization,
        KeyStrategy::ToString,
    ];

    /// Stable kebab-case label for metric and benchmark row names.
    pub fn metric_label(&self) -> &'static str {
        match self {
            KeyStrategy::XmlMessage => "xml-message",
            KeyStrategy::Serialization => "serialization",
            KeyStrategy::ToString => "to-string",
        }
    }

    /// The kind of bytes this method renders.
    fn kind(self) -> KeyKind {
        match self {
            KeyStrategy::Serialization => KeyKind::Binary,
            KeyStrategy::XmlMessage | KeyStrategy::ToString => KeyKind::Text,
        }
    }
}

/// What a key's bytes are: text (toString, XML message) or binary
/// (serialization). Part of the key's identity, as `CacheKey`'s variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeyKind {
    Text,
    Binary,
}

/// A generated cache key.
///
/// Keys from different strategies never collide: the strategy is part of
/// the key identity (a text key rendering equal to some XML key still
/// differs in discriminant).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CacheKey {
    /// A textual key (toString or XML-message strategies).
    Text(String),
    /// A binary key (serialization strategy).
    Binary(Vec<u8>),
}

impl CacheKey {
    /// Approximate memory footprint of the key in bytes (Table 8).
    pub fn approximate_size(&self) -> usize {
        charge(self.parts().1.len())
    }

    /// The key's kind and bytes.
    pub(crate) fn parts(&self) -> (KeyKind, &[u8]) {
        match self {
            CacheKey::Text(s) => (KeyKind::Text, s.as_bytes()),
            CacheKey::Binary(b) => (KeyKind::Binary, b),
        }
    }
}

/// What a key of `len` bytes is charged, whatever holds it: the same for
/// a [`CacheKey`] and for the store's own copy of one.
pub(crate) fn charge(len: usize) -> usize {
    std::mem::size_of::<CacheKey>() + len
}

/// Generates the cache key for `request` sent to `endpoint_url`: the
/// render a cache probes its store with, copied once into a key of
/// exactly its size.
///
/// # Errors
///
/// Returns [`CacheError::NotApplicable`] when the strategy cannot handle
/// some parameter value (mirroring the paper's per-method limitations),
/// and SOAP errors if request serialization itself fails.
pub fn generate_key(
    strategy: KeyStrategy,
    endpoint_url: &str,
    request: &RpcRequest,
    registry: &TypeRegistry,
) -> Result<CacheKey, CacheError> {
    RenderedKey::render(strategy, endpoint_url, request, registry)?.to_owned_key()
}

/// Renders with the first method of ToString → Serialization →
/// XmlMessage that applies to `request`. A `ResponseCache` keys every
/// request this way, so one request always gets one key.
///
/// # Errors
///
/// The `XmlMessage` attempt's error, when no method applies.
pub(crate) fn render_first_applicable(
    endpoint_url: &str,
    request: &RpcRequest,
    registry: &TypeRegistry,
) -> Result<RenderedKey, CacheError> {
    RenderedKey::render(KeyStrategy::ToString, endpoint_url, request, registry)
        .or_else(|_| {
            RenderedKey::render(KeyStrategy::Serialization, endpoint_url, request, registry)
        })
        .or_else(|_| RenderedKey::render(KeyStrategy::XmlMessage, endpoint_url, request, registry))
}

thread_local! {
    /// The buffer of the last key to be dropped on this thread. A key
    /// rendered while another is alive (a cached call nested in the
    /// exchange of another) takes a new one.
    static SCRATCH: Cell<Option<Vec<u8>>> = const { Cell::new(None) };
}

/// A key's buffer is kept for the thread's next key up to this many
/// bytes of capacity; a larger one (an XML-message key of a large
/// request) is dropped.
const SCRATCH_CAP: usize = 4 << 10;

/// A key rendered into the thread's scratch, and its store hash,
/// computed over the bytes as the render finishes. The store is probed
/// with it borrowed ([`RenderedKey::as_ref`]) and copies it only to
/// insert. Its buffer goes back to the thread when it is dropped.
#[derive(Debug)]
pub(crate) struct RenderedKey {
    kind: KeyKind,
    bytes: Vec<u8>,
    hash: u64,
}

impl Drop for RenderedKey {
    fn drop(&mut self) {
        let mut bytes = std::mem::take(&mut self.bytes);
        if bytes.capacity() > SCRATCH_CAP {
            return;
        }
        bytes.clear();
        let _ = SCRATCH.try_with(|slot| {
            let keep = match slot.take() {
                Some(kept) if kept.capacity() > bytes.capacity() => kept,
                _ => bytes,
            };
            slot.set(Some(keep));
        });
    }
}

impl RenderedKey {
    /// A [`CacheKey`] of exactly the rendered bytes.
    fn to_owned_key(&self) -> Result<CacheKey, CacheError> {
        Ok(match self.kind {
            KeyKind::Binary => CacheKey::Binary(self.bytes.to_vec()),
            KeyKind::Text => CacheKey::Text(
                std::str::from_utf8(&self.bytes)
                    .map_err(|e| CacheError::Unusable(format!("text key is not utf-8: {e}")))?
                    .to_owned(),
            ),
        })
    }

    /// The key, borrowed, as the store is probed with it.
    pub(crate) fn as_ref(&self) -> KeyRef<'_> {
        KeyRef::new(self.kind, &self.bytes, self.hash)
    }

    /// Renders `request`'s key by `strategy` into the thread's scratch
    /// and hashes it there, as the store will.
    fn render(
        strategy: KeyStrategy,
        endpoint_url: &str,
        request: &RpcRequest,
        registry: &TypeRegistry,
    ) -> Result<RenderedKey, CacheError> {
        let mut key = RenderedKey {
            kind: strategy.kind(),
            bytes: SCRATCH
                .try_with(Cell::take)
                .ok()
                .flatten()
                .unwrap_or_default(),
            hash: 0,
        };
        let out = &mut key.bytes;
        match strategy {
            KeyStrategy::XmlMessage => {
                out.extend_from_slice(endpoint_url.as_bytes());
                out.push(b'\n');
                serialize_request_as(request, registry, |xml| {
                    out.extend_from_slice(xml.as_bytes());
                })?;
            }
            KeyStrategy::Serialization => {
                push_delimited(out, endpoint_url.as_bytes());
                push_delimited(out, request.operation.as_bytes());
                for (name, value) in &request.params {
                    push_delimited(out, name.as_bytes());
                    // The value is serialized in place behind its length,
                    // which is filled in after.
                    let at = out.len();
                    out.extend_from_slice(&[0; 4]);
                    binser::serialize_checked_into(value, registry, out)?;
                    let len = (out.len() - at - 4) as u32;
                    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
                }
            }
            KeyStrategy::ToString => {
                // Every string is length-prefixed, so no endpoint,
                // operation, name or value can pass for the text around it.
                tostring::push_delimited(out, endpoint_url);
                out.push(b'|');
                tostring::push_delimited(out, &request.operation);
                for (name, value) in &request.params {
                    out.push(b'|');
                    tostring::push_delimited(out, name);
                    out.push(b'=');
                    tostring::render_into(value, registry, out)?;
                }
            }
        }
        // One pass over bytes the render has just written.
        key.hash = key_hash(key.kind, &key.bytes);
        Ok(key)
    }
}

fn push_delimited(out: &mut Vec<u8>, data: &[u8]) {
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out.extend_from_slice(data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::CacheEntry;
    use crate::repr::StoredResponse;
    use crate::store::{CacheStore, Lookup};
    use std::sync::Arc;

    use wsrc_model::value::{StructValue, Value};

    /// The key a cache files `request` under, owned.
    fn first_applicable_key(
        endpoint_url: &str,
        request: &RpcRequest,
        registry: &TypeRegistry,
    ) -> Result<CacheKey, CacheError> {
        render_first_applicable(endpoint_url, request, registry)?.to_owned_key()
    }

    const URL: &str = "http://api.google.test/search/beta2";

    /// Registers no type: a struct parameter is of an unregistered type.
    fn registry() -> TypeRegistry {
        TypeRegistry::new()
    }

    fn request() -> RpcRequest {
        RpcRequest::new("urn:GoogleSearch", "doSpellingSuggestion")
            .with_param("key", "K")
            .with_param("phrase", "helo wrld")
    }

    #[test]
    fn equal_requests_give_equal_keys_under_every_strategy() {
        let r = registry();
        for strategy in KeyStrategy::CONCRETE {
            let a = generate_key(strategy, URL, &request(), &r).unwrap();
            let b = generate_key(strategy, URL, &request(), &r).unwrap();
            assert_eq!(a, b, "strategy {strategy:?}");
        }
    }

    #[test]
    fn different_requests_give_different_keys() {
        let r = registry();
        let other = RpcRequest::new("urn:GoogleSearch", "doSpellingSuggestion")
            .with_param("key", "K")
            .with_param("phrase", "different");
        for strategy in KeyStrategy::CONCRETE {
            let a = generate_key(strategy, URL, &request(), &r).unwrap();
            let b = generate_key(strategy, URL, &other, &r).unwrap();
            assert_ne!(a, b, "strategy {strategy:?}");
        }
    }

    #[test]
    fn endpoint_and_operation_are_part_of_the_key() {
        let r = registry();
        for strategy in KeyStrategy::CONCRETE {
            let a = generate_key(strategy, URL, &request(), &r).unwrap();
            let b = generate_key(strategy, "http://other.test/", &request(), &r).unwrap();
            assert_ne!(a, b);
            let mut renamed = request();
            renamed.operation = "doGoogleSearch".into();
            let c = generate_key(strategy, URL, &renamed, &r).unwrap();
            assert_ne!(a, c);
        }
    }

    #[test]
    fn parameter_boundaries_do_not_collide() {
        // ("ab","c") vs ("a","bc") must differ under every strategy.
        let r = registry();
        let p1 = RpcRequest::new("urn:t", "op")
            .with_param("a", "ab")
            .with_param("b", "c");
        let p2 = RpcRequest::new("urn:t", "op")
            .with_param("a", "a")
            .with_param("b", "bc");
        for strategy in KeyStrategy::CONCRETE {
            let a = generate_key(strategy, URL, &p1, &r).unwrap();
            let b = generate_key(strategy, URL, &p2, &r).unwrap();
            assert_ne!(a, b, "strategy {strategy:?}");
        }
    }

    #[test]
    fn tostring_is_na_for_unregistered_types() {
        let r = registry();
        let req = RpcRequest::new("urn:t", "op")
            .with_param("o", Value::Struct(StructValue::new("Unregistered")));
        assert!(matches!(
            generate_key(KeyStrategy::ToString, URL, &req, &r),
            Err(CacheError::NotApplicable(_))
        ));
    }

    #[test]
    fn serialization_is_na_for_unregistered_types() {
        let r = registry();
        let req = RpcRequest::new("urn:t", "op")
            .with_param("o", Value::Struct(StructValue::new("Unregistered")));
        assert!(matches!(
            generate_key(KeyStrategy::Serialization, URL, &req, &r),
            Err(CacheError::NotApplicable(_))
        ));
        // XML message still works for anything.
        assert!(generate_key(KeyStrategy::XmlMessage, URL, &req, &r).is_ok());
    }

    #[test]
    fn the_caches_key_falls_back_down_the_chain() {
        let r = registry();
        // Simple params → the toString key.
        assert_eq!(
            first_applicable_key(URL, &request(), &r).unwrap(),
            generate_key(KeyStrategy::ToString, URL, &request(), &r).unwrap()
        );
        // A param of an unregistered type → falls through to the XML
        // message key.
        let req = RpcRequest::new("urn:t", "op")
            .with_param("o", Value::Struct(StructValue::new("Unregistered")));
        let k = first_applicable_key(URL, &req, &r).unwrap();
        match k {
            CacheKey::Text(t) => assert!(t.contains("Envelope"), "expected XML fallback"),
            CacheKey::Binary(_) => panic!("expected text key"),
        }
    }

    /// A parameter name holding the text a key puts between a name and
    /// its value cannot make one request's key out of another's.
    #[test]
    fn parameter_names_cannot_pass_for_the_text_around_them() {
        let r = registry();
        let genuine = RpcRequest::new("urn:GoogleSearch", "doSpellingSuggestion")
            .with_param("key", "demo-key")
            .with_param("phrase", "response-caching");
        let forged = RpcRequest::new("urn:GoogleSearch", "doSpellingSuggestion")
            .with_param("key=8:demo-key|phrase", "response-caching");
        let renamed = RpcRequest::new("urn:GoogleSearch", "doSpellingSuggestion|3:key=8:demo-key")
            .with_param("phrase", "response-caching");
        for strategy in KeyStrategy::CONCRETE {
            let a = generate_key(strategy, URL, &genuine, &r).unwrap();
            for other in [&forged, &renamed] {
                let b = generate_key(strategy, URL, other, &r).unwrap();
                assert_ne!(a, b, "strategy {strategy:?}");
            }
        }
    }

    /// Requests shaped like the paper's three (`doSpellingSuggestion`,
    /// `doGetCachedPage`, the ten-parameter `doGoogleSearch`) and a
    /// seeded set whose strings hold markup, `|`, `=`, `:` and non-ASCII.
    fn requests() -> Vec<RpcRequest> {
        let mut out = vec![
            RpcRequest::new("urn:GoogleSearch", "doSpellingSuggestion")
                .with_param("key", "demo-key")
                .with_param("phrase", "response-caching"),
            RpcRequest::new("urn:GoogleSearch", "doGetCachedPage")
                .with_param("key", "demo-key")
                .with_param("url", "http://www.example.org/"),
            RpcRequest::new("urn:GoogleSearch", "doGoogleSearch")
                .with_param("key", "demo-key")
                .with_param("q", "web services caching")
                .with_param("start", 0)
                .with_param("maxResults", 10)
                .with_param("filter", true)
                .with_param("restrict", "")
                .with_param("safeSearch", false)
                .with_param("lr", "")
                .with_param("ie", "latin1")
                .with_param("oe", "latin1"),
        ];
        const PIECES: [&str; 10] = ["a", "|", "=", ":", "<b>", "&amp;", "é", "日本", "3:", " "];
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let text = |next: &mut dyn FnMut(usize) -> usize, n: usize| {
            (0..n)
                .map(|_| PIECES[next(PIECES.len())])
                .collect::<String>()
        };
        for _ in 0..64 {
            let mut request = RpcRequest::new("urn:t", ["op", "o|p", "op=1"][next(3)]);
            for _ in 0..next(4) {
                let len = 1 + next(3);
                let name = text(&mut next, len);
                let value: Value = match next(3) {
                    0 => {
                        let len = next(6);
                        Value::string(text(&mut next, len))
                    }
                    1 => Value::Int(next(1000) as i32 - 500),
                    _ => Value::Bool(next(2) == 0),
                };
                request = request.with_param(name, value);
            }
            out.push(request);
        }
        out
    }

    /// For every method, what a cache probes its store with is
    /// `generate_key`'s bytes under the hash the store gives the owned
    /// key, and the store finds an entry by either.
    #[test]
    fn rendered_keys_are_the_generated_keys_and_find_the_same_entries() {
        let r = registry();
        let entry = || CacheEntry::single(StoredResponse::XmlMessage(Arc::from(&b"<r/>"[..])));
        for request in requests() {
            for strategy in KeyStrategy::CONCRETE {
                let rendered = RenderedKey::render(strategy, URL, &request, &r).unwrap();
                let owned = generate_key(strategy, URL, &request, &r).unwrap();
                let (kind, bytes) = owned.parts();
                assert_eq!(
                    (rendered.kind, &rendered.bytes[..]),
                    (kind, bytes),
                    "{request:?}"
                );
                let probe = rendered.as_ref();
                // Inserted by the borrowed key, found by the owned one…
                let store = CacheStore::default();
                store.put_validated(probe, entry(), 10, 0, None).unwrap();
                assert!(
                    matches!(store.get(&owned, 0), Lookup::Live(_)),
                    "{strategy:?}"
                );
                // …and the other way round.
                let store = CacheStore::default();
                store.put(owned.clone(), entry(), 10, 0);
                assert!(
                    matches!(store.get_ref(probe, 0), Lookup::Live(_)),
                    "{strategy:?}"
                );
                assert!(store.invalidate_ref(probe));
                assert!(store.is_empty());
            }
        }
    }

    /// The toString key, against a rendering written out by hand: every
    /// string behind its length.
    #[test]
    fn the_tostring_key_delimits_every_string() {
        let r = registry();
        let request = RpcRequest::new("urn:t", "op")
            .with_param("q", "a|b=c")
            .with_param("n", 7);
        let key = generate_key(KeyStrategy::ToString, "http://h/", &request, &r).unwrap();
        assert_eq!(
            key,
            CacheKey::Text("9:http://h/|2:op|1:q=5:a|b=c|1:n=7".into())
        );
    }

    /// A key rendered while another is alive — a cached call nested in
    /// the exchange of another on one thread — gets a buffer of its own.
    #[test]
    fn nested_renders_keep_their_own_bytes() {
        let r = registry();
        let outer = RenderedKey::render(KeyStrategy::ToString, URL, &request(), &r).unwrap();
        let before = outer.bytes.clone();
        let other = RpcRequest::new("urn:t", "op").with_param("x", "nested");
        let inner = RenderedKey::render(KeyStrategy::ToString, URL, &other, &r).unwrap();
        assert_ne!(inner.bytes, before);
        drop(inner);
        assert_eq!(outer.bytes, before);
    }

    #[test]
    fn key_sizes_follow_paper_ordering() {
        // Table 8: concatenated string < serialized form < XML message.
        let r = registry();
        let xml = generate_key(KeyStrategy::XmlMessage, URL, &request(), &r).unwrap();
        let ser = generate_key(KeyStrategy::Serialization, URL, &request(), &r).unwrap();
        let ts = generate_key(KeyStrategy::ToString, URL, &request(), &r).unwrap();
        assert!(ts.approximate_size() < ser.approximate_size());
        assert!(ser.approximate_size() < xml.approximate_size());
    }

    #[test]
    fn bytes_params_fall_back_from_tostring() {
        let r = registry();
        let req = RpcRequest::new("urn:t", "op").with_param("blob", vec![1u8, 2, 3]);
        assert!(generate_key(KeyStrategy::ToString, URL, &req, &r).is_err());
        // Serialization handles byte arrays fine.
        assert!(generate_key(KeyStrategy::Serialization, URL, &req, &r).is_ok());
        assert!(matches!(
            first_applicable_key(URL, &req, &r).unwrap(),
            CacheKey::Binary(_)
        ));
    }
}
