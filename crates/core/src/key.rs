//! Cache-key generation — the three methods of the paper's Table 2.
//!
//! A complete key identifies "the endpoint URL, operation name, and all
//! parameter names and values" (§3.3). The three representations differ
//! in how parameter values are rendered:
//!
//! | strategy          | rendering                     | limitation |
//! |-------------------|-------------------------------|------------|
//! | `XmlMessage`      | serialize the request envelope| none (but slow) |
//! | `Serialization`   | binary-serialize each value   | values must be serializable |
//! | `ToString`        | `toString()` each value       | values need value-based `toString` |
//!
//! A [`ResponseCache`](crate::ResponseCache) keys every request one
//! way: by the fastest method that applies to it.

use crate::error::CacheError;
use wsrc_model::typeinfo::TypeRegistry;
use wsrc_model::{binser, tostring};
use wsrc_soap::rpc::RpcRequest;
use wsrc_soap::serializer::serialize_request;

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
        std::mem::size_of::<CacheKey>()
            + match self {
                CacheKey::Text(s) => s.len(),
                CacheKey::Binary(b) => b.len(),
            }
    }
}

/// Generates the cache key for `request` sent to `endpoint_url`.
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
    match strategy {
        KeyStrategy::XmlMessage => {
            let xml = serialize_request(request, registry)?;
            let mut key = String::with_capacity(endpoint_url.len() + 1 + xml.len());
            key.push_str(endpoint_url);
            key.push('\n');
            key.push_str(&xml);
            Ok(CacheKey::Text(key))
        }
        KeyStrategy::Serialization => {
            let mut bytes = Vec::with_capacity(128);
            push_delimited(&mut bytes, endpoint_url.as_bytes());
            push_delimited(&mut bytes, request.operation.as_bytes());
            for (name, value) in &request.params {
                push_delimited(&mut bytes, name.as_bytes());
                // The value is serialized in place behind its length,
                // which is filled in after.
                let at = bytes.len();
                bytes.extend_from_slice(&[0; 4]);
                binser::serialize_checked_into(value, registry, &mut bytes)?;
                let len = (bytes.len() - at - 4) as u32;
                bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
            }
            Ok(CacheKey::Binary(bytes))
        }
        KeyStrategy::ToString => {
            let mut key = String::with_capacity(64);
            key.push_str(endpoint_url);
            key.push('|');
            key.push_str(&request.operation);
            for (name, value) in &request.params {
                key.push('|');
                key.push_str(name);
                key.push('=');
                key.push_str(&tostring::to_string_key(value, registry)?);
            }
            Ok(CacheKey::Text(key))
        }
    }
}

/// The key a [`ResponseCache`](crate::ResponseCache) files `request`
/// under: `ToString` (the fastest, Table 6), else `Serialization`, else
/// `XmlMessage`, which applies to anything the request serializer
/// accepts.
///
/// # Errors
///
/// The `XmlMessage` attempt's error, when no method applies.
pub(crate) fn first_applicable_key(
    endpoint_url: &str,
    request: &RpcRequest,
    registry: &TypeRegistry,
) -> Result<CacheKey, CacheError> {
    generate_key(KeyStrategy::ToString, endpoint_url, request, registry)
        .or_else(|_| generate_key(KeyStrategy::Serialization, endpoint_url, request, registry))
        .or_else(|_| generate_key(KeyStrategy::XmlMessage, endpoint_url, request, registry))
}

fn push_delimited(out: &mut Vec<u8>, data: &[u8]) {
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out.extend_from_slice(data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrc_model::typeinfo::{Capabilities, TypeDescriptor};
    use wsrc_model::value::{StructValue, Value};

    const URL: &str = "http://api.google.test/search/beta2";

    fn registry() -> TypeRegistry {
        TypeRegistry::builder()
            .register(TypeDescriptor::new("Opaque", vec![]).with_capabilities(Capabilities::none()))
            .build()
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
    fn tostring_is_na_for_types_without_tostring() {
        let r = registry();
        let req = RpcRequest::new("urn:t", "op")
            .with_param("o", Value::Struct(StructValue::new("Opaque")));
        assert!(matches!(
            generate_key(KeyStrategy::ToString, URL, &req, &r),
            Err(CacheError::NotApplicable(_))
        ));
    }

    #[test]
    fn serialization_is_na_for_unserializable_types() {
        let r = registry();
        let req = RpcRequest::new("urn:t", "op")
            .with_param("o", Value::Struct(StructValue::new("Opaque")));
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
        // Opaque param → falls through to the XML message key.
        let req = RpcRequest::new("urn:t", "op")
            .with_param("o", Value::Struct(StructValue::new("Opaque")));
        let k = first_applicable_key(URL, &req, &r).unwrap();
        match k {
            CacheKey::Text(t) => assert!(t.contains("Envelope"), "expected XML fallback"),
            CacheKey::Binary(_) => panic!("expected text key"),
        }
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
