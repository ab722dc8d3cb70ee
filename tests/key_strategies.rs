//! How the cache keys requests, through the full middleware: every
//! request is filed under the fastest Table 2 method that applies to
//! it, and operations never share entries. What each method guarantees
//! on its own (`generate_key`) is `wsrc-cache`'s `key.rs` unit tests and
//! `crates/core/tests/proptests.rs`.

use std::sync::Arc;
use std::time::Duration;
use wsrcache::cache::ResponseCache;
use wsrcache::client::{Disposition, ServiceClient};
use wsrcache::http::{Handler, InProcTransport, Request, Response, Url};
use wsrcache::model::typeinfo::{FieldDescriptor, FieldType, TypeRegistry};
use wsrcache::model::Value;
use wsrcache::services::google::{self, GoogleService};
use wsrcache::services::SoapDispatcher;
use wsrcache::soap::serializer::serialize_response;
use wsrcache::soap::{OperationDescriptor, RpcRequest};

#[test]
fn strategies_do_not_share_entries_across_operations() {
    // Same parameter values under two operations must never collide.
    let dispatcher = SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new()));
    let transport = Arc::new(InProcTransport::new(Arc::new(dispatcher)));
    let cache = ResponseCache::builder(google::registry())
        .policy(google::default_policy())
        .build();
    let client = ServiceClient::builder(Url::new("g.test", 80, google::PATH), transport.clone())
        .registry(google::registry())
        .operations(google::operations())
        .cache(Arc::new(cache))
        .build();
    let spell = RpcRequest::new(google::NAMESPACE, "doSpellingSuggestion")
        .with_param("key", "k")
        .with_param("phrase", "identical");
    let page = RpcRequest::new(google::NAMESPACE, "doGetCachedPage")
        .with_param("key", "k")
        .with_param("url", "identical");
    client.invoke(&spell).expect("spell miss");
    let (_, d) = client.invoke(&page).expect("page call");
    assert_eq!(
        d,
        Disposition::CacheMiss,
        "different operations must not collide"
    );
    assert_eq!(transport.requests_served(), 2);
}

/// A `byte[]` parameter has no value-based `toString`, so the cache
/// falls back to the serialization key: the call is cached, not passed
/// through, and a different array is a different entry.
#[test]
fn a_bytes_parameter_falls_back_to_the_next_key_and_still_hits() {
    let registry = TypeRegistry::new();
    let sum = OperationDescriptor::new(
        "urn:Sum",
        "sum",
        vec![FieldDescriptor::new("blob", FieldType::Bytes)],
        FieldType::Int,
    );
    // The back end answers every request alike; only who reaches it counts.
    let backend: Arc<dyn Handler> = Arc::new(|_: &Request| {
        let xml = serialize_response(
            "urn:Sum",
            "sum",
            "return",
            &Value::Int(6),
            &TypeRegistry::new(),
        )
        .expect("serializable");
        Response::ok("text/xml", xml.into_bytes())
    });
    let transport = Arc::new(InProcTransport::new(backend));
    let cache = ResponseCache::builder(registry.clone())
        .cache_everything(Duration::from_secs(60))
        .build();
    let client = ServiceClient::builder(Url::new("sum.test", 80, "/sum"), transport.clone())
        .registry(registry)
        .operations([sum])
        .cache(Arc::new(cache))
        .build();
    let request = |blob: Vec<u8>| RpcRequest::new("urn:Sum", "sum").with_param("blob", blob);

    let dispositions = [vec![1, 2, 3], vec![1, 2, 3], vec![3, 2, 1]]
        .map(|blob| client.invoke(&request(blob)).expect("call").1);
    assert_eq!(
        dispositions,
        [
            Disposition::CacheMiss,
            Disposition::CacheHit,
            Disposition::CacheMiss
        ]
    );
    assert_eq!(transport.requests_served(), 2);
    assert_eq!(client.cache().expect("cache").stats().uncacheable, 0);
}
