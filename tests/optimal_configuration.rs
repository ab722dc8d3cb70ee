//! The §6 "optimal configuration": the paper's table must pick the
//! paper's representation for each of the three Google responses, and
//! the middleware — whose values are copy-on-write, so rule a) applies
//! to all of them — must share every one with no administrator
//! configuration.

use std::sync::Arc;
use std::time::Duration;
use wsrcache::cache::{
    paper_choice, CachePolicy, OperationPolicy, ResponseCache, ValueRepresentation,
};
use wsrcache::client::ServiceClient;
use wsrcache::http::{InProcTransport, Url};
use wsrcache::services::dispatch::SoapService;
use wsrcache::services::google::{self, GoogleService};
use wsrcache::services::SoapDispatcher;
use wsrcache::soap::RpcRequest;

fn requests() -> Vec<(&'static str, RpcRequest, ValueRepresentation)> {
    vec![
        (
            "doSpellingSuggestion",
            RpcRequest::new(google::NAMESPACE, "doSpellingSuggestion")
                .with_param("key", "k")
                .with_param("phrase", "optimal"),
            // a) immutable → pass by reference
            ValueRepresentation::PassByReference,
        ),
        (
            "doGetCachedPage",
            RpcRequest::new(google::NAMESPACE, "doGetCachedPage")
                .with_param("key", "k")
                .with_param("url", "http://opt.test/"),
            // b) array type (byte[]) → copy by reflection
            ValueRepresentation::ReflectionCopy,
        ),
        (
            "doGoogleSearch",
            RpcRequest::new(google::NAMESPACE, "doGoogleSearch")
                .with_param("key", "k")
                .with_param("q", "optimal configuration")
                .with_param("start", 0)
                .with_param("maxResults", 10)
                .with_param("filter", true)
                .with_param("restrict", "")
                .with_param("safeSearch", false)
                .with_param("lr", "")
                .with_param("ie", "utf-8")
                .with_param("oe", "utf-8"),
            // b) bean type → copy by reflection
            ValueRepresentation::ReflectionCopy,
        ),
    ]
}

#[test]
fn table_classifies_live_responses_like_the_paper() {
    let service = GoogleService::new();
    let registry = google::registry();
    for (op, request, expected) in requests() {
        let value = service.call(&request).expect("service answers");
        let chosen = paper_choice(&value, &registry, false);
        assert_eq!(chosen, expected, "operation {op}");
    }
}

/// A client with NO representation configuration — the default is the
/// shared object.
fn default_client() -> ServiceClient {
    let dispatcher = SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new()));
    let cache = Arc::new(
        ResponseCache::builder(google::registry())
            .policy(
                CachePolicy::new()
                    .with_default(OperationPolicy::cacheable(Duration::from_secs(60))),
            )
            .build(),
    );
    ServiceClient::builder(
        Url::new("g.test", 80, google::PATH),
        Arc::new(InProcTransport::new(Arc::new(dispatcher))),
    )
    .registry(google::registry())
    .operations(google::operations())
    .cache(cache)
    .build()
}

#[test]
fn the_default_shares_every_response_where_the_paper_copies_two() {
    let client = default_client();
    for (op, request, paper) in requests() {
        client.invoke(&request).expect("miss path");
        let (handle, _) = client.invoke(&request).expect("hit path");
        // Pass-by-reference manifests as a shared handle. The paper's
        // Java table reaches it for the immutable string only.
        assert!(handle.is_shared(), "operation {op} (paper: {paper})");
    }
}

#[test]
fn a_write_through_a_shared_search_result_is_invisible_to_the_next_hit() {
    // What §4.2.4's read-only assertion existed to promise, kept without
    // it: the application writes to the object a hit handed it, and the
    // cache never sees the write.
    let client = default_client();
    let (_, search, _) = requests().remove(2);
    let (miss, _) = client.invoke(&search).expect("miss");
    let (hit, _) = client.invoke(&search).expect("hit");
    assert!(hit.is_shared());
    let mut mine = hit.into_value();
    let elements = mine
        .as_struct_mut()
        .and_then(|s| s.get_mut("resultElements"))
        .and_then(|v| v.as_array_mut())
        .expect("the search result has elements");
    elements[0]
        .as_struct_mut()
        .expect("elements are structs")
        .set("title", "VANDALIZED");
    let (next, _) = client.invoke(&search).expect("hit again");
    assert_ne!(&mine, next.as_value());
    assert_eq!(next.as_value(), miss.as_value());
}
