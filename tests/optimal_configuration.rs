//! The §6 "optimal configuration" through the full middleware: the
//! default §6 table must pick the paper's representation for each
//! of the three Google responses, with no administrator configuration.

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

#[test]
fn default_middleware_applies_the_classification_end_to_end() {
    // Build a client with NO representation configuration — the default
    // is the §6 dynamic classifier.
    let dispatcher = SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new()));
    let cache = Arc::new(
        ResponseCache::builder(google::registry())
            .policy(
                CachePolicy::new()
                    .with_default(OperationPolicy::cacheable(Duration::from_secs(60))),
            )
            .build(),
    );
    let client = ServiceClient::builder(
        Url::new("g.test", 80, google::PATH),
        Arc::new(InProcTransport::new(Arc::new(dispatcher))),
    )
    .registry(google::registry())
    .operations(google::operations())
    .cache(cache)
    .build();

    for (op, request, expected) in requests() {
        client.invoke(&request).expect("miss path");
        let (handle, _) = client.invoke(&request).expect("hit path");
        // Pass-by-reference manifests as a shared handle; the copies as
        // owned handles. That is the observable §6 behaviour.
        assert_eq!(
            handle.is_shared(),
            expected == ValueRepresentation::PassByReference,
            "operation {op}"
        );
    }
}

#[test]
fn read_only_assertion_upgrades_search_to_sharing() {
    // §4.2.4: the administrator may assert responses are read-only,
    // upgrading even mutable types to pass-by-reference.
    let dispatcher = SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new()));
    let policy = CachePolicy::new()
        .with_default(OperationPolicy::cacheable(Duration::from_secs(60)).with_read_only());
    let cache = Arc::new(
        ResponseCache::builder(google::registry())
            .policy(policy)
            .build(),
    );
    let client = ServiceClient::builder(
        Url::new("g.test", 80, google::PATH),
        Arc::new(InProcTransport::new(Arc::new(dispatcher))),
    )
    .registry(google::registry())
    .operations(google::operations())
    .cache(cache)
    .build();
    let (_, search, _) = requests().remove(2);
    client.invoke(&search).expect("miss");
    let (handle, _) = client.invoke(&search).expect("hit");
    assert!(
        handle.is_shared(),
        "read-only assertion should share the search result"
    );
}
