//! Cross-crate equivalence: every cache-value representation, forced
//! through the full client middleware, yields the same application
//! objects as an uncached client — and the paper's applicability matrix
//! holds end-to-end.

use std::sync::Arc;
use std::time::Duration;
use wsrcache::cache::{CachePolicy, OperationPolicy, ResponseCache, ValueRepresentation};
use wsrcache::client::{Disposition, ServiceClient};
use wsrcache::http::{InProcTransport, Url};
use wsrcache::services::google::{
    self, cached_page_request, search_request, spelling_request, GoogleService,
};
use wsrcache::services::SoapDispatcher;
use wsrcache::soap::RpcRequest;

fn client_with_repr(repr: Option<ValueRepresentation>) -> (ServiceClient, Arc<InProcTransport>) {
    let dispatcher = SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new()));
    let transport = Arc::new(InProcTransport::new(Arc::new(dispatcher)));
    let mut builder = ServiceClient::builder(
        Url::new("backend.test", 80, google::PATH),
        transport.clone(),
    )
    .registry(google::registry())
    .operations(google::operations());
    if let Some(repr) = repr {
        let cache = Arc::new(
            ResponseCache::builder(google::registry())
                .policy(google::default_policy().with_representation(repr))
                .build(),
        );
        builder = builder.cache(cache);
    }
    (builder.build(), transport)
}

fn requests() -> Vec<RpcRequest> {
    vec![
        spelling_request("equivalnce"),
        cached_page_request("http://equiv.test/"),
        search_request("equivalence"),
    ]
}

#[test]
fn every_representation_is_equivalent_to_no_cache() {
    let (reference, _) = client_with_repr(None);
    let expected: Vec<_> = requests()
        .iter()
        .map(|r| reference.invoke_owned(r).expect("uncached call"))
        .collect();
    for repr in ValueRepresentation::ALL {
        let (client, _) = client_with_repr(Some(repr));
        for (request, want) in requests().iter().zip(&expected) {
            // Warm, then read from the cache.
            let miss = client.invoke_owned(request).expect("miss path");
            assert_eq!(&miss, want, "{repr}: miss path diverged");
            let hit = client.invoke_owned(request).expect("hit path");
            assert_eq!(&hit, want, "{repr}: hit path diverged");
        }
    }
}

#[test]
fn inapplicable_representations_fall_back_but_still_hit() {
    // Forcing clone copy on doSpellingSuggestion (a bare string) is n/a;
    // the middleware falls back to an always-applicable representation
    // and the second call is still a hit.
    let (client, transport) = client_with_repr(Some(ValueRepresentation::CloneCopy));
    let spelling = &requests()[0];
    let (_, d1) = client.invoke(spelling).expect("first");
    assert_eq!(d1, Disposition::CacheMiss);
    let (_, d2) = client.invoke(spelling).expect("second");
    assert_eq!(d2, Disposition::CacheHit);
    assert_eq!(transport.requests_served(), 1);
}

#[test]
fn pass_by_reference_shares_the_cached_object() {
    let (client, _) = client_with_repr(Some(ValueRepresentation::PassByReference));
    let search = &requests()[2];
    client.invoke(search).expect("warm");
    let (h1, _) = client.invoke(search).expect("hit 1");
    let (h2, _) = client.invoke(search).expect("hit 2");
    assert!(h1.is_shared() && h2.is_shared());
    // Copy representations hand out independent objects instead.
    let (client, _) = client_with_repr(Some(ValueRepresentation::ReflectionCopy));
    client.invoke(search).expect("warm");
    let (h1, _) = client.invoke(search).expect("hit 1");
    assert!(!h1.is_shared());
}

#[test]
fn mutating_a_retrieved_object_never_poisons_the_cache() {
    for repr in ValueRepresentation::ALL {
        let (client, _) = client_with_repr(Some(repr));
        let search = &requests()[2];
        client.invoke(search).expect("warm");
        let mut owned = client.invoke_owned(search).expect("hit");
        // The application scribbles over its copy (§3.1's side-effect
        // hazard)…
        owned
            .as_struct_mut()
            .unwrap()
            .set("searchQuery", "VANDALIZED");
        // …and the next hit still sees pristine data.
        let fresh = client.invoke_owned(search).expect("hit again");
        assert_eq!(
            fresh
                .as_struct()
                .unwrap()
                .get("searchQuery")
                .and_then(wsrcache::model::Value::as_str),
            Some("equivalence"),
            "{repr}: cache was poisoned"
        );
    }
}

#[test]
fn the_default_policy_shares_mutable_types_and_keeps_them_pristine() {
    // No forced representation and no assertion: the search result — a
    // mutable bean in the paper's terms — is shared by default, and a
    // write through one hit is invisible to the next.
    let dispatcher = SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new()));
    let transport = Arc::new(InProcTransport::new(Arc::new(dispatcher)));
    let policy = CachePolicy::new().with(
        "doGoogleSearch",
        OperationPolicy::cacheable(Duration::from_secs(60)),
    );
    let cache = Arc::new(
        ResponseCache::builder(google::registry())
            .policy(policy)
            .build(),
    );
    let client = ServiceClient::builder(Url::new("b.test", 80, google::PATH), transport)
        .registry(google::registry())
        .operations(google::operations())
        .cache(cache)
        .build();
    let search = &requests()[2];
    client.invoke(search).expect("warm");
    let (hit, _) = client.invoke(search).expect("hit");
    assert!(hit.is_shared(), "the default should be pass-by-reference");
    let mut mine = hit.into_value();
    mine.as_struct_mut()
        .unwrap()
        .set("searchQuery", "VANDALIZED");
    let (next, _) = client.invoke(search).expect("hit again");
    assert_eq!(
        next.as_value()
            .as_struct()
            .unwrap()
            .get("searchQuery")
            .and_then(wsrcache::model::Value::as_str),
        Some("equivalence")
    );
}
