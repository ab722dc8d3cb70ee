//! Full-stack integration tests: SOAP client ↔ server over real TCP,
//! with and without the response cache.

use std::sync::Arc;
use std::time::Duration;
use wsrcache::cache::ResponseCache;
use wsrcache::client::{Disposition, ServiceClient};
use wsrcache::http::{HttpClient, Server, Url};
use wsrcache::model::Value;
use wsrcache::obs::{ManualClock, MetricsRegistry};
use wsrcache::services::google::{self, GoogleService};
use wsrcache::services::SoapDispatcher;
use wsrcache::soap::RpcRequest;

struct Stack {
    server: Server,
    client: ServiceClient,
    clock: ManualClock,
}

fn stack() -> Stack {
    let dispatcher = SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new()));
    let server = Server::bind("127.0.0.1:0", Arc::new(dispatcher)).expect("bind");
    let clock = ManualClock::new();
    let cache = Arc::new(
        ResponseCache::builder(google::registry())
            .policy(google::default_policy())
            .metrics(Arc::new(MetricsRegistry::with_clock(clock.handle())))
            .build(),
    );
    let client = ServiceClient::builder(
        Url::new("127.0.0.1", server.port(), google::PATH),
        Arc::new(HttpClient::new()),
    )
    .registry(google::registry())
    .operations(google::operations())
    .cache(cache)
    .build();
    Stack {
        server,
        client,
        clock,
    }
}

fn spelling(phrase: &str) -> RpcRequest {
    RpcRequest::new(google::NAMESPACE, "doSpellingSuggestion")
        .with_param("key", "k")
        .with_param("phrase", phrase)
}

fn search(q: &str) -> RpcRequest {
    RpcRequest::new(google::NAMESPACE, "doGoogleSearch")
        .with_param("key", "k")
        .with_param("q", q)
        .with_param("start", 0)
        .with_param("maxResults", 10)
        .with_param("filter", true)
        .with_param("restrict", "")
        .with_param("safeSearch", false)
        .with_param("lr", "")
        .with_param("ie", "utf-8")
        .with_param("oe", "utf-8")
}

#[test]
fn roundtrip_over_tcp_and_cache_hit_avoids_network() {
    let s = stack();
    let (v1, d1) = s.client.invoke(&spelling("helo")).expect("first call");
    assert_eq!(d1, Disposition::CacheMiss);
    assert!(v1.as_value().as_str().is_some());
    assert_eq!(s.server.requests_served(), 1);

    let (v2, d2) = s.client.invoke(&spelling("helo")).expect("second call");
    assert_eq!(d2, Disposition::CacheHit);
    assert_eq!(v1.as_value(), v2.as_value());
    assert_eq!(
        s.server.requests_served(),
        1,
        "hit must not reach the server"
    );
}

#[test]
fn all_three_google_operations_roundtrip_over_tcp() {
    let s = stack();
    let page = RpcRequest::new(google::NAMESPACE, "doGetCachedPage")
        .with_param("key", "k")
        .with_param("url", "http://x.test/");
    let (v, _) = s.client.invoke(&page).expect("cached page");
    assert!(v.as_value().as_bytes().expect("byte array").len() > 3000);

    let (v, _) = s.client.invoke(&search("integration")).expect("search");
    let result = v.as_value().as_struct().expect("struct");
    assert_eq!(result.type_name(), "GoogleSearchResult");
    assert_eq!(
        result
            .get("resultElements")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(10)
    );

    let (v, _) = s.client.invoke(&spelling("abc")).expect("spelling");
    assert!(v.as_value().as_str().is_some());
}

#[test]
fn ttl_expiry_refetches_from_the_server() {
    let s = stack();
    s.client.invoke(&search("ttl-test")).expect("miss");
    s.client.invoke(&search("ttl-test")).expect("hit");
    assert_eq!(s.server.requests_served(), 1);
    // The Google policy TTL is one hour.
    s.clock.advance_millis(3_600_001);
    let (_, d) = s.client.invoke(&search("ttl-test")).expect("refetch");
    assert_eq!(d, Disposition::CacheMiss);
    assert_eq!(s.server.requests_served(), 2);
}

#[test]
fn unknown_operation_faults_cleanly() {
    let s = stack();
    let bad = RpcRequest::new(google::NAMESPACE, "doSpellingSuggestion").with_param("key", "k");
    // missing 'phrase' parameter → client-side validation error
    assert!(s.client.invoke(&bad).is_err());
    let unknown = RpcRequest::new(google::NAMESPACE, "doTeleport");
    assert!(s.client.invoke(&unknown).is_err());
}

#[test]
fn concurrent_clients_share_one_cache_correctly() {
    let s = Arc::new(stack());
    let mut handles = Vec::new();
    for t in 0..8 {
        let s = s.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..25 {
                let q = format!("query-{}", (t * 25 + i) % 10);
                let (v, _) = s.client.invoke(&search(&q)).expect("search");
                // Every thread sees a complete, consistent result.
                assert_eq!(
                    v.as_value()
                        .as_struct()
                        .unwrap()
                        .get("searchQuery")
                        .and_then(Value::as_str),
                    Some(q.as_str())
                );
            }
        }));
    }
    for h in handles {
        h.join().expect("worker");
    }
    // Only 10 distinct queries existed; the server saw at most a few
    // duplicates from racing misses, far fewer than the 200 calls.
    assert!(
        s.server.requests_served() < 60,
        "server saw {} requests for 10 distinct queries",
        s.server.requests_served()
    );
    let stats = s.client.cache().unwrap().stats();
    assert!(stats.hits >= 140, "expected mostly hits, got {stats:?}");
}

#[test]
fn cache_is_transparent_to_response_content() {
    // Byte-identical application data from hit and miss paths.
    let s = stack();
    let (miss, _) = s.client.invoke(&search("transparency")).expect("miss");
    let (hit, _) = s.client.invoke(&search("transparency")).expect("hit");
    assert_eq!(miss.as_value(), hit.as_value());
}

#[test]
fn server_shutdown_surfaces_as_client_error() {
    let mut s = stack();
    s.client.invoke(&spelling("x")).expect("server up");
    let port_dead = {
        s.server.shutdown();
        true
    };
    assert!(port_dead);
    // Cached entry still answers…
    let (_, d) = s
        .client
        .invoke(&spelling("x"))
        .expect("cache still answers");
    assert_eq!(d, Disposition::CacheHit);
    // …but a new request must fail.
    assert!(s.client.invoke(&spelling("brand new")).is_err());
    let _ = Duration::ZERO;
}
