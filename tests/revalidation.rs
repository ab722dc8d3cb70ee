//! The §3.2 HTTP consistency handshake end-to-end: expired cache entries
//! are revalidated with `If-Modified-Since`; `304 Not Modified` renews
//! them without re-transferring or re-deserializing the response; data
//! changes invalidate them.

use std::sync::Arc;
use std::time::{Duration, SystemTime};
use wsrcache::cache::{CachePolicy, OperationPolicy, ResponseCache};
use wsrcache::client::{Disposition, ServiceClient};
use wsrcache::http::{HttpClient, Server, Url};
use wsrcache::obs::{ManualClock, MetricsRegistry};
use wsrcache::services::google::{self, spelling_request, GoogleService};
use wsrcache::services::SoapDispatcher;

const TTL: Duration = Duration::from_secs(60);

struct Stack {
    dispatcher: Arc<SoapDispatcher>,
    server: Server,
    client: ServiceClient,
    clock: ManualClock,
    epoch: SystemTime,
}

fn stack() -> Stack {
    let epoch = SystemTime::UNIX_EPOCH + Duration::from_secs(1_700_000_000);
    let dispatcher = Arc::new(
        SoapDispatcher::new()
            .mount(google::PATH, Arc::new(GoogleService::new()))
            .with_validation(epoch, TTL),
    );
    let server = Server::bind("127.0.0.1:0", dispatcher.clone()).expect("bind");
    let clock = ManualClock::new();
    let policy = CachePolicy::new().with_default(OperationPolicy::cacheable(TTL));
    let cache = Arc::new(
        ResponseCache::builder(google::registry())
            .policy(policy)
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
        dispatcher,
        server,
        client,
        clock,
        epoch,
    }
}

#[test]
fn expired_entry_is_revalidated_with_304() {
    let s = stack();
    let (v1, d1) = s.client.invoke(&spelling_request("reval")).expect("miss");
    assert_eq!(d1, Disposition::CacheMiss);
    assert_eq!(s.server.requests_served(), 1);

    // Within TTL: plain hit, no traffic.
    let (_, d) = s.client.invoke(&spelling_request("reval")).expect("hit");
    assert_eq!(d, Disposition::CacheHit);
    assert_eq!(s.server.requests_served(), 1);

    // Past TTL: the entry is stale; a conditional request goes out and
    // the unchanged backend answers 304.
    s.clock.advance_millis(TTL.as_millis() as u64 + 1);
    let (v2, d2) = s
        .client
        .invoke(&spelling_request("reval"))
        .expect("revalidate");
    assert_eq!(d2, Disposition::Revalidated);
    assert_eq!(v1.as_value(), v2.as_value());
    // The conditional exchange did hit the server (one more request)…
    assert_eq!(s.server.requests_served(), 2);

    // …and renewed the entry: the next lookup is a plain hit again.
    let (_, d3) = s
        .client
        .invoke(&spelling_request("reval"))
        .expect("hit after refresh");
    assert_eq!(d3, Disposition::CacheHit);
    assert_eq!(s.server.requests_served(), 2);
    let stats = s.client.cache().unwrap().stats();
    assert_eq!(stats.revalidated, 1);
}

#[test]
fn modified_backend_data_defeats_revalidation() {
    let s = stack();
    s.client
        .invoke(&spelling_request("change-me"))
        .expect("miss");
    s.clock.advance_millis(TTL.as_millis() as u64 + 1);
    // The backend's data changes after the entry went stale.
    s.dispatcher.touch(s.epoch + Duration::from_secs(120));
    let (_, d) = s
        .client
        .invoke(&spelling_request("change-me"))
        .expect("full refetch");
    assert_eq!(
        d,
        Disposition::CacheMiss,
        "changed data must be re-fetched in full"
    );
    assert_eq!(s.server.requests_served(), 2);
    // The replacement entry is fresh again.
    let (_, d) = s
        .client
        .invoke(&spelling_request("change-me"))
        .expect("hit");
    assert_eq!(d, Disposition::CacheHit);
}

#[test]
fn revalidation_works_repeatedly() {
    let s = stack();
    s.client.invoke(&spelling_request("loop")).expect("miss");
    for round in 1..=3 {
        s.clock.advance_millis(TTL.as_millis() as u64 + 1);
        let (_, d) = s
            .client
            .invoke(&spelling_request("loop"))
            .expect("revalidate");
        assert_eq!(d, Disposition::Revalidated, "round {round}");
    }
    assert_eq!(s.client.cache().unwrap().stats().revalidated, 3);
    // 1 miss + 3 conditional requests.
    assert_eq!(s.server.requests_served(), 4);
}

#[test]
fn backends_without_validators_expire_normally() {
    // A dispatcher *without* validation: expiry falls back to plain
    // re-fetch, as before the extension.
    let dispatcher =
        Arc::new(SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new())));
    let server = Server::bind("127.0.0.1:0", dispatcher).expect("bind");
    let clock = ManualClock::new();
    let cache = Arc::new(
        ResponseCache::builder(google::registry())
            .policy(CachePolicy::new().with_default(OperationPolicy::cacheable(TTL)))
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
    client.invoke(&spelling_request("plain")).expect("miss");
    clock.advance_millis(TTL.as_millis() as u64 + 1);
    let (_, d) = client.invoke(&spelling_request("plain")).expect("refetch");
    assert_eq!(d, Disposition::CacheMiss);
    assert_eq!(server.requests_served(), 2);
}
