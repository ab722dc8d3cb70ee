//! The §3.2 HTTP consistency mechanism applied to the response cache:
//! entries past their TTL are *revalidated* with `If-Modified-Since`
//! instead of being re-fetched; the server's `304 Not Modified` renews
//! them without re-transferring or re-deserializing anything.
//!
//! ```text
//! cargo run --example revalidation
//! ```

use std::sync::Arc;
use std::time::{Duration, SystemTime};
use wsrcache::cache::{CachePolicy, OperationPolicy, ResponseCache};
use wsrcache::client::ServiceClient;
use wsrcache::http::{HttpClient, Server, Url};
use wsrcache::obs::{ManualClock, MetricsRegistry};
use wsrcache::services::google::{self, GoogleService};
use wsrcache::services::SoapDispatcher;
use wsrcache::soap::RpcRequest;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ttl = Duration::from_secs(60);
    let epoch = SystemTime::now();
    // The dispatcher stamps Last-Modified / Cache-Control and answers
    // conditional requests with 304 while its data is unchanged.
    let dispatcher = Arc::new(
        SoapDispatcher::new()
            .mount(google::PATH, Arc::new(GoogleService::new()))
            .with_validation(epoch, ttl),
    );
    let server = Server::bind("127.0.0.1:0", dispatcher.clone())?;

    // A manual clock lets the demo "wait" an hour instantly.
    let clock = ManualClock::new();
    let cache = Arc::new(
        ResponseCache::builder(google::registry())
            .policy(CachePolicy::new().with_default(OperationPolicy::cacheable(ttl)))
            .metrics(Arc::new(MetricsRegistry::with_clock(clock.handle())))
            .build(),
    );
    let client = ServiceClient::builder(
        Url::new("127.0.0.1", server.port(), google::PATH),
        Arc::new(HttpClient::new()),
    )
    .registry(google::registry())
    .operations(google::operations())
    .cache(cache.clone())
    .build();

    let request = RpcRequest::new(google::NAMESPACE, "doSpellingSuggestion")
        .with_param("key", "k")
        .with_param("phrase", "revalidaton demo");

    let (_, d) = client.invoke(&request)?;
    println!(
        "t=0s      first call            -> {d:?} (full exchange, entry stored with validator)"
    );

    let (_, d) = client.invoke(&request)?;
    println!("t=0s      repeat                -> {d:?} (no network)");

    clock.advance_millis(ttl.as_millis() as u64 + 1);
    let (_, d) = client.invoke(&request)?;
    println!("t=61s     TTL expired, repeat   -> {d:?} (conditional request, server said 304)");

    clock.advance_millis(ttl.as_millis() as u64 + 1);
    dispatcher.touch(SystemTime::now() + Duration::from_secs(1));
    let (_, d) = client.invoke(&request)?;
    println!(
        "t=122s    backend data changed  -> {d:?} (304 refused, full response replaced entry)"
    );

    let stats = cache.stats();
    println!(
        "\ncache stats: {} hits, {} revalidations, {} inserts; server handled {} requests total",
        stats.hits,
        stats.revalidated,
        stats.inserts,
        server.requests_served()
    );
    println!("stats as JSON: {}", stats.to_json());
    Ok(())
}
