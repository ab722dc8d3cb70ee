//! Quickstart: stand up the dummy Google Web service over real TCP,
//! attach the caching client middleware, and watch the second identical
//! call skip the network entirely.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;
use std::time::Instant;
use wsrcache::cache::ResponseCache;
use wsrcache::client::ServiceClient;
use wsrcache::http::{HttpClient, Server, Url};
use wsrcache::model::Value;
use wsrcache::services::google::{self, search_request, spelling_request, GoogleService};
use wsrcache::services::SoapDispatcher;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The back-end: a SOAP server hosting the dummy Google service.
    let dispatcher = SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new()));
    let server = Server::bind("127.0.0.1:0", Arc::new(dispatcher))?;
    println!(
        "dummy Google service listening on 127.0.0.1:{}",
        server.port()
    );

    // 2. The client middleware with a transparent response cache. With
    //    no representation forced by the policy, every response is
    //    stored as the shared, copy-on-write application object.
    let cache = Arc::new(
        ResponseCache::builder(google::registry())
            .policy(google::default_policy())
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

    // 3. Call the service. The application code is identical with or
    //    without the cache (paper §3.2: no changes to the application).
    let request = spelling_request("distrubted web servces cahing");

    let t0 = Instant::now();
    let (first, d1) = client.invoke(&request)?;
    let miss_time = t0.elapsed();
    println!("\nfirst call  ({d1:?}, {miss_time:?}):");
    println!(
        "  suggestion: {:?}",
        first.as_value().as_str().unwrap_or("?")
    );

    let t1 = Instant::now();
    let (second, d2) = client.invoke(&request)?;
    let hit_time = t1.elapsed();
    println!("second call ({d2:?}, {hit_time:?}):");
    println!(
        "  suggestion: {:?}",
        second.as_value().as_str().unwrap_or("?")
    );

    assert_eq!(first.as_value(), second.as_value());
    assert_eq!(
        server.requests_served(),
        1,
        "the hit never reached the server"
    );

    // 4. A heavier operation: the large-and-complex GoogleSearch result.
    let search = search_request("response caching");
    let (result, _) = client.invoke(&search)?;
    let elements = result
        .as_value()
        .as_struct()
        .and_then(|s| s.get("resultElements"))
        .and_then(Value::as_array)
        .map(<[Value]>::len)
        .unwrap_or(0);
    println!("\ndoGoogleSearch returned {elements} results");
    client.invoke(&search)?;

    let stats = cache.stats();
    println!(
        "\ncache stats: {} hits, {} misses ({}% hit ratio), {} bytes held",
        stats.hits,
        stats.misses,
        (stats.hit_ratio() * 100.0) as u32,
        cache.bytes(),
    );
    println!(
        "total requests that reached the server: {}",
        server.requests_served()
    );
    Ok(())
}
