//! One portal server serving both SOAP traffic and `GET /metrics`.
//!
//! The dispatcher for the dummy Google service is wrapped in
//! [`MetricsRoute`], so the same TCP listener that answers SOAP calls
//! exposes everything the instrumented pipeline records — in Prometheus
//! text format, or as JSON with `?format=json`. A cached client drives
//! some traffic, then the example scrapes its own endpoint.
//!
//! ```console
//! $ cargo run --example metrics_endpoint            # run + self-scrape
//! $ cargo run --example metrics_endpoint -- --hold 60   # keep serving
//! ```

use std::sync::Arc;
use std::time::Duration;
use wsrcache::cache::ResponseCache;
use wsrcache::client::ServiceClient;
use wsrcache::http::{HttpClient, MetricsRoute, Server, Url};
use wsrcache::services::google::{self, GoogleService};
use wsrcache::services::SoapDispatcher;
use wsrcache::soap::RpcRequest;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dispatcher = SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new()));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(MetricsRoute::new(Arc::new(dispatcher))),
    )?;
    let port = server.port();
    println!("portal with /metrics listening on 127.0.0.1:{port}");

    let cache = Arc::new(
        ResponseCache::builder(google::registry())
            .cache_everything(Duration::from_secs(3600))
            .metrics_label("portal")
            .build(),
    );
    let client = ServiceClient::builder(
        Url::new("127.0.0.1", port, google::PATH),
        Arc::new(HttpClient::new()),
    )
    .registry(google::registry())
    .operations(google::operations())
    .cache(cache)
    .build();

    // Two distinct queries, three rounds: 2 misses, 4 hits.
    for _ in 0..3 {
        for phrase in ["optimal representation", "response caching"] {
            let request = RpcRequest::new(google::NAMESPACE, "doSpellingSuggestion")
                .with_param("key", "demo")
                .with_param("phrase", phrase);
            client.invoke(&request)?;
        }
    }

    let metrics = HttpClient::new()
        .get(&Url::new("127.0.0.1", port, "/metrics"))?
        .body_text()?
        .to_string();
    println!(
        "\nself-scrape of GET /metrics ({} bytes), cache series:",
        metrics.len()
    );
    for line in metrics.lines() {
        if line.starts_with("wsrc_cache_") && !line.contains("_bucket") {
            println!("  {line}");
        }
    }

    if let Some(pos) = std::env::args().position(|a| a == "--hold") {
        let secs: u64 = std::env::args()
            .nth(pos + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or(60);
        println!("\nholding the server for {secs}s — try:");
        println!("  curl http://127.0.0.1:{port}/metrics");
        println!("  curl http://127.0.0.1:{port}/metrics?format=json");
        std::thread::sleep(Duration::from_secs(secs));
    }
    Ok(())
}
