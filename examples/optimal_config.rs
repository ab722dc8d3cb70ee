//! The §6 "optimal configuration" beside what this cache stores.
//!
//! The paper's run-time table classifies each response object once and
//! picks a fixed representation from its type, as a Java cache must —
//! sharing only what is immutable, copying the rest. Next to it, what
//! this cache stores with no configuration at all: the decoded object
//! itself for every type, because its values are copy-on-write and a
//! shared one cannot leak a write. Then the one trade that is left to a
//! deployer: the same search response's stored size as the shared
//! object and serialized, and how many of each a 16 MiB cache holds.
//!
//! ```text
//! cargo run --release --example optimal_config
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};
use wsrcache::cache::repr::StoredResponse;
use wsrcache::cache::{
    paper_choice, CachePolicy, Capacity, ResponseCache, ResponseData, ValueRepresentation,
};
use wsrcache::services::dispatch::SoapService;
use wsrcache::services::google::{self, GoogleService};
use wsrcache::soap::deserializer::read_response_bytes_recording;
use wsrcache::soap::serializer::serialize_response;
use wsrcache::soap::RpcRequest;

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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let service = GoogleService::new();
    let registry = google::registry();
    let requests = vec![
        (
            "doSpellingSuggestion",
            RpcRequest::new(google::NAMESPACE, "doSpellingSuggestion")
                .with_param("key", "k")
                .with_param("phrase", "optmal confguration"),
        ),
        (
            "doGetCachedPage",
            RpcRequest::new(google::NAMESPACE, "doGetCachedPage")
                .with_param("key", "k")
                .with_param("url", "http://example.test/"),
        ),
        ("doGoogleSearch", search("selector demo")),
    ];

    println!("classification (one decision per response type):\n");
    println!(
        "{:<22} {:<22} {:<16} {:<22} {:<16}",
        "operation", "paper table (§6)", "retrieval time", "this cache's default", "retrieval time"
    );
    for (op, request) in &requests {
        let op = *op;
        let value = service.call(request)?;
        let choice = paper_choice(&value, &registry, false);

        // Materialize the choice and time one retrieval.
        let descriptor = google::operations()
            .into_iter()
            .find(|o| o.name == op)
            .expect("known operation");
        let xml = serialize_response(google::NAMESPACE, op, "return", &value, &registry)?;
        let (_, events) =
            read_response_bytes_recording(xml.as_bytes(), &descriptor.return_type, &registry)?;
        let xml: std::sync::Arc<[u8]> = std::sync::Arc::from(xml.into_bytes());
        let events = std::sync::Arc::new(events);
        let artifacts = wsrcache::cache::repr::MissArtifacts {
            xml: &xml,
            events: &events,
            value: &value,
        };
        // What a cache with no configuration at all stores.
        let default = ResponseCache::builder(google::registry())
            .cache_everything(Duration::from_secs(600))
            .build()
            .insert("http://optimal-config.demo/soap", request, artifacts)
            .expect("the default cache stores every response");
        let time = |repr| -> Result<Duration, Box<dyn std::error::Error>> {
            let stored = StoredResponse::build(repr, artifacts, &registry)?;
            let t = Instant::now();
            let iterations = 1000;
            for _ in 0..iterations {
                std::hint::black_box(stored.retrieve(&descriptor.return_type, &registry)?);
            }
            Ok(t.elapsed() / iterations)
        };
        println!(
            "{:<22} {:<22} {:<16} {:<22} {:<16}",
            op,
            choice.label(),
            format!("{:?}", time(choice)?),
            default.label(),
            format!("{:?}", time(default)?)
        );
    }

    println!("\nrules applied (paper §6; here rule a) covers every type):");
    println!(
        "  a) immutable types            -> {}",
        ValueRepresentation::PassByReference.label()
    );
    println!(
        "  b) bean/array types           -> {}",
        ValueRepresentation::ReflectionCopy.label()
    );
    println!(
        "  c) serializable types         -> {}",
        ValueRepresentation::Serialization.label()
    );
    println!(
        "  d) everything else            -> {}",
        ValueRepresentation::SaxEvents.label()
    );

    // ── The one rule left: bytes per entry against hit ratio ─────────
    //
    // Every other form loses both time terms to the shared object, so
    // the only thing a deployer can still trade is size: under a byte
    // budget the serialized form holds about twice the entries, and in
    // front of a slow back end the hits that buys outweigh the 9 µs
    // each one costs (DESIGN.md §3e has the measured table). It is one
    // token of policy text, not a mechanism.
    println!("\nthe same search response under a 16 MiB byte budget:\n");
    println!(
        "{:<38} {:<20} {:<14} {:<10}",
        "policy line", "stored as", "bytes/entry", "entries"
    );
    const URL: &str = "http://optimal-config.demo/soap";
    let op = "doGoogleSearch";
    let descriptor = google::operations()
        .into_iter()
        .find(|o| o.name == op)
        .expect("known operation");
    let answer = service.call(&search("selector demo"))?;
    let xml = serialize_response(google::NAMESPACE, op, "return", &answer, &registry)?;
    // What a miss has in hand: the tree the reader decoded.
    let (outcome, events) =
        read_response_bytes_recording(xml.as_bytes(), &descriptor.return_type, &registry)?;
    let value = outcome.into_return()?;
    let xml: Arc<[u8]> = Arc::from(xml.into_bytes());
    let events = Arc::new(events);
    let data = ResponseData {
        xml: &xml,
        events: &events,
        value: &value,
    };
    for line in [
        "doGoogleSearch cacheable ttl=1h",
        "doGoogleSearch cacheable ttl=1h repr=serialization",
    ] {
        let cache = ResponseCache::builder(google::registry())
            .policy(CachePolicy::parse(line)?)
            .capacity(Capacity {
                max_entries: usize::MAX,
                max_bytes: 16 * 1024 * 1024,
            })
            .build();
        // More distinct queries than either form can hold.
        let mut stored = None;
        for n in 0..6000 {
            stored = cache.insert(URL, &search(&format!("selector demo {n}")), data);
        }
        println!(
            "{:<38} {:<20} {:<14} {:<10}",
            line.trim_start_matches("doGoogleSearch "),
            stored.expect("the response fits a shard").metric_label(),
            cache.bytes() / cache.len(),
            cache.len()
        );
    }
    println!("\n(unset, the cache stores the decoded object itself: a hit is a");
    println!(" reference bump. `repr=serialization` is for a byte-budgeted cache");
    println!(" whose misses are slow: twice the entries, 9 µs per hit)");
    Ok(())
}
