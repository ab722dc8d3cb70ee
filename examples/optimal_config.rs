//! The §6 "optimal configuration", static and adaptive, side by side.
//!
//! Act one is the paper's run-time table: each response object is
//! classified once and a fixed representation chosen from its type, as a
//! Java cache must — sharing only what is immutable, copying the rest.
//! Next to it, what this cache stores by default: the decoded object
//! itself for every type, because its values are copy-on-write and a
//! shared one cannot leak a write.
//! Act two is the online [`AdaptivePolicy`]: the same operations replayed
//! through a live cache that observes real build/retrieve costs, picks a
//! representation per insert, and re-homes hot entries on hit — no
//! administrator configuration in either act, but the adaptive cache
//! keeps re-deciding as the workload reveals itself.
//!
//! ```text
//! cargo run --release --example optimal_config
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};
use wsrcache::cache::policy::{AdaptivePolicy, CachePolicy, OperationPolicy};
use wsrcache::cache::repr::StoredResponse;
use wsrcache::cache::{paper_choice, ResponseCache, ResponseData, ValueRepresentation};
use wsrcache::services::dispatch::SoapService;
use wsrcache::services::google::{self, GoogleService};
use wsrcache::soap::deserializer::read_response_xml_recording;
use wsrcache::soap::serializer::serialize_response;
use wsrcache::soap::RpcRequest;

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
        (
            "doGoogleSearch",
            RpcRequest::new(google::NAMESPACE, "doGoogleSearch")
                .with_param("key", "k")
                .with_param("q", "selector demo")
                .with_param("start", 0)
                .with_param("maxResults", 10)
                .with_param("filter", true)
                .with_param("restrict", "")
                .with_param("safeSearch", false)
                .with_param("lr", "")
                .with_param("ie", "utf-8")
                .with_param("oe", "utf-8"),
        ),
    ];

    println!("static classification (one decision per response type):\n");
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
        let (_, events) = read_response_xml_recording(&xml, &descriptor.return_type, &registry)?;
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

    // ── Act two: the adaptive policy on a live cache ─────────────────
    //
    // One cache per operation so the counters below are per-operation.
    // A warm-up sweep over distinct keys lets the policy's explore
    // phase observe real build and retrieve costs; then a single hot
    // key is hammered, and the policy re-homes the entry on hit when a
    // cheaper-to-retrieve form pays for its one-time build (the
    // "converted to" column is the form that replaced the first one).
    println!("\nadaptive selection (live cache, costs observed online):\n");
    println!(
        "{:<22} {:<18} {:<18} {:<18} {:<20}",
        "operation", "first insert", "serves hot key", "converted to", "hot lookup time"
    );
    const URL: &str = "http://optimal-config.demo/soap";
    for (op, request) in &requests {
        let value = service.call(request)?;
        let descriptor = google::operations()
            .into_iter()
            .find(|o| o.name == *op)
            .expect("known operation");
        let xml = serialize_response(google::NAMESPACE, op, "return", &value, &google::registry())?;
        let (_, events) =
            read_response_xml_recording(&xml, &descriptor.return_type, &google::registry())?;
        let xml: Arc<[u8]> = Arc::from(xml.into_bytes());
        let events = Arc::new(events);
        let data = ResponseData {
            xml: &xml,
            events: &events,
            value: &value,
        };

        let cache = ResponseCache::builder(google::registry())
            .policy(
                CachePolicy::new()
                    .with_default(OperationPolicy::cacheable(Duration::from_secs(600))),
            )
            .adaptive(Arc::new(AdaptivePolicy::new()))
            .build();

        // Warm-up sweep: distinct keys drive insert-time exploration.
        for k in 0..24 {
            let warm = request.clone().with_param("warm", k);
            cache.insert(URL, &warm, data);
            for _ in 0..8 {
                std::hint::black_box(cache.lookup(URL, &warm, &descriptor.return_type));
            }
        }

        // The hot key: first insert records the exploited selection,
        // then hits swap the stored form if a cheaper one exists.
        let first = cache
            .insert(URL, request, data)
            .expect("hot insert succeeds");
        let before = cache.stats();
        for _ in 0..500 {
            std::hint::black_box(cache.lookup(URL, request, &descriptor.return_type));
        }
        let t = Instant::now();
        let iterations = 500;
        for _ in 0..iterations {
            std::hint::black_box(cache.lookup(URL, request, &descriptor.return_type));
        }
        let per_op = t.elapsed() / iterations;
        let after = cache.stats();

        // The form actually answering the hot key = the biggest mover
        // of the per-representation hit counters over the hot phase.
        let serving = ValueRepresentation::ALL_EXTENDED
            .into_iter()
            .max_by_key(|r| after.hits_for(*r).saturating_sub(before.hits_for(*r)))
            .expect("some form served");
        let converted: Vec<&str> = ValueRepresentation::ALL_EXTENDED
            .into_iter()
            .filter(|r| after.conversions_for(*r) > before.conversions_for(*r))
            .map(|r| r.label())
            .collect();
        println!(
            "{:<22} {:<18} {:<18} {:<18} {:<20}",
            op,
            first.label(),
            serving.label(),
            if converted.is_empty() {
                "-".to_string()
            } else {
                converted.join(",")
            },
            format!("{per_op:?}")
        );
    }
    println!("\n(the adaptive cache needs no per-type rules: it explores each");
    println!(" applicable form, scores build/retrieve cost against the observed");
    println!(" hit rate, and re-homes hot entries to the cheapest form on hit)");
    Ok(())
}
