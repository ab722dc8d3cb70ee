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

use std::time::{Duration, Instant};
use wsrcache::cache::repr::StoredResponse;
use wsrcache::cache::{
    paper_choice, CachePolicy, Capacity, OperationPolicy, ResponseCache, ValueRepresentation,
};
use wsrcache::services::google::{self, search_request};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let registry = google::registry();
    let fixtures = google::fixtures();

    println!("classification (one decision per response type):\n");
    println!(
        "{:<22} {:<22} {:<16} {:<22} {:<16}",
        "operation", "paper table (§6)", "retrieval time", "this cache's default", "retrieval time"
    );
    for f in &fixtures {
        let choice = paper_choice(&f.value, &registry, false);
        let artifacts = f.artifacts();
        // What a cache with no configuration at all stores.
        let default = ResponseCache::builder(google::registry())
            .cache_everything(Duration::from_secs(600))
            .build()
            .insert("http://optimal-config.demo/soap", &f.request, artifacts)
            .expect("the default cache stores every response");
        let time = |repr| -> Result<Duration, Box<dyn std::error::Error>> {
            let stored = StoredResponse::build(repr, artifacts, &registry)?;
            let t = Instant::now();
            let iterations = 1000;
            for _ in 0..iterations {
                std::hint::black_box(stored.retrieve(&f.return_type, &registry)?);
            }
            Ok(t.elapsed() / iterations)
        };
        println!(
            "{:<22} {:<22} {:<16} {:<22} {:<16}",
            f.request.operation,
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
    // builder call on the operation's policy, not a mechanism.
    println!("\nthe same search response under a 16 MiB byte budget:\n");
    println!(
        "{:<38} {:<20} {:<14} {:<10}",
        "policy line", "stored as", "bytes/entry", "entries"
    );
    const URL: &str = "http://optimal-config.demo/soap";
    let data = fixtures.last().expect("the search fixture").artifacts();
    let hour = OperationPolicy::cacheable(Duration::from_secs(3600));
    for (line, policy) in [
        ("cacheable ttl=1h", hour.clone()),
        (
            "cacheable ttl=1h repr=serialization",
            hour.with_representation(ValueRepresentation::Serialization),
        ),
    ] {
        let cache = ResponseCache::builder(google::registry())
            .policy(CachePolicy::new().with("doGoogleSearch", policy))
            .capacity(Capacity {
                max_entries: usize::MAX,
                max_bytes: 16 * 1024 * 1024,
            })
            .build();
        // More distinct queries than either form can hold.
        let mut stored = None;
        for n in 0..6000 {
            stored = cache.insert(URL, &search_request(&format!("selector demo {n}")), data);
        }
        println!(
            "{:<38} {:<20} {:<14} {:<10}",
            line,
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
