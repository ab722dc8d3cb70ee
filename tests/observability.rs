//! End-to-end observability: the portal stack (dummy Google backend →
//! SOAP dispatch → caching client middleware) recorded into a metrics
//! registry, exposed over `GET /metrics`.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;
use wsrcache::cache::{CachePolicy, OperationPolicy, ResponseCache, ValueRepresentation};
use wsrcache::client::{Disposition, ServiceClient};
use wsrcache::http::{
    Handler, HttpClient, InProcTransport, MetricsRoute, Request, Response, Server, Status, Url,
};
use wsrcache::obs::{ManualClock, MetricId, MetricsRegistry};
use wsrcache::portal::PortalSite;
use wsrcache::services::google::{self, GoogleService};
use wsrcache::services::SoapDispatcher;
use wsrcache::soap::RpcRequest;

/// Everything cacheable for a minute, stored under `repr`.
fn forced(repr: ValueRepresentation) -> CachePolicy {
    CachePolicy::new()
        .with_default(OperationPolicy::cacheable(Duration::from_secs(60)))
        .with_representation(repr)
}

fn portal_client(
    registry: &Arc<MetricsRegistry>,
    label: &str,
    repr: ValueRepresentation,
) -> ServiceClient {
    let dispatcher = SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new()));
    let transport = Arc::new(InProcTransport::new(Arc::new(dispatcher)));
    let cache = Arc::new(
        ResponseCache::builder(google::registry())
            .policy(forced(repr))
            .metrics(registry.clone())
            .metrics_label(label)
            .build(),
    );
    ServiceClient::builder(Url::new("g.test", 80, google::PATH), transport)
        .registry(google::registry())
        .operations(google::operations())
        .cache(cache)
        .build()
}

fn spelling(phrase: &str) -> RpcRequest {
    RpcRequest::new(google::NAMESPACE, "doSpellingSuggestion")
        .with_param("key", "k")
        .with_param("phrase", phrase)
}

#[test]
fn per_representation_hit_counters_accumulate_end_to_end() {
    let registry = Arc::new(MetricsRegistry::new());
    let client = portal_client(&registry, "e2e", ValueRepresentation::DomTree);

    // 3 distinct queries, each asked 3 times: 3 misses, 6 hits.
    for _round in 0..3 {
        for phrase in ["alpha", "beta", "gamma"] {
            client.invoke(&spelling(phrase)).expect("call");
        }
    }

    let snap = registry.snapshot();
    let e2e = ("cache", "e2e");
    assert_eq!(
        snap.counter_value("wsrc_cache_hits_total", &[e2e, ("repr", "dom-tree")]),
        Some(6)
    );
    // Hits under any other representation stay zero.
    for repr in ValueRepresentation::ALL_EXTENDED {
        if repr != ValueRepresentation::DomTree {
            assert_eq!(
                snap.counter_value(
                    "wsrc_cache_hits_total",
                    &[e2e, ("repr", repr.metric_label())]
                ),
                Some(0),
                "{repr}"
            );
        }
    }
    assert_eq!(
        snap.counter_value("wsrc_cache_misses_total", &[e2e]),
        Some(3)
    );
    assert_eq!(
        snap.counter_value("wsrc_cache_inserts_total", &[e2e, ("repr", "dom-tree")]),
        Some(3)
    );
    // Every hit retrieved through the DOM-tree path, and each of the 9
    // calls recorded one lookup sample and rendered one key — the three
    // inserts reuse the key their lookups rendered.
    let retrieve = snap
        .histogram("wsrc_cache_retrieve_seconds", &[e2e, ("repr", "dom-tree")])
        .expect("retrieve histogram");
    assert_eq!(retrieve.count, 6);
    let lookup = snap
        .histogram("wsrc_cache_stage_seconds", &[e2e, ("stage", "lookup")])
        .expect("lookup histogram");
    assert_eq!(lookup.count, 9);
    let keygen = snap
        .histogram("wsrc_cache_stage_seconds", &[e2e, ("stage", "keygen")])
        .expect("keygen histogram");
    assert_eq!(keygen.count, 9);
}

#[test]
fn expired_lookups_count_as_expired_and_missed() {
    let clock = ManualClock::new();
    let registry = Arc::new(MetricsRegistry::with_clock(clock.handle()));
    let client = portal_client(&registry, "ttl", ValueRepresentation::SaxEvents);

    let (_, d1) = client.invoke(&spelling("stale")).expect("prime");
    assert_eq!(d1, Disposition::CacheMiss);
    clock.advance_millis(61_000);
    let (_, d2) = client.invoke(&spelling("stale")).expect("refetch");
    assert_eq!(d2, Disposition::CacheMiss);

    let snap = registry.snapshot();
    let ttl = ("cache", "ttl");
    // The expired lookup shows up in BOTH counters: `expired` records
    // why the entry was unusable, `misses` records that the caller had
    // to perform the exchange.
    assert_eq!(
        snap.counter_value("wsrc_cache_expired_total", &[ttl]),
        Some(1)
    );
    assert_eq!(
        snap.counter_value("wsrc_cache_misses_total", &[ttl]),
        Some(2)
    );
    assert_eq!(
        snap.counter_value("wsrc_cache_hits_total", &[ttl, ("repr", "sax-events")]),
        Some(0)
    );
}

#[test]
fn metrics_endpoint_exposes_the_full_pipeline() {
    // The cache records into the process-wide registry here (the
    // default), beside the client's stage histograms; a unique label
    // keeps this test's counters identifiable.
    let dispatcher = SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new()));
    let transport = Arc::new(InProcTransport::new(Arc::new(dispatcher)));
    let cache = Arc::new(
        ResponseCache::builder(google::registry())
            .policy(forced(ValueRepresentation::Serialization))
            .metrics_label("exposed")
            .build(),
    );
    let client = ServiceClient::builder(Url::new("g.test", 80, google::PATH), transport)
        .registry(google::registry())
        .operations(google::operations())
        .cache(cache.clone())
        .build();
    for _ in 0..2 {
        client.invoke(&spelling("prometheus")).expect("call");
    }

    let app: Arc<dyn Handler> =
        Arc::new(|_req: &Request| Response::ok("text/plain", b"portal".to_vec()));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(MetricsRoute::with_registry(cache.metrics().clone(), app)),
    )
    .expect("bind");
    let body = HttpClient::new()
        .get(&Url::new("127.0.0.1", server.port(), "/metrics"))
        .expect("GET /metrics")
        .body_text()
        .expect("metrics body is utf-8")
        .to_string();

    // Per-representation hit/miss counters…
    assert!(
        body.contains("wsrc_cache_hits_total{cache=\"exposed\",repr=\"serialization\"} 1"),
        "{body}"
    );
    assert!(
        body.contains("wsrc_cache_misses_total{cache=\"exposed\"} 1"),
        "{body}"
    );
    // …and the stage histograms of the client and the cache (global
    // registry; other tests may add samples, so presence is asserted
    // rather than exact counts).
    for metric in [
        "wsrc_client_stage_seconds_bucket{stage=\"transport\"",
        "wsrc_cache_retrieve_seconds_bucket{cache=\"exposed\",repr=\"serialization\"",
    ] {
        assert!(body.contains(metric), "missing {metric} in:\n{body}");
    }
}

/// Every series in a registry's snapshot whose family name starts with
/// `prefix`.
fn series(registry: &MetricsRegistry, prefix: &str) -> Vec<MetricId> {
    let snap = registry.snapshot();
    let counters = snap.counters.into_iter().map(|(id, _)| id);
    let gauges = snap.gauges.into_iter().map(|(id, _)| id);
    let histograms = snap.histograms.into_iter().map(|(id, _)| id);
    counters
        .chain(gauges)
        .chain(histograms)
        .filter(|id| id.name.starts_with(prefix))
        .collect()
}

/// The families whose names start with `prefix` in a registry's
/// snapshot; `allowed` lists each label's value set, and a label or a
/// value outside it (one that could grow without bound) panics.
fn registered(
    registry: &MetricsRegistry,
    prefix: &str,
    allowed: impl Fn(&str) -> Option<Vec<&'static str>>,
) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for id in series(registry, prefix) {
        for (label, value) in &id.labels {
            let values = allowed(label)
                .unwrap_or_else(|| panic!("{}: label `{label}` is not in the catalogue", id.name));
            assert!(
                values.contains(&value.as_str()),
                "{}: {label}={value} is outside {values:?}",
                id.name
            );
        }
        names.insert(id.name);
    }
    names
}

/// The families whose names start with `prefix` in the rows of README's
/// Observability table.
fn documented(prefix: &str) -> BTreeSet<String> {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md");
    let section = readme
        .split("\n## Observability")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("README has an Observability section");
    section
        .lines()
        .filter(|line| line.starts_with('|'))
        .flat_map(|row| row.split('`'))
        .filter(|token| token.starts_with(prefix))
        .map(|token| {
            let end = token
                .find(|c: char| !(c.is_ascii_lowercase() || c == '_'))
                .unwrap_or(token.len());
            token[..end].to_string()
        })
        .collect()
}

/// The cache's metric families are a checked list: what a freshly built
/// cache registers is exactly what README's Observability table names,
/// and no label takes a value outside the fixed sets below. A family
/// added without a row, a row whose family is gone, or a label that can
/// grow without bound fails here.
#[test]
fn the_caches_metric_families_are_the_documented_list() {
    let registry = Arc::new(MetricsRegistry::new());
    let _cache = ResponseCache::builder(google::registry())
        .metrics(registry.clone())
        .metrics_label("catalogue")
        .build();
    let reprs = ValueRepresentation::ALL_EXTENDED.map(|r| r.metric_label());
    let found = registered(&registry, "wsrc_cache_", |label| match label {
        "cache" => Some(vec!["catalogue"]),
        "repr" => Some(reprs.to_vec()),
        "stage" => Some(vec!["keygen", "lookup", "insert"]),
        "kind" => Some(vec!["expired", "lru"]),
        _ => None,
    });
    assert_eq!(
        found,
        documented("wsrc_cache_"),
        "registered by the cache (left) against README's Observability table (right)"
    );
}

/// The same check for the client middleware: after a cached miss (the
/// one path through every client stage) the cache's registry holds
/// exactly the `wsrc_client_*` families the table names.
#[test]
fn the_clients_metric_families_are_the_documented_list() {
    let registry = Arc::new(MetricsRegistry::new());
    let client = portal_client(
        &registry,
        "client-catalogue",
        ValueRepresentation::PassByReference,
    );
    let (_, disposition) = client.invoke(&spelling("catalogue")).expect("call");
    assert_eq!(disposition, Disposition::CacheMiss);
    let found = registered(&registry, "wsrc_client_", |label| {
        (label == "stage").then(|| vec!["serialize", "transport", "deserialize"])
    });
    assert_eq!(
        found,
        documented("wsrc_client_"),
        "registered by the client (left) against README's Observability table (right)"
    );
}

/// The catalogue closes: one portal miss and one hit over loopback, with
/// every layer recording into the process-wide registry, register the
/// six `wsrc_http_*` families the table names (unlabelled) and nothing
/// outside the three documented prefixes. An undocumented family, a
/// stale row or a fourth prefix fails here.
#[test]
fn every_registered_family_is_a_documented_row_under_three_prefixes() {
    let global = wsrcache::obs::global();
    let service = portal_client(
        &global,
        "closed-catalogue",
        ValueRepresentation::PassByReference,
    );
    let portal = Arc::new(PortalSite::new(Arc::new(service)));
    let server = Server::bind("127.0.0.1:0", portal.clone()).expect("bind");
    let page = Url::new("127.0.0.1", server.port(), "/portal?q=catalogue");
    let http = HttpClient::new();
    for _ in 0..2 {
        let response = http.get(&page).expect("GET /portal");
        assert_eq!(response.status, Status::OK);
    }
    let stats = portal.client().cache().expect("cache").stats();
    assert_eq!((stats.misses, stats.hits), (1, 1));

    assert_eq!(
        registered(&global, "wsrc_http_", |_| None),
        documented("wsrc_http_"),
        "registered by the HTTP layer (left) against README's Observability table (right)"
    );
    let stray: Vec<MetricId> = series(&global, "")
        .into_iter()
        .filter(|id| {
            !["wsrc_cache_", "wsrc_client_", "wsrc_http_"]
                .iter()
                .any(|prefix| id.name.starts_with(prefix))
        })
        .collect();
    assert!(stray.is_empty(), "series outside the catalogue: {stray:?}");
}
