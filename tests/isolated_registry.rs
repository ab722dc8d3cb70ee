//! A cache built with a registry of its own, and the client over it,
//! leave the process-wide one alone. A test binary of its own with one
//! test, so nothing else in the process writes `wsrcache::obs::global()`
//! and its snapshot can be read whole.

use std::sync::Arc;
use std::time::Duration;
use wsrcache::cache::{CachePolicy, OperationPolicy, ResponseCache, ValueRepresentation};
use wsrcache::client::{Disposition, ServiceClient};
use wsrcache::http::{InProcTransport, Url};
use wsrcache::obs::MetricsRegistry;
use wsrcache::services::google::{self, GoogleService};
use wsrcache::services::SoapDispatcher;
use wsrcache::soap::RpcRequest;

#[test]
fn a_cache_with_its_own_registry_writes_nothing_to_the_process_wide_one() {
    let isolated = Arc::new(MetricsRegistry::new());
    let search = RpcRequest::new(google::NAMESPACE, "doGoogleSearch")
        .with_param("key", "k")
        .with_param("q", "isolated")
        .with_param("start", 0)
        .with_param("maxResults", 10)
        .with_param("filter", true)
        .with_param("restrict", "")
        .with_param("safeSearch", false)
        .with_param("lr", "")
        .with_param("ie", "utf-8")
        .with_param("oe", "utf-8");

    // A miss and a hit under every stored form, each cache labelled by
    // its form.
    for repr in ValueRepresentation::ALL_EXTENDED {
        let dispatcher = SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new()));
        let cache = ResponseCache::builder(google::registry())
            .policy(
                CachePolicy::new()
                    .with_default(OperationPolicy::cacheable(Duration::from_secs(60)))
                    .with_representation(repr),
            )
            .metrics(isolated.clone())
            .metrics_label(repr.metric_label())
            .build();
        let client = ServiceClient::builder(
            Url::new("g.test", 80, google::PATH),
            Arc::new(InProcTransport::new(Arc::new(dispatcher))),
        )
        .registry(google::registry())
        .operations(google::operations())
        .cache(Arc::new(cache))
        .build();
        let (_, miss) = client.invoke(&search).expect("miss");
        let (_, hit) = client.invoke(&search).expect("hit");
        assert_eq!(
            (miss, hit),
            (Disposition::CacheMiss, Disposition::CacheHit),
            "{repr}"
        );
    }

    // The process-wide registry holds nothing: no counter, no gauge, no
    // histogram.
    let global = wsrcache::obs::global().snapshot();
    assert!(global.counters.is_empty(), "{:?}", global.counters);
    assert!(global.gauges.is_empty(), "{:?}", global.gauges);
    assert!(global.histograms.is_empty(), "{:?}", global.histograms);

    // Every sample the caches and their clients took is in the registry
    // the caches were given: the client's three stages, shared by the
    // seven clients, hold one sample per miss.
    let own = isolated.snapshot();
    for stage in ["serialize", "transport", "deserialize"] {
        let series = own.histogram("wsrc_client_stage_seconds", &[("stage", stage)]);
        assert_eq!(
            series.map(|h| h.count),
            Some(ValueRepresentation::COUNT as u64),
            "{stage}"
        );
    }
    for repr in ValueRepresentation::ALL_EXTENDED {
        let cache = ("cache", repr.metric_label());
        let stage = |stage| {
            own.histogram("wsrc_cache_stage_seconds", &[cache, ("stage", stage)])
                .map(|h| h.count)
        };
        assert_eq!(stage("keygen"), Some(2), "{repr}");
        assert_eq!(stage("lookup"), Some(2), "{repr}");
        assert_eq!(stage("insert"), Some(1), "{repr}");
        assert_eq!(
            own.counter_value("wsrc_cache_misses_total", &[cache]),
            Some(1),
            "{repr}"
        );
    }
}
