//! Wires the full portal scenario (Figure 2 of the paper): load simulator
//! → portal site → caching client middleware → dummy Google back-end.

use crate::loadgen::{run_load, LoadConfig, LoadReport};
use crate::site::PortalSite;
use std::sync::Arc;
use std::time::Duration;
use wsrc_cache::{ResponseCache, ValueRepresentation};
use wsrc_client::ServiceClient;
use wsrc_http::{Handler, HttpClient, InProcTransport, PoolConfig, Server, Transport, Url};
use wsrc_obs::MonotonicClock;
use wsrc_services::google::{self, GoogleService};
use wsrc_services::SoapDispatcher;

/// Whether the scenario runs over real TCP sockets or in-process
/// dispatch (same code path above the transport; in-process is the
/// deterministic default for benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// Loadgen→portal and portal→backend are direct calls.
    InProcess,
    /// Both legs cross real loopback TCP connections.
    Tcp,
}

/// Scenario parameters.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// The cache-value representation under test (one Figure 3/4 series).
    pub representation: ValueRepresentation,
    /// Target cache-hit ratio in `[0, 1]` (the Figure 3/4 x-axis).
    pub hit_ratio: f64,
    /// Closed-loop workers (1 for Figure 3, 25 for Figure 4).
    pub concurrency: usize,
    /// Measured requests.
    pub requests: usize,
    /// Transport mode.
    pub transport: TransportMode,
    /// Extra latency injected per back-end call (simulating the LAN
    /// between portal and service provider; only applied in-process —
    /// TCP mode has real network latency).
    pub backend_latency: Duration,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            representation: ValueRepresentation::XmlMessage,
            hit_ratio: 0.5,
            concurrency: 1,
            requests: 1000,
            transport: TransportMode::InProcess,
            backend_latency: Duration::ZERO,
        }
    }
}

/// What one scenario run measured.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioResult {
    /// The load report (throughput, mean response time).
    pub load: LoadReport,
    /// Hit ratio the cache actually observed.
    pub observed_hit_ratio: f64,
    /// Requests that reached the back-end service.
    pub backend_requests: u64,
}

/// Runs one (representation, hit-ratio, concurrency) point.
///
/// The paper: "We used the toString method approach for cache key
/// generation. We then compared each cache approach for cached data
/// retrieval and artificially changed the cache-hit ratio from 0% to
/// 100%."
pub fn run_portal_scenario(config: &ScenarioConfig) -> ScenarioResult {
    // --- back-end: the dummy Google service ---
    let dispatcher: Arc<dyn Handler> =
        Arc::new(SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new())));

    // Keep the TCP back-end server alive for the duration of the run.
    let mut backend_server = None;
    let mut backend_inproc = None;
    let backend_transport: Arc<dyn Transport> = match config.transport {
        TransportMode::InProcess => {
            let inproc = Arc::new(InProcTransport::new(dispatcher));
            backend_inproc = Some(inproc.clone());
            if config.backend_latency > Duration::ZERO {
                Arc::new(wsrc_http::LatencyTransport::new(
                    inproc,
                    config.backend_latency,
                ))
            } else {
                inproc
            }
        }
        TransportMode::Tcp => {
            let server = Server::bind("127.0.0.1:0", dispatcher).expect("bind backend");
            backend_server = Some(server);
            Arc::new(HttpClient::new())
        }
    };
    let backend_url = match &backend_server {
        Some(s) => Url::new("127.0.0.1", s.port(), google::PATH),
        None => Url::new("backend.test", 80, google::PATH),
    };

    // --- client middleware with the representation under test ---
    let cache = Arc::new(
        ResponseCache::builder(google::registry())
            .policy(google::default_policy().with_representation(config.representation))
            .build(),
    );
    let client = Arc::new(
        ServiceClient::builder(backend_url, backend_transport)
            .registry(google::registry())
            .operations(google::operations())
            .cache(cache.clone())
            .build(),
    );

    // --- the portal site ---
    let portal: Arc<dyn Handler> = Arc::new(PortalSite::new(client));
    let load_config = LoadConfig {
        concurrency: config.concurrency,
        requests: config.requests,
        hit_ratio: config.hit_ratio,
        hot_queries: 8,
    };
    // --- the load generator, over the same choice of transport ---
    let mut portal_server = None;
    let (portal_transport, portal_url): (Box<dyn Transport>, Url) = match config.transport {
        TransportMode::InProcess => (
            Box::new(InProcTransport::new(portal)),
            Url::new("portal.test", 80, "/portal"),
        ),
        TransportMode::Tcp => {
            let server = Server::bind("127.0.0.1:0", portal).expect("bind portal");
            let url = Url::new("127.0.0.1", server.port(), "/portal");
            portal_server = Some(server);
            // One pooled client shared by every worker, so the generator
            // exercises (and benefits from) the client-side connection
            // pool instead of dialing a socket per worker.
            let pool = PoolConfig {
                max_per_authority: config.concurrency.max(1),
                ..PoolConfig::default()
            };
            (Box::new(HttpClient::with_pool(pool)), url)
        }
    };
    let clock = MonotonicClock::new();
    let load = run_load(&*portal_transport, &portal_url, &load_config, &clock, None);
    drop(portal_server);
    let stats = cache.stats();
    let backend_requests = backend_inproc
        .map(|t| t.requests_served())
        .or_else(|| backend_server.as_ref().map(|s| s.requests_served()))
        .unwrap_or(0);
    ScenarioResult {
        load,
        observed_hit_ratio: stats.hit_ratio(),
        backend_requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(repr: ValueRepresentation, ratio: f64, concurrency: usize) -> ScenarioResult {
        run_portal_scenario(&ScenarioConfig {
            representation: repr,
            hit_ratio: ratio,
            concurrency,
            requests: 300,
            transport: TransportMode::InProcess,
            backend_latency: Duration::ZERO,
        })
    }

    #[test]
    fn observed_hit_ratio_tracks_target() {
        for target in [0.0, 0.5, 1.0] {
            let result = quick(ValueRepresentation::XmlMessage, target, 1);
            assert!(
                (result.observed_hit_ratio - target).abs() < 0.05,
                "target {target}, observed {}",
                result.observed_hit_ratio
            );
        }
    }

    #[test]
    fn full_hit_ratio_stops_backend_traffic() {
        let result = quick(ValueRepresentation::CloneCopy, 1.0, 1);
        // Only the priming requests reach the backend.
        assert!(
            result.backend_requests <= 16,
            "backend saw {} requests",
            result.backend_requests
        );
        assert_eq!(result.load.errors, 0);
    }

    #[test]
    fn zero_hit_ratio_sends_everything_to_backend() {
        let result = quick(ValueRepresentation::CloneCopy, 0.0, 1);
        assert!(
            result.backend_requests >= 300,
            "backend saw only {} requests",
            result.backend_requests
        );
        assert_eq!(result.load.completed, 300);
    }

    #[test]
    fn every_representation_completes_under_concurrency() {
        for repr in ValueRepresentation::ALL {
            let result = quick(repr, 0.5, 4);
            assert_eq!(result.load.errors, 0, "{repr}");
            assert_eq!(result.load.completed, 300, "{repr}");
        }
    }

    #[test]
    fn tcp_mode_works_end_to_end() {
        let result = run_portal_scenario(&ScenarioConfig {
            representation: ValueRepresentation::SaxEvents,
            hit_ratio: 0.5,
            concurrency: 2,
            requests: 100,
            transport: TransportMode::Tcp,
            backend_latency: Duration::ZERO,
        });
        assert_eq!(result.load.errors, 0);
        assert_eq!(result.load.completed, 100);
        assert!((result.observed_hit_ratio - 0.5).abs() < 0.1);
    }
}
