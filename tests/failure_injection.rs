//! Failure injection across the stack: garbled responses, connections
//! dying mid-exchange, SOAP faults, capacity pressure, and repeated-
//! request floods (the paper's DoS absorption remark in §3.2).

use std::io::Write;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wsrcache::cache::store::Capacity;
use wsrcache::cache::ResponseCache;
use wsrcache::client::{ClientError, ServiceClient};
use wsrcache::http::{Handler, HttpClient, InProcTransport, Request, Response, Server, Url};
use wsrcache::services::google::{self, GoogleService};
use wsrcache::services::SoapDispatcher;
use wsrcache::soap::RpcRequest;

fn spelling(phrase: &str) -> RpcRequest {
    RpcRequest::new(google::NAMESPACE, "doSpellingSuggestion")
        .with_param("key", "k")
        .with_param("phrase", phrase)
}

fn caching_client(transport: Arc<dyn wsrcache::http::Transport>, url: Url) -> ServiceClient {
    let cache = Arc::new(
        ResponseCache::builder(google::registry())
            .policy(google::default_policy())
            .build(),
    );
    ServiceClient::builder(url, transport)
        .registry(google::registry())
        .operations(google::operations())
        .cache(cache)
        .build()
}

#[test]
fn garbage_response_bodies_error_and_are_never_cached() {
    let calls = Arc::new(AtomicU64::new(0));
    let c2 = calls.clone();
    let garbage: Arc<dyn Handler> = Arc::new(move |_req: &Request| {
        c2.fetch_add(1, Ordering::SeqCst);
        Response::ok("text/xml", b"this is not xml <<<".to_vec())
    });
    let client = caching_client(
        Arc::new(InProcTransport::new(garbage)),
        Url::new("g.test", 80, google::PATH),
    );
    for _ in 0..3 {
        assert!(matches!(
            client.invoke(&spelling("x")),
            Err(ClientError::Soap(_))
        ));
    }
    // Every attempt reached the server: the error was never cached.
    assert_eq!(calls.load(Ordering::SeqCst), 3);
    assert_eq!(client.cache().unwrap().len(), 0);
}

#[test]
fn truncated_envelope_is_rejected() {
    let truncated: Arc<dyn Handler> = Arc::new(|_req: &Request| {
        // Valid XML but not a complete SOAP response.
        Response::ok(
            "text/xml",
            b"<soapenv:Envelope xmlns:soapenv=\"x\"/>".to_vec(),
        )
    });
    let client = caching_client(
        Arc::new(InProcTransport::new(truncated)),
        Url::new("g.test", 80, google::PATH),
    );
    assert!(client.invoke(&spelling("x")).is_err());
}

#[test]
fn connection_reset_mid_response_is_an_io_error() {
    // A raw TCP server that reads the request and slams the connection
    // after half a response line.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let port = listener.local_addr().unwrap().port();
    std::thread::spawn(move || {
        for stream in listener.incoming().take(2) {
            let Ok(mut stream) = stream else { continue };
            let mut buf = [0u8; 4096];
            use std::io::Read;
            let _ = stream.read(&mut buf);
            let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 999");
            // dropped here → RST/FIN mid-headers
        }
    });
    let client = caching_client(
        Arc::new(HttpClient::with_timeout(Some(Duration::from_secs(2)))),
        Url::new("127.0.0.1", port, google::PATH),
    );
    let err = client.invoke(&spelling("x")).expect_err("must fail");
    assert!(matches!(err, ClientError::Http(_)), "got {err}");
}

#[test]
fn capacity_pressure_evicts_but_never_corrupts() {
    let dispatcher = SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new()));
    let cache = Arc::new(
        ResponseCache::builder(google::registry())
            .policy(google::default_policy())
            .capacity(Capacity {
                max_entries: 4,
                max_bytes: usize::MAX,
            })
            .build(),
    );
    let client = ServiceClient::builder(
        Url::new("g.test", 80, google::PATH),
        Arc::new(InProcTransport::new(Arc::new(dispatcher))),
    )
    .registry(google::registry())
    .operations(google::operations())
    .cache(cache.clone())
    .build();
    // 20 distinct requests through a 4-entry cache.
    for round in 0..3 {
        for i in 0..20 {
            let v = client
                .invoke_owned(&spelling(&format!("q{i}")))
                .expect("call");
            let expected = client
                .invoke_owned(&spelling(&format!("q{i}")))
                .expect("repeat");
            assert_eq!(v, expected, "round {round}, i {i}");
        }
    }
    assert!(cache.len() <= 4, "cache holds {} entries", cache.len());
    assert!(cache.stats().evictions > 0);
}

#[test]
fn repeated_identical_requests_are_absorbed_by_the_cache() {
    // Paper §3.2: "response caching … is effective against denial of
    // service (DoS) attacks that send the same requests repeatedly."
    let dispatcher = SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new()));
    let server = Server::bind("127.0.0.1:0", Arc::new(dispatcher)).expect("bind");
    let client = Arc::new(caching_client(
        Arc::new(HttpClient::new()),
        Url::new("127.0.0.1", server.port(), google::PATH),
    ));
    let mut workers = Vec::new();
    for _ in 0..8 {
        let client = client.clone();
        workers.push(std::thread::spawn(move || {
            for _ in 0..50 {
                client
                    .invoke(&spelling("the same request"))
                    .expect("absorbed");
            }
        }));
    }
    for w in workers {
        w.join().expect("worker");
    }
    // 400 identical requests; the backend saw only the racing misses.
    assert!(
        server.requests_served() <= 8,
        "backend absorbed only {} of 400 requests",
        server.requests_served()
    );
}

#[test]
fn soap_fault_from_service_reaches_the_application() {
    let dispatcher = SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new()));
    let client = caching_client(
        Arc::new(InProcTransport::new(Arc::new(dispatcher))),
        Url::new("g.test", 80, google::PATH),
    );
    // Missing parameter → service-side client fault.
    let bad = RpcRequest::new(google::NAMESPACE, "doGetCachedPage").with_param("key", "k");
    let err = client.invoke(&bad).expect_err("must fault");
    // Either local validation or remote fault is acceptable, but it must
    // be an error, and nothing may be cached.
    let _ = err;
    assert_eq!(client.cache().unwrap().len(), 0);
}

#[test]
fn http_404_from_wrong_path_is_a_status_error() {
    let dispatcher = SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new()));
    let server = Server::bind("127.0.0.1:0", Arc::new(dispatcher)).expect("bind");
    let client = caching_client(
        Arc::new(HttpClient::new()),
        Url::new("127.0.0.1", server.port(), "/soap/wrong-path"),
    );
    let err = client.invoke(&spelling("x")).expect_err("404 expected");
    match err {
        ClientError::Http(wsrcache::http::HttpError::Status { code, .. }) => assert_eq!(code, 404),
        other => panic!("expected 404 status error, got {other}"),
    }
}
