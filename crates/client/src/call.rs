//! The low-level invocation object: one SOAP round-trip, no cache.

use crate::error::ClientError;
use std::sync::Arc;
use wsrc_http::{Request, Transport, Url};
use wsrc_model::typeinfo::TypeRegistry;
use wsrc_model::Value;
use wsrc_obs::{Histogram, MetricsRegistry};
use wsrc_soap::deserializer::read_response_bytes_recording;
use wsrc_soap::rpc::{OperationDescriptor, RpcOutcome, RpcRequest};
use wsrc_soap::serializer::serialize_request;
use wsrc_xml::event::SaxEventSequence;

/// The miss path's three stages. Each runs under a trace span (when a
/// trace is active on this thread; marked failed when the stage errors)
/// and records into its own series of
/// `wsrc_client_stage_seconds{stage=…}` in the call's registry.
#[derive(Clone, Copy)]
enum Stage {
    Serialize,
    Transport,
    Deserialize,
}

impl Stage {
    /// Span name, span stage and `stage` label, indexed by variant.
    const NAMES: [(&'static str, &'static str, &'static str); 3] = [
        ("serialize", "serialize", "serialize"),
        ("exchange", "transport", "transport"),
        ("parse", "parse", "deserialize"),
    ];

    fn run<T, E>(self, call: &Call, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        let (span_name, span_stage, _) = Self::NAMES[self as usize];
        let span = wsrc_obs::trace::child_span(span_name, span_stage);
        let result = call.stages[self as usize].time(f);
        if let Some(mut span) = span {
            if result.is_err() {
                span.set_error();
            }
            span.finish();
        }
        result
    }
}

/// Everything a completed exchange produced — handed to the cache layer.
///
/// The XML bytes are the HTTP response body's own allocation and the
/// event sequence is behind an `Arc`, so storing either representation
/// in the cache is a reference-count bump: the bytes read from the
/// socket are never copied again.
#[derive(Debug)]
pub struct Exchange {
    /// The response XML bytes, shared with the HTTP response body.
    pub response_xml: Arc<[u8]>,
    /// The SAX events recorded while parsing the response.
    pub response_events: Arc<SaxEventSequence>,
    /// The deserialized return value.
    pub value: Value,
    /// The response's `Last-Modified` header, if the server sent one —
    /// the revalidation token for the §3.2 HTTP consistency handshake.
    pub last_modified: Option<String>,
}

/// Result of a conditional invocation ([`Call::invoke_conditional`]).
#[derive(Debug)]
pub enum ConditionalOutcome {
    /// The server answered `304 Not Modified`: the cached response is
    /// still valid.
    NotModified,
    /// The server sent a full (changed) response.
    Fresh(Exchange),
}

/// A low-level SOAP call object (the Axis `Call` analog).
pub struct Call {
    endpoint: Url,
    transport: Arc<dyn Transport>,
    registry: TypeRegistry,
    /// `wsrc_client_stage_seconds`, indexed by [`Stage`].
    stages: [Histogram; 3],
}

impl std::fmt::Debug for Call {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Call")
            .field("endpoint", &self.endpoint.to_string())
            .finish()
    }
}

impl Call {
    /// Creates a call object bound to one endpoint, recording its stage
    /// durations in the process-wide registry.
    pub fn new(endpoint: Url, transport: Arc<dyn Transport>, registry: TypeRegistry) -> Self {
        Call::in_registry(endpoint, transport, registry, &wsrc_obs::global())
    }

    /// [`new`](Call::new), recording in `metrics` — what a
    /// [`ServiceClient`](crate::ServiceClient) passes its cache's
    /// registry to, so one injected registry holds the whole call.
    pub(crate) fn in_registry(
        endpoint: Url,
        transport: Arc<dyn Transport>,
        registry: TypeRegistry,
        metrics: &MetricsRegistry,
    ) -> Self {
        let stages = Stage::NAMES.map(|(_, _, stage)| {
            metrics.histogram("wsrc_client_stage_seconds", &[("stage", stage)])
        });
        Call {
            endpoint,
            transport,
            registry,
            stages,
        }
    }

    /// The bound endpoint.
    pub fn endpoint(&self) -> &Url {
        &self.endpoint
    }

    /// The registry used to type exchanges.
    pub fn registry(&self) -> &TypeRegistry {
        &self.registry
    }

    /// Performs one full exchange, returning the raw artifacts (response
    /// XML, recorded events, deserialized value).
    ///
    /// # Errors
    ///
    /// Transport failures, HTTP error statuses without a SOAP fault,
    /// malformed responses, and SOAP faults (as [`ClientError::Soap`]).
    pub fn invoke(
        &self,
        descriptor: &OperationDescriptor,
        request: &RpcRequest,
    ) -> Result<Exchange, ClientError> {
        match self.invoke_inner(descriptor, request, None)? {
            ConditionalOutcome::Fresh(exchange) => Ok(exchange),
            ConditionalOutcome::NotModified => Err(ClientError::Http(
                wsrc_http::HttpError::protocol("unexpected 304 to an unconditional request"),
            )),
        }
    }

    /// Performs a *conditional* exchange: sends `If-Modified-Since` and
    /// reports `NotModified` when the server answers 304 with no body.
    ///
    /// # Errors
    ///
    /// Same conditions as [`invoke`](Call::invoke).
    pub fn invoke_conditional(
        &self,
        descriptor: &OperationDescriptor,
        request: &RpcRequest,
        if_modified_since: &str,
    ) -> Result<ConditionalOutcome, ClientError> {
        self.invoke_inner(descriptor, request, Some(if_modified_since))
    }

    fn invoke_inner(
        &self,
        descriptor: &OperationDescriptor,
        request: &RpcRequest,
        if_modified_since: Option<&str>,
    ) -> Result<ConditionalOutcome, ClientError> {
        descriptor
            .check_request(request)
            .map_err(ClientError::Soap)?;
        let request_xml = Stage::Serialize
            .run(self, || serialize_request(request, &self.registry))
            .map_err(ClientError::Soap)?;
        let mut http_request = Request::post(
            self.endpoint.path(),
            wsrc_soap::envelope::CONTENT_TYPE,
            request_xml,
        )
        .with_header("SOAPAction", format!("\"{}\"", descriptor.soap_action));
        if let Some(ims) = if_modified_since {
            http_request = http_request.with_header("If-Modified-Since", ims.to_string());
        }
        let http_response = Stage::Transport.run(self, || {
            self.transport.execute(&self.endpoint, &http_request)
        })?;

        if http_response.status == wsrc_http::Status::NOT_MODIFIED {
            return Ok(ConditionalOutcome::NotModified);
        }
        // Both 200 and 500 may carry SOAP envelopes (faults use 500).
        if !http_response.status.is_success()
            && http_response.status != wsrc_http::Status::INTERNAL_SERVER_ERROR
        {
            let body = http_response.body_text().map_err(ClientError::Http)?;
            return Err(ClientError::Http(wsrc_http::HttpError::Status {
                code: http_response.status.0,
                reason: http_response.status.reason().to_string(),
                body: body.to_string(),
            }));
        }
        let last_modified = http_response
            .headers
            .get("Last-Modified")
            .map(str::to_string);
        // The parser reads the shared body bytes directly (strict UTF-8:
        // a mangled body fails loudly instead of being silently repaired
        // and then cached) and records the arena sequence in the same
        // pass — the miss path never materializes owned events.
        let (outcome, events) = Stage::Deserialize
            .run(self, || {
                read_response_bytes_recording(
                    http_response.body.as_bytes(),
                    &descriptor.return_type,
                    &self.registry,
                )
            })
            .map_err(ClientError::Soap)?;
        match outcome {
            // Zero-copy hand-off: the exchange shares the HTTP body's
            // allocation instead of re-owning the text.
            RpcOutcome::Return(value) => Ok(ConditionalOutcome::Fresh(Exchange {
                response_xml: http_response.body.shared(),
                response_events: Arc::new(events),
                value,
                last_modified,
            })),
            RpcOutcome::Fault(fault) => Err(ClientError::Soap(fault.into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use wsrc_http::{Handler, InProcTransport, Response};
    use wsrc_model::typeinfo::{FieldDescriptor, FieldType};
    use wsrc_soap::serializer::{serialize_fault, serialize_response};
    use wsrc_soap::SoapFault;

    fn echo_op() -> OperationDescriptor {
        OperationDescriptor::new(
            "urn:Echo",
            "echo",
            vec![FieldDescriptor::new("text", FieldType::String)],
            FieldType::String,
        )
    }

    /// A SOAP server that echoes the `text` parameter, counting calls.
    struct EchoService {
        calls: AtomicU64,
    }

    impl Handler for EchoService {
        fn handle(&self, request: &Request) -> Response {
            self.calls.fetch_add(1, Ordering::SeqCst);
            let registry = TypeRegistry::new();
            let ops = vec![echo_op()];
            let req = wsrc_soap::deserializer::parse_request(
                request.body_text().expect("soap request is utf-8"),
                &ops,
                &registry,
            )
            .expect("valid request");
            let text = req
                .param("text")
                .and_then(Value::as_str)
                .unwrap_or_default();
            let xml = serialize_response(
                "urn:Echo",
                "echo",
                "return",
                &Value::string(format!("echo: {text}")),
                &registry,
            )
            .unwrap();
            Response::ok(wsrc_soap::envelope::CONTENT_TYPE, xml.into_bytes())
        }
    }

    fn call_over(handler: Arc<dyn Handler>) -> (Call, Arc<InProcTransport>) {
        let transport = Arc::new(InProcTransport::new(handler));
        let call = Call::new(
            Url::new("svc.test", 80, "/soap"),
            transport.clone(),
            TypeRegistry::new(),
        );
        (call, transport)
    }

    #[test]
    fn invoke_roundtrips_through_soap() {
        let (call, transport) = call_over(Arc::new(EchoService {
            calls: AtomicU64::new(0),
        }));
        let req = RpcRequest::new("urn:Echo", "echo").with_param("text", "hello");
        let exchange = call.invoke(&echo_op(), &req).unwrap();
        assert_eq!(exchange.value, Value::string("echo: hello"));
        let xml = std::str::from_utf8(&exchange.response_xml).unwrap();
        assert!(xml.contains("echoResponse"));
        assert!(exchange.response_events.len() > 5);
        assert_eq!(transport.requests_served(), 1);
    }

    #[test]
    fn missing_parameters_fail_before_the_network() {
        let (call, transport) = call_over(Arc::new(EchoService {
            calls: AtomicU64::new(0),
        }));
        let req = RpcRequest::new("urn:Echo", "echo"); // no text param
        assert!(call.invoke(&echo_op(), &req).is_err());
        assert_eq!(transport.requests_served(), 0);
    }

    #[test]
    fn soap_faults_surface_as_errors() {
        let faulty: Arc<dyn Handler> = Arc::new(|_req: &Request| {
            let xml = serialize_fault(&SoapFault::server("backend down")).unwrap();
            Response::new(
                wsrc_http::Status::INTERNAL_SERVER_ERROR,
                wsrc_soap::envelope::CONTENT_TYPE,
                xml.into_bytes(),
            )
        });
        let (call, _t) = call_over(faulty);
        let req = RpcRequest::new("urn:Echo", "echo").with_param("text", "x");
        let err = call.invoke(&echo_op(), &req).unwrap_err();
        let fault = err.as_fault().expect("fault");
        assert_eq!(fault.string, "backend down");
    }

    #[test]
    fn non_soap_http_errors_surface_as_http_errors() {
        let not_found: Arc<dyn Handler> =
            Arc::new(|_req: &Request| Response::error(wsrc_http::Status::NOT_FOUND, "nope"));
        let (call, _t) = call_over(not_found);
        let req = RpcRequest::new("urn:Echo", "echo").with_param("text", "x");
        match call.invoke(&echo_op(), &req).unwrap_err() {
            ClientError::Http(wsrc_http::HttpError::Status { code, .. }) => assert_eq!(code, 404),
            other => panic!("expected http status error, got {other}"),
        }
    }

    #[test]
    fn garbage_responses_are_soap_errors() {
        let garbage: Arc<dyn Handler> =
            Arc::new(|_req: &Request| Response::ok("text/xml", b"not xml at all".to_vec()));
        let (call, _t) = call_over(garbage);
        let req = RpcRequest::new("urn:Echo", "echo").with_param("text", "x");
        assert!(matches!(
            call.invoke(&echo_op(), &req),
            Err(ClientError::Soap(_))
        ));
    }
}
