//! The low-level invocation object: one SOAP round-trip, no cache.

use crate::error::ClientError;
use std::sync::Arc;
use wsrc_http::{Body, Request, Transport, Url};
use wsrc_model::typeinfo::TypeRegistry;
use wsrc_model::Value;
use wsrc_obs::{MetricsRegistry, Stage, Timing};
use wsrc_soap::deserializer::{read_response_bytes, read_response_bytes_recording};
use wsrc_soap::rpc::{OperationDescriptor, RpcOutcome, RpcRequest};
use wsrc_soap::serializer::serialize_request_as;
use wsrc_xml::event::SaxEventSequence;

/// The miss path's three stages — span name, span stage and `stage`
/// label of `wsrc_client_stage_seconds` — in the order they run.
const STAGES: [(&str, &str, &str); 3] = [
    ("serialize", "serialize", "serialize"),
    ("exchange", "transport", "transport"),
    ("parse", "parse", "deserialize"),
];

/// Ends a stage's timing, its span marked failed when `result` is an
/// error, and returns the end reading: where the next stage starts.
fn end<T, E>(mut timing: Timing<'_>, result: &Result<T, E>) -> u64 {
    if result.is_err() {
        timing.set_error();
    }
    timing.end(None)
}

/// Everything a completed exchange produced — handed to the cache layer.
///
/// The XML bytes are the HTTP response body's own allocation and the
/// event sequence is behind an `Arc`, so storing either representation
/// in the cache is a reference-count bump: the bytes read from the
/// socket are never copied again. The events are recorded only when the
/// caller asked for them — when the form the cache stores keeps them;
/// otherwise the sequence is empty, and a form that needs it after all
/// records it from the XML.
#[derive(Debug)]
pub struct Exchange {
    /// The response XML bytes, shared with the HTTP response body.
    pub response_xml: Arc<[u8]>,
    /// The SAX events recorded while parsing the response; empty when
    /// the exchange was not asked to record them.
    pub response_events: Arc<SaxEventSequence>,
    /// The deserialized return value.
    pub value: Value,
    /// The response's `Last-Modified` header, if the server sent one —
    /// the revalidation token for the §3.2 HTTP consistency handshake.
    pub last_modified: Option<String>,
}

/// Result of an exchange that may be conditional.
#[derive(Debug)]
pub(crate) enum ConditionalOutcome {
    /// The server answered `304 Not Modified`: the cached response is
    /// still valid.
    NotModified,
    /// The server sent a full (changed) response.
    Fresh(Exchange),
}

impl ConditionalOutcome {
    /// The exchange of an unconditional request, to which a 304 is a
    /// protocol error.
    pub(crate) fn into_fresh(self) -> Result<Exchange, ClientError> {
        match self {
            ConditionalOutcome::Fresh(exchange) => Ok(exchange),
            ConditionalOutcome::NotModified => Err(ClientError::Http(
                wsrc_http::HttpError::protocol("unexpected 304 to an unconditional request"),
            )),
        }
    }
}

/// A low-level SOAP call object (the Axis `Call` analog).
pub struct Call {
    endpoint: Url,
    transport: Arc<dyn Transport>,
    registry: TypeRegistry,
    /// Serialize, transport and deserialize, each starting where the one
    /// before it ends ([`STAGES`]).
    stages: [Stage; 3],
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
        let stages = STAGES.map(|(span, span_stage, stage)| {
            Stage::new(metrics, "wsrc_client_stage_seconds", &[("stage", stage)])
                .traced(span, span_stage)
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
    /// XML, deserialized value). Nothing caches what an uncached call
    /// returns, so it records no events.
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
        self.exchange(descriptor, request, None, false)?
            .into_fresh()
    }

    /// One exchange. With `if_modified_since` it is conditional: it
    /// sends the header and reports `NotModified` when the server
    /// answers 304 with no body. With `record` the response's SAX events
    /// are recorded in the pass that decodes it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`invoke`](Call::invoke).
    pub(crate) fn exchange(
        &self,
        descriptor: &OperationDescriptor,
        request: &RpcRequest,
        if_modified_since: Option<&str>,
        record: bool,
    ) -> Result<ConditionalOutcome, ClientError> {
        descriptor
            .check_request(request)
            .map_err(ClientError::Soap)?;
        let [serialize, transport, deserialize] = &self.stages;
        let timing = serialize.start(None);
        // The envelope is written in the thread's scratch and becomes
        // the request body in one allocation of its size.
        let body = serialize_request_as(request, &self.registry, |xml| Body::from(xml));
        let serialized = end(timing, &body);
        let body = body.map_err(ClientError::Soap)?;
        let mut http_request = Request::post(
            self.endpoint.path(),
            wsrc_soap::envelope::CONTENT_TYPE,
            body,
        )
        .with_header("SOAPAction", format!("\"{}\"", descriptor.soap_action));
        if let Some(ims) = if_modified_since {
            http_request = http_request.with_header("If-Modified-Since", ims.to_string());
        }
        let timing = transport.start(Some(serialized));
        let http_response = self.transport.execute(&self.endpoint, &http_request);
        let exchanged = end(timing, &http_response);
        let http_response = http_response?;

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
        // and then cached) and, when asked, records the arena sequence in
        // the same pass — the miss path never materializes owned events.
        let timing = deserialize.start(Some(exchanged));
        let body = http_response.body.as_bytes();
        let (expected, registry) = (&descriptor.return_type, &self.registry);
        let parsed = match record {
            true => read_response_bytes_recording(body, expected, registry),
            false => read_response_bytes(body, expected, registry)
                .map(|outcome| (outcome, SaxEventSequence::new())),
        };
        end(timing, &parsed);
        let (outcome, events) = parsed.map_err(ClientError::Soap)?;
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
        // An uncached call records nothing.
        assert!(exchange.response_events.is_empty());
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
