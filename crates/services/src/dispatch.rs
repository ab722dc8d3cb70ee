//! SOAP dispatcher: hosts [`SoapService`] implementations on the HTTP
//! server, handling envelope parsing, routing and fault serialization.

use std::collections::HashMap;
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, SystemTime};
use wsrc_http::cache_control::{not_modified_since, stamp_validators};
use wsrc_http::{Body, Handler, Method, Request, Response, Status};
use wsrc_model::typeinfo::TypeRegistry;
use wsrc_model::Value;
use wsrc_soap::deserializer::parse_request;
use wsrc_soap::rpc::{OperationDescriptor, RpcRequest};
use wsrc_soap::serializer::{serialize_fault_as, serialize_response_as};
use wsrc_soap::{SoapError, SoapFault};

/// A SOAP service implementation.
pub trait SoapService: Send + Sync + 'static {
    /// The service namespace URI.
    fn namespace(&self) -> &str;

    /// The operations this service implements.
    fn operations(&self) -> Vec<OperationDescriptor>;

    /// The registry typing this service's messages.
    fn registry(&self) -> TypeRegistry;

    /// Executes one call.
    ///
    /// # Errors
    ///
    /// Returns a fault to be serialized back to the caller.
    fn call(&self, request: &RpcRequest) -> Result<Value, SoapFault>;
}

struct Route {
    service: Arc<dyn SoapService>,
    operations: Vec<OperationDescriptor>,
    registry: TypeRegistry,
}

/// Routes SOAP POSTs by request path to registered services.
pub struct SoapDispatcher {
    routes: HashMap<String, Route>,
    /// When set, responses carry `Last-Modified`/`Cache-Control`
    /// validators and conditional requests are answered with `304 Not
    /// Modified` (paper §3.2's HTTP consistency mechanism). The time is
    /// mutable so tests and demos can simulate back-end data changing.
    validation: Option<Validation>,
}

struct Validation {
    last_modified: Mutex<SystemTime>,
    max_age: Duration,
}

impl std::fmt::Debug for SoapDispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SoapDispatcher({} routes)", self.routes.len())
    }
}

impl SoapDispatcher {
    /// An empty dispatcher.
    pub fn new() -> Self {
        SoapDispatcher {
            routes: HashMap::new(),
            validation: None,
        }
    }

    /// Enables HTTP validators: responses are stamped with
    /// `Last-Modified` (initially `last_modified`) and
    /// `Cache-Control: max-age`, and `If-Modified-Since` requests get
    /// `304 Not Modified` while the data is unchanged.
    pub fn with_validation(mut self, last_modified: SystemTime, max_age: Duration) -> Self {
        self.validation = Some(Validation {
            last_modified: Mutex::new(last_modified),
            max_age,
        });
        self
    }

    /// Marks the hosted data as modified `now` — subsequent conditional
    /// requests receive full responses again.
    pub fn touch(&self, now: SystemTime) {
        if let Some(v) = &self.validation {
            *v.last_modified.lock().unwrap() = now;
        }
    }

    /// Mounts a service at `path` (e.g. `/soap/google`).
    pub fn mount(mut self, path: impl Into<String>, service: Arc<dyn SoapService>) -> Self {
        let operations = service.operations();
        let registry = service.registry();
        self.routes.insert(
            path.into(),
            Route {
                service,
                operations,
                registry,
            },
        );
        self
    }

    fn dispatch(&self, request: &Request) -> Response {
        if request.method != Method::Post {
            return Response::error(Status::METHOD_NOT_ALLOWED, "SOAP requires POST");
        }
        let path = request.target.split('?').next().unwrap_or(&request.target);
        let Some(route) = self.routes.get(path) else {
            return Response::error(Status::NOT_FOUND, "no service at this path");
        };
        // The §3.2 conditional-request handshake: unchanged data answers
        // `304 Not Modified` without executing the service at all. The
        // validator is read once: a `touch` while the service runs must
        // not stamp the data it read with the time of a later change.
        let validator = self
            .validation
            .as_ref()
            .map(|v| (*v.last_modified.lock().unwrap(), v.max_age));
        if let Some((last_modified, _)) = validator {
            if not_modified_since(request, last_modified) {
                return Response::not_modified();
            }
        }
        let body = match request.body_text() {
            Ok(b) => b,
            Err(_) => return Response::error(Status::BAD_REQUEST, "request body is not utf-8"),
        };
        let rpc = match parse_request(body, &route.operations, &route.registry) {
            Ok(r) => r,
            Err(e) => return fault_response(&client_fault(e)),
        };
        let descriptor = route
            .operations
            .iter()
            .find(|o| o.name == rpc.operation)
            .expect("parse_request only accepts known operations");
        match route.service.call(&rpc) {
            Ok(value) => {
                // Written in the thread's scratch, the envelope becomes
                // the response body in one allocation of its size.
                match serialize_response_as(
                    route.service.namespace(),
                    &descriptor.name,
                    &descriptor.return_name,
                    &value,
                    &route.registry,
                    |xml| Body::from(xml),
                ) {
                    Ok(body) => {
                        let resp = Response::ok(wsrc_soap::envelope::CONTENT_TYPE, body);
                        match validator {
                            Some((last_modified, max_age)) => {
                                stamp_validators(resp, last_modified, Some(max_age))
                            }
                            None => resp,
                        }
                    }
                    Err(e) => fault_response(&SoapFault::server(format!(
                        "response serialization failed: {e}"
                    ))),
                }
            }
            Err(fault) => fault_response(&fault),
        }
    }
}

impl Default for SoapDispatcher {
    fn default() -> Self {
        SoapDispatcher::new()
    }
}

impl Handler for SoapDispatcher {
    fn handle(&self, request: &Request) -> Response {
        self.dispatch(request)
    }
}

fn client_fault(e: SoapError) -> SoapFault {
    SoapFault::client(e.to_string())
}

fn fault_response(fault: &SoapFault) -> Response {
    let body =
        serialize_fault_as(fault, |xml| Body::from(xml)).unwrap_or_else(|_| Body::from("<fault/>"));
    Response::new(
        Status::INTERNAL_SERVER_ERROR,
        wsrc_soap::envelope::CONTENT_TYPE,
        body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrc_model::typeinfo::{FieldDescriptor, FieldType};
    use wsrc_soap::serializer::serialize_request;

    struct Adder;

    impl SoapService for Adder {
        fn namespace(&self) -> &str {
            "urn:Adder"
        }
        fn operations(&self) -> Vec<OperationDescriptor> {
            vec![OperationDescriptor::new(
                "urn:Adder",
                "add",
                vec![
                    FieldDescriptor::new("a", FieldType::Int),
                    FieldDescriptor::new("b", FieldType::Int),
                ],
                FieldType::Int,
            )]
        }
        fn registry(&self) -> TypeRegistry {
            TypeRegistry::new()
        }
        fn call(&self, request: &RpcRequest) -> Result<Value, SoapFault> {
            let a = request.param("a").and_then(Value::as_int).unwrap_or(0);
            let b = request.param("b").and_then(Value::as_int).unwrap_or(0);
            a.checked_add(b)
                .map(Value::Int)
                .ok_or_else(|| SoapFault::server("integer overflow"))
        }
    }

    fn dispatcher() -> SoapDispatcher {
        SoapDispatcher::new().mount("/soap/adder", Arc::new(Adder))
    }

    fn soap_post(path: &str, xml: String) -> Request {
        Request::post(path, wsrc_soap::envelope::CONTENT_TYPE, xml.into_bytes())
    }

    #[test]
    fn routes_and_executes() {
        let d = dispatcher();
        let req = RpcRequest::new("urn:Adder", "add")
            .with_param("a", 2)
            .with_param("b", 3);
        let xml = serialize_request(&req, &TypeRegistry::new()).unwrap();
        let resp = d.handle(&soap_post("/soap/adder", xml));
        assert_eq!(resp.status, Status::OK);
        assert!(resp
            .body_text()
            .expect("soap bodies are utf-8")
            .contains(">5</return>"));
    }

    /// A fault quotes at most 64 characters of what it was sent: a
    /// request with a 1 MiB `<start>`, or a 1 MiB element name, gets a
    /// fault of a few hundred bytes, not of a megabyte.
    #[test]
    fn faults_quote_bounded_input() {
        let d = SoapDispatcher::new().mount(
            crate::google::PATH,
            Arc::new(crate::google::GoogleService::new()),
        );
        let huge = "9".repeat(1 << 20);
        let search = RpcRequest::new(crate::google::NAMESPACE, "doGoogleSearch")
            .with_param("key", "k")
            .with_param("q", "q")
            .with_param("start", huge.as_str());
        let bad_int = serialize_request(&search, &TypeRegistry::new()).unwrap();
        let long_name = format!("<{huge}></x>");
        for (xml, says) in [(bad_int, "invalid int value"), (long_name, "xml error")] {
            let resp = d.handle(&soap_post(crate::google::PATH, xml));
            assert_eq!(resp.status, Status::INTERNAL_SERVER_ERROR);
            let body = resp.body_text().expect("soap bodies are utf-8");
            assert!(body.contains(says), "{body}");
            assert!(body.contains("99…"), "{body}");
            assert!(body.len() < 1024, "a fault of {} bytes", body.len());
        }
    }

    #[test]
    fn unknown_paths_404() {
        let d = dispatcher();
        let resp = d.handle(&soap_post("/soap/nope", "<x/>".into()));
        assert_eq!(resp.status, Status::NOT_FOUND);
    }

    #[test]
    fn get_is_rejected() {
        let d = dispatcher();
        let resp = d.handle(&Request::get("/soap/adder"));
        assert_eq!(resp.status, Status::METHOD_NOT_ALLOWED);
    }

    #[test]
    fn malformed_envelopes_fault_with_client_code() {
        let d = dispatcher();
        let resp = d.handle(&soap_post("/soap/adder", "garbage".into()));
        assert_eq!(resp.status, Status::INTERNAL_SERVER_ERROR);
        assert!(resp
            .body_text()
            .expect("soap bodies are utf-8")
            .contains("soapenv:Client"));
    }

    /// A body that is not UTF-8 never reaches the request decoder, and
    /// no byte sequence makes the dispatcher panic.
    #[test]
    fn non_utf8_bodies_are_bad_requests() {
        let d = dispatcher();
        let req = RpcRequest::new("urn:Adder", "add")
            .with_param("a", 1)
            .with_param("b", 2);
        let mut body = serialize_request(&req, &TypeRegistry::new())
            .unwrap()
            .into_bytes();
        let at = body.len() / 2;
        for bad in [[0xff, 0xfe].as_slice(), &[0xc3], &[0xed, 0xa0, 0x80]] {
            let mut damaged = body.clone();
            damaged.splice(at..at, bad.iter().copied());
            let request = Request::post("/soap/adder", wsrc_soap::envelope::CONTENT_TYPE, damaged);
            assert_eq!(d.handle(&request).status, Status::BAD_REQUEST);
        }
        body.truncate(at);
        let truncated = d.handle(&Request::post(
            "/soap/adder",
            wsrc_soap::envelope::CONTENT_TYPE,
            body,
        ));
        assert_eq!(truncated.status, Status::INTERNAL_SERVER_ERROR);
        assert!(truncated.body_text().unwrap().contains("soapenv:Client"));
    }

    #[test]
    fn unknown_operations_fault() {
        let d = dispatcher();
        let req = RpcRequest::new("urn:Adder", "subtract").with_param("a", 1);
        let xml = serialize_request(&req, &TypeRegistry::new()).unwrap();
        let resp = d.handle(&soap_post("/soap/adder", xml));
        assert!(resp
            .body_text()
            .expect("soap bodies are utf-8")
            .contains("unknown operation"));
    }

    #[test]
    fn service_faults_are_serialized() {
        let d = dispatcher();
        let req = RpcRequest::new("urn:Adder", "add")
            .with_param("a", i32::MAX)
            .with_param("b", 1);
        let xml = serialize_request(&req, &TypeRegistry::new()).unwrap();
        let resp = d.handle(&soap_post("/soap/adder", xml));
        assert_eq!(resp.status, Status::INTERNAL_SERVER_ERROR);
        assert!(resp
            .body_text()
            .expect("soap bodies are utf-8")
            .contains("integer overflow"));
        assert!(resp
            .body_text()
            .expect("soap bodies are utf-8")
            .contains("soapenv:Server"));
    }

    #[test]
    fn validation_stamps_and_answers_conditionals() {
        let t0 = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000_000);
        let d = SoapDispatcher::new()
            .mount("/soap/adder", Arc::new(Adder))
            .with_validation(t0, Duration::from_secs(60));
        let req = RpcRequest::new("urn:Adder", "add")
            .with_param("a", 1)
            .with_param("b", 2);
        let xml = serialize_request(&req, &TypeRegistry::new()).unwrap();
        let resp = d.handle(&soap_post("/soap/adder", xml.clone()));
        assert_eq!(resp.status, Status::OK);
        let lm = resp
            .headers
            .get("Last-Modified")
            .expect("stamped")
            .to_string();
        assert!(resp
            .headers
            .get("Cache-Control")
            .unwrap()
            .contains("max-age=60"));
        // Conditional request with the same validator → 304, no body.
        let cond =
            soap_post("/soap/adder", xml.clone()).with_header("If-Modified-Since", lm.clone());
        let resp = d.handle(&cond);
        assert_eq!(resp.status, Status::NOT_MODIFIED);
        assert!(resp.body.is_empty());
        // Data changes → full response again.
        d.touch(t0 + Duration::from_secs(10));
        let resp = d.handle(&soap_post("/soap/adder", xml).with_header("If-Modified-Since", lm));
        assert_eq!(resp.status, Status::OK);
        assert!(resp
            .body_text()
            .expect("soap bodies are utf-8")
            .contains(">3</return>"));
    }

    /// Data that changes while a call runs: the response carries the
    /// validator read before the call, so revalidating with it fetches
    /// the change instead of a 304 for data the caller never saw.
    #[test]
    fn a_touch_during_the_call_is_not_stamped_on_its_response() {
        struct Bumping {
            version: std::sync::atomic::AtomicI32,
            dispatcher: std::sync::OnceLock<std::sync::Weak<SoapDispatcher>>,
            touched_at: SystemTime,
        }
        impl SoapService for Bumping {
            fn namespace(&self) -> &str {
                "urn:Adder"
            }
            fn operations(&self) -> Vec<OperationDescriptor> {
                Adder.operations()
            }
            fn registry(&self) -> TypeRegistry {
                TypeRegistry::new()
            }
            fn call(&self, _request: &RpcRequest) -> Result<Value, SoapFault> {
                let version = self
                    .version
                    .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if let Some(d) = self.dispatcher.get().and_then(std::sync::Weak::upgrade) {
                    d.touch(self.touched_at);
                }
                Ok(Value::Int(version))
            }
        }
        let t0 = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000_000);
        let service = Arc::new(Bumping {
            version: std::sync::atomic::AtomicI32::new(1),
            dispatcher: std::sync::OnceLock::new(),
            touched_at: t0 + Duration::from_secs(2),
        });
        let d = Arc::new(
            SoapDispatcher::new()
                .mount("/soap/adder", service.clone())
                .with_validation(t0, Duration::from_secs(60)),
        );
        service.dispatcher.set(Arc::downgrade(&d)).unwrap();
        let req = RpcRequest::new("urn:Adder", "add")
            .with_param("a", 1)
            .with_param("b", 2);
        let xml = serialize_request(&req, &TypeRegistry::new()).unwrap();
        let first = d.handle(&soap_post("/soap/adder", xml.clone()));
        let lm = first.headers.get("Last-Modified").expect("stamped");
        assert_eq!(lm, wsrc_http::date::format_http_date(t0));
        let cond = soap_post("/soap/adder", xml).with_header("If-Modified-Since", lm.to_string());
        let second = d.handle(&cond);
        assert_eq!(second.status, Status::OK, "the data changed after t0");
        assert!(second.body_text().unwrap().contains(">2</return>"));
    }

    #[test]
    fn query_strings_are_ignored_in_routing() {
        let d = dispatcher();
        let req = RpcRequest::new("urn:Adder", "add")
            .with_param("a", 1)
            .with_param("b", 1);
        let xml = serialize_request(&req, &TypeRegistry::new()).unwrap();
        let resp = d.handle(&soap_post("/soap/adder?debug=1", xml));
        assert_eq!(resp.status, Status::OK);
    }
}
