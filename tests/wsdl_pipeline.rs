//! WSDL pipeline integration: author → emit → parse → compile → call a
//! live service with the compiled artifacts, for both the Google WSDL and
//! a service defined only through WSDL.

use std::sync::Arc;
use wsrcache::client::ServiceClient;
use wsrcache::http::{InProcTransport, Url};
use wsrcache::model::typeinfo::TypeRegistry;
use wsrcache::model::Value;
use wsrcache::services::google::{self, GoogleService};
use wsrcache::services::{SoapDispatcher, SoapService};
use wsrcache::soap::rpc::{OperationDescriptor, RpcRequest};
use wsrcache::soap::SoapFault;
use wsrcache::wsdl::{compile, parser, writer, CompileOptions};

#[test]
fn google_wsdl_roundtrip_compile_and_call() {
    let defs = google::wsdl("http://google.test/soap/google");
    let xml = writer::write_wsdl(&defs).expect("emit");
    let parsed = parser::parse_wsdl(&xml).expect("parse");
    assert_eq!(parsed, defs);
    let compiled = compile(&parsed, CompileOptions::default()).expect("compile");

    // Call the dummy service using only compiled artifacts.
    let dispatcher = SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new()));
    let client = ServiceClient::builder(
        Url::new("google.test", 80, google::PATH),
        Arc::new(InProcTransport::new(Arc::new(dispatcher))),
    )
    .registry(compiled.registry.clone())
    .operations(compiled.operations.clone())
    .build();

    let search = RpcRequest::new(&compiled.namespace, "doGoogleSearch")
        .with_param("key", "k")
        .with_param("q", "wsdl pipeline")
        .with_param("start", 0)
        .with_param("maxResults", 5)
        .with_param("filter", false)
        .with_param("restrict", "")
        .with_param("safeSearch", false)
        .with_param("lr", "")
        .with_param("ie", "utf-8")
        .with_param("oe", "utf-8");
    let result = client.invoke_owned(&search).expect("typed call");
    let s = result.as_struct().expect("GoogleSearchResult");
    assert_eq!(
        s.get("resultElements")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(5)
    );
}

/// A service implemented directly against compiled WSDL artifacts — no
/// hand-written descriptors anywhere.
struct WsdlOnlyService {
    namespace: String,
    operations: Vec<OperationDescriptor>,
    registry: TypeRegistry,
}

impl SoapService for WsdlOnlyService {
    fn namespace(&self) -> &str {
        &self.namespace
    }
    fn operations(&self) -> Vec<OperationDescriptor> {
        self.operations.clone()
    }
    fn registry(&self) -> TypeRegistry {
        self.registry.clone()
    }
    fn call(&self, request: &RpcRequest) -> Result<Value, SoapFault> {
        match request.operation.as_str() {
            "doSearch" => {
                let q = request.param("q").and_then(Value::as_str).unwrap_or("");
                let max = request.param("max").and_then(Value::as_int).unwrap_or(0);
                let hits: Vec<Value> = (0..max)
                    .map(|i| {
                        Value::Struct(
                            wsrcache::model::StructValue::new("Hit")
                                .with("title", format!("{q} #{i}"))
                                .with("score", 1.0 / (i + 1) as f64),
                        )
                    })
                    .collect();
                Ok(Value::Struct(
                    wsrcache::model::StructValue::new("SearchResult")
                        .with("count", max)
                        .with("hits", hits),
                ))
            }
            other => Err(SoapFault::client(format!("unknown operation '{other}'"))),
        }
    }
}

#[test]
fn a_service_defined_only_by_wsdl_works_end_to_end() {
    use wsrcache::wsdl::{
        ComplexType, Definitions, Message, Part, PortType, Schema, SchemaField, Service, TypeRef,
        WsdlOperation, XsdType,
    };
    let defs = Definitions {
        name: "MiniSearch".into(),
        target_namespace: "urn:MiniSearch".into(),
        schema: Schema {
            target_namespace: "urn:MiniSearch".into(),
            types: vec![
                ComplexType::new(
                    "Hit",
                    vec![
                        SchemaField::new("title", TypeRef::Xsd(XsdType::String)),
                        SchemaField::new("score", TypeRef::Xsd(XsdType::Double)),
                    ],
                ),
                ComplexType::new(
                    "SearchResult",
                    vec![
                        SchemaField::new("count", TypeRef::Xsd(XsdType::Int)),
                        SchemaField::new("hits", TypeRef::Complex("Hit".into()).array()),
                    ],
                ),
            ],
        },
        messages: vec![
            Message {
                name: "doSearchIn".into(),
                parts: vec![
                    Part::new("q", TypeRef::Xsd(XsdType::String)),
                    Part::new("max", TypeRef::Xsd(XsdType::Int)),
                ],
            },
            Message {
                name: "doSearchOut".into(),
                parts: vec![Part::new("return", TypeRef::Complex("SearchResult".into()))],
            },
        ],
        port_type: PortType {
            name: "MiniSearchPort".into(),
            operations: vec![WsdlOperation {
                name: "doSearch".into(),
                input_message: "doSearchIn".into(),
                output_message: "doSearchOut".into(),
            }],
        },
        service: Service {
            name: "MiniSearchService".into(),
            port_name: "MiniSearchPort".into(),
            endpoint_url: "http://mini.test/soap".into(),
        },
    };
    // Emit → parse → compile, then build BOTH sides from the compilation.
    let compiled = compile(
        &parser::parse_wsdl(&writer::write_wsdl(&defs).unwrap()).unwrap(),
        CompileOptions::default(),
    )
    .unwrap();
    let service = WsdlOnlyService {
        namespace: compiled.namespace.clone(),
        operations: compiled.operations.clone(),
        registry: compiled.registry.clone(),
    };
    let dispatcher = SoapDispatcher::new().mount("/soap/mini", Arc::new(service));
    let client = ServiceClient::builder(
        Url::new("mini.test", 80, "/soap/mini"),
        Arc::new(InProcTransport::new(Arc::new(dispatcher))),
    )
    .registry(compiled.registry.clone())
    .operations(compiled.operations.clone())
    .build();

    let result = client
        .invoke_owned(
            &RpcRequest::new(&compiled.namespace, "doSearch")
                .with_param("q", "rust")
                .with_param("max", 3),
        )
        .expect("call through compiled artifacts");
    let s = result.as_struct().expect("SearchResult");
    assert_eq!(s.get("count"), Some(&Value::Int(3)));
    let hits = s.get("hits").and_then(Value::as_array).expect("hits array");
    assert_eq!(hits.len(), 3);
    assert_eq!(
        hits[0]
            .as_struct()
            .unwrap()
            .get("title")
            .and_then(Value::as_str),
        Some("rust #0")
    );
}
