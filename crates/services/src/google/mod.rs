//! The dummy Google Web service — the paper's evaluation workload.
//!
//! Types, operations and the WSDL match the historical GoogleSearch API
//! the paper used (§5.1, Table 5):
//!
//! - `doSpellingSuggestion(key, phrase) → String` — small and simple.
//! - `doGetCachedPage(key, url) → base64` — large and simple.
//! - `doGoogleSearch(key, q, start, maxResults, filter, restrict,
//!   safeSearch, lr, ie, oe) → GoogleSearchResult` — large and complex:
//!   eleven fields, nine simple plus a `ResultElement[]` and a
//!   `DirectoryCategory[]`.

pub(crate) mod data;

use crate::dispatch::SoapService;
use data::Corpus;
use wsrc_model::typeinfo::{
    Capabilities, FieldDescriptor, FieldType, TypeDescriptor, TypeRegistry,
};
use wsrc_model::Value;
use wsrc_soap::rpc::{OperationDescriptor, RpcRequest};
use wsrc_soap::SoapFault;
use wsrc_wsdl::model as wm;

/// The service namespace.
pub const NAMESPACE: &str = "urn:GoogleSearch";
/// Conventional mount path on the dispatcher.
pub const PATH: &str = "/soap/google";

/// The type registry for the Google service, as the WSDL compiler would
/// generate it — with the paper's modification: "we modified the
/// GoogleSearchResult objects so that all of the methods could be
/// applied" (serializable, bean, deep clone, toString).
pub fn registry() -> TypeRegistry {
    crate::registry_of(crate::Service::Google, build_registry)
}

fn build_registry() -> TypeRegistry {
    let all = Capabilities::all();
    TypeRegistry::builder()
        .register(
            TypeDescriptor::new(
                "DirectoryCategory",
                vec![
                    FieldDescriptor::new("fullViewableName", FieldType::String),
                    FieldDescriptor::new("specialEncoding", FieldType::String),
                ],
            )
            .with_capabilities(all),
        )
        .register(
            TypeDescriptor::new(
                "ResultElement",
                vec![
                    FieldDescriptor::new("summary", FieldType::String),
                    FieldDescriptor::new("URL", FieldType::String),
                    FieldDescriptor::new("snippet", FieldType::String),
                    FieldDescriptor::new("title", FieldType::String),
                    FieldDescriptor::new("cachedSize", FieldType::String),
                    FieldDescriptor::new("relatedInformationPresent", FieldType::Bool),
                    FieldDescriptor::new("hostName", FieldType::String),
                    FieldDescriptor::new(
                        "directoryCategory",
                        FieldType::Struct("DirectoryCategory".into()),
                    ),
                    FieldDescriptor::new("directoryTitle", FieldType::String),
                    FieldDescriptor::new("language", FieldType::String),
                ],
            )
            .with_capabilities(all),
        )
        .register(
            TypeDescriptor::new(
                "GoogleSearchResult",
                vec![
                    FieldDescriptor::new("documentFiltering", FieldType::Bool),
                    FieldDescriptor::new("searchComments", FieldType::String),
                    FieldDescriptor::new("estimatedTotalResultsCount", FieldType::Int),
                    FieldDescriptor::new("estimateIsExact", FieldType::Bool),
                    FieldDescriptor::new(
                        "resultElements",
                        FieldType::ArrayOf(Box::new(FieldType::Struct("ResultElement".into()))),
                    ),
                    FieldDescriptor::new("searchQuery", FieldType::String),
                    FieldDescriptor::new("startIndex", FieldType::Int),
                    FieldDescriptor::new("endIndex", FieldType::Int),
                    FieldDescriptor::new("searchTips", FieldType::String),
                    FieldDescriptor::new(
                        "directoryCategories",
                        FieldType::ArrayOf(Box::new(FieldType::Struct("DirectoryCategory".into()))),
                    ),
                    FieldDescriptor::new("searchTime", FieldType::Double),
                ],
            )
            .with_capabilities(all),
        )
        .build()
}

/// The three operation descriptors (paper Table 5's parameter shapes).
pub fn operations() -> Vec<OperationDescriptor> {
    vec![
        OperationDescriptor::new(
            NAMESPACE,
            "doSpellingSuggestion",
            vec![
                FieldDescriptor::new("key", FieldType::String),
                FieldDescriptor::new("phrase", FieldType::String),
            ],
            FieldType::String,
        ),
        OperationDescriptor::new(
            NAMESPACE,
            "doGetCachedPage",
            vec![
                FieldDescriptor::new("key", FieldType::String),
                FieldDescriptor::new("url", FieldType::String),
            ],
            FieldType::Bytes,
        ),
        OperationDescriptor::new(
            NAMESPACE,
            "doGoogleSearch",
            vec![
                FieldDescriptor::new("key", FieldType::String),
                FieldDescriptor::new("q", FieldType::String),
                FieldDescriptor::new("start", FieldType::Int),
                FieldDescriptor::new("maxResults", FieldType::Int),
                FieldDescriptor::new("filter", FieldType::Bool),
                FieldDescriptor::new("restrict", FieldType::String),
                FieldDescriptor::new("safeSearch", FieldType::Bool),
                FieldDescriptor::new("lr", FieldType::String),
                FieldDescriptor::new("ie", FieldType::String),
                FieldDescriptor::new("oe", FieldType::String),
            ],
            FieldType::Struct("GoogleSearchResult".into()),
        ),
    ]
}

/// The paper's cache-policy for Google: "all the three operations in
/// Google Web services are cacheable" with a one-hour TTL (§3.2).
pub fn default_policy() -> wsrc_cache::CachePolicy {
    use std::time::Duration;
    use wsrc_cache::policy::{CachePolicy, OperationPolicy};
    CachePolicy::new()
        .with(
            "doSpellingSuggestion",
            OperationPolicy::cacheable(Duration::from_secs(3600)),
        )
        .with(
            "doGetCachedPage",
            OperationPolicy::cacheable(Duration::from_secs(3600)),
        )
        .with(
            "doGoogleSearch",
            OperationPolicy::cacheable(Duration::from_secs(3600)),
        )
}

/// The GoogleSearch WSDL document (authored in the model, emitted and
/// re-parsed in tests).
pub fn wsdl(endpoint_url: &str) -> wm::Definitions {
    use wm::{
        ComplexType, Message, Part, PortType, Schema, SchemaField, Service, TypeRef, WsdlOperation,
        XsdType,
    };
    let s = |x: XsdType| TypeRef::Xsd(x);
    wm::Definitions {
        name: "GoogleSearch".into(),
        target_namespace: NAMESPACE.into(),
        schema: Schema {
            target_namespace: NAMESPACE.into(),
            types: vec![
                ComplexType::new(
                    "DirectoryCategory",
                    vec![
                        SchemaField::new("fullViewableName", s(XsdType::String)),
                        SchemaField::new("specialEncoding", s(XsdType::String)),
                    ],
                ),
                ComplexType::new(
                    "ResultElement",
                    vec![
                        SchemaField::new("summary", s(XsdType::String)),
                        SchemaField::new("URL", s(XsdType::String)),
                        SchemaField::new("snippet", s(XsdType::String)),
                        SchemaField::new("title", s(XsdType::String)),
                        SchemaField::new("cachedSize", s(XsdType::String)),
                        SchemaField::new("relatedInformationPresent", s(XsdType::Boolean)),
                        SchemaField::new("hostName", s(XsdType::String)),
                        SchemaField::new(
                            "directoryCategory",
                            TypeRef::Complex("DirectoryCategory".into()),
                        ),
                        SchemaField::new("directoryTitle", s(XsdType::String)),
                        SchemaField::new("language", s(XsdType::String)),
                    ],
                ),
                ComplexType::new(
                    "GoogleSearchResult",
                    vec![
                        SchemaField::new("documentFiltering", s(XsdType::Boolean)),
                        SchemaField::new("searchComments", s(XsdType::String)),
                        SchemaField::new("estimatedTotalResultsCount", s(XsdType::Int)),
                        SchemaField::new("estimateIsExact", s(XsdType::Boolean)),
                        SchemaField::new(
                            "resultElements",
                            TypeRef::Complex("ResultElement".into()).array(),
                        ),
                        SchemaField::new("searchQuery", s(XsdType::String)),
                        SchemaField::new("startIndex", s(XsdType::Int)),
                        SchemaField::new("endIndex", s(XsdType::Int)),
                        SchemaField::new("searchTips", s(XsdType::String)),
                        SchemaField::new(
                            "directoryCategories",
                            TypeRef::Complex("DirectoryCategory".into()).array(),
                        ),
                        SchemaField::new("searchTime", s(XsdType::Double)),
                    ],
                ),
            ],
        },
        messages: vec![
            Message {
                name: "doSpellingSuggestion".into(),
                parts: vec![
                    Part::new("key", s(XsdType::String)),
                    Part::new("phrase", s(XsdType::String)),
                ],
            },
            Message {
                name: "doSpellingSuggestionResponse".into(),
                parts: vec![Part::new("return", s(XsdType::String))],
            },
            Message {
                name: "doGetCachedPage".into(),
                parts: vec![
                    Part::new("key", s(XsdType::String)),
                    Part::new("url", s(XsdType::String)),
                ],
            },
            Message {
                name: "doGetCachedPageResponse".into(),
                parts: vec![Part::new("return", s(XsdType::Base64Binary))],
            },
            Message {
                name: "doGoogleSearch".into(),
                parts: vec![
                    Part::new("key", s(XsdType::String)),
                    Part::new("q", s(XsdType::String)),
                    Part::new("start", s(XsdType::Int)),
                    Part::new("maxResults", s(XsdType::Int)),
                    Part::new("filter", s(XsdType::Boolean)),
                    Part::new("restrict", s(XsdType::String)),
                    Part::new("safeSearch", s(XsdType::Boolean)),
                    Part::new("lr", s(XsdType::String)),
                    Part::new("ie", s(XsdType::String)),
                    Part::new("oe", s(XsdType::String)),
                ],
            },
            Message {
                name: "doGoogleSearchResponse".into(),
                parts: vec![Part::new(
                    "return",
                    TypeRef::Complex("GoogleSearchResult".into()),
                )],
            },
        ],
        port_type: PortType {
            name: "GoogleSearchPort".into(),
            operations: vec![
                WsdlOperation {
                    name: "doSpellingSuggestion".into(),
                    input_message: "doSpellingSuggestion".into(),
                    output_message: "doSpellingSuggestionResponse".into(),
                },
                WsdlOperation {
                    name: "doGetCachedPage".into(),
                    input_message: "doGetCachedPage".into(),
                    output_message: "doGetCachedPageResponse".into(),
                },
                WsdlOperation {
                    name: "doGoogleSearch".into(),
                    input_message: "doGoogleSearch".into(),
                    output_message: "doGoogleSearchResponse".into(),
                },
            ],
        },
        service: Service {
            name: "GoogleSearchService".into(),
            port_name: "GoogleSearchPort".into(),
            endpoint_url: endpoint_url.into(),
        },
    }
}

/// The dummy Google service: deterministic synthetic responses.
#[derive(Debug, Default)]
pub struct GoogleService {
    corpus: Corpus,
}

impl GoogleService {
    /// A service with the default corpus parameters.
    pub fn new() -> Self {
        GoogleService::default()
    }
}

impl SoapService for GoogleService {
    fn namespace(&self) -> &str {
        NAMESPACE
    }

    fn operations(&self) -> Vec<OperationDescriptor> {
        operations()
    }

    fn registry(&self) -> TypeRegistry {
        registry()
    }

    fn call(&self, request: &RpcRequest) -> Result<Value, SoapFault> {
        let str_param = |name: &str| -> Result<&str, SoapFault> {
            request
                .param(name)
                .and_then(Value::as_str)
                .ok_or_else(|| SoapFault::client(format!("missing string parameter '{name}'")))
        };
        match request.operation.as_str() {
            "doSpellingSuggestion" => Ok(self.corpus.spelling_suggestion(str_param("phrase")?)),
            "doGetCachedPage" => Ok(Value::Bytes(
                self.corpus.cached_page(str_param("url")?).into(),
            )),
            "doGoogleSearch" => {
                let q = str_param("q")?;
                let start = request.param("start").and_then(Value::as_int).unwrap_or(0);
                let max = request
                    .param("maxResults")
                    .and_then(Value::as_int)
                    .unwrap_or(10);
                Ok(self.corpus.search_result(q, start, max))
            }
            other => Err(SoapFault::client(format!("unknown operation '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_paper_shape() {
        let r = registry();
        let gsr = r.get("GoogleSearchResult").unwrap();
        assert_eq!(gsr.fields.len(), 11);
        let simple = gsr
            .fields
            .iter()
            .filter(|f| !matches!(f.field_type, FieldType::ArrayOf(_)))
            .count();
        assert_eq!(simple, 9, "nine simple fields plus two arrays");
        let re = r.get("ResultElement").unwrap();
        assert_eq!(re.fields.len(), 10);
        let re_simple = re
            .fields
            .iter()
            .filter(|f| !matches!(f.field_type, FieldType::Struct(_)))
            .count();
        assert_eq!(
            re_simple, 9,
            "nine simple fields plus one DirectoryCategory"
        );
        let dc = r.get("DirectoryCategory").unwrap();
        assert_eq!(dc.fields.len(), 2);
        // The paper modified these types so every method applies.
        assert!(
            gsr.capabilities.cloneable && gsr.capabilities.serializable && gsr.capabilities.bean
        );
    }

    #[test]
    fn operations_match_table5_parameter_shapes() {
        let ops = operations();
        let spell = &ops[0];
        assert!(spell
            .params
            .iter()
            .all(|p| p.field_type == FieldType::String));
        assert_eq!(spell.params.len(), 2);
        let page = &ops[1];
        assert_eq!(page.params.len(), 2);
        assert_eq!(page.return_type, FieldType::Bytes);
        let search = &ops[2];
        let strings = search
            .params
            .iter()
            .filter(|p| p.field_type == FieldType::String)
            .count();
        let ints = search
            .params
            .iter()
            .filter(|p| p.field_type == FieldType::Int)
            .count();
        let bools = search
            .params
            .iter()
            .filter(|p| p.field_type == FieldType::Bool)
            .count();
        assert_eq!(
            (strings, ints, bools),
            (6, 2, 2),
            "String x6, int x2, boolean x2"
        );
    }

    #[test]
    fn service_answers_all_three_operations() {
        let svc = GoogleService::new();
        let spell = RpcRequest::new(NAMESPACE, "doSpellingSuggestion")
            .with_param("key", "k")
            .with_param("phrase", "helo wrld");
        assert!(svc.call(&spell).unwrap().as_str().is_some());

        let page = RpcRequest::new(NAMESPACE, "doGetCachedPage")
            .with_param("key", "k")
            .with_param("url", "http://example.test/page");
        let bytes = svc.call(&page).unwrap();
        assert!(bytes.as_bytes().unwrap().len() > 3000, "large and simple");

        let search = RpcRequest::new(NAMESPACE, "doGoogleSearch")
            .with_param("key", "k")
            .with_param("q", "distributed caching")
            .with_param("start", 0)
            .with_param("maxResults", 10)
            .with_param("filter", true)
            .with_param("restrict", "")
            .with_param("safeSearch", false)
            .with_param("lr", "")
            .with_param("ie", "utf-8")
            .with_param("oe", "utf-8");
        let result = svc.call(&search).unwrap();
        let s = result.as_struct().unwrap();
        assert_eq!(s.type_name(), "GoogleSearchResult");
        assert_eq!(
            s.get("resultElements").unwrap().as_array().unwrap().len(),
            10
        );
    }

    #[test]
    fn search_responses_conform_to_the_registry() {
        let svc = GoogleService::new();
        let search = RpcRequest::new(NAMESPACE, "doGoogleSearch")
            .with_param("key", "k")
            .with_param("q", "conformance")
            .with_param("start", 0)
            .with_param("maxResults", 10)
            .with_param("filter", true)
            .with_param("restrict", "")
            .with_param("safeSearch", false)
            .with_param("lr", "")
            .with_param("ie", "utf-8")
            .with_param("oe", "utf-8");
        let value = svc.call(&search).unwrap();
        wsrc_model::bean::validate(
            &value,
            &FieldType::Struct("GoogleSearchResult".into()),
            &registry(),
        )
        .expect("dummy responses must be well-typed beans");
    }

    #[test]
    fn responses_are_deterministic() {
        let svc = GoogleService::new();
        let req = RpcRequest::new(NAMESPACE, "doGoogleSearch")
            .with_param("key", "k")
            .with_param("q", "same query")
            .with_param("start", 0)
            .with_param("maxResults", 10)
            .with_param("filter", true)
            .with_param("restrict", "")
            .with_param("safeSearch", false)
            .with_param("lr", "")
            .with_param("ie", "utf-8")
            .with_param("oe", "utf-8");
        assert_eq!(svc.call(&req).unwrap(), svc.call(&req).unwrap());
    }

    #[test]
    fn missing_parameters_fault() {
        let svc = GoogleService::new();
        let bad = RpcRequest::new(NAMESPACE, "doSpellingSuggestion").with_param("key", "k");
        assert!(svc.call(&bad).is_err());
        let unknown = RpcRequest::new(NAMESPACE, "doTeleport");
        assert!(svc.call(&unknown).is_err());
    }

    #[test]
    fn wsdl_roundtrips_and_compiles_to_the_same_registry() {
        let defs = wsdl("http://google.test/soap/google");
        let xml = wsrc_wsdl::writer::write_wsdl(&defs).unwrap();
        let parsed = wsrc_wsdl::parser::parse_wsdl(&xml).unwrap();
        assert_eq!(parsed, defs);
        let compiled = wsrc_wsdl::compile(&parsed, wsrc_wsdl::CompileOptions::default()).unwrap();
        assert_eq!(compiled.namespace, NAMESPACE);
        assert_eq!(compiled.operations.len(), 3);
        // The compiled registry has the same field layout as the
        // hand-maintained one.
        let hand = registry();
        for name in ["GoogleSearchResult", "ResultElement", "DirectoryCategory"] {
            let a = compiled.registry.get(name).unwrap();
            let b = hand.get(name).unwrap();
            assert_eq!(a.fields, b.fields, "{name}");
        }
    }

    #[test]
    fn default_policy_caches_all_three() {
        let p = default_policy();
        for op in ["doSpellingSuggestion", "doGetCachedPage", "doGoogleSearch"] {
            assert!(p.for_operation(op).cacheable, "{op}");
        }
        assert!(!p.for_operation("somethingElse").cacheable);
    }
}
