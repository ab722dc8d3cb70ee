//! A dummy news Web service — the third back-end of the paper's
//! motivating portal scenario.

use crate::dispatch::SoapService;
use std::time::Duration;
use wsrc_cache::policy::{CachePolicy, OperationPolicy};
use wsrc_model::typeinfo::{FieldDescriptor, FieldType, TypeDescriptor, TypeRegistry};
use wsrc_model::value::Value;
use wsrc_soap::rpc::{OperationDescriptor, RpcRequest};
use wsrc_soap::SoapFault;

/// The service namespace.
pub const NAMESPACE: &str = "urn:NewsFeed";
/// Conventional mount path on the dispatcher.
pub const PATH: &str = "/soap/news";

/// Registry for headline responses.
pub fn registry() -> TypeRegistry {
    crate::registry_of(crate::Service::News, build_registry)
}

fn build_registry() -> TypeRegistry {
    TypeRegistry::builder()
        .register(TypeDescriptor::new(
            "Headline",
            vec![
                FieldDescriptor::new("title", FieldType::String),
                FieldDescriptor::new("source", FieldType::String),
                FieldDescriptor::new("ageMinutes", FieldType::Int),
                FieldDescriptor::new("url", FieldType::String),
            ],
        ))
        .build()
}

/// The single operation: `getHeadlines(topic, max)`.
pub fn operations() -> Vec<OperationDescriptor> {
    vec![OperationDescriptor::new(
        NAMESPACE,
        "getHeadlines",
        vec![
            FieldDescriptor::new("topic", FieldType::String),
            FieldDescriptor::new("max", FieldType::Int),
        ],
        FieldType::ArrayOf(Box::new(FieldType::Struct("Headline".into()))),
    )]
}

/// Headlines stay fresh for five minutes.
pub fn default_policy() -> CachePolicy {
    CachePolicy::new().with(
        "getHeadlines",
        OperationPolicy::cacheable(Duration::from_secs(300)),
    )
}

const SOURCES: [&str; 5] = [
    "wire.test",
    "daily.test",
    "herald.test",
    "gazette.test",
    "tribune.test",
];
const VERBS: [&str; 8] = [
    "announces",
    "ships",
    "delays",
    "acquires",
    "standardizes",
    "deprecates",
    "benchmarks",
    "caches",
];
const OBJECTS: [&str; 8] = [
    "new middleware",
    "response cache",
    "SOAP toolkit",
    "portal platform",
    "WSDL compiler",
    "XML accelerator",
    "interop profile",
    "web services suite",
];

/// The dummy news service.
#[derive(Debug, Default)]
pub struct NewsService;

impl NewsService {
    /// Creates the service.
    pub fn new() -> Self {
        NewsService
    }
}

impl SoapService for NewsService {
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
        if request.operation != "getHeadlines" {
            return Err(SoapFault::client(format!(
                "unknown operation '{}'",
                request.operation
            )));
        }
        let topic = request
            .param("topic")
            .and_then(Value::as_str)
            .ok_or_else(|| SoapFault::client("missing 'topic'"))?;
        let max = request
            .param("max")
            .and_then(Value::as_int)
            .unwrap_or(5)
            .clamp(0, 20);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in topic.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let types = registry();
        let headline = types.plan("Headline").expect("Headline is registered");
        let headlines: Vec<Value> = (0..max)
            .map(|i| {
                let k = h.wrapping_add(i as u64 * 0x9e37_79b9);
                let verb = VERBS[(k % VERBS.len() as u64) as usize];
                let object = OBJECTS[((k >> 8) % OBJECTS.len() as u64) as usize];
                let source = SOURCES[((k >> 16) % SOURCES.len() as u64) as usize];
                Value::Struct(headline.instantiate([
                    ("title", format!("{topic} {verb} {object}").into()),
                    ("source", source.into()),
                    ("ageMinutes", (((k >> 24) % 600) as i32).into()),
                    (
                        "url",
                        format!("http://{source}/story/{}", k % 100_000).into(),
                    ),
                ]))
            })
            .collect();
        Ok(Value::Array(headlines.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn headlines(topic: &str, max: i32) -> Vec<Value> {
        let svc = NewsService::new();
        let req = RpcRequest::new(NAMESPACE, "getHeadlines")
            .with_param("topic", topic)
            .with_param("max", max);
        svc.call(&req).unwrap().as_array().unwrap().to_vec()
    }

    #[test]
    fn headlines_are_deterministic_and_shaped() {
        assert_eq!(headlines("rust", 5), headlines("rust", 5));
        assert_ne!(headlines("rust", 5), headlines("java", 5));
        let hs = headlines("rust", 3);
        assert_eq!(hs.len(), 3);
        for h in &hs {
            let s = h.as_struct().unwrap();
            assert_eq!(s.type_name(), "Headline");
            assert!(s
                .get("title")
                .unwrap()
                .as_str()
                .unwrap()
                .starts_with("rust "));
            assert!(s
                .get("url")
                .unwrap()
                .as_str()
                .unwrap()
                .starts_with("http://"));
        }
    }

    #[test]
    fn max_is_clamped() {
        assert_eq!(headlines("t", 100).len(), 20);
        assert_eq!(headlines("t", -3).len(), 0);
    }

    #[test]
    fn bad_requests_fault() {
        let svc = NewsService::new();
        assert!(svc
            .call(&RpcRequest::new(NAMESPACE, "getHeadlines"))
            .is_err());
        assert!(svc.call(&RpcRequest::new(NAMESPACE, "publish")).is_err());
    }

    #[test]
    fn policy_is_five_minutes() {
        assert_eq!(
            default_policy().for_operation("getHeadlines").ttl,
            Duration::from_secs(300)
        );
    }
}
