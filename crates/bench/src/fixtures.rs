//! Shared fixtures: the three Google operations of §5.1, exercised
//! through the real service and SOAP pipeline.

use wsrc_cache::repr::MissArtifacts;
use wsrc_model::typeinfo::{FieldType, TypeRegistry};
use wsrc_model::Value;
use wsrc_services::dispatch::SoapService;
use wsrc_services::google::{self, GoogleService};
use wsrc_soap::deserializer::read_response_bytes_recording;
use wsrc_soap::rpc::RpcRequest;
use wsrc_soap::serializer::serialize_response;
use wsrc_xml::event::SaxEventSequence;

/// The endpoint URL used in cache keys.
pub const ENDPOINT: &str = "http://api.google.test/search/beta2";

/// One of the paper's three benchmark operations, fully materialized:
/// request, response value, response XML and recorded SAX events.
pub struct OperationFixture {
    /// Paper row label ("Spelling Suggestion", …).
    pub label: &'static str,
    /// Operation name on the wire.
    pub operation: &'static str,
    /// The request (typical parameters).
    pub request: RpcRequest,
    /// The declared return type.
    pub return_type: FieldType,
    /// The response application object, as the client decodes it.
    pub value: Value,
    /// The response envelope XML.
    pub xml: String,
    /// The same XML as a shared byte buffer — what the transport's
    /// response body would hand the cache on a real miss.
    pub xml_bytes: std::sync::Arc<[u8]>,
    /// The SAX events recorded while parsing `xml`, shared as on the
    /// real miss path.
    pub events: std::sync::Arc<SaxEventSequence>,
}

impl OperationFixture {
    /// The artifacts a cache miss would hand to the cache.
    pub fn artifacts(&self) -> MissArtifacts<'_> {
        MissArtifacts {
            xml: &self.xml_bytes,
            events: &self.events,
            value: &self.value,
        }
    }
}

/// The service registry.
pub fn registry() -> TypeRegistry {
    google::registry()
}

/// Builds the three fixtures in paper column order (SpellingSuggestion,
/// CachedPage, GoogleSearch).
pub fn google_fixtures() -> Vec<OperationFixture> {
    let service = GoogleService::new();
    let registry = registry();
    let specs: Vec<(&'static str, &'static str, RpcRequest, FieldType)> = vec![
        (
            "Spelling Suggestion",
            "doSpellingSuggestion",
            RpcRequest::new(google::NAMESPACE, "doSpellingSuggestion")
                .with_param("key", "demo-key")
                .with_param("phrase", "distrubted web servces cahing"),
            FieldType::String,
        ),
        (
            "Cached Page",
            "doGetCachedPage",
            RpcRequest::new(google::NAMESPACE, "doGetCachedPage")
                .with_param("key", "demo-key")
                .with_param("url", "http://research.test/response-caching"),
            FieldType::Bytes,
        ),
        (
            "Google Search",
            "doGoogleSearch",
            RpcRequest::new(google::NAMESPACE, "doGoogleSearch")
                .with_param("key", "demo-key")
                .with_param("q", "web services response caching")
                .with_param("start", 0)
                .with_param("maxResults", 10)
                .with_param("filter", true)
                .with_param("restrict", "")
                .with_param("safeSearch", false)
                .with_param("lr", "")
                .with_param("ie", "utf-8")
                .with_param("oe", "utf-8"),
            FieldType::Struct("GoogleSearchResult".into()),
        ),
    ];
    specs
        .into_iter()
        .map(|(label, operation, request, return_type)| {
            let served = service.call(&request).expect("dummy service answers");
            let xml =
                serialize_response(google::NAMESPACE, operation, "return", &served, &registry)
                    .expect("serializable response");
            let (outcome, events) =
                read_response_bytes_recording(xml.as_bytes(), &return_type, &registry)
                    .expect("own output parses");
            // What a miss hands the cache is the tree the reader decoded
            // (a few blocks), not the one the service built (a block per
            // node and string).
            let value = outcome.into_return().expect("not a fault");
            assert_eq!(value, served);
            OperationFixture {
                label,
                operation,
                request,
                return_type,
                value,
                xml_bytes: std::sync::Arc::from(xml.as_bytes()),
                xml,
                events: std::sync::Arc::new(events),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_cover_the_three_shapes() {
        let f = google_fixtures();
        assert_eq!(f.len(), 3);
        assert!(f[0].value.as_str().is_some(), "small and simple");
        assert!(
            f[1].value.as_bytes().unwrap().len() > 3000,
            "large and simple"
        );
        let complex = f[2].value.as_struct().unwrap();
        assert_eq!(complex.type_name(), "GoogleSearchResult");
        // Response XML sizes roughly match Table 9: CachedPage and
        // GoogleSearch around 5 KB, SpellingSuggestion small.
        assert!(
            f[0].xml.len() < 1000,
            "spelling xml is {} bytes",
            f[0].xml.len()
        );
        assert!(
            (3000..12000).contains(&f[1].xml.len()),
            "page xml is {} bytes",
            f[1].xml.len()
        );
        assert!(
            (3000..10000).contains(&f[2].xml.len()),
            "search xml is {} bytes",
            f[2].xml.len()
        );
    }

    #[test]
    fn fixtures_are_deterministic() {
        let a = google_fixtures();
        let b = google_fixtures();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.xml, y.xml);
            assert_eq!(x.value, y.value);
        }
    }
}
