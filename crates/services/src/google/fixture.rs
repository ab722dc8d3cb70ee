//! The paper's three benchmark operations (§5.1), each materialized once
//! through the real service and SOAP pipeline: request, response bytes,
//! decoded value and recorded SAX events. Every table, work count and
//! test that measures "the" spelling, page or search call measures
//! these bytes.

use super::{
    cached_page_request, operations, registry, search_request, spelling_request, GoogleService,
};
use crate::dispatch::SoapService;
use std::sync::Arc;
use wsrc_cache::repr::MissArtifacts;
use wsrc_model::typeinfo::FieldType;
use wsrc_model::Value;
use wsrc_soap::deserializer::read_response_bytes_recording;
use wsrc_soap::rpc::RpcRequest;
use wsrc_soap::serializer::serialize_response;
use wsrc_xml::event::SaxEventSequence;

/// One of the paper's three benchmark operations, fully materialized.
pub struct OperationFixture {
    /// Paper row label ("Spelling Suggestion", …).
    pub label: &'static str,
    /// The request.
    pub request: RpcRequest,
    /// The declared return type.
    pub return_type: FieldType,
    /// The response application object, as the client decodes it.
    pub value: Value,
    /// The response envelope, shared as the transport's response body
    /// would hand it to the cache on a real miss.
    pub xml: Arc<[u8]>,
    /// The SAX events recorded while reading `xml`, shared as on the
    /// real miss path.
    pub events: Arc<SaxEventSequence>,
}

impl OperationFixture {
    /// The artifacts a cache miss would hand to the cache.
    pub fn artifacts(&self) -> MissArtifacts<'_> {
        MissArtifacts {
            xml: &self.xml,
            events: &self.events,
            value: &self.value,
        }
    }
}

/// The three fixtures in paper column order: SpellingSuggestion,
/// CachedPage, GoogleSearch.
pub fn fixtures() -> Vec<OperationFixture> {
    let service = GoogleService::new();
    let registry = registry();
    [
        (
            "Spelling Suggestion",
            spelling_request("distrubted web servces cahing"),
        ),
        (
            "Cached Page",
            cached_page_request("http://research.test/response-caching"),
        ),
        (
            "Google Search",
            search_request("web services response caching"),
        ),
    ]
    .into_iter()
    .zip(operations())
    .map(|((label, request), operation)| {
        let return_type = operation.return_type;
        let served = service.call(&request).expect("dummy service answers");
        let xml = serialize_response(
            &operation.namespace,
            &operation.name,
            &operation.return_name,
            &served,
            &registry,
        )
        .expect("serializable response");
        let (outcome, events) =
            read_response_bytes_recording(xml.as_bytes(), &return_type, &registry)
                .expect("own output parses");
        // What a miss hands the cache is the tree the reader decoded (a
        // few blocks), not the one the service built (a block per node
        // and string).
        let value = outcome.into_return().expect("not a fault");
        assert_eq!(value, served);
        OperationFixture {
            label,
            request,
            return_type,
            value,
            xml: Arc::from(xml.into_bytes()),
            events: Arc::new(events),
        }
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_cover_the_three_shapes() {
        let f = fixtures();
        assert_eq!(f.len(), 3);
        assert!(f[0].value.as_str().is_some(), "small and simple");
        assert!(
            f[1].value.as_bytes().unwrap().len() > 3000,
            "large and simple"
        );
        let complex = f[2].value.as_struct().unwrap();
        assert_eq!(complex.type_name(), "GoogleSearchResult");
        // Response sizes follow Table 9's shape: SpellingSuggestion
        // small, CachedPage and GoogleSearch several kilobytes.
        let sizes: Vec<usize> = f.iter().map(|f| f.xml.len()).collect();
        assert!(sizes[0] < 1000, "{sizes:?}");
        assert!((3000..12000).contains(&sizes[1]), "{sizes:?}");
        assert!((3000..10000).contains(&sizes[2]), "{sizes:?}");
    }

    #[test]
    fn fixtures_are_deterministic() {
        for (x, y) in fixtures().iter().zip(&fixtures()) {
            assert_eq!(x.xml, y.xml);
            assert_eq!(x.value, y.value);
        }
    }
}
