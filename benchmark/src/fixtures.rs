//! The one fixture set: request builders and the spelling / cached-page
//! / search messages in every form a layer consumes (request, value,
//! response bytes, recorded events). The workloads, the traced pass and
//! the isolated calls all take their messages from here, so a layer row
//! and an end-to-end row describe the same messages.

use std::sync::Arc;
use wsrc_cache::repr::MissArtifacts;
use wsrc_http::Url;
use wsrc_model::typeinfo::{FieldType, TypeRegistry};
use wsrc_model::Value;
use wsrc_services::dispatch::SoapService;
use wsrc_services::google::{self, GoogleService};
use wsrc_soap::deserializer::read_response_bytes_recording;
use wsrc_soap::rpc::RpcRequest;
use wsrc_soap::serializer::{serialize_request, serialize_response};
use wsrc_xml::event::SaxEventSequence;

/// The key of the fixture the isolated calls run on.
pub const SHARED_KEY: &str = "response-caching";

/// Where the middleware believes the back end lives. Requests to it go
/// through an in-process transport, so the name is never resolved.
pub fn backend_url() -> Url {
    Url::new("backend.test", 80, google::PATH)
}

/// The three Google operations of the paper's §5.1, in its column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `doSpellingSuggestion`: small and simple.
    Spelling,
    /// `doGetCachedPage`: large and simple.
    Page,
    /// `doGoogleSearch`: large and complex.
    Search,
}

impl Op {
    pub const ALL: [Op; 3] = [Op::Spelling, Op::Page, Op::Search];

    pub fn name(self) -> &'static str {
        match self {
            Op::Spelling => "doSpellingSuggestion",
            Op::Page => "doGetCachedPage",
            Op::Search => "doGoogleSearch",
        }
    }

    pub fn return_type(self) -> FieldType {
        match self {
            Op::Spelling => FieldType::String,
            Op::Page => FieldType::Bytes,
            Op::Search => FieldType::Struct("GoogleSearchResult".into()),
        }
    }

    /// The request for `key`: the one parameter a key varies is the
    /// phrase, the URL or the query. The search request is the one
    /// `PortalSite` sends, so both paths share cache keys and truth.
    pub fn request(self, key: &str) -> RpcRequest {
        let r = RpcRequest::new(google::NAMESPACE, self.name()).with_param("key", "demo-key");
        match self {
            Op::Spelling => r.with_param("phrase", key),
            Op::Page => r.with_param("url", format!("http://pages.test/{key}")),
            Op::Search => r
                .with_param("q", key)
                .with_param("start", 0)
                .with_param("maxResults", 10)
                .with_param("filter", true)
                .with_param("restrict", "")
                .with_param("safeSearch", false)
                .with_param("lr", "")
                .with_param("ie", "utf-8")
                .with_param("oe", "utf-8"),
        }
    }
}

/// A key that is safe in a URL query, distinct per `(seed, space, i)`.
pub fn key(seed: u64, space: char, i: usize) -> String {
    format!("k{seed:x}{space}{i}")
}

/// The portal page path for a query.
pub fn portal_path(query: &str) -> String {
    format!("/portal?q={query}")
}

/// One operation's messages in every form.
pub struct Fixture {
    pub op: Op,
    pub request: RpcRequest,
    pub request_xml: String,
    pub return_type: FieldType,
    pub value: Value,
    pub xml: Arc<[u8]>,
    pub events: Arc<SaxEventSequence>,
}

impl Fixture {
    /// What a miss hands to the cache.
    pub fn artifacts(&self) -> MissArtifacts<'_> {
        MissArtifacts {
            xml: &self.xml,
            events: &self.events,
            value: &self.value,
        }
    }
}

/// The cache-less source of truth: the dummy service called directly.
pub struct Truth {
    service: GoogleService,
    registry: TypeRegistry,
}

impl Default for Truth {
    fn default() -> Self {
        Truth::new()
    }
}

impl Truth {
    pub fn new() -> Self {
        Truth {
            service: GoogleService::new(),
            registry: google::registry(),
        }
    }

    /// The value a miss must produce for `request`.
    pub fn value(&self, request: &RpcRequest) -> Value {
        self.service
            .call(request)
            .expect("the dummy service answers every well-formed request")
    }

    /// Builds every form of the messages for `(op, key)` through the real
    /// serializer and reader.
    pub fn fixture(&self, op: Op, key: &str) -> Fixture {
        let request = op.request(key);
        let return_type = op.return_type();
        let value = self.value(&request);
        let request_xml =
            serialize_request(&request, &self.registry).expect("fixture requests serialize");
        let xml = serialize_response(
            google::NAMESPACE,
            op.name(),
            "return",
            &value,
            &self.registry,
        )
        .expect("fixture responses serialize");
        let (outcome, events) =
            read_response_bytes_recording(xml.as_bytes(), &return_type, &self.registry)
                .expect("the reader accepts the serializer's output");
        assert_eq!(
            outcome.as_return(),
            Some(&value),
            "{} does not survive a round trip",
            op.name()
        );
        Fixture {
            op,
            request,
            request_xml,
            return_type,
            value,
            xml: Arc::from(xml.into_bytes()),
            events: Arc::new(events),
        }
    }
}

/// One line per operation: the sizes every row of the report is about.
pub fn describe_sizes() -> String {
    let truth = Truth::new();
    Op::ALL
        .iter()
        .map(|&op| {
            let f = truth.fixture(op, SHARED_KEY);
            format!(
                "fixture {:<21} request_xml={} B  response_xml={} B  events={} ({} B)  value_nodes={}",
                op.name(),
                f.request_xml.len(),
                f.xml.len(),
                f.events.len(),
                f.events.approximate_size(),
                f.value.node_count(),
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_three_shapes_of_the_paper() {
        let t = Truth::new();
        let spelling = t.fixture(Op::Spelling, SHARED_KEY);
        let page = t.fixture(Op::Page, SHARED_KEY);
        let search = t.fixture(Op::Search, SHARED_KEY);
        assert!(spelling.xml.len() < 1000);
        assert!(page.value.as_bytes().is_some_and(|b| b.len() > 3000));
        assert_eq!(
            search.value.as_struct().map(|s| s.type_name()),
            Some("GoogleSearchResult")
        );
        assert!((3000..12_000).contains(&search.xml.len()));
    }

    #[test]
    fn keys_are_distinct_and_url_safe() {
        let a = key(1, 'h', 5);
        assert_ne!(a, key(2, 'h', 5));
        assert_ne!(a, key(1, 'u', 5));
        assert_ne!(a, key(1, 'h', 6));
        assert!(a.bytes().all(|b| b.is_ascii_alphanumeric()));
    }

    #[test]
    fn distinct_keys_give_distinct_truth() {
        let t = Truth::new();
        for op in Op::ALL {
            assert_ne!(t.value(&op.request("a")), t.value(&op.request("b")));
        }
    }
}
