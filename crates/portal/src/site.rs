//! The portal web site: an HTTP handler whose pages are built from
//! back-end Web service results fetched through the caching client.

use std::sync::Arc;
use wsrc_client::ServiceClient;
use wsrc_http::{Handler, Method, Request, Response, Status};
use wsrc_model::Value;
use wsrc_services::google;
use wsrc_soap::rpc::RpcRequest;

/// The portal site handler. `GET /portal?q=<query>` renders an HTML page
/// of search results obtained via `doGoogleSearch` on the back-end.
pub struct PortalSite {
    client: Arc<ServiceClient>,
}

impl std::fmt::Debug for PortalSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PortalSite(backend={})", self.client.endpoint_url())
    }
}

impl PortalSite {
    /// Creates the portal over a configured (usually caching) client.
    pub fn new(client: Arc<ServiceClient>) -> Self {
        PortalSite { client }
    }

    /// The backing client (for inspecting cache statistics in tests).
    pub fn client(&self) -> &Arc<ServiceClient> {
        &self.client
    }

    fn search_request(query: &str) -> RpcRequest {
        RpcRequest::new(google::NAMESPACE, "doGoogleSearch")
            .with_param("key", "demo-key")
            .with_param("q", query)
            .with_param("start", 0)
            .with_param("maxResults", 10)
            .with_param("filter", true)
            .with_param("restrict", "")
            .with_param("safeSearch", false)
            .with_param("lr", "")
            .with_param("ie", "utf-8")
            .with_param("oe", "utf-8")
    }

    fn render(query: &str, result: &Value) -> String {
        let mut html = String::with_capacity(4096);
        html.push_str("<html><head><title>Portal search</title></head><body>");
        html.push_str(&format!(
            "<h1>Results for {}</h1>",
            wsrc_xml::escape::escape_text(query)
        ));
        let Some(s) = result.as_struct() else {
            html.push_str("<p>no results</p></body></html>");
            return html;
        };
        let estimated = s
            .get("estimatedTotalResultsCount")
            .and_then(Value::as_int)
            .unwrap_or(0);
        let time = s
            .get("searchTime")
            .and_then(Value::as_double)
            .unwrap_or(0.0);
        html.push_str(&format!(
            "<p>about {estimated} results ({time:.6}s)</p><ol>"
        ));
        if let Some(elements) = s.get("resultElements").and_then(Value::as_array) {
            for e in elements {
                let Some(e) = e.as_struct() else { continue };
                let url = e.get("URL").and_then(Value::as_str).unwrap_or("#");
                let title = e
                    .get("title")
                    .and_then(Value::as_str)
                    .unwrap_or("(untitled)");
                let snippet = e.get("snippet").and_then(Value::as_str).unwrap_or("");
                html.push_str(&format!(
                    "<li><a href=\"{}\">{}</a><br/>{}</li>",
                    wsrc_xml::escape::escape_attribute(url),
                    wsrc_xml::escape::escape_text(title),
                    snippet // snippet already carries markup from the service
                ));
            }
        }
        html.push_str("</ol></body></html>");
        html
    }
}

impl Handler for PortalSite {
    fn handle(&self, request: &Request) -> Response {
        if request.method != Method::Get {
            return Response::error(Status::METHOD_NOT_ALLOWED, "GET only");
        }
        let query = request
            .target
            .split_once("q=")
            .map(|(_, q)| q.split('&').next().unwrap_or(q))
            .unwrap_or("");
        if query.is_empty() {
            return Response::error(Status::BAD_REQUEST, "missing q parameter");
        }
        match self.client.invoke(&Self::search_request(query)) {
            Ok((handle, _disposition)) => {
                let html = Self::render(query, handle.as_value());
                Response::ok("text/html; charset=utf-8", html.into_bytes())
            }
            Err(e) => Response::error(
                Status::INTERNAL_SERVER_ERROR,
                &format!("backend error: {e}"),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrc_cache::ResponseCache;
    use wsrc_http::{InProcTransport, Url};
    use wsrc_services::google::GoogleService;
    use wsrc_services::SoapDispatcher;

    fn portal() -> PortalSite {
        let dispatcher = SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new()));
        let transport = Arc::new(InProcTransport::new(Arc::new(dispatcher)));
        let cache = Arc::new(
            ResponseCache::builder(google::registry())
                .policy(google::default_policy())
                .build(),
        );
        let client = Arc::new(
            ServiceClient::builder(Url::new("backend.test", 80, google::PATH), transport)
                .registry(google::registry())
                .operations(google::operations())
                .cache(cache)
                .build(),
        );
        PortalSite::new(client)
    }

    #[test]
    fn renders_search_results() {
        let p = portal();
        let resp = p.handle(&Request::get("/portal?q=rust+caching"));
        assert_eq!(resp.status, Status::OK);
        let html = resp
            .body_text()
            .expect("portal pages are utf-8")
            .to_string();
        assert!(html.contains("<h1>Results for rust+caching</h1>"), "{html}");
        assert!(html.matches("<li>").count() == 10, "ten result items");
    }

    #[test]
    fn repeat_queries_hit_the_cache() {
        let p = portal();
        p.handle(&Request::get("/portal?q=same"));
        p.handle(&Request::get("/portal?q=same"));
        let stats = p.client().cache().unwrap().stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn identical_html_from_hit_and_miss() {
        let p = portal();
        let first = p.handle(&Request::get("/portal?q=abc"));
        let second = p.handle(&Request::get("/portal?q=abc"));
        assert_eq!(first.body, second.body, "cache must be transparent");
    }

    #[test]
    fn bad_requests_are_rejected() {
        let p = portal();
        assert_eq!(
            p.handle(&Request::get("/portal")).status,
            Status::BAD_REQUEST
        );
        assert_eq!(
            p.handle(&Request::post("/portal?q=x", "text/plain", vec![]))
                .status,
            Status::METHOD_NOT_ALLOWED
        );
    }

    #[test]
    fn query_extraction_handles_extra_params() {
        let p = portal();
        let resp = p.handle(&Request::get("/portal?q=zig&page=2"));
        assert!(resp
            .body_text()
            .expect("portal pages are utf-8")
            .contains("Results for zig"));
    }
}
