//! The portal web site: an HTTP handler whose pages are built from
//! back-end Web service results fetched through the caching client.

use std::fmt::Write;
use std::sync::Arc;
use wsrc_client::ServiceClient;
use wsrc_http::{Handler, Method, Request, Response, Status};
use wsrc_model::Value;
use wsrc_services::google;
use wsrc_soap::rpc::RpcRequest;
use wsrc_xml::escape::{escape_attribute_into, escape_text_into};

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

    /// The page, written into one buffer: text escaped in place, no
    /// string made per result.
    fn render(query: &str, result: &Value) -> String {
        let mut html = String::with_capacity(4096);
        html.push_str("<html><head><title>Portal search</title></head><body><h1>Results for ");
        escape_text_into(query, &mut html);
        html.push_str("</h1>");
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
        write!(html, "<p>about {estimated} results ({time:.6}s)</p><ol>")
            .expect("writing to a String cannot fail");
        if let Some(elements) = s.get("resultElements").and_then(Value::as_array) {
            for e in elements {
                let Some(e) = e.as_struct() else { continue };
                let url = e.get("URL").and_then(Value::as_str).unwrap_or("#");
                let title = e
                    .get("title")
                    .and_then(Value::as_str)
                    .unwrap_or("(untitled)");
                let snippet = e.get("snippet").and_then(Value::as_str).unwrap_or("");
                html.push_str("<li><a href=\"");
                escape_attribute_into(url, &mut html);
                html.push_str("\">");
                escape_text_into(title, &mut html);
                html.push_str("</a><br/>");
                // The snippet is HTML the service writes: its markup is
                // the service's, and the service escapes what it quotes.
                html.push_str(snippet);
                html.push_str("</li>");
            }
        }
        html.push_str("</ol></body></html>");
        html
    }
}

/// The value of parameter `key` in the query string of `target`: the
/// `&`-separated `name=value` pairs after the `?`, first match.
fn query_param<'t>(target: &'t str, key: &str) -> Option<&'t str> {
    let (_, query) = target.split_once('?')?;
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find_map(|(name, value)| (name == key).then_some(value))
}

impl Handler for PortalSite {
    fn handle(&self, request: &Request) -> Response {
        if request.method != Method::Get {
            return Response::error(Status::METHOD_NOT_ALLOWED, "GET only");
        }
        let query = query_param(&request.target, "q").unwrap_or("");
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

    fn page(p: &PortalSite, target: &str) -> (Status, String) {
        let resp = p.handle(&Request::get(target));
        let html = resp
            .body_text()
            .expect("portal pages are utf-8")
            .to_string();
        (resp.status, html)
    }

    /// The query is the `q` pair, not the first `q=` in the string.
    #[test]
    fn the_query_is_the_q_parameter_wherever_it_sits() {
        let p = portal();
        let (status, html) = page(&p, "/portal?seq=5&q=rust");
        assert_eq!(status, Status::OK);
        assert!(html.contains("<h1>Results for rust</h1>"), "{html}");
        for target in [
            "/portal?seq=5",
            "/portal?q",
            "/portal?faq=1&q=",
            "/portal?q&x=1",
        ] {
            assert_eq!(page(&p, target).0, Status::BAD_REQUEST, "{target}");
        }
        assert!(page(&p, "/portal?a=1&q=zig&q=zag")
            .1
            .contains("Results for zig"));
    }

    /// A query with markup is escaped everywhere the page shows it —
    /// the heading and each result's snippet, which the service builds.
    #[test]
    fn a_query_with_markup_is_never_reflected_raw() {
        let p = portal();
        let (status, html) = page(&p, "/portal?q=<script>alert(1)</script>");
        assert_eq!(status, Status::OK);
        assert!(!html.contains("<script>"), "{html}");
        assert_eq!(
            html.matches("&lt;script&gt;alert(1)&lt;/script&gt;")
                .count(),
            11
        );
        assert_eq!(
            html.matches("<b>").count(),
            10,
            "the service's own markup stays"
        );
    }
}
