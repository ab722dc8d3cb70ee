//! The paper's motivating scenario (introduction): a portal page built
//! from three back-end Web services — search, stock quotes and news —
//! each behind its own caching client with its own TTL policy, served
//! over real TCP.
//!
//! ```text
//! cargo run --example multi_portal
//! ```

use std::sync::Arc;
use wsrcache::cache::ResponseCache;
use wsrcache::client::ServiceClient;
use wsrcache::http::{
    Handler, HttpClient, Method, Request, Response, Server, Status, Transport, Url,
};
use wsrcache::model::Value;
use wsrcache::services::google::{self, GoogleService};
use wsrcache::services::news::{self, NewsService};
use wsrcache::services::stock::{self, StockQuoteService};
use wsrcache::services::SoapDispatcher;
use wsrcache::soap::rpc::RpcRequest;

/// The aggregating portal. `GET /home?q=<query>&symbols=<s1,s2>&topic=<t>`
/// renders a page with search results, a ticker and headlines.
struct MultiPortal {
    search: Arc<ServiceClient>,
    quotes: Arc<ServiceClient>,
    headlines: Arc<ServiceClient>,
}

impl MultiPortal {
    fn param<'r>(request: &'r Request, name: &str) -> Option<&'r str> {
        let query = request.target.split_once('?')?.1;
        query
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
    }

    fn section_search(&self, q: &str, html: &mut String) -> Result<(), String> {
        let request = RpcRequest::new(google::NAMESPACE, "doGoogleSearch")
            .with_param("key", "portal")
            .with_param("q", q)
            .with_param("start", 0)
            .with_param("maxResults", 5)
            .with_param("filter", true)
            .with_param("restrict", "")
            .with_param("safeSearch", false)
            .with_param("lr", "")
            .with_param("ie", "utf-8")
            .with_param("oe", "utf-8");
        let (result, _) = self.search.invoke(&request).map_err(|e| e.to_string())?;
        html.push_str("<section id=\"search\"><h2>Search</h2><ul>");
        if let Some(elements) = result
            .as_value()
            .as_struct()
            .and_then(|s| s.get("resultElements"))
            .and_then(Value::as_array)
        {
            for e in elements {
                let title = e
                    .as_struct()
                    .and_then(|s| s.get("title"))
                    .and_then(Value::as_str)
                    .unwrap_or("(untitled)");
                html.push_str(&format!(
                    "<li>{}</li>",
                    wsrcache::xml::escape::escape_text(title)
                ));
            }
        }
        html.push_str("</ul></section>");
        Ok(())
    }

    fn section_quotes(&self, symbols: &str, html: &mut String) -> Result<(), String> {
        let request = RpcRequest::new(stock::NAMESPACE, "getQuotes").with_param("symbols", symbols);
        let (result, _) = self.quotes.invoke(&request).map_err(|e| e.to_string())?;
        html.push_str("<section id=\"ticker\"><h2>Quotes</h2><table>");
        if let Some(quotes) = result.as_value().as_array() {
            for q in quotes {
                let Some(q) = q.as_struct() else { continue };
                html.push_str(&format!(
                    "<tr><td>{}</td><td>{}</td><td>{}</td></tr>",
                    q.get("symbol").and_then(Value::as_str).unwrap_or("?"),
                    q.get("price").and_then(Value::as_double).unwrap_or(0.0),
                    q.get("change").and_then(Value::as_double).unwrap_or(0.0),
                ));
            }
        }
        html.push_str("</table></section>");
        Ok(())
    }

    fn section_news(&self, topic: &str, html: &mut String) -> Result<(), String> {
        let request = RpcRequest::new(news::NAMESPACE, "getHeadlines")
            .with_param("topic", topic)
            .with_param("max", 5);
        let (result, _) = self.headlines.invoke(&request).map_err(|e| e.to_string())?;
        html.push_str("<section id=\"news\"><h2>News</h2><ul>");
        if let Some(items) = result.as_value().as_array() {
            for h in items {
                let Some(h) = h.as_struct() else { continue };
                html.push_str(&format!(
                    "<li>{} <em>({})</em></li>",
                    wsrcache::xml::escape::escape_text(
                        h.get("title").and_then(Value::as_str).unwrap_or("")
                    ),
                    h.get("source").and_then(Value::as_str).unwrap_or("?"),
                ));
            }
        }
        html.push_str("</ul></section>");
        Ok(())
    }
}

impl Handler for MultiPortal {
    fn handle(&self, request: &Request) -> Response {
        if request.method != Method::Get {
            return Response::error(Status::METHOD_NOT_ALLOWED, "GET only");
        }
        let q = Self::param(request, "q").unwrap_or("web services");
        let symbols = Self::param(request, "symbols").unwrap_or("ibm,sun");
        let topic = Self::param(request, "topic").unwrap_or("technology");
        let mut html = String::with_capacity(4096);
        html.push_str("<html><head><title>Portal</title></head><body><h1>My portal</h1>");
        let sections = [
            self.section_search(q, &mut html),
            self.section_quotes(symbols, &mut html),
            self.section_news(topic, &mut html),
        ];
        html.push_str("</body></html>");
        for r in &sections {
            if let Err(e) = r {
                return Response::error(
                    Status::INTERNAL_SERVER_ERROR,
                    &format!("backend error: {e}"),
                );
            }
        }
        Response::ok("text/html; charset=utf-8", html.into_bytes())
    }
}

/// One caching client per back-end, each with the service's own policy.
fn portal(host: &str, port: u16, transport: Arc<dyn Transport>) -> MultiPortal {
    let make_client = |path: &str,
                       registry: wsrcache::model::TypeRegistry,
                       ops: Vec<wsrcache::soap::OperationDescriptor>,
                       policy: wsrcache::cache::CachePolicy| {
        let cache = Arc::new(
            ResponseCache::builder(registry.clone())
                .policy(policy)
                .build(),
        );
        Arc::new(
            ServiceClient::builder(Url::new(host, port, path), transport.clone())
                .registry(registry)
                .operations(ops)
                .cache(cache)
                .build(),
        )
    };
    MultiPortal {
        search: make_client(
            google::PATH,
            google::registry(),
            google::operations(),
            google::default_policy(),
        ),
        quotes: make_client(
            stock::PATH,
            stock::registry(),
            stock::operations(),
            stock::default_policy(),
        ),
        headlines: make_client(
            news::PATH,
            news::registry(),
            news::operations(),
            news::default_policy(),
        ),
    }
}

/// All three services behind one dispatcher.
fn backends() -> SoapDispatcher {
    SoapDispatcher::new()
        .mount(google::PATH, Arc::new(GoogleService::new()))
        .mount(stock::PATH, Arc::new(StockQuoteService::new()))
        .mount(news::PATH, Arc::new(NewsService::new()))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One back-end server hosting all three services.
    let backend = Server::bind("127.0.0.1:0", Arc::new(backends()))?;
    println!("back-end services on 127.0.0.1:{}", backend.port());

    let portal = portal("127.0.0.1", backend.port(), Arc::new(HttpClient::new()));
    let portal_server = Server::bind("127.0.0.1:0", Arc::new(portal))?;
    println!("portal on http://127.0.0.1:{}/home\n", portal_server.port());

    // Fetch the same page twice: the second render is served entirely
    // from the three response caches.
    let browser = HttpClient::new();
    let page_url = Url::new(
        "127.0.0.1",
        portal_server.port(),
        "/home?q=response+caching&symbols=ibm,sun,hp&topic=middleware",
    );
    for visit in 1..=2 {
        let t = std::time::Instant::now();
        let page = browser.get(&page_url)?;
        println!(
            "visit {visit}: {} ({} bytes, {:?}) — backend has served {} requests",
            page.status,
            page.body.len(),
            t.elapsed(),
            backend.requests_served(),
        );
        let html = page.body_text()?;
        for section in ["search", "ticker", "news"] {
            assert!(
                html.contains(&format!("<section id=\"{section}\">")),
                "{html}"
            );
        }
        assert_eq!(
            backend.requests_served(),
            3,
            "one miss per service, then hits"
        );
    }
    println!("\nthe second visit added no backend requests: all three sections were cache hits");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrcache::http::InProcTransport;

    fn portal() -> MultiPortal {
        let transport = InProcTransport::new(Arc::new(backends()));
        super::portal("backend.test", 80, Arc::new(transport))
    }

    #[test]
    fn page_aggregates_all_three_services() {
        let p = portal();
        let resp = p.handle(&Request::get(
            "/home?q=caching&symbols=ibm,sun&topic=middleware",
        ));
        assert_eq!(resp.status, Status::OK);
        let html = resp.body_text().expect("portal pages are utf-8");
        assert!(html.contains("<section id=\"search\">"), "{html}");
        assert!(html.contains("<section id=\"ticker\">"));
        assert!(html.contains("<section id=\"news\">"));
        assert!(html.contains("IBM"));
        assert!(html.contains("middleware "));
    }

    #[test]
    fn each_backend_has_its_own_cache() {
        let p = portal();
        p.handle(&Request::get("/home?q=a&symbols=ibm&topic=t"));
        p.handle(&Request::get("/home?q=a&symbols=ibm&topic=t"));
        for client in [&p.search, &p.quotes, &p.headlines] {
            let stats = client.cache().unwrap().stats();
            assert_eq!(stats.hits, 1, "{client:?}");
            assert_eq!(stats.misses, 1, "{client:?}");
        }
    }

    #[test]
    fn defaults_apply_when_params_missing() {
        let resp = portal().handle(&Request::get("/home"));
        assert_eq!(resp.status, Status::OK);
        assert!(resp
            .body_text()
            .expect("portal pages are utf-8")
            .contains("IBM"));
    }

    #[test]
    fn post_is_rejected() {
        let resp = portal().handle(&Request::post("/home", "text/plain", vec![]));
        assert_eq!(resp.status, Status::METHOD_NOT_ALLOWED);
    }
}
