//! `Cache-Control` directives and conditional-request helpers.
//!
//! Paper §3.2: "In HTTP caching, the consistency is checked in accord with
//! HTTP headers like Cache-Control and If-Modified-Since. … this mechanism
//! in HTTP can be applied to our response caching in Web services." This
//! module provides exactly that surface: directive parsing for responses
//! and the `If-Modified-Since` / `304 Not Modified` handshake.

use crate::date::{format_http_date, parse_http_date};
use crate::message::{Request, Response};
use std::time::{Duration, SystemTime};

/// Parsed `Cache-Control` response directives (the subset relevant to
/// response caching).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheControl {
    /// `no-store` — the response must not be cached at all.
    pub no_store: bool,
    /// `no-cache` — cacheable but must be revalidated before reuse.
    pub no_cache: bool,
    /// `max-age=N` — freshness lifetime in seconds.
    pub max_age: Option<Duration>,
}

impl CacheControl {
    /// Parses a `Cache-Control` header value. Unknown directives are
    /// ignored, as HTTP requires.
    pub fn parse(value: &str) -> CacheControl {
        let mut cc = CacheControl::default();
        for directive in value.split(',') {
            let directive = directive.trim();
            let (name, arg) = match directive.split_once('=') {
                Some((n, a)) => (n.trim(), Some(a.trim().trim_matches('"'))),
                None => (directive, None),
            };
            if name.eq_ignore_ascii_case("no-store") {
                cc.no_store = true;
            } else if name.eq_ignore_ascii_case("no-cache") {
                cc.no_cache = true;
            } else if name.eq_ignore_ascii_case("max-age") {
                if let Some(secs) = arg.and_then(|a| a.parse::<u64>().ok()) {
                    cc.max_age = Some(Duration::from_secs(secs));
                }
            }
        }
        cc
    }

    /// Reads and parses the header from a response, defaulting to an
    /// empty directive set when absent.
    pub fn from_response(resp: &Response) -> CacheControl {
        resp.headers
            .get("Cache-Control")
            .map(CacheControl::parse)
            .unwrap_or_default()
    }

    /// Whether a cache may store this response.
    pub fn is_storable(&self) -> bool {
        !self.no_store
    }

    /// The freshness lifetime a client cache should apply, if the server
    /// stated one.
    pub fn freshness_lifetime(&self) -> Option<Duration> {
        if self.no_store || self.no_cache {
            return Some(Duration::ZERO);
        }
        self.max_age
    }

    /// Renders the directives back to a header value.
    pub fn to_header_value(&self) -> String {
        let mut parts = Vec::new();
        if self.no_store {
            parts.push("no-store".to_string());
        }
        if self.no_cache {
            parts.push("no-cache".to_string());
        }
        if let Some(age) = self.max_age {
            parts.push(format!("max-age={}", age.as_secs()));
        }
        parts.join(", ")
    }
}

/// Stamps `Last-Modified` (and optionally `Cache-Control: max-age`) on a
/// response, making it revalidatable.
pub fn stamp_validators(
    resp: Response,
    last_modified: SystemTime,
    max_age: Option<Duration>,
) -> Response {
    let mut resp = resp.with_header("Last-Modified", format_http_date(last_modified));
    if let Some(age) = max_age {
        resp = resp.with_header(
            "Cache-Control",
            CacheControl {
                max_age: Some(age),
                ..CacheControl::default()
            }
            .to_header_value(),
        );
    }
    resp
}

/// Adds `If-Modified-Since` to a request given the cached response's
/// `Last-Modified` value.
pub fn make_conditional(req: Request, cached: &Response) -> Request {
    match cached.headers.get("Last-Modified") {
        Some(lm) => req.with_header("If-Modified-Since", lm.to_string()),
        None => req,
    }
}

/// Server-side conditional check: should this request be answered with
/// `304 Not Modified` given the resource's last-modified time?
pub fn not_modified_since(req: &Request, last_modified: SystemTime) -> bool {
    let Some(ims) = req.headers.get("If-Modified-Since") else {
        return false;
    };
    let Ok(since) = parse_http_date(ims) else {
        return false;
    };
    // HTTP dates have second precision; truncate before comparing.
    let truncate = |t: SystemTime| {
        let secs = t
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap_or(Duration::ZERO)
            .as_secs();
        std::time::UNIX_EPOCH + Duration::from_secs(secs)
    };
    truncate(last_modified) <= truncate(since)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Status;
    use std::time::UNIX_EPOCH;
    use wsrc_obs::{Clock, SystemClock};

    /// Wall time via the injected clock.
    fn clock_now() -> SystemTime {
        UNIX_EPOCH + Duration::from_millis(SystemClock.now_millis())
    }

    #[test]
    fn parses_common_directives() {
        let cc = CacheControl::parse("no-cache, max-age=3600");
        assert!(cc.no_cache);
        assert!(!cc.no_store);
        assert_eq!(cc.max_age, Some(Duration::from_secs(3600)));
    }

    #[test]
    fn unknown_directives_are_ignored() {
        let cc = CacheControl::parse("private, stale-while-revalidate=30, max-age=5");
        assert_eq!(cc.max_age, Some(Duration::from_secs(5)));
    }

    #[test]
    fn case_and_quotes_are_tolerated() {
        let cc = CacheControl::parse("NO-STORE, Max-Age=\"60\"");
        assert!(cc.no_store);
        assert_eq!(cc.max_age, Some(Duration::from_secs(60)));
    }

    #[test]
    fn storability_and_freshness() {
        assert!(!CacheControl::parse("no-store").is_storable());
        assert_eq!(
            CacheControl::parse("no-cache").freshness_lifetime(),
            Some(Duration::ZERO)
        );
        assert_eq!(
            CacheControl::parse("max-age=10").freshness_lifetime(),
            Some(Duration::from_secs(10))
        );
        assert_eq!(CacheControl::parse("").freshness_lifetime(), None);
    }

    #[test]
    fn header_value_roundtrips() {
        let cc = CacheControl {
            no_store: false,
            no_cache: true,
            max_age: Some(Duration::from_secs(7)),
        };
        assert_eq!(CacheControl::parse(&cc.to_header_value()), cc);
    }

    #[test]
    fn conditional_handshake() {
        let t0 = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000);
        let resp = stamp_validators(
            Response::ok("text/xml", b"<r/>".to_vec()),
            t0,
            Some(Duration::from_secs(60)),
        );
        assert!(resp.headers.contains("Last-Modified"));
        assert!(CacheControl::from_response(&resp).max_age.is_some());

        let cond = make_conditional(Request::post("/svc", "text/xml", vec![]), &resp);
        assert!(cond.headers.contains("If-Modified-Since"));

        // Unchanged resource → 304.
        assert!(not_modified_since(&cond, t0));
        // Modified afterwards → full response.
        assert!(!not_modified_since(&cond, t0 + Duration::from_secs(61)));
        // Sub-second changes are invisible at HTTP date precision.
        assert!(not_modified_since(&cond, t0 + Duration::from_millis(400)));
    }

    #[test]
    fn requests_without_validators_never_304() {
        let req = Request::get("/x");
        assert!(!not_modified_since(&req, clock_now()));
        let bad = Request::get("/x").with_header("If-Modified-Since", "garbage");
        assert!(!not_modified_since(&bad, clock_now()));
    }

    #[test]
    fn make_conditional_without_last_modified_is_identity() {
        let cached = Response::new(Status::OK, "text/xml", vec![]);
        let req = make_conditional(Request::get("/x"), &cached);
        assert!(!req.headers.contains("If-Modified-Since"));
    }
}
