//! The server side of the conditional-request handshake.
//!
//! Paper §3.2: "In HTTP caching, the consistency is checked in accord with
//! HTTP headers like Cache-Control and If-Modified-Since. … this mechanism
//! in HTTP can be applied to our response caching in Web services." A
//! back end stamps `Last-Modified` (and `Cache-Control: max-age`) on its
//! responses and answers `If-Modified-Since` with `304 Not Modified`;
//! the client middleware sends the stored `Last-Modified` back itself
//! and takes its lifetimes from the cache policy, so nothing here reads
//! `Cache-Control`.

use crate::date::{format_http_date, parse_http_date};
use crate::message::{Request, Response};
use std::time::{Duration, SystemTime};

/// Stamps `Last-Modified` (and optionally `Cache-Control: max-age`) on a
/// response, making it revalidatable.
pub fn stamp_validators(
    resp: Response,
    last_modified: SystemTime,
    max_age: Option<Duration>,
) -> Response {
    let mut resp = resp.with_header("Last-Modified", format_http_date(last_modified));
    if let Some(age) = max_age {
        resp = resp.with_header("Cache-Control", format!("max-age={}", age.as_secs()));
    }
    resp
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

    /// The instant the tests' resource was last modified.
    fn t0() -> SystemTime {
        SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000)
    }

    #[test]
    fn conditional_handshake() {
        let t0 = t0();
        let resp = stamp_validators(
            Response::ok("text/xml", b"<r/>".to_vec()),
            t0,
            Some(Duration::from_secs(60)),
        );
        assert_eq!(resp.headers.get("Cache-Control"), Some("max-age=60"));
        let stamped = resp.headers.get("Last-Modified").expect("stamped");

        let cond = Request::post("/svc", "text/xml", vec![])
            .with_header("If-Modified-Since", stamped.to_string());

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
        assert!(!not_modified_since(&req, t0()));
        let bad = Request::get("/x").with_header("If-Modified-Since", "garbage");
        assert!(!not_modified_since(&bad, t0()));
    }
}
