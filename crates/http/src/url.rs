//! Minimal `http://` URL parsing — endpoint addresses for service calls.

use crate::error::HttpError;
use std::fmt;

/// A parsed `http://host[:port]/path` endpoint URL.
///
/// ```
/// use wsrc_http::Url;
/// # fn main() -> Result<(), wsrc_http::HttpError> {
/// let u: Url = "http://api.google.test:8080/search/beta2".parse()?;
/// assert_eq!(u.authority(), "api.google.test:8080");
/// assert_eq!(u.path(), "/search/beta2");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Url {
    host: String,
    port: u16,
    path: String,
}

impl Url {
    /// Parses an absolute `http://` URL.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError::BadUrl`] for non-HTTP schemes, empty hosts and
    /// unparsable ports.
    pub(crate) fn parse(s: &str) -> Result<Url, HttpError> {
        let rest = s
            .strip_prefix("http://")
            .ok_or_else(|| HttpError::BadUrl(format!("{s} (only http:// is supported)")))?;
        let (authority, path) = match rest.find('/') {
            Some(i) => (&rest[..i], rest[i..].to_string()),
            None => (rest, "/".to_string()),
        };
        let (host, port) = match authority.rsplit_once(':') {
            Some((h, p)) => {
                let port: u16 = p
                    .parse()
                    .map_err(|_| HttpError::BadUrl(format!("{s} (bad port '{p}')")))?;
                (h, port)
            }
            None => (authority, 80),
        };
        if host.is_empty() {
            return Err(HttpError::BadUrl(format!("{s} (empty host)")));
        }
        Ok(Url {
            host: host.to_string(),
            port,
            path,
        })
    }

    /// Builds a URL from parts; `path` must begin with `/`.
    pub fn new(host: impl Into<String>, port: u16, path: impl Into<String>) -> Url {
        let mut path = path.into();
        if !path.starts_with('/') {
            path.insert(0, '/');
        }
        Url {
            host: host.into(),
            port,
            path,
        }
    }

    /// Path, always beginning with `/`.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// `host:port`, suitable for `TcpStream::connect` and the Host header.
    pub fn authority(&self) -> String {
        format!("{}:{}", self.host, self.port)
    }

    /// Returns a copy with a different path.
    pub fn with_path(&self, path: impl Into<String>) -> Url {
        Url::new(self.host.clone(), self.port, path)
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.port == 80 {
            write!(f, "http://{}{}", self.host, self.path)
        } else {
            write!(f, "http://{}:{}{}", self.host, self.port, self.path)
        }
    }
}

impl std::str::FromStr for Url {
    type Err = HttpError;
    fn from_str(s: &str) -> Result<Url, HttpError> {
        Url::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_url() {
        let u = Url::parse("http://h:1234/a/b?q=1").unwrap();
        assert_eq!(u.path(), "/a/b?q=1");
        assert_eq!(u.authority(), "h:1234");
    }

    #[test]
    fn defaults_port_and_path() {
        let u = Url::parse("http://example.test").unwrap();
        assert_eq!(u.authority(), "example.test:80");
        assert_eq!(u.path(), "/");
        assert_eq!(u.to_string(), "http://example.test/");
    }

    #[test]
    fn display_roundtrips() {
        for s in ["http://a/x", "http://a:81/x", "http://a:81/"] {
            assert_eq!(Url::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn rejects_bad_urls() {
        assert!(Url::parse("https://secure.test/").is_err());
        assert!(Url::parse("ftp://x/").is_err());
        assert!(Url::parse("http://:80/").is_err());
        assert!(Url::parse("http://h:notaport/").is_err());
        assert!(Url::parse("not a url").is_err());
    }

    #[test]
    fn with_path_and_new_normalize() {
        let u = Url::new("h", 8080, "svc");
        assert_eq!(u.path(), "/svc");
        assert_eq!(u.with_path("/other").path(), "/other");
    }

    #[test]
    fn from_str_works_with_parse() {
        let u: Url = "http://h:9/p".parse().unwrap();
        assert_eq!(u.authority(), "h:9");
    }
}
