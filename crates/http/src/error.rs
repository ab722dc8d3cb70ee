//! Error type for the HTTP substrate.

use std::error::Error;
use std::fmt;
use std::io;

/// An error raised by the HTTP client, server or transport layer.
#[derive(Debug)]
pub enum HttpError {
    /// Underlying socket I/O failed.
    Io(io::Error),
    /// The peer sent a malformed message.
    Protocol(String),
    /// A URL could not be parsed.
    BadUrl(String),
    /// The server replied with an HTTP error status the caller did not
    /// expect (status code and reason carried along with the body text).
    Status {
        /// Response status code.
        code: u16,
        /// Reason phrase.
        reason: String,
        /// Response body, for diagnostics.
        body: String,
    },
    /// The operation exceeded its deadline.
    Timeout,
    /// A body was accessed as text but is not valid UTF-8. Raised by
    /// the strict accessors (`crate::Body::text`) that replaced the
    /// old lossy ones — bad bytes now fail loudly instead of being
    /// silently replaced before caching.
    BodyNotUtf8(std::str::Utf8Error),
}

impl HttpError {
    /// Convenience constructor for protocol violations.
    pub fn protocol(msg: impl Into<String>) -> Self {
        HttpError::Protocol(msg.into())
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::Protocol(m) => write!(f, "http protocol error: {m}"),
            HttpError::BadUrl(u) => write!(f, "invalid url: {u}"),
            HttpError::Status { code, reason, .. } => write!(f, "http status {code} {reason}"),
            HttpError::Timeout => f.write_str("http operation timed out"),
            HttpError::BodyNotUtf8(e) => write!(f, "body is not valid utf-8: {e}"),
        }
    }
}

impl Error for HttpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HttpError::Io(e) => Some(e),
            HttpError::BodyNotUtf8(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut {
            HttpError::Timeout
        } else {
            HttpError::Io(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(HttpError::protocol("bad line")
            .to_string()
            .contains("bad line"));
        assert!(HttpError::BadUrl("x".into())
            .to_string()
            .contains("invalid url"));
        let s = HttpError::Status {
            code: 500,
            reason: "Internal".into(),
            body: String::new(),
        };
        assert!(s.to_string().contains("500"));
        assert_eq!(HttpError::Timeout.to_string(), "http operation timed out");
        let utf8 = String::from_utf8(vec![0xff]).unwrap_err().utf8_error();
        assert!(HttpError::BodyNotUtf8(utf8)
            .to_string()
            .contains("not valid utf-8"));
    }

    #[test]
    fn timeouts_map_from_io() {
        let e: HttpError = io::Error::new(io::ErrorKind::TimedOut, "t").into();
        assert!(matches!(e, HttpError::Timeout));
        let e: HttpError = io::Error::new(io::ErrorKind::ConnectionReset, "r").into();
        assert!(matches!(e, HttpError::Io(_)));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync + Error>() {}
        assert_bounds::<HttpError>();
    }
}
