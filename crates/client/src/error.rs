//! Error type for the client middleware.

use std::error::Error;
use std::fmt;

/// An error from a service invocation.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect, I/O, timeouts).
    Http(wsrc_http::HttpError),
    /// SOAP-level failure, including faults returned by the server.
    Soap(wsrc_soap::SoapError),
    /// The operation is not declared on this client.
    UnknownOperation(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Http(e) => write!(f, "{e}"),
            ClientError::Soap(e) => write!(f, "{e}"),
            ClientError::UnknownOperation(op) => write!(f, "unknown operation '{op}'"),
        }
    }
}

impl Error for ClientError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClientError::Http(e) => Some(e),
            ClientError::Soap(e) => Some(e),
            ClientError::UnknownOperation(_) => None,
        }
    }
}

impl From<wsrc_http::HttpError> for ClientError {
    fn from(e: wsrc_http::HttpError) -> Self {
        ClientError::Http(e)
    }
}

impl From<wsrc_soap::SoapError> for ClientError {
    fn from(e: wsrc_soap::SoapError) -> Self {
        ClientError::Soap(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_extraction() {
        let e: ClientError = wsrc_soap::SoapError::Fault(wsrc_soap::SoapFault::server("x")).into();
        assert!(matches!(
            e,
            ClientError::Soap(wsrc_soap::SoapError::Fault(_))
        ));
        let e: ClientError = wsrc_http::HttpError::Timeout.into();
        assert!(matches!(e, ClientError::Http(_)));
        assert!(ClientError::UnknownOperation("op".into())
            .to_string()
            .contains("op"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync + Error>() {}
        assert_bounds::<ClientError>();
    }
}
