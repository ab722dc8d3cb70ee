//! SOAP 1.1 faults.

use std::fmt;

/// A SOAP 1.1 fault, as carried in `<soapenv:Fault>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoapFault {
    /// `faultcode`, e.g. `soapenv:Server` or `soapenv:Client`.
    pub code: String,
    /// `faultstring` — human-readable explanation.
    pub string: String,
    /// Optional `detail` text.
    pub detail: Option<String>,
}

impl SoapFault {
    /// A `Server` fault (problem processing the call).
    pub fn server(message: impl Into<String>) -> Self {
        SoapFault {
            code: "soapenv:Server".into(),
            string: message.into(),
            detail: None,
        }
    }

    /// A `Client` fault (malformed or unsupported request).
    pub fn client(message: impl Into<String>) -> Self {
        SoapFault {
            code: "soapenv:Client".into(),
            string: message.into(),
            detail: None,
        }
    }

    /// Builder-style detail setter.
    pub fn with_detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = Some(detail.into());
        self
    }
}

impl fmt::Display for SoapFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.string)?;
        if let Some(d) = &self.detail {
            write!(f, " ({d})")?;
        }
        Ok(())
    }
}

impl std::error::Error for SoapFault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_display() {
        let f = SoapFault::server("backend died").with_detail("stack trace");
        assert_eq!(f.code, "soapenv:Server");
        assert_eq!(f.to_string(), "soapenv:Server: backend died (stack trace)");
        let c = SoapFault::client("no such operation");
        assert_eq!(c.code, "soapenv:Client");
        assert_eq!(c.to_string(), "soapenv:Client: no such operation");
    }
}
