//! RPC-style call model: requests, outcomes and operation descriptors.

use crate::fault::SoapFault;
use wsrc_model::typeinfo::{FieldDescriptor, FieldType};
use wsrc_model::Value;

/// One RPC invocation: operation, service namespace, named parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcRequest {
    /// Service namespace URI, e.g. `urn:GoogleSearch`.
    pub namespace: String,
    /// Operation (method) name, e.g. `doGoogleSearch`.
    pub operation: String,
    /// Parameters in call order.
    pub params: Vec<(String, Value)>,
}

impl RpcRequest {
    /// Creates a request with no parameters.
    pub fn new(namespace: impl Into<String>, operation: impl Into<String>) -> Self {
        RpcRequest {
            namespace: namespace.into(),
            operation: operation.into(),
            params: Vec::new(),
        }
    }

    /// Builder-style parameter appender.
    pub fn with_param(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.params.push((name.into(), value.into()));
        self
    }

    /// Looks a parameter up by name.
    pub fn param(&self, name: &str) -> Option<&Value> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// The result of an RPC exchange: a return value or a fault.
#[derive(Debug, Clone, PartialEq)]
pub enum RpcOutcome {
    /// Normal completion with the (possibly `Null`) return value.
    Return(Value),
    /// The server signalled a fault.
    Fault(SoapFault),
}

impl RpcOutcome {
    /// Unwraps the return value, turning faults into errors.
    ///
    /// # Errors
    ///
    /// Returns the fault as a [`crate::SoapError::Fault`].
    pub fn into_return(self) -> Result<Value, crate::SoapError> {
        match self {
            RpcOutcome::Return(v) => Ok(v),
            RpcOutcome::Fault(f) => Err(f.into()),
        }
    }

    /// The return value if this is a normal completion.
    pub fn as_return(&self) -> Option<&Value> {
        match self {
            RpcOutcome::Return(v) => Some(v),
            RpcOutcome::Fault(_) => None,
        }
    }
}

/// Static description of one service operation: the information a WSDL
/// `portType`/`binding` pair carries, used by the serializer (parameter
/// order/types), the deserializer (return type) and the server dispatcher.
#[derive(Debug, Clone, PartialEq)]
pub struct OperationDescriptor {
    /// Operation name.
    pub name: String,
    /// Service namespace URI.
    pub namespace: String,
    /// `SOAPAction` header value.
    pub soap_action: String,
    /// Declared parameters in call order.
    pub params: Vec<FieldDescriptor>,
    /// Declared return type.
    pub return_type: FieldType,
    /// Name of the return element (`return` by convention).
    pub return_name: String,
}

impl OperationDescriptor {
    /// Creates a descriptor with the conventional empty `SOAPAction` and
    /// `return` element name.
    pub fn new(
        namespace: impl Into<String>,
        name: impl Into<String>,
        params: Vec<FieldDescriptor>,
        return_type: FieldType,
    ) -> Self {
        let name = name.into();
        OperationDescriptor {
            soap_action: format!("urn:{name}"),
            name,
            namespace: namespace.into(),
            params,
            return_type,
            return_name: "return".into(),
        }
    }

    /// Looks up a parameter descriptor by name.
    pub fn param(&self, name: &str) -> Option<&FieldDescriptor> {
        self.params.iter().find(|p| &*p.name == name)
    }

    /// Validates that a request matches this descriptor (same operation,
    /// every declared parameter present).
    ///
    /// # Errors
    ///
    /// Returns an encoding error naming the first missing parameter.
    pub fn check_request(&self, request: &RpcRequest) -> Result<(), crate::SoapError> {
        if request.operation != self.name {
            return Err(crate::SoapError::encoding(format!(
                "request is for '{}', descriptor is '{}'",
                request.operation, self.name
            )));
        }
        for p in &self.params {
            if request.param(&p.name).is_none() {
                return Err(crate::SoapError::encoding(format!(
                    "missing parameter '{}' for operation '{}'",
                    p.name, self.name
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn descriptor() -> OperationDescriptor {
        OperationDescriptor::new(
            "urn:GoogleSearch",
            "doSpellingSuggestion",
            vec![
                FieldDescriptor::new("key", FieldType::String),
                FieldDescriptor::new("phrase", FieldType::String),
            ],
            FieldType::String,
        )
    }

    #[test]
    fn request_builder_and_lookup() {
        let r = RpcRequest::new("urn:GoogleSearch", "doSpellingSuggestion")
            .with_param("key", "k")
            .with_param("phrase", "helo wrld");
        assert_eq!(r.param("phrase").and_then(Value::as_str), Some("helo wrld"));
        assert!(r.param("missing").is_none());
    }

    #[test]
    fn outcome_unwrapping() {
        let ok = RpcOutcome::Return(Value::Int(1));
        assert_eq!(ok.as_return(), Some(&Value::Int(1)));
        assert_eq!(ok.into_return().unwrap(), Value::Int(1));
        let fault = RpcOutcome::Fault(SoapFault::server("x"));
        assert!(fault.as_return().is_none());
        assert!(fault.into_return().is_err());
    }

    #[test]
    fn check_request_validates_parameters() {
        let d = descriptor();
        let good = RpcRequest::new("urn:GoogleSearch", "doSpellingSuggestion")
            .with_param("key", "k")
            .with_param("phrase", "p");
        assert!(d.check_request(&good).is_ok());
        let missing =
            RpcRequest::new("urn:GoogleSearch", "doSpellingSuggestion").with_param("key", "k");
        assert!(d.check_request(&missing).is_err());
        let wrong_op = RpcRequest::new("urn:GoogleSearch", "doGoogleSearch");
        assert!(d.check_request(&wrong_op).is_err());
    }

    #[test]
    fn descriptor_defaults() {
        let d = descriptor();
        assert_eq!(d.soap_action, "urn:doSpellingSuggestion");
        assert_eq!(d.return_name, "return");
        assert!(d.param("key").is_some());
        assert!(d.param("zzz").is_none());
    }
}
