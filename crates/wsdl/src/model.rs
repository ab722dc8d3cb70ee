//! The WSDL 1.1 document model (pragmatic subset).
//!
//! Supported: one inline `<types>` schema of named complex types whose
//! fields are XSD scalars, other complex types, or arrays (expressed with
//! `maxOccurs="unbounded"`); request/response `<message>`s with typed
//! parts; one `<portType>`; one `<service>` with a SOAP address. This is
//! exactly the shape of the GoogleSearch.wsdl the paper's evaluation uses.

/// The XSD scalar types the stack maps to [`wsrc_model::Value`] variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XsdType {
    /// `xsd:string`.
    String,
    /// `xsd:int`.
    Int,
    /// `xsd:long`.
    Long,
    /// `xsd:double`.
    Double,
    /// `xsd:boolean`.
    Boolean,
    /// `xsd:base64Binary`.
    Base64Binary,
}

/// A reference to a type: scalar, named complex type, or array thereof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeRef {
    /// An XSD scalar.
    Xsd(XsdType),
    /// A named complex type from the inline schema.
    Complex(String),
    /// An array of the inner type.
    ArrayOf(Box<TypeRef>),
}

impl TypeRef {
    /// Convenience: `TypeRef::ArrayOf` of `self`.
    pub fn array(self) -> TypeRef {
        TypeRef::ArrayOf(Box::new(self))
    }
}

/// One element of a complex type's sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaField {
    /// Element name.
    pub name: String,
    /// Element type.
    pub type_ref: TypeRef,
}

impl SchemaField {
    /// Creates a field.
    pub fn new(name: impl Into<String>, type_ref: TypeRef) -> Self {
        SchemaField {
            name: name.into(),
            type_ref,
        }
    }
}

/// A named complex type (a sequence of typed elements).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComplexType {
    /// Type name.
    pub name: String,
    /// Sequence elements in order.
    pub fields: Vec<SchemaField>,
}

impl ComplexType {
    /// Creates a complex type.
    pub fn new(name: impl Into<String>, fields: Vec<SchemaField>) -> Self {
        ComplexType {
            name: name.into(),
            fields,
        }
    }
}

/// The inline `<types>` schema.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    /// Schema target namespace.
    pub target_namespace: String,
    /// Named complex types.
    pub types: Vec<ComplexType>,
}

impl Schema {
    /// Looks up a complex type by name.
    pub(crate) fn complex_type(&self, name: &str) -> Option<&ComplexType> {
        self.types.iter().find(|t| t.name == name)
    }
}

/// One typed part of a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Part {
    /// Part (parameter) name.
    pub name: String,
    /// Part type.
    pub type_ref: TypeRef,
}

impl Part {
    /// Creates a part.
    pub fn new(name: impl Into<String>, type_ref: TypeRef) -> Self {
        Part {
            name: name.into(),
            type_ref,
        }
    }
}

/// A `<message>`: a named list of typed parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Message name.
    pub name: String,
    /// Parts in declaration order.
    pub parts: Vec<Part>,
}

/// One `<operation>` inside a port type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WsdlOperation {
    /// Operation name.
    pub name: String,
    /// Name of the input message.
    pub input_message: String,
    /// Name of the output message.
    pub output_message: String,
}

/// A `<portType>`: the abstract interface.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PortType {
    /// Port type name.
    pub name: String,
    /// Operations in declaration order.
    pub operations: Vec<WsdlOperation>,
}

/// A `<service>` with its SOAP address.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Service {
    /// Service name.
    pub name: String,
    /// Port name.
    pub port_name: String,
    /// The `soap:address location` endpoint URL.
    pub endpoint_url: String,
}

/// A whole WSDL document.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Definitions {
    /// `definitions/@name`.
    pub name: String,
    /// Target namespace (also the service namespace for RPC calls).
    pub target_namespace: String,
    /// Inline schema.
    pub schema: Schema,
    /// Messages.
    pub messages: Vec<Message>,
    /// The port type.
    pub port_type: PortType,
    /// The service.
    pub service: Service,
}

impl Definitions {
    /// Looks up a message by name.
    pub fn message(&self, name: &str) -> Option<&Message> {
        self.messages.iter().find(|m| m.name == name)
    }

    /// Checks referential integrity: every operation's messages exist,
    /// every complex-type reference resolves.
    ///
    /// # Errors
    ///
    /// Returns a description of the first dangling reference.
    pub fn validate(&self) -> Result<(), String> {
        for op in &self.port_type.operations {
            for msg_name in [&op.input_message, &op.output_message] {
                let msg = self.message(msg_name).ok_or_else(|| {
                    format!(
                        "operation '{}' references missing message '{msg_name}'",
                        op.name
                    )
                })?;
                for part in &msg.parts {
                    self.check_type_ref(&part.type_ref).map_err(|t| {
                        format!(
                            "part '{}' of message '{msg_name}' references missing type '{t}'",
                            part.name
                        )
                    })?;
                }
            }
        }
        for ct in &self.schema.types {
            for field in &ct.fields {
                self.check_type_ref(&field.type_ref).map_err(|t| {
                    format!(
                        "field '{}' of type '{}' references missing type '{t}'",
                        field.name, ct.name
                    )
                })?;
            }
        }
        Ok(())
    }

    fn check_type_ref(&self, r: &TypeRef) -> Result<(), String> {
        match r {
            TypeRef::Xsd(_) => Ok(()),
            TypeRef::Complex(name) => {
                if self.schema.complex_type(name).is_some() {
                    Ok(())
                } else {
                    Err(name.clone())
                }
            }
            TypeRef::ArrayOf(inner) => self.check_type_ref(inner),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A miniature service used across the wsdl crate's tests.
    pub(crate) fn tiny_service() -> Definitions {
        Definitions {
            name: "TinySearch".into(),
            target_namespace: "urn:TinySearch".into(),
            schema: Schema {
                target_namespace: "urn:TinySearch".into(),
                types: vec![
                    ComplexType::new(
                        "Hit",
                        vec![
                            SchemaField::new("title", TypeRef::Xsd(XsdType::String)),
                            SchemaField::new("score", TypeRef::Xsd(XsdType::Double)),
                        ],
                    ),
                    ComplexType::new(
                        "SearchResult",
                        vec![
                            SchemaField::new("count", TypeRef::Xsd(XsdType::Int)),
                            SchemaField::new("hits", TypeRef::Complex("Hit".into()).array()),
                        ],
                    ),
                ],
            },
            messages: vec![
                Message {
                    name: "doSearchRequest".into(),
                    parts: vec![
                        Part::new("q", TypeRef::Xsd(XsdType::String)),
                        Part::new("max", TypeRef::Xsd(XsdType::Int)),
                    ],
                },
                Message {
                    name: "doSearchResponse".into(),
                    parts: vec![Part::new("return", TypeRef::Complex("SearchResult".into()))],
                },
            ],
            port_type: PortType {
                name: "TinySearchPort".into(),
                operations: vec![WsdlOperation {
                    name: "doSearch".into(),
                    input_message: "doSearchRequest".into(),
                    output_message: "doSearchResponse".into(),
                }],
            },
            service: Service {
                name: "TinySearchService".into(),
                port_name: "TinySearchPort".into(),
                endpoint_url: "http://tiny.test/soap".into(),
            },
        }
    }

    #[test]
    fn valid_document_validates() {
        assert_eq!(tiny_service().validate(), Ok(()));
    }

    #[test]
    fn dangling_message_is_caught() {
        let mut d = tiny_service();
        d.port_type.operations[0].output_message = "nope".into();
        assert!(d.validate().unwrap_err().contains("missing message 'nope'"));
    }

    #[test]
    fn dangling_type_is_caught() {
        let mut d = tiny_service();
        d.messages[1].parts[0].type_ref = TypeRef::Complex("Ghost".into());
        assert!(d.validate().unwrap_err().contains("missing type 'Ghost'"));
        let mut d2 = tiny_service();
        d2.schema.types[1].fields[1].type_ref = TypeRef::Complex("Ghost".into()).array();
        assert!(d2.validate().is_err());
    }

    #[test]
    fn lookups() {
        let d = tiny_service();
        assert!(d.message("doSearchRequest").is_some());
        assert!(d.message("x").is_none());
        assert!(d.schema.complex_type("Hit").is_some());
        assert!(d.schema.complex_type("x").is_none());
    }
}
