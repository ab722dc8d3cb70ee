//! Parses WSDL 1.1 XML (the subset [`crate::writer`] emits, which is the
//! common Axis rpc/encoded shape) back into [`Definitions`].

use crate::model::*;
use wsrc_xml::dom::{Document, Element};
use wsrc_xml::XmlError;

/// Parses a WSDL document.
///
/// # Errors
///
/// Returns XML errors for malformed documents and descriptive errors for
/// missing required sections or unresolvable type references.
pub fn parse_wsdl(xml: &str) -> Result<Definitions, XmlError> {
    let doc = Document::parse(xml)?;
    let root = &doc.root;
    if root.name.local_part() != "definitions" {
        return Err(XmlError::new("root element is not wsdl:definitions"));
    }
    let mut defs = Definitions {
        name: root.attribute("name").unwrap_or_default().to_string(),
        target_namespace: root
            .attribute("targetNamespace")
            .ok_or_else(|| XmlError::new("definitions lacks targetNamespace"))?
            .to_string(),
        ..Definitions::default()
    };

    for child in root.child_elements() {
        match child.name.local_part() {
            "types" => {
                if let Some(schema) = child
                    .child_elements()
                    .find(|e| e.name.local_part() == "schema")
                {
                    defs.schema = parse_schema(schema)?;
                }
            }
            "message" => defs.messages.push(parse_message(child)?),
            "portType" => defs.port_type = parse_port_type(child)?,
            "service" => defs.service = parse_service(child)?,
            // Binding details (rpc/encoded) are fixed in this subset.
            "binding" => {}
            _ => {}
        }
    }
    if defs.port_type.operations.is_empty() {
        return Err(XmlError::new("portType has no operations"));
    }
    defs.validate().map_err(XmlError::new)?;
    Ok(defs)
}

fn parse_schema(schema: &Element) -> Result<Schema, XmlError> {
    let mut out = Schema {
        target_namespace: schema
            .attribute("targetNamespace")
            .unwrap_or_default()
            .to_string(),
        types: Vec::new(),
    };
    for ct in schema
        .child_elements()
        .filter(|e| e.name.local_part() == "complexType")
    {
        let name = ct
            .attribute("name")
            .ok_or_else(|| XmlError::new("complexType lacks a name"))?
            .to_string();
        let mut fields = Vec::new();
        if let Some(seq) = ct
            .child_elements()
            .find(|e| e.name.local_part() == "sequence")
        {
            for el in seq
                .child_elements()
                .filter(|e| e.name.local_part() == "element")
            {
                let fname = el
                    .attribute("name")
                    .ok_or_else(|| XmlError::new(format!("element in '{name}' lacks a name")))?;
                let tref =
                    parse_type_attr(el.attribute("type").ok_or_else(|| {
                        XmlError::new(format!("element '{fname}' lacks a type"))
                    })?)?;
                let tref = if el.attribute("maxOccurs").map(|m| m != "1").unwrap_or(false) {
                    tref.array()
                } else {
                    tref
                };
                fields.push(SchemaField::new(fname, tref));
            }
        }
        out.types.push(ComplexType::new(name, fields));
    }
    Ok(out)
}

fn parse_message(msg: &Element) -> Result<Message, XmlError> {
    let name = msg
        .attribute("name")
        .ok_or_else(|| XmlError::new("message lacks a name"))?
        .to_string();
    let mut parts = Vec::new();
    for part in msg
        .child_elements()
        .filter(|e| e.name.local_part() == "part")
    {
        let pname = part
            .attribute("name")
            .ok_or_else(|| XmlError::new(format!("part in message '{name}' lacks a name")))?;
        let tref = parse_type_attr(
            part.attribute("type")
                .ok_or_else(|| XmlError::new(format!("part '{pname}' lacks a type")))?,
        )?;
        parts.push(Part::new(pname, tref));
    }
    Ok(Message { name, parts })
}

fn parse_port_type(pt: &Element) -> Result<PortType, XmlError> {
    let name = pt
        .attribute("name")
        .ok_or_else(|| XmlError::new("portType lacks a name"))?
        .to_string();
    let mut operations = Vec::new();
    for op in pt
        .child_elements()
        .filter(|e| e.name.local_part() == "operation")
    {
        let op_name = op
            .attribute("name")
            .ok_or_else(|| XmlError::new("operation lacks a name"))?
            .to_string();
        let msg_of = |kind: &str| -> Result<String, XmlError> {
            let el = op
                .child_elements()
                .find(|e| e.name.local_part() == kind)
                .ok_or_else(|| XmlError::new(format!("operation '{op_name}' lacks {kind}")))?;
            let m = el
                .attribute("message")
                .ok_or_else(|| XmlError::new(format!("{kind} of '{op_name}' lacks message")))?;
            Ok(strip_prefix(m).to_string())
        };
        operations.push(WsdlOperation {
            name: op_name.clone(),
            input_message: msg_of("input")?,
            output_message: msg_of("output")?,
        });
    }
    Ok(PortType { name, operations })
}

fn parse_service(svc: &Element) -> Result<Service, XmlError> {
    let name = svc
        .attribute("name")
        .ok_or_else(|| XmlError::new("service lacks a name"))?
        .to_string();
    let port = svc
        .child_elements()
        .find(|e| e.name.local_part() == "port")
        .ok_or_else(|| XmlError::new(format!("service '{name}' has no port")))?;
    let port_name = port.attribute("name").unwrap_or_default().to_string();
    let address = port
        .child_elements()
        .find(|e| e.name.local_part() == "address")
        .and_then(|a| a.attribute("location"))
        .unwrap_or_default()
        .to_string();
    Ok(Service {
        name,
        port_name,
        endpoint_url: address,
    })
}

fn parse_type_attr(attr: &str) -> Result<TypeRef, XmlError> {
    if let Some(inner) = attr.strip_suffix("[]") {
        return Ok(parse_type_attr(inner)?.array());
    }
    let local = strip_prefix(attr);
    if attr.starts_with("xsd:") || attr.starts_with("xs:") {
        XsdType::parse(local)
            .map(TypeRef::Xsd)
            .ok_or_else(|| XmlError::new(format!("unsupported xsd type '{attr}'")))
    } else {
        Ok(TypeRef::Complex(local.to_string()))
    }
}

fn strip_prefix(qname: &str) -> &str {
    qname.split_once(':').map(|(_, l)| l).unwrap_or(qname)
}

/// Shared fixture for the wsdl crate's tests (the `TinySearch` service).
#[cfg(test)]
pub(crate) fn tests_fixture() -> Definitions {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::write_wsdl;

    #[test]
    fn write_parse_roundtrip_is_identity() {
        let original = tests_fixture();
        let xml = write_wsdl(&original).unwrap();
        let parsed = parse_wsdl(&xml).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(parse_wsdl("<notwsdl/>").is_err());
        assert!(parse_wsdl("<<<").is_err());
        assert!(parse_wsdl(
            "<wsdl:definitions xmlns:wsdl=\"w\" targetNamespace=\"t\"></wsdl:definitions>"
        )
        .is_err()); // no operations
    }

    #[test]
    fn missing_target_namespace_is_rejected() {
        assert!(parse_wsdl("<definitions/>").is_err());
    }

    #[test]
    fn dangling_references_fail_validation() {
        let mut d = tests_fixture();
        d.messages.remove(1);
        let xml = write_wsdl(&d).unwrap();
        let err = parse_wsdl(&xml).unwrap_err();
        assert!(err.to_string().contains("missing message"), "{err}");
    }

    #[test]
    fn type_attr_forms() {
        assert_eq!(
            parse_type_attr("xsd:int").unwrap(),
            TypeRef::Xsd(XsdType::Int)
        );
        assert_eq!(
            parse_type_attr("tns:Hit").unwrap(),
            TypeRef::Complex("Hit".into())
        );
        assert_eq!(
            parse_type_attr("tns:Hit[]").unwrap(),
            TypeRef::Complex("Hit".into()).array()
        );
        assert!(parse_type_attr("xsd:duration").is_err());
    }
}
