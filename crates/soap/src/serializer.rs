//! Serialization of application objects into SOAP envelopes.

use crate::base64;
use crate::envelope::*;
use crate::error::SoapError;
use crate::fault::SoapFault;
use crate::rpc::RpcRequest;
use wsrc_model::typeinfo::TypeRegistry;
use wsrc_model::Value;
use wsrc_xml::XmlWriter;

/// Serializes an RPC request into a SOAP 1.1 envelope.
///
/// The registry supplies XML element names for struct fields; parameters
/// of unregistered struct types fall back to their field names.
///
/// # Errors
///
/// Propagates writer errors (which indicate a bug rather than bad input).
pub fn serialize_request(
    request: &RpcRequest,
    registry: &TypeRegistry,
) -> Result<String, SoapError> {
    let mut w = XmlWriter::with_declaration();
    start_envelope(&mut w)?;
    w.start(QN_BODY)?;
    w.start(format!("{PREFIX_SERVICE}:{}", request.operation))?;
    w.attr(QN_ENCODING_STYLE, SOAP_ENC_NS)?;
    w.namespace(PREFIX_SERVICE, &request.namespace)?;
    for (name, value) in &request.params {
        write_value(&mut w, name, value, registry)?;
    }
    w.end()?; // operation
    w.end()?; // Body
    w.end()?; // Envelope
    Ok(w.finish()?)
}

/// Serializes a normal RPC response (`<opResponse><return>…`).
///
/// # Errors
///
/// Propagates writer errors.
pub fn serialize_response(
    namespace: &str,
    operation: &str,
    return_name: &str,
    value: &Value,
    registry: &TypeRegistry,
) -> Result<String, SoapError> {
    let mut w = XmlWriter::with_declaration();
    start_envelope(&mut w)?;
    w.start(QN_BODY)?;
    w.start(format!("{PREFIX_SERVICE}:{}", response_wrapper(operation)))?;
    w.attr(QN_ENCODING_STYLE, SOAP_ENC_NS)?;
    w.namespace(PREFIX_SERVICE, namespace)?;
    write_value(&mut w, return_name, value, registry)?;
    w.end()?; // wrapper
    w.end()?; // Body
    w.end()?; // Envelope
    Ok(w.finish()?)
}

/// Serializes a fault envelope.
///
/// # Errors
///
/// Propagates writer errors.
pub fn serialize_fault(fault: &SoapFault) -> Result<String, SoapError> {
    let mut w = XmlWriter::with_declaration();
    start_envelope(&mut w)?;
    w.start(QN_BODY)?;
    w.start(QN_FAULT)?;
    w.element_with_text("faultcode", &fault.code)?;
    w.element_with_text("faultstring", &fault.string)?;
    if let Some(detail) = &fault.detail {
        w.element_with_text("detail", detail)?;
    }
    w.end()?; // Fault
    w.end()?; // Body
    w.end()?; // Envelope
    Ok(w.finish()?)
}

fn start_envelope(w: &mut XmlWriter) -> Result<(), SoapError> {
    w.start(QN_ENVELOPE)?;
    w.namespace(PREFIX_ENV, SOAP_ENV_NS)?;
    w.namespace(PREFIX_ENC, SOAP_ENC_NS)?;
    w.namespace(PREFIX_XSD, XSD_NS)?;
    w.namespace(PREFIX_XSI, XSI_NS)?;
    Ok(())
}

/// Writes one value as `<name xsi:type="…">…</name>` per SOAP encoding.
pub(crate) fn write_value(
    w: &mut XmlWriter,
    name: &str,
    value: &Value,
    registry: &TypeRegistry,
) -> Result<(), SoapError> {
    write_value_typed(w, name, value, registry, None)
}

/// Writes one value. When `declared` names the element's schema type, the
/// `xsi:type` attribute is omitted — schema-aware SOAP encoding: a reader
/// that knows the WSDL recovers the type from the descriptor, and the
/// paper-scale responses stay near their published byte sizes instead of
/// being dominated by per-element type annotations.
fn write_value_typed(
    w: &mut XmlWriter,
    name: &str,
    value: &Value,
    registry: &TypeRegistry,
    declared: Option<&wsrc_model::typeinfo::FieldType>,
) -> Result<(), SoapError> {
    use wsrc_model::typeinfo::FieldType;
    let known = declared.is_some();
    w.start(name)?;
    match value {
        Value::Null => {
            w.attr(QN_XSI_NIL, "true")?;
        }
        Value::Bool(b) => {
            if !known {
                w.attr(QN_XSI_TYPE, QN_XSD_BOOLEAN)?;
            }
            w.text(if *b { "true" } else { "false" })?;
        }
        Value::Int(i) => {
            if !known {
                w.attr(QN_XSI_TYPE, QN_XSD_INT)?;
            }
            w.text(i.to_string())?;
        }
        Value::Long(l) => {
            if !known {
                w.attr(QN_XSI_TYPE, QN_XSD_LONG)?;
            }
            w.text(l.to_string())?;
        }
        Value::Double(d) => {
            if !known {
                w.attr(QN_XSI_TYPE, QN_XSD_DOUBLE)?;
            }
            w.text(format_double(*d))?;
        }
        Value::String(s) => {
            if !known {
                w.attr(QN_XSI_TYPE, QN_XSD_STRING)?;
            }
            w.text(s.as_ref())?;
        }
        Value::Bytes(b) => {
            if !known {
                w.attr(QN_XSI_TYPE, QN_XSD_BASE64)?;
            }
            w.text(base64::encode(b))?;
        }
        Value::Array(items) => {
            let item_type = match declared {
                Some(FieldType::ArrayOf(inner)) => Some(inner.as_ref()),
                _ => None,
            };
            if item_type.is_none() {
                w.attr(QN_XSI_TYPE, QN_ENC_ARRAY)?;
                w.attr(
                    QN_ENC_ARRAY_TYPE,
                    format!("{PREFIX_XSD}:anyType[{}]", items.len()),
                )?;
            }
            for item in items.iter() {
                write_value_typed(w, "item", item, registry, item_type)?;
            }
        }
        Value::Struct(s) => {
            if !known {
                w.attr(QN_XSI_TYPE, format!("{PREFIX_SERVICE}:{}", s.type_name()))?;
            }
            let descriptor = registry.get(s.type_name());
            for (field_name, field_value) in s.fields() {
                let field = descriptor.and_then(|d| d.field(field_name));
                let xml_name = field.map(|f| &*f.xml_name).unwrap_or(field_name);
                write_value_typed(
                    w,
                    xml_name,
                    field_value,
                    registry,
                    field.map(|f| &f.field_type),
                )?;
            }
        }
    }
    w.end()?;
    Ok(())
}

/// Formats a double per XML Schema lexical rules (enough digits to
/// round-trip, `INF`/`-INF`/`NaN` spellings).
pub(crate) fn format_double(d: f64) -> String {
    if d.is_nan() {
        "NaN".to_string()
    } else if d == f64::INFINITY {
        "INF".to_string()
    } else if d == f64::NEG_INFINITY {
        "-INF".to_string()
    } else {
        format!("{d:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrc_model::value::StructValue;

    fn registry() -> TypeRegistry {
        use wsrc_model::typeinfo::{FieldDescriptor, FieldType, TypeDescriptor};
        TypeRegistry::builder()
            .register(TypeDescriptor::new(
                "Pt",
                vec![
                    FieldDescriptor::new("x", FieldType::Int),
                    FieldDescriptor::new("y", FieldType::Int),
                ],
            ))
            .build()
    }

    #[test]
    fn request_envelope_shape() {
        let req = RpcRequest::new("urn:GoogleSearch", "doSpellingSuggestion")
            .with_param("key", "k")
            .with_param("phrase", "hel lo");
        let xml = serialize_request(&req, &registry()).unwrap();
        assert!(xml.starts_with("<?xml version=\"1.0\" encoding=\"UTF-8\"?>"));
        assert!(xml.contains("<soapenv:Envelope"));
        assert!(xml.contains("xmlns:soapenv=\"http://schemas.xmlsoap.org/soap/envelope/\""));
        assert!(xml.contains("<ns1:doSpellingSuggestion"));
        assert!(xml.contains("xmlns:ns1=\"urn:GoogleSearch\""));
        assert!(xml.contains("<key xsi:type=\"xsd:string\">k</key>"));
        assert!(xml.contains("<phrase xsi:type=\"xsd:string\">hel lo</phrase>"));
    }

    #[test]
    fn response_envelope_shape() {
        let xml = serialize_response(
            "urn:GoogleSearch",
            "doSpellingSuggestion",
            "return",
            &Value::string("hello"),
            &registry(),
        )
        .unwrap();
        assert!(xml.contains("<ns1:doSpellingSuggestionResponse"));
        assert!(xml.contains("<return xsi:type=\"xsd:string\">hello</return>"));
    }

    #[test]
    fn all_scalars_serialize() {
        let req = RpcRequest::new("urn:t", "op")
            .with_param("b", true)
            .with_param("i", -5)
            .with_param("l", 5_000_000_000i64)
            .with_param("d", 2.5)
            .with_param("n", Value::Null)
            .with_param("raw", vec![1u8, 2, 3]);
        let xml = serialize_request(&req, &registry()).unwrap();
        assert!(xml.contains("<b xsi:type=\"xsd:boolean\">true</b>"));
        assert!(xml.contains("<i xsi:type=\"xsd:int\">-5</i>"));
        assert!(xml.contains("<l xsi:type=\"xsd:long\">5000000000</l>"));
        assert!(xml.contains("<d xsi:type=\"xsd:double\">2.5</d>"));
        assert!(xml.contains("<n xsi:nil=\"true\"/>"));
        assert!(xml.contains("<raw xsi:type=\"xsd:base64Binary\">AQID</raw>"));
    }

    #[test]
    fn arrays_and_structs_serialize() {
        let value = Value::Array(
            vec![
                Value::Struct(StructValue::new("Pt").with("x", 1).with("y", 2)),
                Value::Struct(StructValue::new("Pt").with("x", 3).with("y", 4)),
            ]
            .into(),
        );
        let xml = serialize_response("urn:t", "op", "return", &value, &registry()).unwrap();
        assert!(xml.contains("soapenc:arrayType=\"xsd:anyType[2]\""));
        // The array itself is untyped (top level), so items carry
        // xsi:type; fields of the registered Pt type do not.
        assert!(xml.contains("<item xsi:type=\"ns1:Pt\"><x>1</x>"), "{xml}");
    }

    #[test]
    fn fault_envelope_shape() {
        let xml = serialize_fault(&SoapFault::server("kaput").with_detail("d")).unwrap();
        assert!(xml.contains("<soapenv:Fault>"));
        assert!(xml.contains("<faultcode>soapenv:Server</faultcode>"));
        assert!(xml.contains("<faultstring>kaput</faultstring>"));
        assert!(xml.contains("<detail>d</detail>"));
    }

    #[test]
    fn text_is_escaped() {
        let req = RpcRequest::new("urn:t", "op").with_param("q", "<script>&\"");
        let xml = serialize_request(&req, &registry()).unwrap();
        assert!(xml.contains("&lt;script&gt;&amp;\""));
        // And the result is well-formed.
        assert!(wsrc_xml::Document::parse(&xml).is_ok());
    }

    #[test]
    fn special_doubles_use_xsd_lexicals() {
        assert_eq!(format_double(f64::NAN), "NaN");
        assert_eq!(format_double(f64::INFINITY), "INF");
        assert_eq!(format_double(f64::NEG_INFINITY), "-INF");
        assert_eq!(format_double(0.5), "0.5");
    }
}
