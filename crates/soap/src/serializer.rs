//! Serialization of application objects into SOAP envelopes.

use crate::base64;
use crate::envelope::*;
use crate::error::SoapError;
use crate::fault::SoapFault;
use crate::rpc::RpcRequest;
use std::sync::Arc;
use wsrc_model::typeinfo::{Kind, StructPlan, TypeRegistry};
use wsrc_model::Value;
use wsrc_xml::escape::escape_attribute_into;
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
    serialize_request_as(request, registry, str::to_string)
}

/// [`serialize_request`], handing the finished envelope to `make`,
/// which builds what outlives the call from it in one allocation — the
/// `String`, or the shared bytes of an HTTP body. The envelope itself is
/// written in the thread's scratch ([`XmlWriter`]).
///
/// # Errors
///
/// Same conditions as [`serialize_request`].
pub fn serialize_request_as<T>(
    request: &RpcRequest,
    registry: &TypeRegistry,
    make: impl FnOnce(&str) -> T,
) -> Result<T, SoapError> {
    let mut w = XmlWriter::with_declaration();
    start_envelope(&mut w)?;
    w.start(QN_BODY)?;
    start_operation(&mut w, &request.operation, "", &request.namespace)?;
    for (name, value) in &request.params {
        write_value(&mut w, name, value, registry, None)?;
    }
    w.end()?; // operation
    w.end()?; // Body
    w.end()?; // Envelope
    Ok(w.finish_with(make)?)
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
    serialize_response_as(
        namespace,
        operation,
        return_name,
        value,
        registry,
        str::to_string,
    )
}

/// [`serialize_response`], handing the finished envelope to `make` as
/// [`serialize_request_as`] does.
///
/// # Errors
///
/// Propagates writer errors.
pub fn serialize_response_as<T>(
    namespace: &str,
    operation: &str,
    return_name: &str,
    value: &Value,
    registry: &TypeRegistry,
    make: impl FnOnce(&str) -> T,
) -> Result<T, SoapError> {
    let mut w = XmlWriter::with_declaration();
    start_envelope(&mut w)?;
    w.start(QN_BODY)?;
    start_operation(&mut w, operation, RESPONSE_SUFFIX, namespace)?;
    write_value(&mut w, return_name, value, registry, None)?;
    w.end()?; // wrapper
    w.end()?; // Body
    w.end()?; // Envelope
    Ok(w.finish_with(make)?)
}

/// Serializes a fault envelope.
///
/// # Errors
///
/// Propagates writer errors.
pub fn serialize_fault(fault: &SoapFault) -> Result<String, SoapError> {
    serialize_fault_as(fault, str::to_string)
}

/// [`serialize_fault`], handing the finished envelope to `make` as
/// [`serialize_request_as`] does.
///
/// # Errors
///
/// Propagates writer errors.
pub fn serialize_fault_as<T>(
    fault: &SoapFault,
    make: impl FnOnce(&str) -> T,
) -> Result<T, SoapError> {
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
    Ok(w.finish_with(make)?)
}

fn start_envelope(w: &mut XmlWriter) -> Result<(), SoapError> {
    w.start(QN_ENVELOPE)?;
    w.namespace(PREFIX_ENV, SOAP_ENV_NS)?;
    w.namespace(PREFIX_ENC, SOAP_ENC_NS)?;
    w.namespace(PREFIX_XSD, XSD_NS)?;
    w.namespace(PREFIX_XSI, XSI_NS)?;
    Ok(())
}

/// `<ns1:{operation}{suffix} soapenv:encodingStyle=… xmlns:ns1=…>`.
fn start_operation(
    w: &mut XmlWriter,
    operation: &str,
    suffix: &str,
    namespace: &str,
) -> Result<(), SoapError> {
    w.start_with(|out| {
        out.push_str(PREFIX_SERVICE);
        out.push(':');
        out.push_str(operation);
        out.push_str(suffix);
    })?;
    constant_attr(w, QN_ENCODING_STYLE, SOAP_ENC_NS)?;
    w.namespace(PREFIX_SERVICE, namespace)?;
    Ok(())
}

/// Writes one value as `<name>…</name>` per SOAP encoding. When
/// `declared` is the element's schema type the `xsi:type` attribute is
/// omitted — schema-aware SOAP encoding: a reader that knows the WSDL
/// recovers the type from the descriptor, and the paper-scale responses
/// stay near their published byte sizes instead of being dominated by
/// per-element type annotations.
///
/// A struct that carries its registered plan's own shape — every
/// declared field, in order, as the service built it and the reader
/// decodes it — is walked by declaration index: each field's XML name
/// and kind come from the plan's slot, with no lookup by name. Any other
/// struct is matched to its descriptor field by field name.
fn write_value(
    w: &mut XmlWriter,
    name: &str,
    value: &Value,
    registry: &TypeRegistry,
    declared: Option<Kind<'_>>,
) -> Result<(), SoapError> {
    let known = declared.is_some();
    let xsi_type = |w: &mut XmlWriter, xsd: &'static str| match known {
        true => Ok(()),
        false => constant_attr(w, QN_XSI_TYPE, xsd),
    };
    w.start(name)?;
    match value {
        Value::Null => {
            constant_attr(w, QN_XSI_NIL, "true")?;
        }
        Value::Bool(b) => {
            xsi_type(w, QN_XSD_BOOLEAN)?;
            w.text(if *b { "true" } else { "false" })?;
        }
        Value::Int(i) => {
            xsi_type(w, QN_XSD_INT)?;
            w.text_with(|out| push_display(out, i))?;
        }
        Value::Long(l) => {
            xsi_type(w, QN_XSD_LONG)?;
            w.text_with(|out| push_display(out, l))?;
        }
        Value::Double(d) => {
            xsi_type(w, QN_XSD_DOUBLE)?;
            w.text_with(|out| push_double(out, *d))?;
        }
        Value::String(s) => {
            xsi_type(w, QN_XSD_STRING)?;
            w.text(s.as_ref())?;
        }
        Value::Bytes(b) => {
            xsi_type(w, QN_XSD_BASE64)?;
            w.text_with(|out| base64::encode_into(b, out))?;
        }
        Value::Array(items) => {
            let item_kind = declared.and_then(|k| k.element());
            if item_kind.is_none() {
                constant_attr(w, QN_XSI_TYPE, QN_ENC_ARRAY)?;
                w.attr_with(QN_ENC_ARRAY_TYPE, |out| {
                    out.push_str(PREFIX_XSD);
                    out.push_str(":anyType[");
                    push_display(out, items.len());
                    out.push(']');
                })?;
            }
            for item in items.iter() {
                write_value(w, "item", item, registry, item_kind)?;
            }
        }
        Value::Struct(s) => {
            if !known {
                w.attr_with(QN_XSI_TYPE, |out| {
                    out.push_str(PREFIX_SERVICE);
                    out.push(':');
                    escape_attribute_into(s.type_name(), out);
                })?;
            }
            let plan = declared
                .and_then(|k| k.struct_plan())
                .filter(|p| Arc::ptr_eq(p.shape(), s.shape()))
                .or_else(|| registry.plan(s.type_name()));
            match plan {
                Some(plan) if Arc::ptr_eq(plan.shape(), s.shape()) => {
                    let fields = &plan.descriptor().fields;
                    for (slot, ((_, field_value), field)) in s.fields().zip(fields).enumerate() {
                        let kind = plan.field_kind(slot, registry);
                        write_value(w, &field.name, field_value, registry, kind)?;
                    }
                }
                _ => {
                    let descriptor = plan.map(StructPlan::descriptor);
                    for (field_name, field_value) in s.fields() {
                        let field = descriptor.and_then(|d| d.field(field_name));
                        let kind = field.map(|f| registry.kind_of(&f.field_type));
                        write_value(w, field_name, field_value, registry, kind)?;
                    }
                }
            }
        }
    }
    w.end()?;
    Ok(())
}

/// Adds an attribute whose value is one of this module's constants,
/// which need no escaping.
fn constant_attr(w: &mut XmlWriter, name: &str, value: &'static str) -> Result<(), SoapError> {
    w.attr_with(name, |out| out.push_str(value))?;
    Ok(())
}

/// Appends a number's `Display` form — no intermediate `String`.
fn push_display(out: &mut String, n: impl std::fmt::Display) {
    use std::fmt::Write;
    write!(out, "{n}").expect("writing to a String cannot fail");
}

/// Appends a double per XML Schema lexical rules (enough digits to
/// round-trip, `INF`/`-INF`/`NaN` spellings).
fn push_double(out: &mut String, d: f64) {
    if d.is_nan() {
        out.push_str("NaN");
    } else if d == f64::INFINITY {
        out.push_str("INF");
    } else if d == f64::NEG_INFINITY {
        out.push_str("-INF");
    } else {
        use std::fmt::Write;
        write!(out, "{d:?}").expect("writing to a String cannot fail");
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
        for (d, lexical) in [
            (f64::NAN, "NaN"),
            (f64::INFINITY, "INF"),
            (f64::NEG_INFINITY, "-INF"),
            (0.5, "0.5"),
        ] {
            let mut out = String::new();
            push_double(&mut out, d);
            assert_eq!(out, lexical);
        }
    }
}
