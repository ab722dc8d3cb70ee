//! SOAP 1.1 envelope constants and recognition helpers.

use wsrc_xml::QName;

/// SOAP 1.1 envelope namespace.
pub(crate) const SOAP_ENV_NS: &str = "http://schemas.xmlsoap.org/soap/envelope/";
/// SOAP 1.1 encoding namespace (`SOAP-ENC`).
pub(crate) const SOAP_ENC_NS: &str = "http://schemas.xmlsoap.org/soap/encoding/";
/// XML Schema datatypes namespace.
pub(crate) const XSD_NS: &str = "http://www.w3.org/2001/XMLSchema";
/// XML Schema instance namespace (`xsi:type`, `xsi:nil`).
pub(crate) const XSI_NS: &str = "http://www.w3.org/2001/XMLSchema-instance";

/// Prefix conventions used by our writer (readers accept any prefix).
pub(crate) const PREFIX_ENV: &str = "soapenv";
/// Writer prefix for the encoding namespace.
pub(crate) const PREFIX_ENC: &str = "soapenc";
/// Writer prefix for XML Schema datatypes.
pub(crate) const PREFIX_XSD: &str = "xsd";
/// Writer prefix for the schema-instance namespace.
pub(crate) const PREFIX_XSI: &str = "xsi";
/// Writer prefix for the service namespace.
pub(crate) const PREFIX_SERVICE: &str = "ns1";

/// The MIME type of SOAP 1.1 messages.
pub const CONTENT_TYPE: &str = "text/xml; charset=utf-8";

// Precomputed qualified names for the writer's fixed vocabulary. The
// serializer used to assemble each of these with `format!` on every
// element it wrote; they are spelled out once here instead (a test
// asserts they stay in sync with the PREFIX_* constants above).

/// `soapenv:Envelope` element name.
pub(crate) const QN_ENVELOPE: &str = "soapenv:Envelope";
/// `soapenv:Body` element name.
pub(crate) const QN_BODY: &str = "soapenv:Body";
/// `soapenv:Fault` element name.
pub(crate) const QN_FAULT: &str = "soapenv:Fault";
/// `soapenv:encodingStyle` attribute name.
pub(crate) const QN_ENCODING_STYLE: &str = "soapenv:encodingStyle";
/// `xsi:type` attribute name.
pub(crate) const QN_XSI_TYPE: &str = "xsi:type";
/// `xsi:nil` attribute name.
pub(crate) const QN_XSI_NIL: &str = "xsi:nil";
/// `xsd:boolean` type name.
pub(crate) const QN_XSD_BOOLEAN: &str = "xsd:boolean";
/// `xsd:int` type name.
pub(crate) const QN_XSD_INT: &str = "xsd:int";
/// `xsd:long` type name.
pub(crate) const QN_XSD_LONG: &str = "xsd:long";
/// `xsd:double` type name.
pub(crate) const QN_XSD_DOUBLE: &str = "xsd:double";
/// `xsd:string` type name.
pub(crate) const QN_XSD_STRING: &str = "xsd:string";
/// `xsd:base64Binary` type name.
pub(crate) const QN_XSD_BASE64: &str = "xsd:base64Binary";
/// `soapenc:Array` type name.
pub(crate) const QN_ENC_ARRAY: &str = "soapenc:Array";
/// `soapenc:arrayType` attribute name.
pub(crate) const QN_ENC_ARRAY_TYPE: &str = "soapenc:arrayType";

/// Whether `name` is the envelope's `Envelope` element (any prefix).
pub fn is_envelope(name: &QName) -> bool {
    name.local_part() == "Envelope"
}

/// Whether `name` is the `Body` element (any prefix).
pub fn is_body(name: &QName) -> bool {
    name.local_part() == "Body"
}

/// Whether `name` is the `Header` element (any prefix).
pub(crate) fn is_header(name: &QName) -> bool {
    name.local_part() == "Header"
}

/// Whether `name` is the `Fault` element (any prefix).
pub(crate) fn is_fault(name: &QName) -> bool {
    name.local_part() == "Fault"
}

/// What the conventional response wrapper appends to an operation's
/// name (`doGoogleSearch` → `doGoogleSearchResponse`).
pub(crate) const RESPONSE_SUFFIX: &str = "Response";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recognition_ignores_prefixes() {
        assert!(is_envelope(&QName::parse("soapenv:Envelope")));
        assert!(is_envelope(&QName::parse("SOAP-ENV:Envelope")));
        assert!(is_envelope(&QName::parse("Envelope")));
        assert!(!is_envelope(&QName::parse("Body")));
        assert!(is_body(&QName::parse("s:Body")));
        assert!(is_header(&QName::parse("s:Header")));
        assert!(is_fault(&QName::parse("s:Fault")));
    }

    #[test]
    fn precomputed_names_match_prefixes() {
        for (qn, prefix, local) in [
            (QN_ENVELOPE, PREFIX_ENV, "Envelope"),
            (QN_BODY, PREFIX_ENV, "Body"),
            (QN_FAULT, PREFIX_ENV, "Fault"),
            (QN_ENCODING_STYLE, PREFIX_ENV, "encodingStyle"),
            (QN_XSI_TYPE, PREFIX_XSI, "type"),
            (QN_XSI_NIL, PREFIX_XSI, "nil"),
            (QN_XSD_BOOLEAN, PREFIX_XSD, "boolean"),
            (QN_XSD_INT, PREFIX_XSD, "int"),
            (QN_XSD_LONG, PREFIX_XSD, "long"),
            (QN_XSD_DOUBLE, PREFIX_XSD, "double"),
            (QN_XSD_STRING, PREFIX_XSD, "string"),
            (QN_XSD_BASE64, PREFIX_XSD, "base64Binary"),
            (QN_ENC_ARRAY, PREFIX_ENC, "Array"),
            (QN_ENC_ARRAY_TYPE, PREFIX_ENC, "arrayType"),
        ] {
            assert_eq!(qn, format!("{prefix}:{local}"));
        }
    }
}
