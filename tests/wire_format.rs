//! Wire-format pinning: the exact envelope bytes for a reference request
//! and response, so accidental format changes surface as test failures
//! (cache keys generated from XML messages depend on byte stability).

use wsrcache::model::Value;
use wsrcache::services::google::{self, spelling_request};
use wsrcache::soap::deserializer::read_response_bytes;
use wsrcache::soap::rpc::RpcOutcome;
use wsrcache::soap::serializer::{serialize_request, serialize_response};

#[test]
fn spelling_request_envelope_is_byte_stable() {
    let req = spelling_request("hella warld");
    let xml = serialize_request(&req, &google::registry()).unwrap();
    let expected = concat!(
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>",
        "<soapenv:Envelope",
        " xmlns:soapenv=\"http://schemas.xmlsoap.org/soap/envelope/\"",
        " xmlns:soapenc=\"http://schemas.xmlsoap.org/soap/encoding/\"",
        " xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\"",
        " xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\">",
        "<soapenv:Body>",
        "<ns1:doSpellingSuggestion",
        " soapenv:encodingStyle=\"http://schemas.xmlsoap.org/soap/encoding/\"",
        " xmlns:ns1=\"urn:GoogleSearch\">",
        "<key xsi:type=\"xsd:string\">demo-key</key>",
        "<phrase xsi:type=\"xsd:string\">hella warld</phrase>",
        "</ns1:doSpellingSuggestion>",
        "</soapenv:Body>",
        "</soapenv:Envelope>",
    );
    assert_eq!(xml, expected);
}

#[test]
fn string_response_envelope_is_byte_stable() {
    let xml = serialize_response(
        google::NAMESPACE,
        "doSpellingSuggestion",
        "return",
        &Value::string("hello world"),
        &google::registry(),
    )
    .unwrap();
    let expected = concat!(
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>",
        "<soapenv:Envelope",
        " xmlns:soapenv=\"http://schemas.xmlsoap.org/soap/envelope/\"",
        " xmlns:soapenc=\"http://schemas.xmlsoap.org/soap/encoding/\"",
        " xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\"",
        " xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\">",
        "<soapenv:Body>",
        "<ns1:doSpellingSuggestionResponse",
        " soapenv:encodingStyle=\"http://schemas.xmlsoap.org/soap/encoding/\"",
        " xmlns:ns1=\"urn:GoogleSearch\">",
        "<return xsi:type=\"xsd:string\">hello world</return>",
        "</ns1:doSpellingSuggestionResponse>",
        "</soapenv:Body>",
        "</soapenv:Envelope>",
    );
    assert_eq!(xml, expected);
}

#[test]
fn axis_style_envelopes_from_other_stacks_parse() {
    // A response as a 2004-era Axis server would have written it:
    // different prefixes, SOAP-ENV casing, xsi:type everywhere, an
    // unreferenced Header, multiref-free rpc/encoded body.
    let foreign = concat!(
        "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n",
        "<SOAP-ENV:Envelope ",
        "xmlns:SOAP-ENV=\"http://schemas.xmlsoap.org/soap/envelope/\" ",
        "xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\" ",
        "xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">\n",
        " <SOAP-ENV:Header><trace id=\"42\"/></SOAP-ENV:Header>\n",
        " <SOAP-ENV:Body>\n",
        "  <ns1:doSpellingSuggestionResponse xmlns:ns1=\"urn:GoogleSearch\">\n",
        "   <return xsi:type=\"xsd:string\">interop suggestion</return>\n",
        "  </ns1:doSpellingSuggestionResponse>\n",
        " </SOAP-ENV:Body>\n",
        "</SOAP-ENV:Envelope>",
    );
    let outcome = read_response_bytes(
        foreign.as_bytes(),
        &wsrcache::model::typeinfo::FieldType::String,
        &google::registry(),
    )
    .expect("foreign envelope parses");
    match outcome {
        RpcOutcome::Return(v) => assert_eq!(v, Value::string("interop suggestion")),
        RpcOutcome::Fault(f) => panic!("unexpected fault {f}"),
    }
}
