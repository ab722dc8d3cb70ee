//! The wire bytes of the dummy Google service, pinned: the length and
//! FNV-1a digest of `serialize_response` for each operation at three
//! keys, of one fault and of one `serialize_request`. The table was
//! computed with the writer this one replaced; any change to what
//! goes on the wire — a byte of escaping, a number's spelling, an
//! attribute's order — fails here with the measured table printed.

use wsrc_model::Value;
use wsrc_services::google::{self, GoogleService};
use wsrc_services::SoapService;
use wsrc_soap::rpc::RpcRequest;
use wsrc_soap::serializer::{serialize_fault, serialize_request, serialize_response};
use wsrc_soap::SoapFault;

/// `(what, length, FNV-1a 64)` of every pinned message.
const EXPECTED: [(&str, usize, u64); 11] = [
    ("doSpellingSuggestion k0", 540, 0x6f11a6de84fc94f4),
    ("doSpellingSuggestion k1", 565, 0x64d09af8d0b0bcbd),
    ("doSpellingSuggestion k2", 550, 0xe1a679211b5212ee),
    ("doGetCachedPage k0", 5486, 0x5e0d351fc000e208),
    ("doGetCachedPage k1", 5366, 0xd7de105b78aa9400),
    ("doGetCachedPage k2", 5390, 0x0a70252233b20979),
    ("doGoogleSearch k0", 7351, 0xc26b8b7f52459912),
    ("doGoogleSearch k1", 7386, 0xd1ae3374ad9fa43f),
    ("doGoogleSearch k2", 7465, 0x4e5c59e08b4f8d77),
    ("fault", 476, 0x1c75e8f55a3adeb9),
    ("request", 914, 0x78d4ca45acab1610),
];

const KEYS: [&str; 3] = ["rust soap", "caching & <markup>", "日本語 \"quoted\""];

/// A search echoes its query into each snippet's HTML, which escapes
/// markup since the portal fix; these keys carry none, so the bytes are
/// the parent's.
const SEARCH_KEYS: [&str; 3] = ["rust soap", "web services", "日本語 \"quoted\""];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn request(operation: &str, key: &str) -> RpcRequest {
    let base = RpcRequest::new(google::NAMESPACE, operation).with_param("key", "k");
    match operation {
        "doSpellingSuggestion" => base.with_param("phrase", key),
        "doGetCachedPage" => base.with_param("url", format!("http://example.test/{key}")),
        _ => base
            .with_param("q", key)
            .with_param("start", 0)
            .with_param("maxResults", 10)
            .with_param("filter", true)
            .with_param("restrict", "")
            .with_param("safeSearch", false)
            .with_param("lr", "")
            .with_param("ie", "utf-8")
            .with_param("oe", "utf-8"),
    }
}

fn messages() -> Vec<(String, String)> {
    let service = GoogleService::new();
    let registry = google::registry();
    let mut out = Vec::new();
    for operation in ["doSpellingSuggestion", "doGetCachedPage", "doGoogleSearch"] {
        let keys = match operation {
            "doGoogleSearch" => SEARCH_KEYS,
            _ => KEYS,
        };
        for (i, key) in keys.iter().enumerate() {
            let value: Value = service
                .call(&request(operation, key))
                .expect("the dummy service answers");
            let xml = serialize_response(google::NAMESPACE, operation, "return", &value, &registry)
                .expect("responses serialize");
            out.push((format!("{operation} k{i}"), xml));
        }
    }
    let fault = SoapFault::server("back end <down> & \"out\"").with_detail("retry\tlater\n");
    out.push((
        "fault".into(),
        serialize_fault(&fault).expect("faults serialize"),
    ));
    let search = request("doGoogleSearch", KEYS[1]).with_param("extra", -2.5e-7);
    out.push((
        "request".into(),
        serialize_request(&search, &registry).expect("requests serialize"),
    ));
    out
}

#[test]
fn every_message_is_byte_for_byte_the_pinned_one() {
    let measured: Vec<(String, usize, u64)> = messages()
        .into_iter()
        .map(|(what, xml)| (what, xml.len(), fnv1a(xml.as_bytes())))
        .collect();
    let table: String = measured
        .iter()
        .map(|(what, len, digest)| format!("    (\"{what}\", {len}, {digest:#018x}),\n"))
        .collect();
    let expected: Vec<(String, usize, u64)> = EXPECTED
        .iter()
        .map(|(what, len, digest)| (what.to_string(), *len, *digest))
        .collect();
    assert_eq!(measured, expected, "measured table:\n{table}");
}
