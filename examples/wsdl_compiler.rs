//! The WSDL pipeline: author the GoogleSearch WSDL in the document model,
//! emit it as XML, parse it back, compile it into runtime artifacts — then
//! use the compiled artifacts to make a real call.
//!
//! ```text
//! cargo run --example wsdl_compiler
//! ```

use std::sync::Arc;
use wsrcache::client::ServiceClient;
use wsrcache::http::{InProcTransport, Url};
use wsrcache::services::google::{self, GoogleService};
use wsrcache::services::SoapDispatcher;
use wsrcache::soap::RpcRequest;
use wsrcache::wsdl::{compile, parser, writer, CompileOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Author + emit.
    let defs = google::wsdl("http://google.test/soap/google");
    let xml = writer::write_wsdl(&defs)?;
    println!("emitted GoogleSearch.wsdl: {} bytes", xml.len());
    println!("--- first lines ---");
    for line in xml.lines().take(8) {
        println!("{line}");
    }

    // 2. Parse it back (identity) and compile.
    let parsed = parser::parse_wsdl(&xml)?;
    assert_eq!(parsed, defs, "emit/parse round-trip is the identity");
    let compiled = compile(&parsed, CompileOptions::default())?;
    println!(
        "\ncompiled: namespace {}, {} operations, {} types",
        compiled.namespace,
        compiled.operations.len(),
        compiled.registry.len()
    );
    for op in &compiled.operations {
        println!(
            "  {}({}) -> {}",
            op.name,
            op.params
                .iter()
                .map(|p| &*p.name)
                .collect::<Vec<_>>()
                .join(", "),
            op.return_type
        );
    }

    // 3. Use the *compiled* artifacts (not the hand-written ones) to call
    //    the dummy service.
    let dispatcher = SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new()));
    let client = ServiceClient::builder(
        Url::new("google.test", 80, google::PATH),
        Arc::new(InProcTransport::new(Arc::new(dispatcher))),
    )
    .registry(compiled.registry.clone())
    .operations(compiled.operations.clone())
    .build();
    let (result, _) = client.invoke(
        &RpcRequest::new(&compiled.namespace, "doSpellingSuggestion")
            .with_param("key", "k")
            .with_param("phrase", "wsdl compilr"),
    )?;
    println!(
        "\ncall through compiled artifacts: {:?}",
        result.as_value().as_str().unwrap_or("?")
    );
    Ok(())
}
