//! Regenerates the paper's Tables 1–9.

use crate::fixtures::{google_fixtures, registry, OperationFixture, ENDPOINT};
use crate::render_table;
use crate::timing::{fmt_msec, measure, Protocol};
use wsrc_cache::key::{generate_key, KeyStrategy};
use wsrc_cache::repr::{StoredResponse, ValueRepresentation};
use wsrc_model::tostring::to_string_key;
use wsrc_model::Value;
use wsrc_services::amazon;
use wsrc_xml::XmlReader;

const OPS: [&str; 3] = ["Spelling Suggestion", "Cached Page", "Google Search"];

/// Table 1: operations in Google/Amazon Web services.
pub fn table1() -> String {
    let rows = vec![
        vec![
            "Google Web services".to_string(),
            "doSpellingSuggestion, doGetCachedPage, doGoogleSearch".to_string(),
            "all cacheable".to_string(),
        ],
        vec![
            "Amazon Web services (search)".to_string(),
            amazon::SEARCH_OPERATIONS.join(", "),
            "cacheable".to_string(),
        ],
        vec![
            "Amazon Web services (cart)".to_string(),
            amazon::CART_OPERATIONS.join(", "),
            "uncacheable".to_string(),
        ],
    ];
    render_table(
        "Table 1. Operations in Google/Amazon Web services",
        &["service", "operations", "policy"],
        &rows,
    )
}

/// Table 2: cache key data representations and their limitations.
pub fn table2() -> String {
    let rows = vec![
        vec!["XML message".into(), "Not required".into(), "None".into()],
        vec![
            "Application object".into(),
            "Java serialization mechanism".into(),
            "Serializable object".into(),
        ],
        vec![
            "Application object".into(),
            "toString method".into(),
            "Object which has toString method".into(),
        ],
    ];
    render_table(
        "Table 2. Cache key data representation",
        &[
            "cache key data representation",
            "key generating method",
            "limitation",
        ],
        &rows,
    )
}

/// Table 3: cache value data representations and their limitations.
pub fn table3() -> String {
    let rows = vec![
        vec!["XML message".into(), "Not required".into(), "None".into()],
        vec![
            "SAX events sequence".into(),
            "Not required".into(),
            "None".into(),
        ],
        vec![
            "Application object".into(),
            "Java serialization mechanism".into(),
            "Serializable object".into(),
        ],
        vec![
            "Application object".into(),
            "Copying by reflection API".into(),
            "Bean object, Array object, etc.".into(),
        ],
        vec![
            "Application object".into(),
            "Copying by clone method".into(),
            "Cloneable object".into(),
        ],
        vec![
            "Application object".into(),
            "None (Passing by references)".into(),
            "Read-only object, Immutable object".into(),
        ],
    ];
    render_table(
        "Table 3. Cache value data representation",
        &[
            "cache value data representation",
            "copying method",
            "limitation",
        ],
        &rows,
    )
}

/// Table 4: the SAX events sequence for the paper's example document.
pub fn table4() -> String {
    let xml = "<doc><para>Hello, world!</para></doc>";
    let events = XmlReader::new(xml)
        .read_sequence()
        .expect("example document parses");
    let rows: Vec<Vec<String>> = events.iter().map(|e| vec![e.to_string()]).collect();
    let mut out = format!("XML document: {xml}\n");
    out.push_str(&render_table(
        "Table 4. An example of a SAX events sequence",
        &["SAX events sequence"],
        &rows,
    ));
    out
}

/// Table 5: summary of the three Google operations.
pub fn table5() -> String {
    let fixtures = google_fixtures();
    let describe_params = |f: &OperationFixture| {
        let mut strings = 0;
        let mut ints = 0;
        let mut bools = 0;
        for (_, v) in &f.request.params {
            match v {
                Value::String(_) => strings += 1,
                Value::Int(_) => ints += 1,
                Value::Bool(_) => bools += 1,
                _ => {}
            }
        }
        let mut parts = vec![format!("String x {strings}")];
        if ints > 0 {
            parts.push(format!("int x {ints}"));
        }
        if bools > 0 {
            parts.push(format!("boolean x {bools}"));
        }
        parts.join(", ")
    };
    let returns = [
        "String (small and simple)",
        "byte array (large and simple)",
        "GoogleSearchResult (large and complex)",
    ];
    let rows: Vec<Vec<String>> = fixtures
        .iter()
        .zip(returns)
        .map(|(f, ret)| vec![f.label.to_string(), describe_params(f), ret.to_string()])
        .collect();
    render_table(
        "Table 5. Summary of the three Google operations",
        &[
            "operation",
            "request parameter objects",
            "return value object",
        ],
        &rows,
    )
}

/// Table 6: processing times for cache key generation (msec).
pub fn table6(protocol: Protocol) -> String {
    let fixtures = google_fixtures();
    let registry = registry();
    let strategies = [
        ("XML message", KeyStrategy::XmlMessage),
        ("Java serialization", KeyStrategy::Serialization),
        ("toString method", KeyStrategy::ToString),
    ];
    let rows: Vec<Vec<String>> = strategies
        .iter()
        .map(|(label, strategy)| {
            let mut row = vec![label.to_string()];
            for f in &fixtures {
                let d = measure(protocol, || {
                    generate_key(*strategy, ENDPOINT, &f.request, &registry)
                        .expect("applicable strategy")
                });
                row.push(fmt_msec(d));
            }
            row
        })
        .collect();
    render_table(
        "Table 6. Processing times for cache key generation (msec)",
        &["method", OPS[0], OPS[1], OPS[2]],
        &rows,
    )
}

/// Table 7: processing times for cached data retrieval (msec), with the
/// paper's n/a cells.
pub fn table7(protocol: Protocol) -> String {
    let fixtures = google_fixtures();
    let registry = registry();
    let rows: Vec<Vec<String>> = ValueRepresentation::ALL
        .iter()
        .map(|repr| {
            let mut row = vec![repr.label().to_string()];
            for f in &fixtures {
                match StoredResponse::build(*repr, f.artifacts(), &registry) {
                    Ok(stored) => {
                        let d = measure(protocol, || {
                            stored
                                .retrieve(&f.return_type, &registry)
                                .expect("stored entry retrieves")
                        });
                        row.push(fmt_msec(d));
                    }
                    Err(_) => row.push("n/a".to_string()),
                }
            }
            row
        })
        .collect();
    render_table(
        "Table 7. Processing times for cached data retrieval (msec)",
        &["method", OPS[0], OPS[1], OPS[2]],
        &rows,
    )
}

/// Table 8: memory size of cache keys (bytes).
pub fn table8() -> String {
    let fixtures = google_fixtures();
    let registry = registry();
    let strategies = [
        ("XML message", KeyStrategy::XmlMessage),
        ("Java serialized form", KeyStrategy::Serialization),
        ("Concatenated string", KeyStrategy::ToString),
    ];
    let rows: Vec<Vec<String>> = strategies
        .iter()
        .map(|(label, strategy)| {
            let mut row = vec![label.to_string()];
            for f in &fixtures {
                let key = generate_key(*strategy, ENDPOINT, &f.request, &registry)
                    .expect("applicable strategy");
                row.push(key.approximate_size().to_string());
            }
            row
        })
        .collect();
    render_table(
        "Table 8. Memory size of cache keys (bytes)",
        &["representation", OPS[0], OPS[1], OPS[2]],
        &rows,
    )
}

/// Table 9: memory size of cached objects (bytes).
///
/// "XML message" is the envelope text, "Java serialized form" the binary
/// serialization, and "Java object" the Java-style instance size (see
/// [`wsrc_model::sizeof::java_object_size`] — field/type names live in
/// the class, not the instance).
pub fn table9() -> String {
    let fixtures = google_fixtures();
    let rows: Vec<Vec<String>> = [
        (
            "XML message",
            fixtures.iter().map(|f| f.xml.len()).collect::<Vec<_>>(),
        ),
        (
            "Java serialized form",
            fixtures
                .iter()
                .map(|f| wsrc_model::binser::serialize(&f.value).len())
                .collect(),
        ),
        (
            "Java object",
            fixtures
                .iter()
                .map(|f| wsrc_model::sizeof::java_object_size(&f.value))
                .collect(),
        ),
    ]
    .into_iter()
    .map(|(label, sizes)| {
        let mut row = vec![label.to_string()];
        row.extend(sizes.iter().map(usize::to_string));
        row
    })
    .collect();
    render_table(
        "Table 9. Memory size of cached objects (bytes)",
        &["representation", OPS[0], OPS[1], OPS[2]],
        &rows,
    )
}

/// Raw (numeric) Table 6 cells for assertions and EXPERIMENTS.md.
pub fn table6_raw(protocol: Protocol) -> Vec<(KeyStrategy, Vec<std::time::Duration>)> {
    let fixtures = google_fixtures();
    let registry = registry();
    KeyStrategy::CONCRETE
        .iter()
        .map(|strategy| {
            let cells = fixtures
                .iter()
                .map(|f| {
                    measure(protocol, || {
                        generate_key(*strategy, ENDPOINT, &f.request, &registry)
                            .expect("applicable strategy")
                    })
                })
                .collect();
            (*strategy, cells)
        })
        .collect()
}

/// Raw (numeric) Table 7 cells; `None` marks the paper's n/a cells.
pub fn table7_raw(
    protocol: Protocol,
) -> Vec<(ValueRepresentation, Vec<Option<std::time::Duration>>)> {
    let fixtures = google_fixtures();
    let registry = registry();
    ValueRepresentation::ALL
        .iter()
        .map(|repr| {
            let cells = fixtures
                .iter()
                .map(|f| {
                    StoredResponse::build(*repr, f.artifacts(), &registry)
                        .ok()
                        .map(|stored| {
                            measure(protocol, || {
                                stored
                                    .retrieve(&f.return_type, &registry)
                                    .expect("stored entry retrieves")
                            })
                        })
                })
                .collect();
            (*repr, cells)
        })
        .collect()
}

/// Sanity helper used by the optimal-configuration discussion (§6): what
/// the paper's table picks for each of the three responses.
pub fn optimal_configuration() -> String {
    let fixtures = google_fixtures();
    let registry = registry();
    let rows: Vec<Vec<String>> = fixtures
        .iter()
        .map(|f| {
            let repr = wsrc_cache::paper_choice(&f.value, &registry, false);
            vec![
                f.label.to_string(),
                f.value.type_label().to_string(),
                repr.label().to_string(),
            ]
        })
        .collect();
    render_table(
        "Section 6: dynamic classification of the three Google responses",
        &["operation", "response type", "selected representation"],
        &rows,
    )
}

/// Ablation: the §3.1 *double copy* decomposed. Application-object
/// representations copy at store time AND at hit time; this table
/// measures both halves per representation for the GoogleSearch
/// response, plus total bytes held.
pub fn ablation_store_vs_retrieve(protocol: Protocol) -> String {
    let fixtures = google_fixtures();
    let registry = registry();
    let search = fixtures.last().expect("google search fixture");
    let rows: Vec<Vec<String>> = ValueRepresentation::ALL_EXTENDED
        .iter()
        .filter_map(|repr| {
            let stored = StoredResponse::build(*repr, search.artifacts(), &registry).ok()?;
            let store_cost = measure(protocol, || {
                StoredResponse::build(*repr, search.artifacts(), &registry)
                    .expect("applicable representation")
            });
            let retrieve_cost = measure(protocol, || {
                stored
                    .retrieve(&search.return_type, &registry)
                    .expect("stored entry retrieves")
            });
            Some(vec![
                repr.label().to_string(),
                fmt_msec(store_cost),
                fmt_msec(retrieve_cost),
                stored.approximate_size().to_string(),
            ])
        })
        .collect();
    render_table(
        "Ablation: store-side vs hit-side cost of each representation (GoogleSearch, msec / bytes)",
        &["method", "copy on store", "copy on hit", "bytes held"],
        &rows,
    )
}

/// A quick toString check mirroring §4.1.2-B (used by `reproduce keys`).
pub fn tostring_keys() -> String {
    let fixtures = google_fixtures();
    let registry = registry();
    let rows: Vec<Vec<String>> = fixtures
        .iter()
        .map(|f| {
            let rendered: Vec<String> = f
                .request
                .params
                .iter()
                .map(|(n, v)| {
                    format!(
                        "{n}={}",
                        to_string_key(v, &registry).expect("simple params")
                    )
                })
                .collect();
            vec![f.label.to_string(), rendered.join(" ")]
        })
        .collect();
    render_table(
        "toString key material per operation",
        &["operation", "parameters"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        assert!(table1().contains("doGoogleSearch"));
        assert!(table1().contains("GetShoppingCart"));
        assert!(table2().contains("toString method"));
        assert!(table3().contains("Passing by references"));
        assert!(table5().contains("large and complex"));
    }

    #[test]
    fn table4_matches_the_paper() {
        let t = table4();
        for line in [
            "start document",
            "start element: doc",
            "start element: para",
            "characters: Hello, world!",
            "end element: para",
            "end element: doc",
            "end document",
        ] {
            assert!(t.contains(line), "missing {line:?}:\n{t}");
        }
    }

    #[test]
    fn table6_ordering_matches_the_paper() {
        // Paper: serialization ~10x faster than the XML message, toString
        // fastest. In Rust the compiled binary serializer ties with
        // toString (no reflective ObjectOutputStream machinery), so the
        // robust claims are: both application-object methods are several
        // times faster than serializing the request XML, and neither is
        // more than ~2x the other (see EXPERIMENTS.md).
        // Sub-microsecond means are at the mercy of scheduler preemption
        // on a loaded host; keep the smallest observation per cell across
        // a few runs (min-filtering) before asserting the ordering.
        let mut raw = table6_raw(Protocol::quick());
        for _ in 0..4 {
            let again = table6_raw(Protocol::quick());
            for (row, (_, cells)) in raw.iter_mut().enumerate() {
                for (i, cell) in cells.iter_mut().enumerate() {
                    *cell = (*cell).min(again[row].1[i]);
                }
            }
        }
        let xml = &raw[0].1;
        let ser = &raw[1].1;
        let ts = &raw[2].1;
        for i in 0..3 {
            // "Well under" = at least 1.5x faster; the exact gap varies
            // with the response shape and the host.
            assert!(
                ser[i] * 3 < xml[i] * 2,
                "op {i}: ser {:?} not well under xml {:?}",
                ser[i],
                xml[i]
            );
            assert!(
                ts[i] * 3 < xml[i] * 2,
                "op {i}: toString {:?} not well under xml {:?}",
                ts[i],
                xml[i]
            );
            assert!(
                ts[i] < ser[i] * 2,
                "op {i}: toString {:?} vs ser {:?}",
                ts[i],
                ser[i]
            );
        }
    }

    #[test]
    fn table7_na_cells_match_the_paper() {
        let raw = table7_raw(Protocol {
            warmup: 1,
            measured: 2,
        });
        let by_repr: std::collections::HashMap<_, _> =
            raw.iter().map(|(r, cells)| (*r, cells.clone())).collect();
        let reflect = &by_repr[&ValueRepresentation::ReflectionCopy];
        assert!(
            reflect[0].is_none(),
            "reflection n/a for SpellingSuggestion"
        );
        assert!(reflect[1].is_some() && reflect[2].is_some());
        let clone = &by_repr[&ValueRepresentation::CloneCopy];
        assert!(
            clone[0].is_none() && clone[1].is_none(),
            "clone n/a for string and byte[]"
        );
        assert!(clone[2].is_some(), "clone applies to GoogleSearchResult");
        for repr in [
            ValueRepresentation::XmlMessage,
            ValueRepresentation::SaxEvents,
            ValueRepresentation::Serialization,
            ValueRepresentation::PassByReference,
        ] {
            assert!(
                by_repr[&repr].iter().all(Option::is_some),
                "{repr} applies everywhere"
            );
        }
    }

    #[test]
    fn table7_ordering_matches_the_paper_for_google_search() {
        // Same min-filtering as the Table 6 test: orderings hold for the
        // noise-free minimum, not necessarily for every loaded-host mean.
        let mut raw = table7_raw(Protocol::quick());
        for _ in 0..2 {
            let again = table7_raw(Protocol::quick());
            for (row, (_, cells)) in raw.iter_mut().enumerate() {
                for (i, cell) in cells.iter_mut().enumerate() {
                    if let (Some(a), Some(b)) = (*cell, again[row].1[i]) {
                        *cell = Some(a.min(b));
                    }
                }
            }
        }
        let cell = |repr: ValueRepresentation| {
            raw.iter()
                .find(|(r, _)| *r == repr)
                .and_then(|(_, cells)| cells[2])
                .expect("google search cell")
        };
        let xml = cell(ValueRepresentation::XmlMessage);
        let sax = cell(ValueRepresentation::SaxEvents);
        let ser = cell(ValueRepresentation::Serialization);
        let refl = cell(ValueRepresentation::ReflectionCopy);
        let clone = cell(ValueRepresentation::CloneCopy);
        let byref = cell(ValueRepresentation::PassByReference);
        assert!(sax < xml, "SAX {sax:?} !< XML {xml:?}");
        assert!(ser < sax, "ser {ser:?} !< SAX {sax:?}");
        assert!(refl < ser, "reflect {refl:?} !< ser {ser:?}");
        assert!(clone < refl, "clone {clone:?} !< reflect {refl:?}");
        assert!(byref <= clone, "byref {byref:?} !<= clone {clone:?}");
    }

    #[test]
    fn table8_and_9_orderings_match_the_paper() {
        let t8 = table8();
        let t9 = table9();
        // Parse the numeric cells back out of the rendered tables.
        let cells = |table: &str, row_label: &str| -> Vec<usize> {
            table
                .lines()
                .find(|l| l.contains(row_label))
                .unwrap_or_else(|| panic!("row {row_label} in:\n{table}"))
                .split('|')
                .filter_map(|c| c.trim().parse::<usize>().ok())
                .collect()
        };
        let xml_keys = cells(&t8, "XML message");
        let ser_keys = cells(&t8, "Java serialized form");
        let str_keys = cells(&t8, "Concatenated string");
        for i in 0..3 {
            assert!(str_keys[i] < ser_keys[i]);
            assert!(ser_keys[i] < xml_keys[i]);
        }
        let xml_vals = cells(&t9, "XML message");
        let obj_vals = cells(&t9, "Java object");
        // GoogleSearch (complex): object much smaller than XML.
        assert!(obj_vals[2] < xml_vals[2]);
        // CachedPage: sizes are close (payload dominates) — within 2x.
        assert!(obj_vals[1] * 2 > xml_vals[1]);
    }

    #[test]
    fn ablation_covers_applicable_representations() {
        let t = ablation_store_vs_retrieve(Protocol {
            warmup: 1,
            measured: 2,
        });
        // All seven (six paper rows + the DOM-tree extension) apply to
        // GoogleSearchResult.
        for label in [
            "XML message",
            "DOM tree",
            "SAX events sequence",
            "Java serialization",
            "Copy by reflection",
            "Copy by clone",
            "Pass by reference",
        ] {
            assert!(t.contains(label), "missing {label}:\n{t}");
        }
        assert!(t.contains("copy on store"));
    }

    #[test]
    fn optimal_configuration_matches_section6() {
        let t = optimal_configuration();
        assert!(t.contains("Pass by reference"), "{t}"); // string response
        assert!(t.contains("Copy by reflection"), "{t}"); // bytes + bean
    }

    #[test]
    fn tostring_keys_render_parameters() {
        let t = tostring_keys();
        assert!(t.contains("phrase="));
        assert!(t.contains("q="));
    }
}
