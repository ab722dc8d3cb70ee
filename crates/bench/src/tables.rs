//! Regenerates the paper's Tables 1–9.

use crate::render_table;
use crate::timing::{fmt_msec, measure, Protocol};
use std::time::Duration;
use wsrc_cache::key::{generate_key, KeyStrategy};
use wsrc_cache::repr::{StoredResponse, ValueRepresentation};
use wsrc_model::tostring::to_string_key;
use wsrc_model::Value;
use wsrc_services::google::{fixtures, registry, OperationFixture};
use wsrc_xml::XmlReader;

/// The endpoint URL used in cache keys.
const ENDPOINT: &str = "http://api.google.test/search/beta2";

const OPS: [&str; 3] = ["Spelling Suggestion", "Cached Page", "Google Search"];

/// The 20 Amazon search operations of Table 1, cacheable.
const AMAZON_SEARCH: &str = "KeywordSearch, TextStreamSearch, PowerSearch, BrowseNodeSearch, \
    AsinSearch, BlendedSearch, UpcSearch, SkuSearch, AuthorSearch, ArtistSearch, ActorSearch, \
    ManufacturerSearch, DirectorSearch, ListManiaSearch, WishlistSearch, ExchangeSearch, \
    MarketplaceSearch, SellerProfileSearch, SellerSearch, SimilaritySearch";

/// The 6 Amazon shopping-cart operations of Table 1, uncacheable: they
/// read or change per-cart server state.
const AMAZON_CART: &str = "GetShoppingCart, ClearShoppingCart, AddShoppingCartItems, \
    RemoveShoppingCartItems, ModifyShoppingCartItems, GetTransactionDetails";

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
            AMAZON_SEARCH.to_string(),
            "cacheable".to_string(),
        ],
        vec![
            "Amazon Web services (cart)".to_string(),
            AMAZON_CART.to_string(),
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
    let fixtures = fixtures();
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
    let labels = ["XML message", "Java serialization", "toString method"];
    let rows: Vec<Vec<String>> = labels
        .into_iter()
        .zip(table6_raw(protocol, 1))
        .map(|(label, (_, cells))| {
            let mut row = vec![label.to_string()];
            row.extend(cells.into_iter().map(fmt_msec));
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
    let rows: Vec<Vec<String>> = table7_raw(protocol, 1)
        .into_iter()
        .map(|(repr, cells)| {
            let mut row = vec![repr.label().to_string()];
            row.extend(
                cells
                    .into_iter()
                    .map(|cell| cell.map_or_else(|| "n/a".to_string(), fmt_msec)),
            );
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
    let fixtures = fixtures();
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
/// `java_object_size` — field/type names live in the class, not the
/// instance).
pub fn table9() -> String {
    let fixtures = fixtures();
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
                .map(|f| java_object_size(&f.value))
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

/// Measures a `rows` × `columns` table of cells in `rounds` rounds and
/// keeps each cell's minimum. A round takes the columns (operations) in
/// turn and, within one, visits the rows (methods) in an order rotated
/// by the round, so a phase of the host lands on no one method and the
/// cells an ordering compares are measured side by side. `cell` returns
/// `None` for an n/a cell.
fn min_over_rounds(
    rows: usize,
    columns: usize,
    rounds: usize,
    mut cell: impl FnMut(usize, usize) -> Option<Duration>,
) -> Vec<Vec<Option<Duration>>> {
    let mut table = vec![None; rows * columns];
    for round in 0..rounds {
        for column in 0..columns {
            for step in 0..rows {
                let row = (round + step) % rows;
                let Some(d) = cell(row, column) else { continue };
                let kept = &mut table[row * columns + column];
                *kept = Some(kept.map_or(d, |k: Duration| k.min(d)));
            }
        }
    }
    table.chunks(columns).map(<[_]>::to_vec).collect()
}

/// Raw (numeric) Table 6 cells, each the minimum over `rounds`
/// interleaved rounds (see `min_over_rounds`).
pub fn table6_raw(protocol: Protocol, rounds: usize) -> Vec<(KeyStrategy, Vec<Duration>)> {
    let fixtures = fixtures();
    let registry = registry();
    let strategies = KeyStrategy::CONCRETE;
    let table = min_over_rounds(strategies.len(), fixtures.len(), rounds, |row, column| {
        let request = &fixtures[column].request;
        Some(measure(protocol, || {
            generate_key(strategies[row], ENDPOINT, request, &registry)
                .expect("applicable strategy")
        }))
    });
    // Every strategy applies to every request: no cell is n/a.
    strategies
        .into_iter()
        .zip(table)
        .map(|(strategy, cells)| (strategy, cells.into_iter().flatten().collect()))
        .collect()
}

/// Raw (numeric) Table 7 cells, each the minimum over `rounds`
/// interleaved rounds (see `min_over_rounds`); `None` marks the paper's
/// n/a cells.
pub fn table7_raw(
    protocol: Protocol,
    rounds: usize,
) -> Vec<(ValueRepresentation, Vec<Option<Duration>>)> {
    let fixtures = fixtures();
    let registry = registry();
    let forms = ValueRepresentation::ALL;
    let stored: Vec<Vec<Option<StoredResponse>>> = forms
        .iter()
        .map(|repr| {
            fixtures
                .iter()
                .map(|f| StoredResponse::build(*repr, f.artifacts(), &registry).ok())
                .collect()
        })
        .collect();
    let table = min_over_rounds(forms.len(), fixtures.len(), rounds, |row, column| {
        let stored = stored[row][column].as_ref()?;
        let return_type = &fixtures[column].return_type;
        Some(measure(protocol, || {
            stored
                .retrieve(return_type, &registry)
                .expect("stored entry retrieves")
        }))
    });
    forms.into_iter().zip(table).collect()
}

/// The paper's §6 table for a Java object graph shaped like `value`:
///
/// | object class                              | representation    |
/// |-------------------------------------------|-------------------|
/// | immutable (String, primitives)            | pass by reference |
/// | bean-type / array-type                    | copy by reflection|
/// | serializable                              | Java serialization|
/// | anything else                             | SAX event sequence|
///
/// `class_of` describes the Java class of each struct type; `shareable`
/// is the paper's read-only assertion (§4.2.4). The cache does not
/// classify: its values are copy-on-write, so every one is shareable
/// and the copy forms are never picked (DESIGN §3e).
fn paper_choice(value: &Value, class_of: ClassOf<'_>, shareable: bool) -> ValueRepresentation {
    // Rules a) to d) are a preference order over what the object
    // supports; SAX events always apply.
    let every = |has: fn(JavaClass) -> bool| every_class(value, class_of, has);
    if shareable || is_java_immutable(value) {
        ValueRepresentation::PassByReference
    } else if every(|c| c.bean) {
        ValueRepresentation::ReflectionCopy
    } else if every(|c| c.serializable) {
        ValueRepresentation::Serialization
    } else {
        ValueRepresentation::SaxEvents
    }
}

/// What §6 asks of a Java class: is it a bean (a default constructor
/// plus a getter and setter per field), is it `Serializable`.
#[derive(Debug, Clone, Copy)]
struct JavaClass {
    bean: bool,
    serializable: bool,
}

/// The Java class of a struct type, or `None` for a type nothing
/// describes (which supports neither copy).
type ClassOf<'a> = &'a dyn Fn(&str) -> Option<JavaClass>;

/// The Java class of each Google type: every one supports every method
/// ("we modified the GoogleSearchResult objects so that all of the
/// methods could be applied").
fn google_class(type_name: &str) -> Option<JavaClass> {
    registry().get(type_name).map(|_| JavaClass {
        bean: true,
        serializable: true,
    })
}

/// Whether the class of every struct in `value` is known and `has` it.
fn every_class(value: &Value, class_of: ClassOf<'_>, has: fn(JavaClass) -> bool) -> bool {
    match value {
        Value::Array(items) => items.iter().all(|item| every_class(item, class_of, has)),
        Value::Struct(s) => {
            class_of(s.type_name()).is_some_and(has)
                && s.fields()
                    .all(|(_, field)| every_class(field, class_of, has))
        }
        _ => true,
    }
}

/// Whether `value` is immutable *in Java*: `null`, a primitive or a
/// string, which §6 passes by reference without an assertion.
fn is_java_immutable(value: &Value) -> bool {
    match value {
        Value::Null
        | Value::Bool(_)
        | Value::Int(_)
        | Value::Long(_)
        | Value::Double(_)
        | Value::String(_) => true,
        Value::Bytes(_) | Value::Array(_) | Value::Struct(_) => false,
    }
}

/// Approximate size of the value as a *Java* object graph, Table 9's
/// "Java object" column. Java instances do not carry field or type
/// names (those live in the `Class`), so this counts a 16-byte header
/// per object, an 8-byte slot per field or array element, and string
/// and byte content — not what the cache charges
/// ([`wsrc_model::sizeof::deep_size`]).
fn java_object_size(value: &Value) -> usize {
    const HEADER: usize = 16;
    const SLOT: usize = 8;
    match value {
        // Primitives live in their holder's slot; no extra heap.
        Value::Null | Value::Bool(_) | Value::Int(_) | Value::Long(_) | Value::Double(_) => 0,
        Value::String(s) => HEADER + SLOT + s.len(),
        Value::Bytes(b) => HEADER + b.len(),
        Value::Array(items) => {
            HEADER + SLOT * items.len() + items.iter().map(java_object_size).sum::<usize>()
        }
        Value::Struct(s) => {
            HEADER
                + s.fields()
                    .map(|(_, v)| SLOT + java_object_size(v))
                    .sum::<usize>()
        }
    }
}

/// Sanity helper used by the optimal-configuration discussion (§6): what
/// the paper's table picks for each of the three responses.
pub fn optimal_configuration() -> String {
    let fixtures = fixtures();
    let rows: Vec<Vec<String>> = fixtures
        .iter()
        .map(|f| {
            let repr = paper_choice(&f.value, &google_class, false);
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
    let fixtures = fixtures();
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
    let fixtures = fixtures();
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
    use std::collections::BTreeSet;
    use wsrc_model::typeinfo::{FieldDescriptor, FieldType, TypeDescriptor, TypeRegistry};
    use wsrc_model::StructValue;

    #[test]
    fn static_tables_render() {
        assert!(table1().contains("doGoogleSearch"));
        assert!(table1().contains("GetShoppingCart"));
        assert!(table2().contains("toString method"));
        assert!(table3().contains("Passing by references"));
        assert!(table5().contains("large and complex"));
    }

    #[test]
    fn table1_inventory_is_complete() {
        let names = |list: &'static str| list.split(", ").collect::<BTreeSet<_>>();
        assert_eq!(names(AMAZON_SEARCH).len(), 20);
        assert_eq!(names(AMAZON_CART).len(), 6);
        assert!(names(AMAZON_SEARCH).is_disjoint(&names(AMAZON_CART)));
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
        // a few interleaved rounds (min-filtering) before asserting the
        // ordering.
        let raw = table6_raw(Protocol::quick(), 5);
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
        let raw = table7_raw(
            Protocol {
                warmup: 1,
                measured: 2,
            },
            1,
        );
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
        // The closest pairs (serialization and SAX, clone and reflection)
        // are 10-15 % apart, so the rounds are many and short: the least
        // of 250 means of 20 calls is a steadier floor than the least of
        // 5 means of 1 000.
        let raw = table7_raw(
            Protocol {
                warmup: 10,
                measured: 20,
            },
            250,
        );
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
        // Both tables are exact byte counts of the shared fixtures: a
        // change here means the requests or responses are not the ones
        // every other table and count measures.
        assert_eq!(
            [xml_keys, ser_keys, str_keys],
            [[644, 636, 946], [171, 171, 341], [153, 153, 251]]
        );
        assert_eq!(
            [xml_vals, cells(&t9, "Java serialized form"), obj_vals],
            [[561, 5486, 7616], [46, 3732, 3620], [63, 3740, 7084]]
        );
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
        let picks: Vec<_> = fixtures()
            .iter()
            .map(|f| paper_choice(&f.value, &google_class, false))
            .collect();
        assert_eq!(
            picks,
            [
                // a) immutable string
                ValueRepresentation::PassByReference,
                // b) array type (byte[])
                ValueRepresentation::ReflectionCopy,
                // b) bean type
                ValueRepresentation::ReflectionCopy,
            ]
        );
        let t = optimal_configuration();
        for (f, pick) in fixtures().iter().zip(picks) {
            let row = t.lines().find(|l| l.contains(f.label)).expect("a row");
            assert!(row.contains(pick.label()), "{row}");
        }
    }

    /// Classes for the §6 rules: a bean, a serializable non-bean, and a
    /// class that is neither; any other type is one nothing describes.
    fn rule_classes(type_name: &str) -> Option<JavaClass> {
        let (bean, serializable) = match type_name {
            "Bean" => (true, true),
            "SerOnly" => (false, true),
            "Opaque" => (false, false),
            _ => return None,
        };
        Some(JavaClass { bean, serializable })
    }

    #[test]
    fn paper_rule_a_immutables_pass_by_reference() {
        let r = rule_classes;
        assert_eq!(
            paper_choice(&Value::string("spelling"), &r, false),
            ValueRepresentation::PassByReference
        );
        assert_eq!(
            paper_choice(&Value::Int(1), &r, false),
            ValueRepresentation::PassByReference
        );
    }

    #[test]
    fn paper_rule_a_read_only_assertion_shares_mutables() {
        let r = rule_classes;
        let bean = Value::Struct(StructValue::new("Bean").with("x", 1));
        assert_eq!(
            paper_choice(&bean, &r, true),
            ValueRepresentation::PassByReference
        );
    }

    #[test]
    fn paper_rule_b_beans_and_arrays_reflect() {
        let r = rule_classes;
        let bean = Value::Struct(StructValue::new("Bean").with("x", 1));
        assert_eq!(
            paper_choice(&bean, &r, false),
            ValueRepresentation::ReflectionCopy
        );
        assert_eq!(
            paper_choice(&Value::Bytes(vec![1, 2].into()), &r, false),
            ValueRepresentation::ReflectionCopy
        );
        assert_eq!(
            paper_choice(&Value::Array(vec![Value::Int(1)].into()), &r, false),
            ValueRepresentation::ReflectionCopy
        );
    }

    #[test]
    fn paper_rule_c_serializables_serialize() {
        let r = rule_classes;
        let ser_only = Value::Struct(StructValue::new("SerOnly"));
        assert_eq!(
            paper_choice(&ser_only, &r, false),
            ValueRepresentation::Serialization
        );
    }

    #[test]
    fn paper_rule_d_everything_else_sax() {
        let r = rule_classes;
        let opaque = Value::Struct(StructValue::new("Opaque"));
        assert_eq!(
            paper_choice(&opaque, &r, false),
            ValueRepresentation::SaxEvents
        );
        let unknown = Value::Struct(StructValue::new("NeverRegistered"));
        assert_eq!(
            paper_choice(&unknown, &r, false),
            ValueRepresentation::SaxEvents
        );
    }

    #[test]
    fn immutability_classification() {
        assert!(is_java_immutable(&Value::string("s")));
        assert!(is_java_immutable(&Value::Int(1)));
        assert!(is_java_immutable(&Value::Null));
        assert!(!is_java_immutable(&Value::from(vec![1u8])));
        assert!(!is_java_immutable(&Value::from(vec![Value::Int(1)])));
        let bean = Value::Struct(StructValue::new("Bean").with("x", 1));
        assert!(!is_java_immutable(&bean));
    }

    #[test]
    fn java_object_size_counts_content_and_slots() {
        let bytes = Value::Bytes(vec![0; 100].into());
        assert_eq!(java_object_size(&bytes), 16 + 100);
        let arr = Value::Array(vec![Value::Int(1), Value::Int(2)].into());
        assert_eq!(java_object_size(&arr), 16 + 8 * 2);
        let s = Value::string("abcd");
        assert_eq!(java_object_size(&s), 16 + 8 + 4);
    }

    #[test]
    fn a_java_instance_pays_nothing_for_the_names_of_its_fields() {
        // A registry's shape and one made by hand weigh the same: in
        // Java's accounting names live in the class, not the instance.
        let r = TypeRegistry::builder()
            .register(TypeDescriptor::new(
                "Bean",
                vec![FieldDescriptor::new("x", FieldType::Int)],
            ))
            .build();
        let plan = r.plan("Bean").expect("registered");
        let full = Value::Struct(plan.instantiate([("x", 1.into())]));
        let by_hand = Value::Struct(StructValue::new("Bean").with("x", 1));
        assert_eq!(by_hand, full);
        assert_eq!(java_object_size(&by_hand), java_object_size(&full));
    }

    #[test]
    fn tostring_keys_render_parameters() {
        let t = tostring_keys();
        assert!(t.contains("phrase="));
        assert!(t.contains("q="));
    }
}
