//! Deterministic synthetic corpus for the dummy Google service.
//!
//! Every response is a pure function of the request parameters, like the
//! paper's dummy services that "return the same response XML messages
//! every time". Sizes are tuned so that on the wire the three operations
//! land near the paper's Table 9 (CachedPage and GoogleSearch responses
//! around 5 KB of XML, SpellingSuggestion around 0.5 KB).

use std::sync::Arc;
use wsrc_model::tree::TreeBuilder;
use wsrc_model::value::{Shape, Value};
use wsrc_xml::escape::escape_text;

/// Deterministic response generator.
#[derive(Debug, Clone)]
pub(crate) struct Corpus {
    /// Target size of cached-page payloads in bytes (pre-base64).
    pub page_bytes: usize,
    /// Result elements per search page when the caller asks for more.
    pub max_page_size: i32,
}

impl Default for Corpus {
    fn default() -> Self {
        Corpus {
            page_bytes: 3600,
            max_page_size: 10,
        }
    }
}

const WORDS: [&str; 32] = [
    "distributed",
    "caching",
    "middleware",
    "response",
    "latency",
    "throughput",
    "envelope",
    "serialization",
    "reflection",
    "portal",
    "service",
    "interface",
    "protocol",
    "transparent",
    "consistency",
    "replication",
    "endpoint",
    "registry",
    "deployment",
    "optimal",
    "dynamic",
    "immutable",
    "representation",
    "benchmark",
    "cluster",
    "gateway",
    "schema",
    "transport",
    "pipeline",
    "overhead",
    "scalable",
    "lease",
];

const DOMAINS: [&str; 8] = [
    "example.org",
    "research.test",
    "infra.test",
    "papers.test",
    "archive.test",
    "web.test",
    "portal.test",
    "cache.test",
];

const CATEGORIES: [&str; 6] = [
    "Top/Computers/Distributed_Computing",
    "Top/Computers/Internet/Protocols",
    "Top/Computers/Software/Middleware",
    "Top/Science/Computer_Science",
    "Top/Computers/Data_Formats/XML",
    "Top/Computers/Performance",
];

/// SplitMix64: tiny, deterministic, seedable — responses must be a pure
/// function of the request across runs and platforms.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn seeded(text: &str) -> Rng {
        // FNV-1a over the text gives a stable seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        Rng(h)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn word(&mut self) -> &'static str {
        WORDS[self.below(WORDS.len() as u64) as usize]
    }

    /// Appends `n` dictionary words, space-separated, to `out` — a page
    /// or a search result's tree, neither of which refuses text.
    fn words(&mut self, n: usize, out: &mut impl std::fmt::Write) {
        for i in 0..n {
            let separator = if i == 0 { "" } else { " " };
            let word = self.word();
            out.write_str(separator)
                .and_then(|()| out.write_str(word))
                .expect("in-memory text takes any string");
        }
    }
}

impl Corpus {
    /// `doSpellingSuggestion`: a deterministic "correction" of the phrase.
    /// Small and simple (a single string).
    pub(crate) fn spelling_suggestion(&self, phrase: &str) -> Value {
        let mut rng = Rng::seeded(phrase);
        // Deterministically "fix" the phrase by doubling a vowel-less
        // word's first letter or appending a dictionary word.
        let corrected = if phrase.is_empty() {
            rng.word().to_string()
        } else {
            format!("{} {}", phrase.trim(), rng.word())
        };
        Value::string(corrected)
    }

    /// `doGetCachedPage`: a deterministic HTML page of ~`page_bytes`
    /// bytes. Large and simple (one byte array).
    pub(crate) fn cached_page(&self, url: &str) -> Vec<u8> {
        let mut rng = Rng::seeded(url);
        let mut html = String::with_capacity(self.page_bytes + 256);
        html.push_str("<html><head><title>");
        rng.words(4, &mut html);
        html.push_str("</title></head><body>");
        while html.len() < self.page_bytes {
            html.push_str("<p>");
            rng.words(12, &mut html);
            html.push_str("</p>");
        }
        html.push_str("</body></html>");
        html.into_bytes()
    }

    /// How many results a page starting at `start` holds: `max_results`
    /// within `0..=max_page_size`, cut so that `start + count` — the
    /// page's `endIndex` — still fits an `i32`. `start` comes off the
    /// wire: at `i32::MAX` the page is empty, not an overflow.
    fn page_len(&self, start: i32, max_results: i32) -> i32 {
        max_results
            .clamp(0, self.max_page_size)
            .min(i32::MAX.saturating_sub(start))
    }

    /// `doGoogleSearch`: a deterministic, fully-populated
    /// `GoogleSearchResult`. Large and complex.
    ///
    /// Built as one tree ([`TreeBuilder`]): every word, URL and snippet is
    /// written straight into the tree's one text block, the structs carry
    /// the registry's own shapes, and the whole result is *depth* + 2
    /// allocations. The snippet is HTML the service writes, so the query
    /// goes into it escaped.
    pub(crate) fn search_result(&self, q: &str, start: i32, max_results: i32) -> Value {
        let types = super::registry();
        let shape = |name: &str| {
            types
                .plan(name)
                .expect("every Google type is registered")
                .shape()
                .clone()
        };
        let shapes = Shapes {
            element: shape("ResultElement"),
            category: shape("DirectoryCategory"),
        };
        let mut b = Builder {
            tree: TreeBuilder::new(),
            rng: Rng::seeded(q),
        };
        let count = self.page_len(start, max_results);
        let estimated = 1_000 + b.rng.below(1_000_000) as i32;
        let q_html = escape_text(q);
        b.tree.open(11);
        // `documentFiltering` is drawn after the elements, as it always
        // was; a placeholder holds its slot until then.
        b.tree.value(Value::Null);
        b.string(|_| {}); // searchComments
        b.tree.value(Value::Int(estimated));
        b.tree.value(Value::Bool(false)); // estimateIsExact
        b.tree.open(count as usize);
        for i in 0..count {
            b.result_element(&shapes, &q_html, start + i);
        }
        b.tree.close_array();
        b.string(|b| b.tree.push_text(q)); // searchQuery
        b.tree.value(Value::Int(start));
        b.tree.value(Value::Int(start + count));
        b.string(|_| {}); // searchTips
        b.tree.open(2);
        for _ in 0..2 {
            b.directory_category(&shapes);
        }
        b.tree.close_array();
        let filtering = b.rng.below(2) == 0;
        b.tree.value(Value::Bool(filtering));
        b.tree.replace_child(0);
        let search_time = b.rng.below(400_000) as f64 / 1_000_000.0;
        b.tree.value(Value::Double(search_time));
        b.tree.close_struct(shape("GoogleSearchResult"));
        b.tree.finish().expect("a search result is one small tree")
    }
}

/// The registry shapes a search result's nested structs carry.
struct Shapes {
    element: Arc<Shape>,
    category: Arc<Shape>,
}

/// A search result under construction: the tree and the draws that fill
/// it, in the order the corpus has always made them.
struct Builder {
    tree: TreeBuilder,
    rng: Rng,
}

impl Builder {
    /// Adds a string leaf: whatever `write` appends to the tree's text.
    fn string(&mut self, write: impl FnOnce(&mut Self)) {
        let start = self.tree.text_len();
        write(self);
        self.tree.string_at(start..self.tree.text_len());
    }

    /// Appends `n` dictionary words to the tree's text.
    fn words(&mut self, n: usize) {
        self.rng.words(n, &mut self.tree);
    }

    fn result_element(&mut self, shapes: &Shapes, q_html: &str, rank: i32) {
        let domain = DOMAINS[self.rng.below(DOMAINS.len() as u64) as usize];
        let slug = [self.rng.word(), self.rng.word()];
        self.tree.open(10);
        self.string(|b| b.words(5)); // summary
        self.string(|b| {
            for part in ["http://", domain, "/", slug[0], "-", slug[1], "?r="] {
                b.tree.push_text(part);
            }
            push_display(&mut b.tree, rank);
        });
        self.string(|b| {
            b.tree.push_text("...");
            b.words(3);
            b.tree.push_text(" <b>");
            b.tree.push_text(q_html);
            b.tree.push_text("</b> ");
            b.words(3);
            b.tree.push_text("...");
        });
        self.string(|b| b.words(3)); // title
        self.string(|b| {
            push_display(&mut b.tree, 1 + b.rng.below(90));
            b.tree.push_text("k");
        });
        let related = self.rng.below(2) == 0;
        self.tree.value(Value::Bool(related));
        self.string(|b| b.tree.push_text(domain)); // hostName
        self.directory_category(shapes);
        self.string(|b| b.words(2)); // directoryTitle
        self.string(|b| b.tree.push_text("en")); // language
        self.tree.close_struct(shapes.element.clone());
    }

    fn directory_category(&mut self, shapes: &Shapes) {
        self.tree.open(2);
        let name = CATEGORIES[self.rng.below(CATEGORIES.len() as u64) as usize];
        self.string(|b| b.tree.push_text(name));
        self.string(|_| {}); // specialEncoding
        self.tree.close_struct(shapes.category.clone());
    }
}

/// Appends a number to the tree's text, with no `String` of its own.
fn push_display(tree: &mut TreeBuilder, n: impl std::fmt::Display) {
    use std::fmt::Write;
    write!(tree, "{n}").expect("the tree's text takes any string");
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrc_model::sizeof::deep_size;
    use wsrc_model::typeinfo::StructPlan;
    use wsrc_model::value::StructValue;

    fn sentence(rng: &mut Rng, n: usize) -> String {
        let mut out = String::new();
        rng.words(n, &mut out);
        out
    }

    /// The search result as the corpus built it before it built one tree:
    /// struct by struct through `StructPlan::instantiate`, every string a
    /// `String` of its own — with the snippet's query escaped and the page
    /// cut where its end would overflow, the changes made on purpose since.
    fn search_by_instantiate(c: &Corpus, q: &str, start: i32, max_results: i32) -> Value {
        let types = crate::google::registry();
        let plan = |name: &str| types.plan(name).unwrap();
        let (result, element, category) = (
            plan("GoogleSearchResult"),
            plan("ResultElement"),
            plan("DirectoryCategory"),
        );
        let mut rng = Rng::seeded(q);
        let count = c.page_len(start, max_results);
        let estimated = 1_000 + rng.below(1_000_000) as i32;
        let mut elements = Vec::new();
        for i in 0..count {
            elements.push(Value::Struct(result_element(
                element,
                category,
                &mut rng,
                q,
                start + i,
            )));
        }
        let mut categories = Vec::new();
        for _ in 0..2 {
            categories.push(Value::Struct(directory_category(category, &mut rng)));
        }
        Value::Struct(result.instantiate([
            ("documentFiltering", (rng.below(2) == 0).into()),
            ("searchComments", "".into()),
            ("estimatedTotalResultsCount", estimated.into()),
            ("estimateIsExact", false.into()),
            ("resultElements", elements.into()),
            ("searchQuery", q.into()),
            ("startIndex", start.into()),
            ("endIndex", (start + count).into()),
            ("searchTips", "".into()),
            ("directoryCategories", categories.into()),
            (
                "searchTime",
                ((rng.below(400_000) as f64) / 1_000_000.0).into(),
            ),
        ]))
    }

    fn result_element(
        element: &StructPlan,
        category: &StructPlan,
        rng: &mut Rng,
        q: &str,
        rank: i32,
    ) -> StructValue {
        let domain = DOMAINS[rng.below(DOMAINS.len() as u64) as usize];
        let slug = sentence(rng, 2).replace(' ', "-");
        element.instantiate([
            ("summary", sentence(rng, 5).into()),
            ("URL", format!("http://{domain}/{slug}?r={rank}").into()),
            (
                "snippet",
                format!(
                    "...{} <b>{}</b> {}...",
                    sentence(rng, 3),
                    escape_text(q),
                    sentence(rng, 3)
                )
                .into(),
            ),
            ("title", sentence(rng, 3).into()),
            ("cachedSize", format!("{}k", 1 + rng.below(90)).into()),
            ("relatedInformationPresent", (rng.below(2) == 0).into()),
            ("hostName", domain.into()),
            (
                "directoryCategory",
                Value::Struct(directory_category(category, rng)),
            ),
            ("directoryTitle", sentence(rng, 2).into()),
            ("language", "en".into()),
        ])
    }

    fn directory_category(category: &StructPlan, rng: &mut Rng) -> StructValue {
        category.instantiate([
            (
                "fullViewableName",
                CATEGORIES[rng.below(CATEGORIES.len() as u64) as usize].into(),
            ),
            ("specialEncoding", "".into()),
        ])
    }

    #[test]
    fn the_tree_built_result_equals_the_instantiated_one() {
        let c = Corpus::default();
        let mut rng = Rng::seeded("oracle");
        const PIECES: [&str; 8] = ["rust", "soap", " ", "&", "<b>", "é", "\"q\"", "42"];
        for case in 0..240 {
            let q: String = (0..rng.below(6))
                .map(|_| PIECES[rng.below(PIECES.len() as u64) as usize])
                .collect();
            let start = rng.below(1_000) as i32 - 10;
            let max = rng.below(16) as i32 - 2;
            let built = c.search_result(&q, start, max);
            let oracle = search_by_instantiate(&c, &q, start, max);
            assert_eq!(built, oracle, "case {case}: {q:?} {start} {max}");
            // Every struct carries the registry's own shape.
            let s = built.as_struct().unwrap();
            assert!(s.shape().is_schema(), "case {case}");
        }
    }

    #[test]
    fn a_search_result_is_a_few_blocks() {
        let c = Corpus::default();
        let v = c.search_result("blocks", 0, 10);
        // Text, the root's fields, the two arrays' items, their fields,
        // and the categories' fields under the elements: one block each.
        let mut blocks = std::collections::HashSet::new();
        fn walk(v: &Value, into: &mut std::collections::HashSet<usize>) {
            into.extend(v.block().map(|b| b.id));
            match v {
                Value::Array(items) => items.iter().for_each(|v| walk(v, into)),
                Value::Struct(s) => s.fields().for_each(|(_, v)| walk(v, into)),
                _ => {}
            }
        }
        walk(&v, &mut blocks);
        assert!(blocks.len() <= 5, "{} blocks", blocks.len());
    }

    #[test]
    fn the_query_is_escaped_inside_the_snippet_only() {
        let c = Corpus::default();
        let q = "<script>alert(1)</script> & more";
        let v = c.search_result(q, 0, 3);
        let s = v.as_struct().unwrap();
        assert_eq!(s.get("searchQuery").unwrap().as_str(), Some(q));
        for e in s.get("resultElements").unwrap().as_array().unwrap() {
            let snippet = e.as_struct().unwrap().get("snippet").unwrap();
            let snippet = snippet.as_str().unwrap();
            assert!(!snippet.contains("<script>"), "{snippet}");
            assert!(
                snippet.contains("<b>&lt;script&gt;alert(1)&lt;/script&gt; &amp; more</b>"),
                "{snippet}"
            );
        }
    }

    #[test]
    fn responses_are_pure_functions_of_inputs() {
        let c = Corpus::default();
        assert_eq!(c.spelling_suggestion("teh"), c.spelling_suggestion("teh"));
        assert_eq!(c.cached_page("http://a/"), c.cached_page("http://a/"));
        assert_eq!(c.search_result("q", 0, 10), c.search_result("q", 0, 10));
    }

    #[test]
    fn different_inputs_differ() {
        let c = Corpus::default();
        assert_ne!(c.cached_page("http://a/"), c.cached_page("http://b/"));
        assert_ne!(c.search_result("x", 0, 10), c.search_result("y", 0, 10));
    }

    #[test]
    fn page_size_is_near_target() {
        let c = Corpus::default();
        let page = c.cached_page("http://example.test/");
        assert!(page.len() >= c.page_bytes, "page is {}", page.len());
        assert!(page.len() < c.page_bytes + 300);
    }

    #[test]
    fn search_result_is_fully_populated() {
        let c = Corpus::default();
        let v = c.search_result("rust soap", 0, 10);
        let r = v.as_struct().unwrap();
        assert_eq!(r.len(), 11, "all eleven fields set");
        let elements = r.get("resultElements").unwrap().as_array().unwrap();
        assert_eq!(elements.len(), 10);
        for e in elements {
            let e = e.as_struct().unwrap();
            assert_eq!(e.len(), 10, "all ten ResultElement fields set");
            assert!(e
                .get("URL")
                .unwrap()
                .as_str()
                .unwrap()
                .starts_with("http://"));
            assert_eq!(
                e.get("directoryCategory")
                    .unwrap()
                    .as_struct()
                    .unwrap()
                    .type_name(),
                "DirectoryCategory"
            );
        }
    }

    #[test]
    fn max_results_is_clamped() {
        let c = Corpus::default();
        let elements = |max| {
            let v = c.search_result("q", 0, max);
            let s = v.as_struct().unwrap();
            s.get("resultElements").unwrap().as_array().unwrap().len()
        };
        assert_eq!(elements(100), 10);
        assert_eq!(elements(3), 3);
        assert_eq!(elements(-5), 0);
    }

    #[test]
    fn relative_sizes_match_table5_classification() {
        let c = Corpus::default();
        let small = c.spelling_suggestion("helo");
        let large_simple = Value::Bytes(c.cached_page("http://x/").into());
        let large_complex = c.search_result("q", 0, 10);
        assert!(deep_size(&small) < 200);
        assert!(deep_size(&large_simple) > 3000);
        assert!(deep_size(&large_complex) > 3000);
        // Complex has far more nodes than the flat page despite similar size.
        assert!(large_complex.node_count() > 100);
        assert_eq!(large_simple.node_count(), 1);
    }
}
