//! Deterministic synthetic corpus for the dummy Google service.
//!
//! Every response is a pure function of the request parameters, like the
//! paper's dummy services that "return the same response XML messages
//! every time". Sizes are tuned so that on the wire the three operations
//! land near the paper's Table 9 (CachedPage and GoogleSearch responses
//! around 5 KB of XML, SpellingSuggestion around 0.5 KB).

use wsrc_model::typeinfo::StructPlan;
use wsrc_model::value::{StructValue, Value};

/// Deterministic response generator.
#[derive(Debug, Clone)]
pub struct Corpus {
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

    fn sentence(&mut self, words: usize) -> String {
        let mut out = String::with_capacity(words * 9);
        for i in 0..words {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(self.word());
        }
        out
    }
}

impl Corpus {
    /// `doSpellingSuggestion`: a deterministic "correction" of the phrase.
    /// Small and simple (a single string).
    pub fn spelling_suggestion(&self, phrase: &str) -> Value {
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
    pub fn cached_page(&self, url: &str) -> Vec<u8> {
        let mut rng = Rng::seeded(url);
        let mut html = String::with_capacity(self.page_bytes + 256);
        html.push_str("<html><head><title>");
        html.push_str(&rng.sentence(4));
        html.push_str("</title></head><body>");
        while html.len() < self.page_bytes {
            html.push_str("<p>");
            html.push_str(&rng.sentence(12));
            html.push_str("</p>");
        }
        html.push_str("</body></html>");
        html.into_bytes()
    }

    /// `doGoogleSearch`: a deterministic, fully-populated
    /// `GoogleSearchResult`. Large and complex.
    pub fn search_result(&self, q: &str, start: i32, max_results: i32) -> StructValue {
        // The response's structs carry the registry's own type and
        // field names.
        let types = super::registry();
        let plan = |name: &str| types.plan(name).expect("every Google type is registered");
        let (result, element, category) = (
            plan("GoogleSearchResult"),
            plan("ResultElement"),
            plan("DirectoryCategory"),
        );
        let mut rng = Rng::seeded(q);
        let count = max_results.clamp(0, self.max_page_size);
        let estimated = 1_000 + rng.below(1_000_000) as i32;
        let mut elements = Vec::with_capacity(count as usize);
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
        result.instantiate([
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
        ])
    }
}

fn result_element(
    element: &StructPlan,
    category: &StructPlan,
    rng: &mut Rng,
    q: &str,
    rank: i32,
) -> StructValue {
    let domain = DOMAINS[rng.below(DOMAINS.len() as u64) as usize];
    let slug = rng.sentence(2).replace(' ', "-");
    element.instantiate([
        ("summary", rng.sentence(5).into()),
        ("URL", format!("http://{domain}/{slug}?r={rank}").into()),
        (
            "snippet",
            format!("...{} <b>{}</b> {}...", rng.sentence(3), q, rng.sentence(3)).into(),
        ),
        ("title", rng.sentence(3).into()),
        ("cachedSize", format!("{}k", 1 + rng.below(90)).into()),
        ("relatedInformationPresent", (rng.below(2) == 0).into()),
        ("hostName", domain.into()),
        (
            "directoryCategory",
            Value::Struct(directory_category(category, rng)),
        ),
        ("directoryTitle", rng.sentence(2).into()),
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

#[cfg(test)]
mod tests {
    use super::*;
    use wsrc_model::sizeof::deep_size;

    #[test]
    fn responses_are_pure_functions_of_inputs() {
        let c = Corpus::default();
        assert_eq!(c.spelling_suggestion("teh"), c.spelling_suggestion("teh"));
        assert_eq!(c.cached_page("http://a/"), c.cached_page("http://a/"));
        assert_eq!(
            Value::Struct(c.search_result("q", 0, 10)),
            Value::Struct(c.search_result("q", 0, 10))
        );
    }

    #[test]
    fn different_inputs_differ() {
        let c = Corpus::default();
        assert_ne!(c.cached_page("http://a/"), c.cached_page("http://b/"));
        assert_ne!(
            Value::Struct(c.search_result("x", 0, 10)),
            Value::Struct(c.search_result("y", 0, 10))
        );
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
        let r = c.search_result("rust soap", 0, 10);
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
        let r = c.search_result("q", 0, 100);
        assert_eq!(
            r.get("resultElements").unwrap().as_array().unwrap().len(),
            10
        );
        let r = c.search_result("q", 0, 3);
        assert_eq!(
            r.get("resultElements").unwrap().as_array().unwrap().len(),
            3
        );
        let r = c.search_result("q", 0, -5);
        assert_eq!(
            r.get("resultElements").unwrap().as_array().unwrap().len(),
            0
        );
    }

    #[test]
    fn relative_sizes_match_table5_classification() {
        let c = Corpus::default();
        let small = c.spelling_suggestion("helo");
        let large_simple = Value::Bytes(c.cached_page("http://x/").into());
        let large_complex = Value::Struct(c.search_result("q", 0, 10));
        assert!(deep_size(&small) < 200);
        assert!(deep_size(&large_simple) > 3000);
        assert!(deep_size(&large_complex) > 3000);
        // Complex has far more nodes than the flat page despite similar size.
        assert!(large_complex.node_count() > 100);
        assert_eq!(large_simple.node_count(), 1);
    }
}
