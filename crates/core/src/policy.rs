//! Per-operation cache policy — paper §3.2.
//!
//! "We suggest that these cache policies are configured by a client
//! application administrator or deployer": each operation is declared
//! cacheable or uncacheable, with a TTL and an optional fixed
//! representation override. The paper's third knob, the read-only
//! assertion that lets a Java cache share a mutable object (§4.2.4), does
//! not exist here: every value is copy-on-write, so sharing is always
//! sound and there is nothing to assert.
//!
//! Selection is one expression: the form
//! [`OperationPolicy::with_representation`] forces, else the shared
//! object. `repr=serialization` is the one override with a measured
//! case for it — a byte-budgeted cache in front of a slow back end
//! holds about twice the entries (DESIGN.md §3e).

use crate::repr::ValueRepresentation;
use std::collections::HashMap;
use std::time::Duration;

/// Policy for one operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperationPolicy {
    /// Whether responses may be cached at all.
    pub cacheable: bool,
    /// Time-to-live for cached responses.
    pub ttl: Duration,
    /// The form to store under; `None` stores the shared object.
    pub representation: Option<ValueRepresentation>,
}

impl OperationPolicy {
    /// A cacheable policy with the given TTL.
    pub fn cacheable(ttl: Duration) -> Self {
        OperationPolicy {
            cacheable: true,
            ttl,
            representation: None,
        }
    }

    /// An uncacheable policy.
    pub fn uncacheable() -> Self {
        OperationPolicy {
            cacheable: false,
            ttl: Duration::ZERO,
            representation: None,
        }
    }

    /// Builder-style representation override.
    pub fn with_representation(mut self, repr: ValueRepresentation) -> Self {
        self.representation = Some(repr);
        self
    }
}

/// The administrator-authored policy table: operation name → policy, plus
/// a default for unlisted operations.
///
/// The safe default is *uncacheable*: the administrator "should know
/// server application semantics" before enabling caching (§3.2).
#[derive(Debug, Clone, Default)]
pub struct CachePolicy {
    operations: HashMap<String, OperationPolicy>,
    default: Option<OperationPolicy>,
}

impl CachePolicy {
    /// An empty policy: nothing is cacheable until declared.
    pub fn new() -> Self {
        CachePolicy::default()
    }

    /// Declares a policy for one operation.
    pub fn set(&mut self, operation: impl Into<String>, policy: OperationPolicy) -> &mut Self {
        self.operations.insert(operation.into(), policy);
        self
    }

    /// Builder-style [`set`](CachePolicy::set).
    pub fn with(mut self, operation: impl Into<String>, policy: OperationPolicy) -> Self {
        self.set(operation, policy);
        self
    }

    /// Sets the policy applied to operations not explicitly listed.
    pub fn with_default(mut self, policy: OperationPolicy) -> Self {
        self.default = Some(policy);
        self
    }

    /// Forces `repr` for every operation declared so far and for the
    /// default — how benchmarks and tests pin one column of Table 7.
    pub fn with_representation(mut self, repr: ValueRepresentation) -> Self {
        for policy in self.operations.values_mut().chain(self.default.as_mut()) {
            policy.representation = Some(repr);
        }
        self
    }

    /// The effective policy for an operation.
    pub fn for_operation(&self, operation: &str) -> OperationPolicy {
        self.operations
            .get(operation)
            .or(self.default.as_ref())
            .cloned()
            .unwrap_or_else(OperationPolicy::uncacheable)
    }

    /// Number of explicitly-declared operations.
    pub fn len(&self) -> usize {
        self.operations.len()
    }

    /// Whether no operations are declared.
    pub fn is_empty(&self) -> bool {
        self.operations.is_empty()
    }

    /// Parses a policy from the simple text format used by deployment
    /// descriptors:
    ///
    /// ```text
    /// # comment
    /// doGoogleSearch        cacheable ttl=3600s
    /// doSpellingSuggestion  cacheable ttl=1h
    /// AddShoppingCartItems  uncacheable
    /// doGetCachedPage       cacheable ttl=30m repr=reflection
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line for unknown verbs,
    /// unparsable TTLs, unknown representations and unknown options —
    /// among them `read-only`, which earlier versions accepted: it is
    /// rejected with its reason rather than silently ignored.
    pub fn parse(text: &str) -> Result<CachePolicy, String> {
        let mut policy = CachePolicy::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or_default().trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let Some(op) = parts.next() else {
                continue;
            };
            let verb = parts
                .next()
                .ok_or_else(|| format!("line {}: missing cacheable/uncacheable", lineno + 1))?;
            let mut entry = match verb {
                "cacheable" => OperationPolicy::cacheable(Duration::from_secs(3600)),
                "uncacheable" => OperationPolicy::uncacheable(),
                other => return Err(format!("line {}: unknown verb '{other}'", lineno + 1)),
            };
            for opt in parts {
                if let Some(ttl) = opt.strip_prefix("ttl=") {
                    entry.ttl = parse_duration(ttl)
                        .ok_or_else(|| format!("line {}: bad ttl '{ttl}'", lineno + 1))?;
                } else if opt == "read-only" {
                    return Err(format!(
                        "line {}: 'read-only' is no longer an option: responses are \
                         copy-on-write, so the cache shares every one without the assertion; \
                         remove the token",
                        lineno + 1
                    ));
                } else if let Some(repr) = opt.strip_prefix("repr=") {
                    entry.representation = Some(parse_repr(repr).ok_or_else(|| {
                        format!("line {}: unknown representation '{repr}'", lineno + 1)
                    })?);
                } else {
                    return Err(format!("line {}: unknown option '{opt}'", lineno + 1));
                }
            }
            policy.set(op, entry);
        }
        Ok(policy)
    }
}

fn parse_duration(s: &str) -> Option<Duration> {
    let (digits, unit) = s.split_at(s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len()));
    let n: u64 = digits.parse().ok()?;
    match unit {
        "" | "s" => Some(Duration::from_secs(n)),
        "ms" => Some(Duration::from_millis(n)),
        "m" => n.checked_mul(60).map(Duration::from_secs),
        "h" => n.checked_mul(3600).map(Duration::from_secs),
        "d" => n.checked_mul(86_400).map(Duration::from_secs),
        _ => None,
    }
}

fn parse_repr(s: &str) -> Option<ValueRepresentation> {
    match s {
        "xml" => Some(ValueRepresentation::XmlMessage),
        "sax" => Some(ValueRepresentation::SaxEvents),
        "serialization" => Some(ValueRepresentation::Serialization),
        "reflection" => Some(ValueRepresentation::ReflectionCopy),
        "clone" => Some(ValueRepresentation::CloneCopy),
        "reference" => Some(ValueRepresentation::PassByReference),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlisted_operations_default_to_uncacheable() {
        let p = CachePolicy::new();
        assert!(!p.for_operation("anything").cacheable);
        let p = p.with_default(OperationPolicy::cacheable(Duration::from_secs(5)));
        assert!(p.for_operation("anything").cacheable);
    }

    #[test]
    fn explicit_entries_win_over_default() {
        let p = CachePolicy::new()
            .with("GetShoppingCart", OperationPolicy::uncacheable())
            .with_default(OperationPolicy::cacheable(Duration::from_secs(1)));
        assert!(!p.for_operation("GetShoppingCart").cacheable);
        assert!(p.for_operation("KeywordSearch").cacheable);
    }

    #[test]
    fn parse_full_syntax() {
        let text = "
            # Google operations — all cacheable (paper Table 1)
            doGoogleSearch        cacheable ttl=3600s
            doSpellingSuggestion  cacheable ttl=1h
            doGetCachedPage       cacheable ttl=30m repr=reflection
            AddShoppingCartItems  uncacheable
        ";
        let p = CachePolicy::parse(text).unwrap();
        assert_eq!(p.len(), 4);
        let search = p.for_operation("doGoogleSearch");
        assert!(search.cacheable);
        assert_eq!(search.ttl, Duration::from_secs(3600));
        let spell = p.for_operation("doSpellingSuggestion");
        assert_eq!(spell.ttl, Duration::from_secs(3600));
        let page = p.for_operation("doGetCachedPage");
        assert_eq!(
            page.representation,
            Some(ValueRepresentation::ReflectionCopy)
        );
        assert_eq!(page.ttl, Duration::from_secs(1800));
        assert!(!p.for_operation("AddShoppingCartItems").cacheable);
    }

    #[test]
    fn parse_rejects_bad_lines() {
        assert!(CachePolicy::parse("op sometimes").is_err());
        assert!(CachePolicy::parse("op cacheable ttl=abc").is_err());
        assert!(CachePolicy::parse("op cacheable repr=psychic").is_err());
        assert!(CachePolicy::parse("op cacheable frobnicate").is_err());
        assert!(CachePolicy::parse("op").is_err());
        // A TTL whose seconds overflow is a bad TTL, not a wrapped one.
        let err = CachePolicy::parse("# policy\nop cacheable ttl=999999999999999d").unwrap_err();
        assert_eq!(err, "line 2: bad ttl '999999999999999d'");
    }

    #[test]
    fn the_retired_read_only_token_is_rejected_with_its_reason() {
        let text = "# policy\nsearch cacheable ttl=1h\nspell cacheable ttl=1h read-only\n";
        let err = CachePolicy::parse(text).unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        assert!(err.contains("'read-only' is no longer an option"), "{err}");
        assert!(err.contains("copy-on-write"), "{err}");
    }

    #[test]
    fn parse_ignores_comments_and_blanks() {
        let p = CachePolicy::parse("\n# nothing\n\n  # more\n").unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn duration_units() {
        assert_eq!(parse_duration("90"), Some(Duration::from_secs(90)));
        assert_eq!(parse_duration("250ms"), Some(Duration::from_millis(250)));
        assert_eq!(parse_duration("2m"), Some(Duration::from_secs(120)));
        assert_eq!(parse_duration("1d"), Some(Duration::from_secs(86_400)));
        assert_eq!(parse_duration("999999999999999d"), None);
        assert_eq!(parse_duration("307445734561825861m"), None);
        assert_eq!(
            parse_duration("18446744073709551615s"),
            Some(Duration::from_secs(u64::MAX))
        );
        assert_eq!(parse_duration("5y"), None);
        assert_eq!(parse_duration(""), None);
    }

    #[test]
    fn builders_compose() {
        let p = OperationPolicy::cacheable(Duration::from_secs(1))
            .with_representation(ValueRepresentation::CloneCopy);
        assert!(p.cacheable);
        assert_eq!(p.representation, Some(ValueRepresentation::CloneCopy));
    }
}
