//! Per-operation cache policy — paper §3.2 — and the online
//! [`AdaptivePolicy`] that replaces the paper's offline §6
//! optimal-configuration table.
//!
//! "We suggest that these cache policies are configured by a client
//! application administrator or deployer": each operation is declared
//! cacheable or uncacheable, with a TTL and an optional fixed
//! representation override. The paper's third knob, the read-only
//! assertion that lets a Java cache share a mutable object (§4.2.4), does
//! not exist here: every value is copy-on-write, so sharing is always
//! sound and there is nothing to assert.
//!
//! Selection precedence: forced
//! ([`OperationPolicy::with_representation`]), else [`AdaptivePolicy`]
//! if installed on the cache, else the §6 pick over the
//! [candidate set](crate::classify::candidate_representations).

use crate::classify::paper_pick;
use crate::repr::ValueRepresentation;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;
use wsrc_obs::metrics::Histogram;
use wsrc_obs::sync;

/// Policy for one operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperationPolicy {
    /// Whether responses may be cached at all.
    pub cacheable: bool,
    /// Time-to-live for cached responses.
    pub ttl: Duration,
    /// Force a specific representation instead of dynamic selection.
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

    /// Iterates declared `(operation, policy)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &OperationPolicy)> {
        self.operations.iter().map(|(k, v)| (k.as_str(), v))
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
        "m" => Some(Duration::from_secs(n * 60)),
        "h" => Some(Duration::from_secs(n * 3600)),
        "d" => Some(Duration::from_secs(n * 86_400)),
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

/// How an insert-time representation was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionMode {
    /// The administrator forced it via
    /// [`OperationPolicy::with_representation`].
    Forced,
    /// The adaptive policy is still gathering samples for this
    /// operation and picked the least-observed candidate.
    Explore,
    /// The adaptive policy picked the lowest-scoring candidate from
    /// its observations.
    Exploit,
}

impl SelectionMode {
    /// Stable label for the `mode` metric label.
    pub fn metric_label(&self) -> &'static str {
        match self {
            SelectionMode::Forced => "forced",
            SelectionMode::Explore => "explore",
            SelectionMode::Exploit => "exploit",
        }
    }
}

/// An insert-time decision from the [`AdaptivePolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// The representation to build first.
    pub representation: ValueRepresentation,
    /// How it was chosen.
    pub mode: SelectionMode,
}

/// Per-representation observation sums for one operation. Means derived
/// from these drive scoring; integer sums keep recording O(1) and the
/// scoring path allocation-free.
#[derive(Debug, Default, Clone, Copy)]
struct ReprStats {
    build_nanos_sum: u64,
    build_count: u64,
    retrieve_nanos_sum: u64,
    retrieve_count: u64,
    size_bytes_sum: u64,
    size_count: u64,
}

impl ReprStats {
    fn build_mean(&self) -> Option<u64> {
        (self.build_count > 0).then(|| self.build_nanos_sum / self.build_count)
    }

    fn retrieve_mean(&self) -> Option<u64> {
        (self.retrieve_count > 0).then(|| self.retrieve_nanos_sum / self.retrieve_count)
    }

    fn size_mean(&self) -> Option<u64> {
        (self.size_count > 0).then(|| self.size_bytes_sum / self.size_count)
    }
}

/// One operation's observation state.
#[derive(Debug, Default)]
struct OpState {
    /// Responses inserted for this operation.
    inserts: u64,
    /// Cache hits served for this operation.
    hits: u64,
    per: [ReprStats; ValueRepresentation::COUNT],
}

/// The cache-wide histograms the policy falls back to when an operation
/// has no local samples for a representation yet — costs observed for
/// *other* operations still inform the first decisions for a new one.
#[derive(Debug)]
struct Observations {
    build: [Histogram; ValueRepresentation::COUNT],
    retrieve: [Histogram; ValueRepresentation::COUNT],
}

/// Online representation selection — ROADMAP item 1's replacement for
/// the paper's offline §6 optimal-configuration table.
///
/// The policy keeps per-operation, per-representation sums of observed
/// build cost, retrieve cost and approximate stored size, plus
/// insert/hit counts. At insert time it scores every applicable
/// representation as
///
/// ```text
/// score = build_mean
///       + expected_hits × retrieve_mean
///       + size_weight × size_mean / 1024
/// ```
///
/// where `expected_hits = hits / max(1, inserts)` for the operation
/// (counting only inserts the store actually accepted; the comparison
/// is carried out multiplied through by `inserts`, so a fractional
/// ratio still weighs retrieve cost), and
/// picks the cheapest (ties go to the faster-retrieval representation).
/// Until every candidate has [`min
/// samples`](AdaptivePolicy::with_min_samples) local build observations
/// it explores the least-observed candidate instead, starting an
/// operation it has never seen from the paper's §6 choice. At retrieve
/// time [`conversion_target`](AdaptivePolicy::conversion_target) decides
/// whether a popular entry has earned a one-time conversion to the
/// cheapest-to-retrieve candidate.
///
/// See the module docs for precedence against
/// [`OperationPolicy::with_representation`] and the §6 table.
#[derive(Debug)]
pub struct AdaptivePolicy {
    state: Mutex<HashMap<String, OpState>>,
    observations: OnceLock<Observations>,
    min_samples: u64,
    size_weight_nanos_per_kib: u64,
    convert_after_hits: u64,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy::new()
    }
}

impl AdaptivePolicy {
    /// A policy with default tuning: 2 build samples per candidate
    /// before exploiting, 50 ns/KiB size weight, conversions allowed
    /// from the first repeat hit.
    pub fn new() -> Self {
        AdaptivePolicy {
            state: Mutex::new(HashMap::new()),
            observations: OnceLock::new(),
            min_samples: 2,
            size_weight_nanos_per_kib: 50,
            convert_after_hits: 1,
        }
    }

    /// Local build samples each candidate needs before the policy stops
    /// exploring an operation (0 disables exploration).
    pub fn with_min_samples(mut self, n: u64) -> Self {
        self.min_samples = n;
        self
    }

    /// Memory-pressure weight: nanoseconds of penalty per KiB of
    /// approximate stored size (0 scores purely on time).
    pub fn with_size_weight(mut self, nanos_per_kib: u64) -> Self {
        self.size_weight_nanos_per_kib = nanos_per_kib;
        self
    }

    /// Minimum hits an entry must have served before a convert-on-hit
    /// is considered.
    pub fn with_convert_after_hits(mut self, hits: u64) -> Self {
        self.convert_after_hits = hits;
        self
    }

    /// Installs the cache-wide per-representation build/retrieve
    /// histograms used as a fallback when an operation has no local
    /// samples. First caller wins; the cache builder calls this once.
    pub(crate) fn attach_observations(
        &self,
        build: [Histogram; ValueRepresentation::COUNT],
        retrieve: [Histogram; ValueRepresentation::COUNT],
    ) {
        let _ = self.observations.set(Observations { build, retrieve });
    }

    /// Build-cost estimate: local mean, else the cache-wide histogram.
    fn build_est(&self, stats: &ReprStats, repr: ValueRepresentation) -> Option<u64> {
        stats.build_mean().or_else(|| {
            let snap = self.observations.get()?.build[repr.index()].snapshot();
            (snap.count > 0).then(|| snap.mean_nanos())
        })
    }

    /// Retrieve-cost estimate: local mean, else the cache-wide histogram.
    fn retrieve_est(&self, stats: &ReprStats, repr: ValueRepresentation) -> Option<u64> {
        stats.retrieve_mean().or_else(|| {
            let snap = self.observations.get()?.retrieve[repr.index()].snapshot();
            (snap.count > 0).then(|| snap.mean_nanos())
        })
    }

    /// Picks the representation to build first for an insert of
    /// `operation`, from the applicable `candidates` (never empty).
    pub fn select_insert(&self, operation: &str, candidates: &[ValueRepresentation]) -> Selection {
        let state = sync::lock_class("AdaptivePolicy.state", &self.state);
        let Some(op) = state.get(operation) else {
            // Never seen: the paper's table is the prior.
            return Selection {
                representation: paper_pick(candidates),
                mode: SelectionMode::Explore,
            };
        };
        let unexplored = candidates
            .iter()
            .copied()
            .filter(|r| op.per[r.index()].build_count < self.min_samples)
            .min_by_key(|r| (op.per[r.index()].build_count, std::cmp::Reverse(r.index())));
        if let Some(repr) = unexplored {
            return Selection {
                representation: repr,
                mode: SelectionMode::Explore,
            };
        }
        // score × inserts, so `expected_hits = hits / inserts` never
        // truncates to zero while hits < inserts.
        let inserts = u128::from(op.inserts.max(1));
        let repr = candidates
            .iter()
            .copied()
            .min_by_key(|r| {
                let stats = &op.per[r.index()];
                let build = self.build_est(stats, *r).unwrap_or(u64::MAX / 4);
                let retrieve = self.retrieve_est(stats, *r).unwrap_or(u64::MAX / 4);
                let size_kib = stats.size_mean().unwrap_or(0) / 1024;
                let size_penalty = self.size_weight_nanos_per_kib.saturating_mul(size_kib);
                let score = (u128::from(build) * inserts)
                    .saturating_add(u128::from(op.hits) * u128::from(retrieve))
                    .saturating_add(u128::from(size_penalty) * inserts);
                (score, std::cmp::Reverse(r.index()))
            })
            .unwrap_or(ValueRepresentation::XmlMessage);
        Selection {
            representation: repr,
            mode: SelectionMode::Exploit,
        }
    }

    /// The representation an entry of `operation` that has served
    /// `hits` lookups from `served` should be converted to, if any: the
    /// cheapest-to-retrieve of `candidates_mask` (a
    /// [`ValueRepresentation::bit`] set) by observed retrieve cost,
    /// provided the projected retrieval savings over a comparable
    /// number of future hits repay the conversion (build) cost plus the
    /// target's size penalty. Conversions are exploit-only — every cost
    /// involved must have been observed.
    pub fn conversion_target(
        &self,
        operation: &str,
        hits: u64,
        served: ValueRepresentation,
        candidates_mask: u8,
    ) -> Option<ValueRepresentation> {
        if hits < self.convert_after_hits {
            return None;
        }
        let state = sync::lock_class("AdaptivePolicy.state", &self.state);
        let op = state.get(operation)?;
        let (to_retrieve, to) = ValueRepresentation::from_mask(candidates_mask)
            .filter_map(|r| Some((self.retrieve_est(&op.per[r.index()], r)?, r)))
            .min_by_key(|&(cost, r)| (cost, std::cmp::Reverse(r.index())))?;
        let from_retrieve = self.retrieve_est(&op.per[served.index()], served)?;
        // Also covers `to == served`.
        if to_retrieve >= from_retrieve {
            return None;
        }
        let to_build = self.build_est(&op.per[to.index()], to)?;
        let size_penalty = self
            .size_weight_nanos_per_kib
            .saturating_mul(op.per[to.index()].size_mean().unwrap_or(0) / 1024);
        // An entry hit `hits` times is expected to serve about as many
        // more; the conversion must pay for itself over that horizon.
        (hits.saturating_mul(from_retrieve - to_retrieve) > to_build.saturating_add(size_penalty))
            .then_some(to)
    }

    /// Runs `update` on `operation`'s state under the policy lock,
    /// allocating the key only the first time an operation is seen.
    fn with_op(&self, operation: &str, update: impl FnOnce(&mut OpState)) {
        let mut state = sync::lock_class("AdaptivePolicy.state", &self.state);
        match state.get_mut(operation) {
            Some(op) => update(op),
            None => update(state.entry(operation.to_string()).or_default()),
        }
    }

    /// Records a build: `repr` was materialized for `operation` in
    /// `nanos`, occupying `size_bytes` — on the miss path or by a
    /// convert-on-hit. The cost and size are valid observations whether
    /// or not the store goes on to accept the entry; the insert itself
    /// is counted separately by
    /// [`record_insert`](AdaptivePolicy::record_insert) once it does.
    pub fn record_build(
        &self,
        operation: &str,
        repr: ValueRepresentation,
        nanos: u64,
        size_bytes: usize,
    ) {
        self.with_op(operation, |op| {
            let stats = &mut op.per[repr.index()];
            stats.build_nanos_sum += nanos;
            stats.build_count += 1;
            stats.size_bytes_sum += size_bytes as u64;
            stats.size_count += 1;
        });
    }

    /// Counts a response actually stored for `operation`. Called only
    /// after the store accepts the entry: builds whose entries are
    /// refused (e.g. oversized for any shard) can never serve a hit,
    /// so counting them would deflate `expected_hits = hits / inserts`
    /// and bias scoring toward cheap-build representations.
    pub fn record_insert(&self, operation: &str) {
        self.with_op(operation, |op| op.inserts += 1);
    }

    /// Records a hit-path retrieval from `repr` for `operation`.
    pub fn record_retrieve(&self, operation: &str, repr: ValueRepresentation, nanos: u64) {
        self.with_op(operation, |op| {
            op.hits += 1;
            let stats = &mut op.per[repr.index()];
            stats.retrieve_nanos_sum += nanos;
            stats.retrieve_count += 1;
        });
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

    #[test]
    fn adaptive_explores_every_candidate_then_exploits() {
        let p = AdaptivePolicy::new()
            .with_min_samples(1)
            .with_size_weight(0);
        let c = [
            ValueRepresentation::XmlMessage,
            ValueRepresentation::ReflectionCopy,
            ValueRepresentation::CloneCopy,
        ];
        // Unseen operation: explore, starting from the paper's §6 pick
        // for a bean (reflection), not from the highest index.
        let s = p.select_insert("op", &c);
        assert_eq!(s.mode, SelectionMode::Explore);
        assert_eq!(s.representation, ValueRepresentation::ReflectionCopy);
        p.record_build("op", ValueRepresentation::ReflectionCopy, 2_000, 100);
        // The other candidates are still unsampled: keep exploring.
        let s = p.select_insert("op", &c);
        assert_eq!(s.mode, SelectionMode::Explore);
        assert_eq!(s.representation, ValueRepresentation::CloneCopy);
        p.record_build("op", ValueRepresentation::CloneCopy, 1_000, 100);
        let s = p.select_insert("op", &c);
        assert_eq!(s.mode, SelectionMode::Explore);
        assert_eq!(s.representation, ValueRepresentation::XmlMessage);
        p.record_build("op", ValueRepresentation::XmlMessage, 10, 100);
        // All sampled; no hits yet, so build cost decides: XML's 10ns
        // build beats the 1µs and 2µs copies.
        let s = p.select_insert("op", &c);
        assert_eq!(s.mode, SelectionMode::Exploit);
        assert_eq!(s.representation, ValueRepresentation::XmlMessage);
        // A hit-heavy history flips the decision: XML re-parses at
        // 100µs a hit while the clone copies in 10ns.
        for _ in 0..10 {
            p.record_retrieve("op", ValueRepresentation::XmlMessage, 100_000);
        }
        p.record_retrieve("op", ValueRepresentation::CloneCopy, 10);
        let s = p.select_insert("op", &c);
        assert_eq!(s.mode, SelectionMode::Exploit);
        assert_eq!(s.representation, ValueRepresentation::CloneCopy);
    }

    #[test]
    fn size_weight_penalizes_bulky_representations() {
        let heavy = AdaptivePolicy::new()
            .with_min_samples(0)
            .with_size_weight(1_000_000);
        let c = [
            ValueRepresentation::XmlMessage,
            ValueRepresentation::DomTree,
        ];
        // Equal time costs, wildly different sizes.
        heavy.record_build("op", ValueRepresentation::XmlMessage, 100, 1024);
        heavy.record_build("op", ValueRepresentation::DomTree, 100, 64 * 1024);
        heavy.record_retrieve("op", ValueRepresentation::XmlMessage, 100);
        heavy.record_retrieve("op", ValueRepresentation::DomTree, 100);
        let s = heavy.select_insert("op", &c);
        assert_eq!(s.representation, ValueRepresentation::XmlMessage);
    }

    #[test]
    fn fractional_expected_hits_still_weigh_retrieve_cost() {
        let p = AdaptivePolicy::new()
            .with_min_samples(0)
            .with_size_weight(0);
        // The clone's 10ns retrieve is known cache-wide, from another
        // operation's hits.
        let metrics = wsrc_obs::MetricsRegistry::new();
        let per_repr = |name: &str| {
            ValueRepresentation::ALL_EXTENDED
                .map(|r| metrics.histogram(name, &[("repr", r.metric_label())]))
        };
        let retrieve = per_repr("retrieve");
        retrieve[ValueRepresentation::CloneCopy.index()].record_nanos(10);
        p.attach_observations(per_repr("build"), retrieve);
        p.record_build("op", ValueRepresentation::XmlMessage, 10, 0);
        p.record_build("op", ValueRepresentation::CloneCopy, 1_000, 0);
        p.record_insert("op");
        p.record_insert("op");
        p.record_retrieve("op", ValueRepresentation::XmlMessage, 100_000);
        // One hit in two inserts: expected_hits = 0.5, so the clone's
        // 1µs + 0.5 × 10ns beats XML's 10ns + 0.5 × 100µs. Integer
        // division would zero the retrieve term and store the XML for
        // its cheap build.
        let c = [
            ValueRepresentation::XmlMessage,
            ValueRepresentation::CloneCopy,
        ];
        let s = p.select_insert("op", &c);
        assert_eq!(s.mode, SelectionMode::Exploit);
        assert_eq!(s.representation, ValueRepresentation::CloneCopy);
    }

    #[test]
    fn conversion_targets_the_cheapest_observed_candidate() {
        let p = AdaptivePolicy::new().with_size_weight(0);
        let xml = ValueRepresentation::XmlMessage;
        let sax = ValueRepresentation::SaxEvents;
        let mask = xml.bit() | sax.bit();
        // Nothing observed anywhere: no target.
        assert_eq!(p.conversion_target("op", 10, xml, mask), None);
        p.record_retrieve("op", xml, 50_000);
        p.record_retrieve("op", sax, 5_000);
        p.record_build("op", sax, 1_000, 0);
        assert_eq!(p.conversion_target("op", 10, xml, mask), Some(sax));
        // Masked-out representations are never targets, and an entry
        // already in the cheapest candidate form stays put.
        assert_eq!(p.conversion_target("op", 10, xml, xml.bit()), None);
        assert_eq!(p.conversion_target("op", 10, sax, mask), None);
    }

    #[test]
    fn rejected_builds_do_not_deflate_expected_hits() {
        let p = AdaptivePolicy::new()
            .with_min_samples(0)
            .with_size_weight(0);
        let c = [
            ValueRepresentation::XmlMessage,
            ValueRepresentation::CloneCopy,
        ];
        // Ten builds were observed but only one entry was accepted by
        // the store (the rest were refused, e.g. oversized).
        for _ in 0..10 {
            p.record_build("op", ValueRepresentation::XmlMessage, 10, 0);
        }
        p.record_build("op", ValueRepresentation::CloneCopy, 50_000, 0);
        p.record_insert("op");
        p.record_retrieve("op", ValueRepresentation::XmlMessage, 100_000);
        p.record_retrieve("op", ValueRepresentation::CloneCopy, 10);
        // expected_hits = 2 hits / 1 accepted insert = 2: the retrieve
        // term dominates and the cheap-to-retrieve clone wins. Counting
        // the nine refused builds as inserts would zero expected_hits
        // and flip the choice to the cheap-to-build XML form.
        let s = p.select_insert("op", &c);
        assert_eq!(s.mode, SelectionMode::Exploit);
        assert_eq!(s.representation, ValueRepresentation::CloneCopy);
    }

    #[test]
    fn conversions_require_observed_payoff() {
        let p = AdaptivePolicy::new()
            .with_convert_after_hits(2)
            .with_size_weight(0);
        let from = ValueRepresentation::XmlMessage;
        let to = ValueRepresentation::CloneCopy;
        let mask = from.bit() | to.bit();
        // Unknown costs: never convert.
        assert_eq!(p.conversion_target("op", 10, from, mask), None);
        p.record_retrieve("op", from, 100_000);
        p.record_retrieve("op", to, 1_000);
        // The target's build cost is still unobserved: not yet.
        assert_eq!(p.conversion_target("op", 10, from, mask), None);
        p.record_build("op", to, 50_000, 256);
        // Below the popularity threshold: not yet.
        assert_eq!(p.conversion_target("op", 1, from, mask), None);
        // 2 projected hits save 2×99µs > the 50µs build: convert.
        assert_eq!(p.conversion_target("op", 2, from, mask), Some(to));
        // A build that the projected hits cannot repay does not.
        p.record_build("op", to, 10_000_000, 256);
        assert_eq!(p.conversion_target("op", 2, from, mask), None);
    }
}
