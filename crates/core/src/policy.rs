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
//! A policy is built in code — [`CachePolicy::with`] per operation,
//! [`CachePolicy::with_default`] for the rest. Selection is one
//! expression: the form [`OperationPolicy::with_representation`] forces,
//! else the shared object. `Serialization` is the one override with a
//! measured case for it — a byte-budgeted cache in front of a slow back
//! end holds about twice the entries (DESIGN.md §3e).

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
    pub fn with(mut self, operation: impl Into<String>, policy: OperationPolicy) -> Self {
        self.operations.insert(operation.into(), policy);
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
    fn builders_compose() {
        let p = OperationPolicy::cacheable(Duration::from_secs(1))
            .with_representation(ValueRepresentation::CloneCopy);
        assert!(p.cacheable);
        assert_eq!(p.representation, Some(ValueRepresentation::CloneCopy));
    }
}
