//! The process-wide default registry.
//!
//! A cache, a client or a server built without a registry of its own
//! records here — metrics, spans and its reading of time — so callers
//! get all three without threading a registry through every API.
//! Components that need isolation (unit tests asserting exact counts or
//! driving a fake clock) construct their own [`MetricsRegistry`] and pass
//! it explicitly, or disambiguate with labels.

use crate::metrics::MetricsRegistry;
use std::sync::{Arc, OnceLock};

static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();

/// The process-wide registry (created on first use with a monotonic
/// clock).
pub fn global() -> Arc<MetricsRegistry> {
    GLOBAL
        .get_or_init(|| Arc::new(MetricsRegistry::new()))
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_is_a_singleton() {
        let a = global();
        let b = global();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(a.tracer(), b.tracer()));
        // Writes through one handle are visible through the other.
        a.counter("global_smoke_total", &[]).inc();
        assert_eq!(
            b.snapshot().counter_value("global_smoke_total", &[]),
            Some(1)
        );
    }
}
