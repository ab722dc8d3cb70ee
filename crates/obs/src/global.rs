//! The process-wide default registry.
//!
//! The client's stage histograms, and every cache or server built
//! without a registry of its own, record here so callers get metrics
//! without threading a registry through every API. Components that
//! need isolation (unit tests asserting exact counts) construct their
//! own [`MetricsRegistry`] and pass it explicitly, or disambiguate
//! with labels.

use crate::clock::MonotonicClock;
use crate::metrics::MetricsRegistry;
use crate::trace::Tracer;
use std::sync::{Arc, OnceLock};

static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();
static GLOBAL_TRACER: OnceLock<Arc<Tracer>> = OnceLock::new();

/// The process-wide registry (created on first use with a monotonic
/// clock).
pub fn global() -> Arc<MetricsRegistry> {
    GLOBAL
        .get_or_init(|| Arc::new(MetricsRegistry::new()))
        .clone()
}

/// The process-wide tracer (created on first use with a monotonic
/// clock and default tail-retention). Components needing deterministic
/// timestamps construct their own [`Tracer`] over a manual clock and
/// pass it explicitly.
pub fn global_tracer() -> Arc<Tracer> {
    GLOBAL_TRACER
        .get_or_init(|| Tracer::new(Arc::new(MonotonicClock::new())))
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_tracer_is_a_singleton() {
        let a = global_tracer();
        let b = global_tracer();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn global_is_a_singleton() {
        let a = global();
        let b = global();
        assert!(Arc::ptr_eq(&a, &b));
        // Writes through one handle are visible through the other.
        a.counter("global_smoke_total", &[]).inc();
        assert_eq!(
            b.snapshot().counter_value("global_smoke_total", &[]),
            Some(1)
        );
    }
}
