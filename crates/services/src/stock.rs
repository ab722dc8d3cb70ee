//! A dummy stock-quote Web service — one of the back-end services the
//! paper's introduction puts behind the portal ("stock quote services,
//! search services, and news services").
//!
//! Quotes are a deterministic function of (symbol, time bucket): the
//! price drifts every `tick` seconds, so short TTLs genuinely matter —
//! the natural demonstration of per-operation TTL policy.

use crate::dispatch::SoapService;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use wsrc_cache::policy::{CachePolicy, OperationPolicy};
use wsrc_model::typeinfo::{FieldDescriptor, FieldType, TypeDescriptor, TypeRegistry};
use wsrc_model::value::{StructValue, Value};
use wsrc_soap::rpc::{OperationDescriptor, RpcRequest};
use wsrc_soap::SoapFault;

/// The service namespace.
pub const NAMESPACE: &str = "urn:StockQuote";
/// Conventional mount path on the dispatcher.
pub const PATH: &str = "/soap/stock";

/// Registry for quote responses.
pub fn registry() -> TypeRegistry {
    crate::registry_of(crate::Service::Stock, build_registry)
}

fn build_registry() -> TypeRegistry {
    TypeRegistry::builder()
        .register(TypeDescriptor::new(
            "Quote",
            vec![
                FieldDescriptor::new("symbol", FieldType::String),
                FieldDescriptor::new("price", FieldType::Double),
                FieldDescriptor::new("change", FieldType::Double),
                FieldDescriptor::new("volume", FieldType::Long),
                FieldDescriptor::new("tick", FieldType::Long),
            ],
        ))
        .build()
}

/// The operations: `getQuote(symbol)` and `getQuotes(symbols…)` via a
/// comma-separated list (SOAP-RPC keeps parameters scalar here).
pub fn operations() -> Vec<OperationDescriptor> {
    vec![
        OperationDescriptor::new(
            NAMESPACE,
            "getQuote",
            vec![FieldDescriptor::new("symbol", FieldType::String)],
            FieldType::Struct("Quote".into()),
        ),
        OperationDescriptor::new(
            NAMESPACE,
            "getQuotes",
            vec![FieldDescriptor::new("symbols", FieldType::String)],
            FieldType::ArrayOf(Box::new(FieldType::Struct("Quote".into()))),
        ),
    ]
}

/// A short-TTL policy: quotes stay fresh for 15 seconds — "The TTL
/// should be short enough to avoid consistency problems, which is
/// dependent on the service's semantics" (paper §3.2).
pub fn default_policy() -> CachePolicy {
    CachePolicy::new()
        .with(
            "getQuote",
            OperationPolicy::cacheable(Duration::from_secs(15)),
        )
        .with(
            "getQuotes",
            OperationPolicy::cacheable(Duration::from_secs(15)),
        )
}

/// The dummy stock-quote service. `advance_tick` moves the synthetic
/// market forward, changing subsequent quotes.
#[derive(Debug, Default)]
pub struct StockQuoteService {
    tick: AtomicU64,
}

impl StockQuoteService {
    /// A service at market tick 0.
    pub fn new() -> Self {
        StockQuoteService::default()
    }

    /// Moves the synthetic market forward one tick: prices change.
    pub fn advance_tick(&self) {
        self.tick.fetch_add(1, Ordering::SeqCst);
    }

    /// Current tick.
    pub fn tick(&self) -> u64 {
        self.tick.load(Ordering::SeqCst)
    }

    fn quote(&self, symbol: &str) -> StructValue {
        let tick = self.tick();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in symbol.bytes().chain(tick.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let base = 10.0 + (h % 99_000) as f64 / 100.0;
        let change = ((h >> 16) % 2001) as f64 / 100.0 - 10.0;
        registry()
            .plan("Quote")
            .expect("Quote is registered")
            .instantiate([
                ("symbol", symbol.to_uppercase().into()),
                ("price", ((base * 100.0).round() / 100.0).into()),
                ("change", ((change * 100.0).round() / 100.0).into()),
                ("volume", (((h >> 8) % 10_000_000) as i64).into()),
                ("tick", (tick as i64).into()),
            ])
    }
}

impl SoapService for StockQuoteService {
    fn namespace(&self) -> &str {
        NAMESPACE
    }

    fn operations(&self) -> Vec<OperationDescriptor> {
        operations()
    }

    fn registry(&self) -> TypeRegistry {
        registry()
    }

    fn call(&self, request: &RpcRequest) -> Result<Value, SoapFault> {
        match request.operation.as_str() {
            "getQuote" => {
                let symbol = request
                    .param("symbol")
                    .and_then(Value::as_str)
                    .ok_or_else(|| SoapFault::client("missing 'symbol'"))?;
                if symbol.is_empty() {
                    return Err(SoapFault::client("empty symbol"));
                }
                Ok(Value::Struct(self.quote(symbol)))
            }
            "getQuotes" => {
                let symbols = request
                    .param("symbols")
                    .and_then(Value::as_str)
                    .ok_or_else(|| SoapFault::client("missing 'symbols'"))?;
                let quotes: Vec<Value> = symbols
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(|s| Value::Struct(self.quote(s)))
                    .collect();
                Ok(Value::Array(quotes.into()))
            }
            other => Err(SoapFault::client(format!("unknown operation '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get_quote(svc: &StockQuoteService, sym: &str) -> StructValue {
        let req = RpcRequest::new(NAMESPACE, "getQuote").with_param("symbol", sym);
        svc.call(&req).unwrap().as_struct().unwrap().clone()
    }

    #[test]
    fn quotes_are_deterministic_within_a_tick() {
        let svc = StockQuoteService::new();
        assert_eq!(get_quote(&svc, "ibm"), get_quote(&svc, "ibm"));
        assert_ne!(get_quote(&svc, "ibm"), get_quote(&svc, "sun"));
    }

    #[test]
    fn ticks_move_the_market() {
        let svc = StockQuoteService::new();
        let before = get_quote(&svc, "ibm");
        svc.advance_tick();
        let after = get_quote(&svc, "ibm");
        assert_ne!(before, after);
        assert_eq!(after.get("tick"), Some(&Value::Long(1)));
    }

    #[test]
    fn symbols_are_normalized() {
        let svc = StockQuoteService::new();
        assert_eq!(
            get_quote(&svc, "ibm").get("symbol"),
            Some(&Value::string("IBM"))
        );
    }

    #[test]
    fn batch_quotes_parse_the_list() {
        let svc = StockQuoteService::new();
        let req = RpcRequest::new(NAMESPACE, "getQuotes").with_param("symbols", "ibm, sun,, hp ");
        let v = svc.call(&req).unwrap();
        let quotes = v.as_array().unwrap();
        assert_eq!(quotes.len(), 3);
    }

    #[test]
    fn bad_requests_fault() {
        let svc = StockQuoteService::new();
        assert!(svc.call(&RpcRequest::new(NAMESPACE, "getQuote")).is_err());
        assert!(svc
            .call(&RpcRequest::new(NAMESPACE, "getQuote").with_param("symbol", ""))
            .is_err());
        assert!(svc.call(&RpcRequest::new(NAMESPACE, "shortSell")).is_err());
    }

    #[test]
    fn policy_uses_a_short_ttl() {
        let p = default_policy();
        assert_eq!(p.for_operation("getQuote").ttl, Duration::from_secs(15));
        assert!(p.for_operation("getQuote").cacheable);
        assert!(!p.for_operation("somethingElse").cacheable);
    }
}
