//! The dummy Amazon Web service — paper Table 1's operation inventory.
//!
//! Twenty search operations (cacheable) and six shopping-cart operations
//! (uncacheable, because they read or mutate per-cart server state). The
//! cart operations are genuinely stateful here, so tests can demonstrate
//! why caching them would be wrong.

use crate::dispatch::SoapService;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;
use wsrc_cache::policy::{CachePolicy, OperationPolicy};
use wsrc_model::typeinfo::{FieldDescriptor, FieldType, StructPlan, TypeDescriptor, TypeRegistry};
use wsrc_model::value::Value;
use wsrc_soap::rpc::{OperationDescriptor, RpcRequest};
use wsrc_soap::SoapFault;

/// The service namespace.
pub const NAMESPACE: &str = "urn:AmazonSearch";
/// Conventional mount path on the dispatcher.
pub const PATH: &str = "/soap/amazon";

/// The 20 search operations of paper Table 1 (upper part).
pub const SEARCH_OPERATIONS: [&str; 20] = [
    "KeywordSearch",
    "TextStreamSearch",
    "PowerSearch",
    "BrowseNodeSearch",
    "AsinSearch",
    "BlendedSearch",
    "UpcSearch",
    "SkuSearch",
    "AuthorSearch",
    "ArtistSearch",
    "ActorSearch",
    "ManufacturerSearch",
    "DirectorSearch",
    "ListManiaSearch",
    "WishlistSearch",
    "ExchangeSearch",
    "MarketplaceSearch",
    "SellerProfileSearch",
    "SellerSearch",
    "SimilaritySearch",
];

/// The 6 shopping-cart operations of paper Table 1 (lower part).
pub const CART_OPERATIONS: [&str; 6] = [
    "GetShoppingCart",
    "ClearShoppingCart",
    "AddShoppingCartItems",
    "RemoveShoppingCartItems",
    "ModifyShoppingCartItems",
    "GetTransactionDetails",
];

/// The registry for Amazon responses.
pub fn registry() -> TypeRegistry {
    crate::registry_of(crate::Service::Amazon, build_registry)
}

fn build_registry() -> TypeRegistry {
    TypeRegistry::builder()
        .register(TypeDescriptor::new(
            "ProductInfo",
            vec![
                FieldDescriptor::new("asin", FieldType::String),
                FieldDescriptor::new("productName", FieldType::String),
                FieldDescriptor::new("ourPrice", FieldType::String),
            ],
        ))
        .register(TypeDescriptor::new(
            "SearchResultPage",
            vec![
                FieldDescriptor::new("totalResults", FieldType::Int),
                FieldDescriptor::new(
                    "details",
                    FieldType::ArrayOf(Box::new(FieldType::Struct("ProductInfo".into()))),
                ),
            ],
        ))
        .register(TypeDescriptor::new(
            "ShoppingCart",
            vec![
                FieldDescriptor::new("cartId", FieldType::String),
                FieldDescriptor::new("items", FieldType::ArrayOf(Box::new(FieldType::String))),
            ],
        ))
        .build()
}

/// Operation descriptors for all 26 operations.
pub fn operations() -> Vec<OperationDescriptor> {
    let mut ops: Vec<OperationDescriptor> = SEARCH_OPERATIONS
        .iter()
        .map(|name| {
            OperationDescriptor::new(
                NAMESPACE,
                *name,
                vec![
                    FieldDescriptor::new("keyword", FieldType::String),
                    FieldDescriptor::new("page", FieldType::Int),
                ],
                FieldType::Struct("SearchResultPage".into()),
            )
        })
        .collect();
    for name in CART_OPERATIONS {
        let mut params = vec![FieldDescriptor::new("cartId", FieldType::String)];
        if name.contains("Items") {
            params.push(FieldDescriptor::new("item", FieldType::String));
        }
        ops.push(OperationDescriptor::new(
            NAMESPACE,
            name,
            params,
            FieldType::Struct("ShoppingCart".into()),
        ));
    }
    ops
}

/// The paper's suggested policy: "20 search operations … are cacheable
/// and the 6 shopping cart operations … are uncacheable" (§3.2).
pub fn default_policy() -> CachePolicy {
    let mut policy = CachePolicy::new();
    for op in SEARCH_OPERATIONS {
        policy.set(op, OperationPolicy::cacheable(Duration::from_secs(3600)));
    }
    for op in CART_OPERATIONS {
        policy.set(op, OperationPolicy::uncacheable());
    }
    policy
}

/// The dummy Amazon service: deterministic searches, stateful carts.
#[derive(Debug, Default)]
pub struct AmazonService {
    carts: Mutex<HashMap<String, Vec<String>>>,
}

impl AmazonService {
    /// A fresh service with no carts.
    pub fn new() -> Self {
        AmazonService::default()
    }

    fn search(&self, operation: &str, keyword: &str, page: i32) -> Value {
        // Deterministic page of 5 products derived from the inputs.
        let types = registry();
        let product = plan(&types, "ProductInfo");
        let mut details = Vec::with_capacity(5);
        for i in 0..5 {
            let asin = stable_hash(&format!("{operation}|{keyword}|{page}|{i}"));
            details.push(Value::Struct(product.instantiate([
                ("asin", format!("B{asin:010}").into()),
                (
                    "productName",
                    format!("{keyword} ({operation} result {})", page * 5 + i).into(),
                ),
                (
                    "ourPrice",
                    format!("${}.{:02}", 5 + asin % 95, asin % 100).into(),
                ),
            ])));
        }
        Value::Struct(plan(&types, "SearchResultPage").instantiate([
            (
                "totalResults",
                (500 + (stable_hash(keyword) % 10_000) as i32).into(),
            ),
            ("details", details.into()),
        ]))
    }

    fn cart_value(&self, cart_id: &str, items: &[String]) -> Value {
        Value::Struct(plan(&registry(), "ShoppingCart").instantiate([
            ("cartId", cart_id.into()),
            (
                "items",
                Value::Array(items.iter().map(Value::string).collect()),
            ),
        ]))
    }
}

fn plan<'r>(types: &'r TypeRegistry, name: &str) -> &'r StructPlan {
    types.plan(name).expect("every response type is registered")
}

fn stable_hash(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h % 1_000_000_007
}

impl SoapService for AmazonService {
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
        let op = request.operation.as_str();
        if SEARCH_OPERATIONS.contains(&op) {
            let keyword = request
                .param("keyword")
                .and_then(Value::as_str)
                .ok_or_else(|| SoapFault::client("missing 'keyword'"))?;
            let page = request.param("page").and_then(Value::as_int).unwrap_or(1);
            return Ok(self.search(op, keyword, page));
        }
        let cart_id = request
            .param("cartId")
            .and_then(Value::as_str)
            .ok_or_else(|| SoapFault::client("missing 'cartId'"))?
            .to_string();
        let item = request
            .param("item")
            .and_then(Value::as_str)
            .map(str::to_string);
        let mut carts = self.carts.lock().unwrap();
        let items = carts.entry(cart_id.clone()).or_default();
        match op {
            "GetShoppingCart" | "GetTransactionDetails" => {}
            "ClearShoppingCart" => items.clear(),
            "AddShoppingCartItems" => {
                items.push(item.ok_or_else(|| SoapFault::client("missing 'item'"))?);
            }
            "RemoveShoppingCartItems" => {
                let target = item.ok_or_else(|| SoapFault::client("missing 'item'"))?;
                items.retain(|i| *i != target);
            }
            "ModifyShoppingCartItems" => {
                let target = item.ok_or_else(|| SoapFault::client("missing 'item'"))?;
                if let Some(first) = items.first_mut() {
                    *first = target;
                }
            }
            other => return Err(SoapFault::client(format!("unknown operation '{other}'"))),
        }
        let snapshot = items.clone();
        drop(carts);
        Ok(self.cart_value(&cart_id, &snapshot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn search_req(op: &str, kw: &str) -> RpcRequest {
        RpcRequest::new(NAMESPACE, op)
            .with_param("keyword", kw)
            .with_param("page", 1)
    }

    fn cart_req(op: &str, cart: &str, item: Option<&str>) -> RpcRequest {
        let mut r = RpcRequest::new(NAMESPACE, op).with_param("cartId", cart);
        if let Some(i) = item {
            r = r.with_param("item", i);
        }
        r
    }

    #[test]
    fn table1_inventory_is_complete() {
        assert_eq!(SEARCH_OPERATIONS.len(), 20);
        assert_eq!(CART_OPERATIONS.len(), 6);
        assert_eq!(operations().len(), 26);
    }

    #[test]
    fn default_policy_splits_as_the_paper_suggests() {
        let p = default_policy();
        for op in SEARCH_OPERATIONS {
            assert!(p.for_operation(op).cacheable, "{op} should be cacheable");
        }
        for op in CART_OPERATIONS {
            assert!(!p.for_operation(op).cacheable, "{op} should be uncacheable");
        }
    }

    #[test]
    fn searches_are_deterministic_and_distinct() {
        let svc = AmazonService::new();
        let a = svc.call(&search_req("KeywordSearch", "rust")).unwrap();
        let b = svc.call(&search_req("KeywordSearch", "rust")).unwrap();
        assert_eq!(a, b);
        let c = svc.call(&search_req("KeywordSearch", "java")).unwrap();
        assert_ne!(a, c);
        let d = svc.call(&search_req("AuthorSearch", "rust")).unwrap();
        assert_ne!(a, d, "same keyword, different operation");
    }

    #[test]
    fn every_search_operation_answers() {
        let svc = AmazonService::new();
        for op in SEARCH_OPERATIONS {
            let v = svc.call(&search_req(op, "x")).unwrap();
            let page = v.as_struct().unwrap();
            assert_eq!(page.type_name(), "SearchResultPage");
            assert_eq!(page.get("details").unwrap().as_array().unwrap().len(), 5);
        }
    }

    #[test]
    fn cart_operations_are_stateful() {
        let svc = AmazonService::new();
        let empty = svc.call(&cart_req("GetShoppingCart", "c1", None)).unwrap();
        assert_eq!(
            empty
                .as_struct()
                .unwrap()
                .get("items")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            0
        );
        svc.call(&cart_req("AddShoppingCartItems", "c1", Some("book")))
            .unwrap();
        svc.call(&cart_req("AddShoppingCartItems", "c1", Some("cd")))
            .unwrap();
        let two = svc.call(&cart_req("GetShoppingCart", "c1", None)).unwrap();
        assert_eq!(
            two.as_struct()
                .unwrap()
                .get("items")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            2
        );
        // The same GetShoppingCart request now returns something different
        // from before — this is exactly why the paper marks cart
        // operations uncacheable.
        assert_ne!(empty, two);
        svc.call(&cart_req("RemoveShoppingCartItems", "c1", Some("book")))
            .unwrap();
        svc.call(&cart_req("ModifyShoppingCartItems", "c1", Some("dvd")))
            .unwrap();
        let modified = svc.call(&cart_req("GetShoppingCart", "c1", None)).unwrap();
        let items = modified
            .as_struct()
            .unwrap()
            .get("items")
            .unwrap()
            .as_array()
            .unwrap()
            .to_vec();
        assert_eq!(items, vec![Value::string("dvd")]);
        svc.call(&cart_req("ClearShoppingCart", "c1", None))
            .unwrap();
        let cleared = svc.call(&cart_req("GetShoppingCart", "c1", None)).unwrap();
        assert_eq!(
            cleared
                .as_struct()
                .unwrap()
                .get("items")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn carts_are_isolated_by_id() {
        let svc = AmazonService::new();
        svc.call(&cart_req("AddShoppingCartItems", "a", Some("x")))
            .unwrap();
        let b = svc.call(&cart_req("GetShoppingCart", "b", None)).unwrap();
        assert_eq!(
            b.as_struct()
                .unwrap()
                .get("items")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn missing_parameters_fault() {
        let svc = AmazonService::new();
        assert!(svc
            .call(&RpcRequest::new(NAMESPACE, "KeywordSearch"))
            .is_err());
        assert!(svc
            .call(&RpcRequest::new(NAMESPACE, "AddShoppingCartItems").with_param("cartId", "c"))
            .is_err());
    }
}
