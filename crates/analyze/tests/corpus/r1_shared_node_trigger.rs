//! R1 trigger: a lock two `Arc` hops below `Value`, through the shared
//! node types. Every clone of the value reaches the same `Mutex`, so one
//! holder could change what every other holder — the cache included —
//! reads, and copy-on-write never sees it: `Arc::make_mut` copies nodes,
//! not what hides behind a lock inside them.

pub enum Value {
    Null,
    Bytes(Arc<[u8]>),
    Array(Arc<[Value]>),
    Struct(StructValue),
}

pub struct StructValue {
    node: Arc<StructNode>,
}

struct StructNode {
    type_name: Arc<str>,
    fields: Vec<(Arc<str>, Value)>,
    extras: Arc<FieldIndex>,
}

struct FieldIndex {
    by_name: Mutex<Vec<(u64, u32)>>,
}
