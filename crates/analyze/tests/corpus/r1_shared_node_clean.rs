//! R1 clean: the shared node types as the model declares them. Two
//! `Arc` hops below `Value` there is only plain data, so a node is
//! changed by `Arc::make_mut` or not at all.

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
    by_name: Vec<(u64, u32)>,
}
