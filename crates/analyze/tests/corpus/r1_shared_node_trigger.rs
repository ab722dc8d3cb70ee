//! R1 trigger: interior mutability behind both kinds of handle a value
//! holds. A lock two hops below `Value` through the *shape* handle, and
//! a write-once cell through a *block* handle: every clone of the value
//! reaches the same `Mutex` and the same `OnceLock`, so one holder could
//! change what every other holder — the cache included — reads, and
//! copy-on-write never sees it: a container copies its own range out of
//! a shared block, not what hides behind a cell inside the block or the
//! shape.

pub enum Value {
    Null,
    String(Text),
    Bytes(Arc<[u8]>),
    Array(ArrayValue),
    Struct(StructValue),
}

pub struct Text {
    block: Arc<TextBlock>,
    start: u32,
    len: u32,
}

struct TextBlock {
    bytes: String,
    lowercased: OnceLock<String>,
}

pub struct ArrayValue {
    block: Arc<[Value]>,
    start: u32,
    len: u32,
}

pub struct StructValue {
    block: Arc<[Value]>,
    shape: Arc<Shape>,
    start: u32,
}

pub struct Shape {
    type_name: Arc<str>,
    names: Vec<Arc<str>>,
    extras: Arc<FieldIndex>,
}

struct FieldIndex {
    by_name: Mutex<Vec<(u64, u32)>>,
}
