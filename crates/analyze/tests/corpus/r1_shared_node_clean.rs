//! R1 clean: the shared value types as the model declares them. Behind
//! the block handles (`Arc<str>`, `Arc<[Value]>`) and the shape handle
//! there is only plain data, so a container is changed by copying its
//! range out of a shared block (`Arc::get_mut` says when) or not at all.

pub enum Value {
    Null,
    String(Text),
    Bytes(Arc<[u8]>),
    Array(ArrayValue),
    Struct(StructValue),
}

pub struct Text {
    block: Arc<str>,
    start: u32,
    len: u32,
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
    by_name: Vec<(u64, u32)>,
}
