//! The benchmark's own spans.
//!
//! The traced pass wraps each call into a layer in a span
//! `{layer, start, end, parent, op}`. Spans are pushed to a buffer owned
//! by the recording thread and only read after the pass ends. A layer's
//! self time is its spans' duration minus the part their child spans
//! cover. Nothing in `crates/` is touched: a boundary no public function
//! exposes is not a row.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The rows of the ledger. A layer is a crate directory; `core` and
/// `soap` have two rows each because both sides are public calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Layer {
    Http,
    Portal,
    Client,
    CoreLookup,
    CoreInsert,
    SoapSerialize,
    SoapDeserialize,
    Services,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Http,
        Layer::Portal,
        Layer::Client,
        Layer::CoreLookup,
        Layer::CoreInsert,
        Layer::SoapSerialize,
        Layer::SoapDeserialize,
        Layer::Services,
    ];

    /// The per-layer metric this row is reported as.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Http => "http.self_us_per_op",
            Layer::Portal => "portal.self_us_per_op",
            Layer::Client => "client.self_us_per_op",
            Layer::CoreLookup => "core.lookup_self_us_per_op",
            Layer::CoreInsert => "core.insert_self_us_per_op",
            Layer::SoapSerialize => "soap.serialize_self_us_per_op",
            Layer::SoapDeserialize => "soap.deserialize_self_us_per_op",
            Layer::Services => "services.self_us_per_op",
        }
    }
}

/// One finished span. Times are nanoseconds since the process epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// 0 for the root span of an op.
    pub parent: u64,
    pub op: u64,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Where a span opened on another thread hangs: carried from the load
/// generator to the server worker in a request header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    pub op: u64,
    pub parent: u64,
}

/// The request header that carries a [`Link`] over the socket.
pub const LINK_HEADER: &str = "X-Bench-Span";

impl Link {
    pub fn to_header(self) -> String {
        format!("{}-{}", self.op, self.parent)
    }

    pub fn from_header(value: &str) -> Option<Link> {
        let (op, parent) = value.split_once('-')?;
        Some(Link {
            op: op.parse().ok()?,
            parent: parent.parse().ok()?,
        })
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static ENABLED: AtomicBool = AtomicBool::new(false);
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

struct ThreadState {
    buffer: Buffer,
    /// This thread's slot in `BUFFERS` plus one, in the high bits of
    /// every id it issues.
    id_base: u64,
    next: u64,
    /// Open spans, innermost last: `(id, op)`.
    open: Vec<(u64, u64)>,
}

thread_local! {
    static STATE: RefCell<Option<ThreadState>> = const { RefCell::new(None) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn with_state<T>(f: impl FnOnce(&mut ThreadState) -> T) -> T {
    STATE.with(|cell| {
        let mut slot = cell.borrow_mut();
        let state = slot.get_or_insert_with(|| {
            let buffer: Buffer = Arc::new(Mutex::new(Vec::new()));
            let mut all = BUFFERS.lock().expect("no span is recorded under this lock");
            all.push(buffer.clone());
            ThreadState {
                buffer,
                id_base: (all.len() as u64) << 40,
                next: 0,
                open: Vec::new(),
            }
        });
        f(state)
    })
}

/// Turns span recording on or off. The wrappers around the portal and
/// the back end stay in place either way and check this flag.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; closes when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    op: u64,
    layer: Layer,
    start_ns: u64,
}

impl Guard {
    /// What a span opened on another thread on behalf of this one
    /// should carry.
    pub fn link(&self) -> Link {
        Link {
            op: self.op,
            parent: self.id,
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        with_state(|s| {
            s.open.pop();
            s.buffer
                .lock()
                .expect("only this thread pushes to its buffer")
                .push(Span {
                    id: self.id,
                    parent: self.parent,
                    op: self.op,
                    layer: self.layer,
                    start_ns: self.start_ns,
                    end_ns,
                });
        });
    }
}

fn open(layer: Layer, link: Option<Link>) -> Guard {
    let (id, parent, op) = with_state(|s| {
        s.next += 1;
        let id = s.id_base | s.next;
        let (parent, op) = match link {
            Some(l) => (l.parent, l.op),
            None => s.open.last().copied().unwrap_or((0, 0)),
        };
        s.open.push((id, op));
        (id, parent, op)
    });
    Guard {
        id,
        parent,
        op,
        layer,
        start_ns: now_ns(),
    }
}

/// Opens the root span of op `op` on this thread.
pub fn root(layer: Layer, op: u64) -> Guard {
    open(layer, Some(Link { op, parent: 0 }))
}

/// Opens a span under a span of another thread.
pub fn linked(layer: Layer, link: Link) -> Guard {
    open(layer, Some(link))
}

/// Runs `f` in a span under this thread's innermost open span.
pub fn span<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    let _guard = open(layer, None);
    f()
}

/// Takes every span recorded so far, from every thread.
pub fn drain() -> Vec<Span> {
    let buffers = BUFFERS.lock().expect("no span is recorded under this lock");
    let mut all = Vec::new();
    for b in buffers.iter() {
        all.append(&mut b.lock().expect("recording has stopped"));
    }
    all
}

/// Total self time per layer, in nanoseconds: each span's duration minus
/// the duration of its direct children (never below zero, should clocks
/// of two threads disagree by a few nanoseconds).
pub fn self_times(spans: &[Span]) -> HashMap<Layer, u64> {
    let mut children: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *children.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut by_layer: HashMap<Layer, u64> = HashMap::new();
    for s in spans {
        let own = s.end_ns.saturating_sub(s.start_ns);
        let covered = children.get(&s.id).copied().unwrap_or(0);
        *by_layer.entry(s.layer).or_default() += own.saturating_sub(covered);
    }
    by_layer
}

/// Spans and the recording switch are the process's: tests that record
/// or drain hold this, so none takes another's spans.
#[cfg(test)]
pub static RECORDING_TEST: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, parent: u64, layer: Layer, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            layer,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_on_a_hand_built_tree() {
        // root 0..100
        //   lookup 5..15
        //   transport 20..80
        //     services 30..70
        //   insert 82..97
        let spans = [
            s(1, 0, Layer::Client, 0, 100),
            s(2, 1, Layer::CoreLookup, 5, 15),
            s(3, 1, Layer::Http, 20, 80),
            s(4, 3, Layer::Services, 30, 70),
            s(5, 1, Layer::CoreInsert, 82, 97),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&Layer::Client], 100 - 10 - 60 - 15);
        assert_eq!(t[&Layer::CoreLookup], 10);
        assert_eq!(t[&Layer::Http], 20);
        assert_eq!(t[&Layer::Services], 40);
        assert_eq!(t[&Layer::CoreInsert], 15);
        // Self times of a well-nested tree add up to the root.
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn a_child_longer_than_its_parent_does_not_underflow() {
        let spans = [s(1, 0, Layer::Http, 10, 20), s(2, 1, Layer::Portal, 9, 25)];
        let t = self_times(&spans);
        assert_eq!(t[&Layer::Http], 0);
        assert_eq!(t[&Layer::Portal], 16);
    }

    #[test]
    fn link_survives_the_header() {
        let l = Link {
            op: 123,
            parent: (7 << 40) | 99,
        };
        assert_eq!(Link::from_header(&l.to_header()), Some(l));
        assert_eq!(Link::from_header("x"), None);
    }

    #[test]
    fn nested_spans_record_parent_and_op() {
        let _alone = RECORDING_TEST.lock().unwrap_or_else(|e| e.into_inner());
        let op = 0xBEEF;
        {
            let root = root(Layer::Client, op);
            let link = root.link();
            span(Layer::CoreLookup, || ());
            std::thread::spawn(move || drop(linked(Layer::Portal, link)))
                .join()
                .unwrap();
        }
        let mine: Vec<Span> = drain().into_iter().filter(|s| s.op == op).collect();
        assert_eq!(mine.len(), 3);
        let root = mine.iter().find(|s| s.layer == Layer::Client).unwrap();
        assert_eq!(root.parent, 0);
        for child in mine.iter().filter(|s| s.layer != Layer::Client) {
            assert_eq!(child.parent, root.id);
            assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
        }
    }
}
