//! The four workloads: what each drives, with which traffic, and how a
//! caller stages, runs and checks its requests.
//!
//! All loops are closed: a caller sends its next request when the
//! previous reply has arrived, as a middleware caller does (paper §5.2).
//! Everything a request needs — the key sequence, the request objects,
//! the truth — is made from the seed before the timed interval that uses
//! it.

use crate::fixtures::{key, portal_path, Op, Truth};
use crate::rng::{Rng, Zipf};
use crate::stack::{google_backend, service_client, CacheConfig, Stack, SERVER_WORKERS};
use crate::trace::{self, Layer, LINK_HEADER};
use std::sync::Arc;
use wsrc_cache::ValueHandle;
use wsrc_http::{Handler, InProcTransport, Request, Response, Status, Url};
use wsrc_model::Value;
use wsrc_portal::PortalSite;
use wsrc_soap::rpc::RpcRequest;

/// Ops staged (untimed), then run (timed), then spot-checked (untimed).
/// The reply to the last op of every batch is compared with the truth,
/// so with unique keys every 64th reply is.
pub const BATCH: usize = 64;

/// Longest key sequence kept per caller; a window that outlasts it
/// starts it over.
const MAX_SEQUENCE: usize = 1 << 20;

/// How keys are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Uniform over the hot set.
    Uniform,
    /// Zipf with this exponent over the hot set.
    Zipf(f64),
    /// Every key is new.
    Unique,
}

/// Which entry point a caller drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `ServiceClient::invoke` in-process, the three Google operations.
    Middleware,
    /// `HttpClient::get` over loopback TCP to the portal, `doGoogleSearch`.
    Portal,
}

/// One row of the workload table.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub path: Path,
    pub callers: usize,
    pub traffic: Traffic,
    /// Distinct keys per operation (0 when every key is new).
    pub keys: usize,
    /// Measured ops at full scale when no `--seconds` is given.
    pub ops: u64,
    /// Warm-up ops after every hot key has been requested once.
    pub warmup: u64,
    pub cache: CacheConfig,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "mw-hot",
        why: "core keygen, store read, retrieve and model copies do all the work (100% hits); http, xml parse and services do none",
        path: Path::Middleware,
        callers: 1,
        traffic: Traffic::Uniform,
        keys: 256,
        ops: 3_000_000,
        warmup: 20_000,
        cache: CacheConfig {
            max_entries: None,
            max_bytes: None,
            adaptive: false,
        },
    },
    Spec {
        name: "mw-churn",
        why: "the write side of the same layers (0% hits, every insert evicts): soap serialize, services, xml parse, soap deserialize, core build, insert, evict",
        path: Path::Middleware,
        callers: 1,
        traffic: Traffic::Unique,
        keys: 0,
        ops: 250_000,
        warmup: 2_048,
        cache: CacheConfig {
            max_entries: Some(1024),
            max_bytes: None,
            adaptive: false,
        },
    },
    Spec {
        name: "portal-hot",
        why: "http framing, sockets, worker hand-off and portal render are most of each request (100% hits, paper Fig. 3 shape); cache changes move it least",
        path: Path::Portal,
        callers: 1,
        traffic: Traffic::Uniform,
        keys: 256,
        ops: 200_000,
        warmup: 5_000,
        cache: CacheConfig {
            max_entries: None,
            max_bytes: None,
            adaptive: false,
        },
    },
    Spec {
        name: "portal-zipf",
        why: "working set larger than the 16 MiB cache, two callers, byte-budget eviction, adaptive selection and convert-on-hit: stored size feeds back into hit ratio (paper Fig. 4 shape)",
        path: Path::Portal,
        callers: 2,
        traffic: Traffic::Zipf(1.0),
        keys: 5_000,
        ops: 160_000,
        warmup: 20_000,
        cache: CacheConfig {
            max_entries: Some(usize::MAX),
            max_bytes: Some(16 * 1024 * 1024),
            adaptive: true,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Length and FNV-1a hash of a page: what the truth keeps of each
/// uncached portal page, so 5 000 of them cost no memory worth counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageDigest {
    len: usize,
    hash: u64,
}

impl PageDigest {
    pub fn of(bytes: &[u8]) -> Self {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        PageDigest {
            len: bytes.len(),
            hash,
        }
    }
}

/// The draws of one caller: indices into the hot set, consumed in a
/// ring.
struct Sequence {
    draws: Vec<u16>,
    pos: usize,
}

impl Sequence {
    fn new(spec: &Spec, universe: usize, seed: u64, caller: usize, scale: f64) -> Sequence {
        assert!(universe <= usize::from(u16::MAX));
        // Warm-up, the window, and a quarter more for the shorter traced
        // window that follows it in the per-layer pass.
        let per_caller = (spec.ops + spec.warmup) as f64 * 1.25 * scale / spec.callers as f64;
        let len = (per_caller as usize).clamp(BATCH, MAX_SEQUENCE);
        let mut rng = Rng::fork(seed, caller as u64 + 1);
        let zipf = match spec.traffic {
            Traffic::Zipf(s) => Some(Zipf::new(universe, s)),
            _ => None,
        };
        let draws = (0..len)
            .map(|_| match &zipf {
                Some(z) => z.sample(&mut rng) as u16,
                None => rng.below(universe) as u16,
            })
            .collect();
        Sequence { draws, pos: 0 }
    }

    fn next(&mut self) -> usize {
        let d = self.draws[self.pos];
        self.pos = (self.pos + 1) % self.draws.len();
        usize::from(d)
    }
}

/// The hot requests of a middleware workload and their truth.
struct MwHotSet {
    requests: Vec<RpcRequest>,
    truth: Vec<Value>,
}

enum MwSource {
    Hot {
        set: Arc<MwHotSet>,
        sequence: Sequence,
    },
    /// A pool of `BATCH` request slots, rebuilt with new keys at every
    /// staging.
    Unique {
        seed: u64,
        rng: Rng,
        issued: usize,
        pool: Vec<RpcRequest>,
    },
}

/// A caller of `ServiceClient::invoke`.
pub struct MwCaller {
    stack: Arc<Stack>,
    truth: Arc<Truth>,
    source: MwSource,
    /// Indices (into the hot set or the pool) of the staged requests.
    staged: Vec<usize>,
    last: Option<(usize, ValueHandle)>,
}

impl MwCaller {
    fn request(&self, slot: usize) -> &RpcRequest {
        match &self.source {
            MwSource::Hot { set, .. } => &set.requests[slot],
            MwSource::Unique { pool, .. } => &pool[slot],
        }
    }

    fn prepare(&mut self, n: usize) {
        self.staged.clear();
        match &mut self.source {
            MwSource::Hot { sequence, .. } => {
                self.staged.extend((0..n).map(|_| sequence.next()));
            }
            MwSource::Unique {
                seed,
                rng,
                issued,
                pool,
            } => {
                pool.clear();
                for _ in 0..n {
                    let op = Op::ALL[rng.below(Op::ALL.len())];
                    pool.push(op.request(&key(*seed, 'u', *issued)));
                    *issued += 1;
                }
                self.staged.extend(0..n);
            }
        }
    }

    fn keep(&mut self, slot: usize, reply: Result<ValueHandle, String>) -> bool {
        self.last = reply.ok().map(|handle| (slot, handle));
        self.last.is_some()
    }

    fn run(&mut self, i: usize) -> bool {
        let slot = self.staged[i];
        let reply = self
            .stack
            .client
            .invoke(self.request(slot))
            .map(|(handle, _)| handle)
            .map_err(|e| e.to_string());
        self.keep(slot, reply)
    }

    fn run_traced(&mut self, i: usize, op: u64) -> bool {
        let slot = self.staged[i];
        let reply = self.stack.traced_invoke(self.request(slot), op);
        self.keep(slot, reply)
    }

    fn check_last(&mut self) -> bool {
        let Some((slot, handle)) = self.last.take() else {
            return true; // already counted as a failed op
        };
        match &self.source {
            MwSource::Hot { set, .. } => handle.as_value() == &set.truth[slot],
            MwSource::Unique { pool, .. } => handle.as_value() == &self.truth.value(&pool[slot]),
        }
    }

    fn hot_len(&self) -> usize {
        match &self.source {
            MwSource::Hot { set, .. } => set.requests.len(),
            MwSource::Unique { .. } => 0,
        }
    }
}

/// The hot pages of a portal workload and their truth.
struct PortalHotSet {
    urls: Vec<Url>,
    truth: Vec<PageDigest>,
}

/// A caller of `HttpClient::get` against the portal server.
pub struct PortalCaller {
    stack: Arc<Stack>,
    set: Arc<PortalHotSet>,
    sequence: Sequence,
    staged: Vec<usize>,
    last: Option<(usize, Response)>,
}

impl PortalCaller {
    fn keep(&mut self, slot: usize, reply: Result<Response, wsrc_http::HttpError>) -> bool {
        self.last = reply
            .ok()
            .filter(|r| r.status == Status::OK)
            .map(|r| (slot, r));
        self.last.is_some()
    }

    fn http(&self) -> &wsrc_http::HttpClient {
        &self
            .stack
            .portal
            .as_ref()
            .expect("a portal workload has a portal")
            .http
    }

    fn run(&mut self, i: usize) -> bool {
        let slot = self.staged[i];
        let reply = self.http().get(&self.set.urls[slot]);
        self.keep(slot, reply)
    }

    fn run_traced(&mut self, i: usize, op: u64) -> bool {
        let slot = self.staged[i];
        let url = &self.set.urls[slot];
        let reply = {
            let root = trace::root(Layer::Http, op);
            let request =
                Request::get(url.path()).with_header(LINK_HEADER, root.link().to_header());
            self.http().execute(url, &request)
        };
        self.keep(slot, reply)
    }

    fn check_last(&mut self) -> bool {
        match self.last.take() {
            Some((slot, page)) => PageDigest::of(page.body.as_bytes()) == self.set.truth[slot],
            None => true, // already counted as a failed op
        }
    }
}

/// One closed-loop caller of either path.
pub enum Caller {
    Mw(MwCaller),
    Portal(PortalCaller),
}

impl Caller {
    /// Untimed: stages the next `n <= BATCH` requests.
    pub fn prepare(&mut self, n: usize) {
        match self {
            Caller::Mw(c) => c.prepare(n),
            Caller::Portal(c) => {
                c.staged.clear();
                c.staged.extend((0..n).map(|_| c.sequence.next()));
            }
        }
    }

    /// Timed: runs staged request `i`; false when the op failed (an
    /// error or a status other than 200).
    #[inline]
    pub fn run(&mut self, i: usize) -> bool {
        match self {
            Caller::Mw(c) => c.run(i),
            Caller::Portal(c) => c.run(i),
        }
    }

    /// [`run`](Caller::run) with the benchmark's spans around it.
    pub fn run_traced(&mut self, i: usize, op: u64) -> bool {
        match self {
            Caller::Mw(c) => c.run_traced(i, op),
            Caller::Portal(c) => c.run_traced(i, op),
        }
    }

    /// Untimed: whether the reply to the last request run is the truth
    /// (values equal, pages byte-identical to the uncached page).
    pub fn check_last(&mut self) -> bool {
        match self {
            Caller::Mw(c) => c.check_last(),
            Caller::Portal(c) => c.check_last(),
        }
    }

    /// Untimed: requests every hot key once, in order, and compares each
    /// reply with the truth. Before the window this fills the cache;
    /// after it, it is the check of every hot-set reply. Returns
    /// `(attempted, failed or mismatched)`.
    pub fn sweep_hot(&mut self) -> (u64, u64) {
        let hot = match self {
            Caller::Mw(c) => c.hot_len(),
            Caller::Portal(c) => c.set.urls.len(),
        };
        let mut bad = 0;
        for slot in 0..hot {
            let staged = match self {
                Caller::Mw(c) => &mut c.staged,
                Caller::Portal(c) => &mut c.staged,
            };
            staged.clear();
            staged.push(slot);
            bad += u64::from(!(self.run(0) && self.check_last()));
        }
        (hot as u64, bad)
    }
}

/// A workload ready to measure: the stack, and one caller per thread.
pub struct Prepared {
    pub stack: Arc<Stack>,
    pub callers: Vec<Caller>,
    /// Callers that share the warm-up and are dropped after it: a portal
    /// workload warms up over as many connections as the server has
    /// workers, so every worker thread is warm whichever the measured
    /// callers reach. (It also keeps set-up from being one caller's
    /// ping-pong with one worker, whose pace on a virtual machine is how
    /// fast the hypervisor wakes a halted CPU: 0.3 s or 0.75 s for the
    /// same 5 000 hits, for twenty minutes at a time.)
    warmers: Vec<Caller>,
}

/// Builds stack, truth, sequences and callers for `spec`. `scale` sizes
/// the key sequences (they follow the op count); warm-up is separate
/// ([`warm_up`]).
pub fn prepare(spec: &Spec, seed: u64, scale: f64, traced: bool) -> Prepared {
    let stack = Arc::new(Stack::build(spec.cache, spec.path == Path::Portal, traced));
    let truth = Arc::new(Truth::new());
    let mut callers: Vec<Caller> = match spec.path {
        Path::Middleware => {
            let set = Arc::new(mw_hot_set(spec, seed, &truth));
            (0..spec.callers)
                .map(|c| {
                    let source = if spec.traffic == Traffic::Unique {
                        MwSource::Unique {
                            seed,
                            rng: Rng::fork(seed, c as u64 + 1),
                            // Callers draw from disjoint key ranges.
                            issued: c << 40,
                            pool: Vec::with_capacity(BATCH),
                        }
                    } else {
                        MwSource::Hot {
                            set: set.clone(),
                            sequence: Sequence::new(spec, set.requests.len(), seed, c, scale),
                        }
                    };
                    Caller::Mw(MwCaller {
                        stack: stack.clone(),
                        truth: truth.clone(),
                        source,
                        staged: Vec::with_capacity(BATCH),
                        last: None,
                    })
                })
                .collect()
        }
        Path::Portal => {
            let base = &stack.portal.as_ref().expect("portal stack").base;
            let set = Arc::new(portal_hot_set(spec, seed, base));
            (0..spec.callers.max(SERVER_WORKERS))
                .map(|c| {
                    Caller::Portal(PortalCaller {
                        stack: stack.clone(),
                        set: set.clone(),
                        sequence: Sequence::new(spec, set.urls.len(), seed, c, scale),
                        staged: Vec::with_capacity(BATCH),
                        last: None,
                    })
                })
                .collect()
        }
    };
    let warmers = callers.split_off(spec.callers);
    Prepared {
        stack,
        callers,
        warmers,
    }
}

/// The three operations × `spec.keys` keys, with the value the dummy
/// service gives for each when called directly.
fn mw_hot_set(spec: &Spec, seed: u64, truth: &Truth) -> MwHotSet {
    let requests: Vec<RpcRequest> = Op::ALL
        .iter()
        .flat_map(|&op| (0..spec.keys).map(move |i| op.request(&key(seed, 'h', i))))
        .collect();
    let truth = requests.iter().map(|r| truth.value(r)).collect();
    MwHotSet { requests, truth }
}

/// `spec.keys` portal pages, with the digest of the page a cache-less
/// client behind an in-process `PortalSite` renders for each.
fn portal_hot_set(spec: &Spec, seed: u64, base: &Url) -> PortalHotSet {
    let uncached = PortalSite::new(service_client(
        Arc::new(InProcTransport::new(google_backend())),
        None,
    ));
    let paths: Vec<String> = (0..spec.keys)
        .map(|i| portal_path(&key(seed, 'h', i)))
        .collect();
    let truth = paths
        .iter()
        .map(|p| {
            let page = uncached.handle(&Request::get(p.as_str()));
            assert_eq!(page.status, Status::OK, "the uncached portal renders {p}");
            PageDigest::of(page.body.as_bytes())
        })
        .collect();
    PortalHotSet {
        urls: paths.into_iter().map(|p| base.with_path(p)).collect(),
        truth,
    }
}

/// Brings the cache to the state the window measures: every hot key
/// requested once, then `spec.warmup * scale` ops of the workload's own
/// traffic split over the callers. Returns `(attempted, failed)`.
pub fn warm_up(spec: &Spec, prepared: &mut Prepared, scale: f64) -> (u64, u64) {
    let (mut attempted, mut failed) = match spec.traffic {
        // A Zipf working set does not fit: its warm-up is draws alone.
        Traffic::Zipf(_) => (0, 0),
        _ => prepared.callers[0].sweep_hot(),
    };
    let mut warmers = std::mem::take(&mut prepared.warmers);
    let threads = (prepared.callers.len() + warmers.len()) as u64;
    let per_caller = ((spec.warmup as f64 * scale) as u64).div_ceil(threads);
    let results: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = prepared
            .callers
            .iter_mut()
            .chain(&mut warmers)
            .map(|caller| {
                s.spawn(move || {
                    let (mut done, mut bad) = (0u64, 0u64);
                    while done < per_caller {
                        let n = BATCH.min((per_caller - done) as usize);
                        caller.prepare(n);
                        for i in 0..n {
                            bad += u64::from(!caller.run(i));
                        }
                        bad += u64::from(!caller.check_last());
                        done += n as u64;
                    }
                    (done, bad)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a warm-up caller panicked"))
            .collect()
    });
    for (a, f) in results {
        attempted += a;
        failed += f;
    }
    (attempted, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence_of(name: &str, seed: u64) -> Vec<u16> {
        let spec = find(name).unwrap();
        Sequence::new(spec, spec.keys.max(1) * 3, seed, 0, 0.01).draws
    }

    #[test]
    fn same_seed_same_sequence_other_seed_another() {
        for name in ["mw-hot", "portal-hot", "portal-zipf"] {
            assert_eq!(sequence_of(name, 5), sequence_of(name, 5));
            assert_ne!(sequence_of(name, 5), sequence_of(name, 6));
        }
    }

    #[test]
    fn unique_traffic_never_repeats_a_request() {
        let spec = find("mw-churn").unwrap();
        let mut p = prepare(spec, 9, 0.001, false);
        let Caller::Mw(c) = &mut p.callers[0] else {
            panic!("middleware workload")
        };
        let mut seen = std::collections::HashSet::new();
        for _ in 0..8 {
            c.prepare(BATCH);
            for &slot in &c.staged {
                assert!(seen.insert(format!("{:?}", c.request(slot))));
            }
        }
    }

    #[test]
    fn page_digest_tells_pages_apart() {
        assert_eq!(PageDigest::of(b"abc"), PageDigest::of(b"abc"));
        assert_ne!(PageDigest::of(b"abc"), PageDigest::of(b"abd"));
        assert_ne!(PageDigest::of(b""), PageDigest::of(b"\0"));
    }

    #[test]
    fn every_workload_has_a_line_of_why() {
        for w in &WORKLOADS {
            assert!(!w.why.contains('\n') && w.why.len() <= 200, "{}", w.name);
        }
    }
}
