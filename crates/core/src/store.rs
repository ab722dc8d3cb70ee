//! The concurrent cache table: sharded hash map with TTL expiry and
//! size-aware intrusive-LRU eviction.
//!
//! # Architecture
//!
//! The store is split into power-of-two many shards, each guarded by its
//! own mutex. A shard owns a slab (`Vec<Option<Slot>>`) of entries plus an
//! *intrusive* doubly-linked LRU list threaded through the slots with
//! `u32` indices — no `unsafe`, no pointer juggling, no allocation per
//! promotion. Every operation:
//!
//! - hashes the key **exactly once** (the same 64-bit hash selects the
//!   shard and keys the shard's index table),
//! - locks **exactly one** shard,
//! - runs in O(1): `get` promotes by relinking three nodes, `put` evicts
//!   LRU-first within the locked shard at O(1) per victim.
//!
//! Capacity is budgeted per shard (`max_entries / shards`,
//! `max_bytes / shards`), which makes the configured global limits hard
//! invariants without any cross-shard coordination: no all-shard
//! re-checks, and eviction never inspects another shard's entries.
//! [`CacheStore::new`] sizes the shard count down automatically so small
//! capacities still get a meaningful per-shard budget. The store-wide
//! totals ([`CacheStore::occupancy`]) are two atomics nothing is
//! budgeted by: every operation that changes a shard adds the shard's
//! net change to them before it releases the shard, so reading them
//! takes no lock and an insert touches exactly the shard it writes.
//!
//! Eviction prefers already-expired victims: it inspects up to
//! `EVICT_SCAN` entries from the cold end of the LRU list and takes the
//! first expired one, falling back to the least-recently-used live entry.
//! The entry being inserted is pinned for the duration of its own `put`
//! so a fresh insert can never evict itself.
//!
//! # Payloads are dropped outside the lock
//!
//! Freeing a stored response can be many deallocations (a DOM tree, a
//! value built node by node, an event arena). Every operation that
//! removes or replaces a payload — eviction, replacement, refusal,
//! invalidation, expiry, `clear` — moves it out of the shard and hands it
//! back to the caller of the locked section, which drops it after the
//! guard is released.
//!
//! # One form per entry, fixed at insert
//!
//! Each slot holds a [`CacheEntry`] — one response under one stored
//! form. Nothing changes a live slot's form: a `put` of the same key
//! replaces the whole payload under the shard lock, so a lookup returns
//! either the response an insert stored or the one a later insert
//! stored, never anything derived from a superseded one.

use crate::entry::CacheEntry;
use crate::key::CacheKey;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use wsrc_obs::sync;

/// Upper bound on the automatically chosen shard count.
const MAX_AUTO_SHARDS: usize = 16;
/// Upper bound on an explicitly requested shard count.
const MAX_SHARDS: usize = 1024;
/// Sentinel index terminating intrusive lists.
const NIL: u32 = u32::MAX;
/// How many cold-end LRU entries an eviction inspects looking for an
/// already-expired victim before settling for the coldest live entry.
const EVICT_SCAN: usize = 8;

/// Capacity limits for a [`CacheStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capacity {
    /// Maximum number of entries across all shards.
    pub max_entries: usize,
    /// Maximum total approximate bytes across all shards.
    pub max_bytes: usize,
}

impl Default for Capacity {
    fn default() -> Self {
        Capacity {
            max_entries: 10_000,
            max_bytes: 256 * 1024 * 1024,
        }
    }
}

/// What a [`CacheStore::put`] evicted to make room, split by whether the
/// victims' TTLs had already lapsed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EvictionSummary {
    /// Victims that were already expired (reaping, not displacement).
    pub expired: u64,
    /// Victims that were still live — true LRU casualties.
    pub live: u64,
}

impl EvictionSummary {
    /// Total number of entries evicted.
    pub fn total(&self) -> u64 {
        self.expired + self.live
    }
}

/// Hashes a key once with the std SipHash; the result both selects the
/// shard and keys the shard's index table.
fn hash_key(key: &CacheKey) -> u64 {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

/// A cheap finalizing mixer for the shard tables, which are keyed by the
/// already-SipHashed `u64` from [`hash_key`]. Identity hashing would reuse
/// the same low bits that picked the shard; one multiply-xor round
/// (splitmix64's finalizer core) redistributes them.
#[derive(Debug, Default)]
struct Mix64(u64);

impl Hasher for Mix64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a fallback; the store only ever feeds `write_u64`.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn write_u64(&mut self, value: u64) {
        let mut x = value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 32;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 29;
        self.0 = x;
    }
}

/// One cache entry, addressed by its slab index. `lru_prev`/`lru_next`
/// thread the shard's recency list (`prev` points toward the hot end);
/// `chain_next` resolves full-64-bit hash collisions within the table.
#[derive(Debug)]
struct Slot {
    key: CacheKey,
    hash: u64,
    entry: CacheEntry,
    expires_at_millis: u64,
    size_bytes: usize,
    /// Opaque revalidation token (e.g. an HTTP `Last-Modified` value).
    /// Entries with a validator outlive their TTL as *stale* entries that
    /// can be refreshed by a successful revalidation (paper §3.2).
    validator: Option<Arc<str>>,
    lru_prev: u32,
    lru_next: u32,
    chain_next: u32,
}

#[derive(Debug)]
struct Shard {
    /// Slab of entries; freed slots are recycled via `free`.
    slots: Vec<Option<Slot>>,
    free: Vec<u32>,
    /// Full key hash → slab index of the first entry in the chain.
    table: HashMap<u64, u32, BuildHasherDefault<Mix64>>,
    /// Most-recently-used entry, or `NIL` when empty.
    lru_head: u32,
    /// Least-recently-used entry, or `NIL` when empty.
    lru_tail: u32,
    entries: usize,
    bytes: usize,
}

impl Default for Shard {
    fn default() -> Self {
        Shard {
            slots: Vec::new(),
            free: Vec::new(),
            table: HashMap::default(),
            lru_head: NIL,
            lru_tail: NIL,
            entries: 0,
            bytes: 0,
        }
    }
}

impl Shard {
    fn slot(&self, idx: u32) -> Option<&Slot> {
        if idx == NIL {
            return None;
        }
        self.slots.get(idx as usize)?.as_ref()
    }

    fn slot_mut(&mut self, idx: u32) -> Option<&mut Slot> {
        if idx == NIL {
            return None;
        }
        self.slots.get_mut(idx as usize)?.as_mut()
    }

    /// Finds the slab index holding `key`, walking the (almost always
    /// single-element) collision chain for its hash.
    fn find(&self, hash: u64, key: &CacheKey) -> Option<u32> {
        let mut idx = *self.table.get(&hash)?;
        while idx != NIL {
            let slot = self.slot(idx)?;
            if slot.key == *key {
                return Some(idx);
            }
            idx = slot.chain_next;
        }
        None
    }

    fn lru_unlink(&mut self, idx: u32) {
        let (prev, next) = match self.slot(idx) {
            Some(slot) => (slot.lru_prev, slot.lru_next),
            None => return,
        };
        match self.slot_mut(prev) {
            Some(p) => p.lru_next = next,
            None => self.lru_head = next,
        }
        match self.slot_mut(next) {
            Some(n) => n.lru_prev = prev,
            None => self.lru_tail = prev,
        }
        if let Some(slot) = self.slot_mut(idx) {
            slot.lru_prev = NIL;
            slot.lru_next = NIL;
        }
    }

    fn lru_push_front(&mut self, idx: u32) {
        let old_head = self.lru_head;
        if let Some(slot) = self.slot_mut(idx) {
            slot.lru_prev = NIL;
            slot.lru_next = old_head;
        }
        match self.slot_mut(old_head) {
            Some(head) => head.lru_prev = idx,
            None => self.lru_tail = idx,
        }
        self.lru_head = idx;
    }

    /// Moves `idx` to the hot end of the recency list — three relinks,
    /// O(1), no allocation.
    fn touch(&mut self, idx: u32) {
        if self.lru_head == idx {
            return;
        }
        self.lru_unlink(idx);
        self.lru_push_front(idx);
    }

    /// Inserts a slot not currently present, returning its slab index.
    fn insert_new(&mut self, mut slot: Slot) -> u32 {
        let idx = match self.free.pop() {
            Some(recycled) => recycled,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        slot.chain_next = self.table.get(&slot.hash).copied().unwrap_or(NIL);
        self.table.insert(slot.hash, idx);
        self.entries += 1;
        self.bytes += slot.size_bytes;
        if let Some(cell) = self.slots.get_mut(idx as usize) {
            *cell = Some(slot);
        }
        self.lru_push_front(idx);
        idx
    }

    /// Replaces the payload of an existing slot, adjusting byte
    /// accounting, and returns the payload it held.
    fn replace(
        &mut self,
        idx: u32,
        entry: CacheEntry,
        expires_at_millis: u64,
        size_bytes: usize,
        validator: Option<Arc<str>>,
    ) -> Option<CacheEntry> {
        let slot = self.slot_mut(idx)?;
        let old_size = std::mem::replace(&mut slot.size_bytes, size_bytes);
        let old_entry = std::mem::replace(&mut slot.entry, entry);
        slot.expires_at_millis = expires_at_millis;
        slot.validator = validator;
        self.bytes = self.bytes.saturating_sub(old_size) + size_bytes;
        Some(old_entry)
    }

    /// Removes and returns the slot at `idx`: unlinks it from the recency
    /// list, unchains it from the table, updates accounting, recycles the
    /// slab cell.
    fn remove_index(&mut self, idx: u32) -> Option<Slot> {
        self.lru_unlink(idx);
        let slot = self.slots.get_mut(idx as usize)?.take()?;
        match self.table.get(&slot.hash).copied() {
            Some(head) if head == idx => {
                if slot.chain_next == NIL {
                    self.table.remove(&slot.hash);
                } else {
                    self.table.insert(slot.hash, slot.chain_next);
                }
            }
            Some(mut cur) => {
                while cur != NIL {
                    let next = match self.slot(cur) {
                        Some(s) => s.chain_next,
                        None => NIL,
                    };
                    if next == idx {
                        if let Some(s) = self.slot_mut(cur) {
                            s.chain_next = slot.chain_next;
                        }
                        break;
                    }
                    cur = next;
                }
            }
            None => {}
        }
        self.entries = self.entries.saturating_sub(1);
        self.bytes = self.bytes.saturating_sub(slot.size_bytes);
        self.free.push(idx);
        Some(slot)
    }

    /// Chooses the next eviction victim: the first expired entry within
    /// [`EVICT_SCAN`] steps of the cold end, else the coldest live entry.
    /// The slot at `pin` (the entry being inserted right now) is never
    /// chosen; `None` means nothing but the pinned entry remains.
    fn pick_victim(&self, now_millis: u64, pin: u32) -> Option<u32> {
        let mut fallback = NIL;
        let mut idx = self.lru_tail;
        for _ in 0..EVICT_SCAN {
            if idx == NIL {
                break;
            }
            let slot = self.slot(idx)?;
            if idx != pin {
                if slot.expires_at_millis <= now_millis {
                    return Some(idx);
                }
                if fallback == NIL {
                    fallback = idx;
                }
            }
            idx = slot.lru_prev;
        }
        if fallback == NIL {
            None
        } else {
            Some(fallback)
        }
    }

    /// Empties the shard and returns what it held.
    fn clear(&mut self) -> Vec<Option<Slot>> {
        let slots = std::mem::take(&mut self.slots);
        self.free.clear();
        self.table.clear();
        self.lru_head = NIL;
        self.lru_tail = NIL;
        self.entries = 0;
        self.bytes = 0;
        slots
    }

    /// Cross-checks every invariant the shard maintains incrementally.
    fn check(&self, shard_no: usize) -> Result<(), String> {
        let live = self.slots.iter().filter(|s| s.is_some()).count();
        let sum_bytes: usize = self
            .slots
            .iter()
            .flatten()
            .map(|slot| slot.size_bytes)
            .sum();
        if live != self.entries {
            return Err(format!(
                "shard {shard_no}: entries={} but {live} occupied slots",
                self.entries
            ));
        }
        if sum_bytes != self.bytes {
            return Err(format!(
                "shard {shard_no}: bytes={} but slots sum to {sum_bytes}",
                self.bytes
            ));
        }
        // The bytes charged for a slot must equal its entry's size plus
        // its key.
        for slot in self.slots.iter().flatten() {
            let expected = slot.entry.approximate_size() + slot.key.approximate_size();
            if slot.size_bytes != expected {
                return Err(format!(
                    "shard {shard_no}: slot charges {} bytes but its entry and key sum to {expected}",
                    slot.size_bytes
                ));
            }
        }
        if self.free.len() + live != self.slots.len() {
            return Err(format!(
                "shard {shard_no}: {} free + {live} live != {} slots",
                self.free.len(),
                self.slots.len()
            ));
        }
        // Recency list must visit every live slot exactly once, both ways.
        type Walk = (u32, fn(&Slot) -> u32, u32);
        let walks: [Walk; 2] = [
            (self.lru_head, |s: &Slot| s.lru_next, self.lru_tail),
            (self.lru_tail, |s: &Slot| s.lru_prev, self.lru_head),
        ];
        for (from, link, end) in walks {
            let mut idx = from;
            let mut seen = 0usize;
            let mut last = NIL;
            while idx != NIL {
                seen += 1;
                if seen > live {
                    return Err(format!("shard {shard_no}: recency list cycle"));
                }
                last = idx;
                idx = match self.slot(idx) {
                    Some(slot) => link(slot),
                    None => return Err(format!("shard {shard_no}: dangling recency link {idx}")),
                };
            }
            if seen != live {
                return Err(format!(
                    "shard {shard_no}: recency list visits {seen} of {live} slots"
                ));
            }
            if last != end {
                return Err(format!("shard {shard_no}: recency list endpoint mismatch"));
            }
        }
        // Every table chain member must carry the bucket's hash, and the
        // chains together must cover every live slot.
        let mut chained = 0usize;
        for (&hash, &head) in &self.table {
            let mut idx = head;
            while idx != NIL {
                chained += 1;
                if chained > live {
                    return Err(format!("shard {shard_no}: collision chain cycle"));
                }
                let slot = match self.slot(idx) {
                    Some(slot) => slot,
                    None => return Err(format!("shard {shard_no}: dangling chain link {idx}")),
                };
                if slot.hash != hash {
                    return Err(format!("shard {shard_no}: slot hash mismatch in chain"));
                }
                idx = slot.chain_next;
            }
        }
        if chained != live {
            return Err(format!(
                "shard {shard_no}: chains cover {chained} of {live} slots"
            ));
        }
        Ok(())
    }
}

/// A sharded, mutex-per-shard cache table with intrusive per-shard LRU.
///
/// Entries expire at their per-entry deadline (checked lazily on `get`)
/// and are evicted least-recently-used-first **within their shard** when
/// the shard's slice of the capacity budget would be exceeded. See the
/// module docs for the full design.
#[derive(Debug)]
pub struct CacheStore {
    shards: Vec<Mutex<Shard>>,
    /// `shards.len() - 1`; the shard count is always a power of two.
    shard_mask: usize,
    shard_max_entries: usize,
    shard_max_bytes: usize,
    /// Sums of the shards' `entries` and `bytes`, each shard's share as
    /// of the last time it was released; see [`CacheStore::settle`].
    entries: AtomicUsize,
    bytes: AtomicUsize,
}

/// Largest power of two `<= x` (callers guarantee `x >= 1`).
fn prev_power_of_two(x: usize) -> usize {
    match x.checked_ilog2() {
        Some(log) => 1 << log,
        None => 1,
    }
}

impl CacheStore {
    /// An empty store with the given capacity and an automatically sized
    /// shard count: the largest power of two that is at most
    /// `min(16, max_entries)`, so every shard's entry budget is at least
    /// one and the global limits stay hard invariants.
    pub fn new(capacity: Capacity) -> Self {
        let shards = prev_power_of_two(capacity.max_entries.clamp(1, MAX_AUTO_SHARDS));
        CacheStore::with_shards(capacity, shards)
    }

    /// An empty store with an explicit shard count (rounded down to a
    /// power of two and clamped to `1..=1024`). Budgets are split evenly:
    /// each shard holds at most `max_entries / shards` entries and
    /// `max_bytes / shards` bytes. Single-shard stores give the exact
    /// classic LRU order, which the deterministic tests rely on.
    pub fn with_shards(capacity: Capacity, shards: usize) -> Self {
        let shards = prev_power_of_two(shards.clamp(1, MAX_SHARDS));
        CacheStore {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_mask: shards - 1,
            shard_max_entries: capacity.max_entries / shards,
            shard_max_bytes: capacity.max_bytes / shards,
            entries: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
        }
    }

    /// Adds what a locked shard gained or lost since it held `before`
    /// `(entries, bytes)` to the store-wide totals. Called with the
    /// shard still locked, once its budget holds again, so each shard's
    /// share of a total goes from one within-budget value to the next
    /// and the totals never exceed the configured capacity.
    fn settle(&self, before: (usize, usize), shard: &Shard) {
        // Two's complement: adding the wrapped difference subtracts.
        self.entries
            .fetch_add(shard.entries.wrapping_sub(before.0), Ordering::AcqRel);
        self.bytes
            .fetch_add(shard.bytes.wrapping_sub(before.1), Ordering::AcqRel);
    }

    /// Number of shards (always a power of two).
    #[cfg(test)]
    fn shard_count(&self) -> usize {
        self.shard_mask + 1
    }

    /// The per-shard slice of the configured capacity.
    pub fn shard_budget(&self) -> Capacity {
        Capacity {
            max_entries: self.shard_max_entries,
            max_bytes: self.shard_max_bytes,
        }
    }

    /// Shard index for a key hash. Uses high bits, leaving the table's
    /// mixer to redistribute the rest.
    fn shard_index(&self, hash: u64) -> usize {
        ((hash >> 32) as usize) & self.shard_mask
    }

    /// Looks up a live entry, refreshing its recency in O(1). Expired
    /// entries without a validator are removed and reported as `Expired`;
    /// expired entries *with* a validator are kept and reported as
    /// `Stale` so the caller can attempt revalidation (paper §3.2's
    /// `If-Modified-Since` handshake).
    pub fn get(&self, key: &CacheKey, now_millis: u64) -> Lookup {
        let hash = hash_key(key);
        // Declared before the guard, so dropped after it.
        let _expired;
        let mut shard = sync::lock_class("CacheStore.shards", &self.shards[self.shard_index(hash)]);
        let Some(idx) = shard.find(hash, key) else {
            return Lookup::Absent;
        };
        let (expired, validator) = match shard.slot(idx) {
            Some(slot) => (slot.expires_at_millis <= now_millis, slot.validator.clone()),
            None => return Lookup::Absent,
        };
        match (expired, validator) {
            (true, None) => {
                let before = (shard.entries, shard.bytes);
                _expired = shard.remove_index(idx);
                self.settle(before, &shard);
                Lookup::Expired
            }
            (true, Some(validator)) => {
                shard.touch(idx);
                match shard.slot(idx) {
                    Some(slot) => Lookup::Stale {
                        entry: slot.entry.clone(),
                        validator,
                    },
                    None => Lookup::Absent,
                }
            }
            (false, _) => {
                shard.touch(idx);
                match shard.slot(idx) {
                    Some(slot) => Lookup::Live(slot.entry.clone()),
                    None => Lookup::Absent,
                }
            }
        }
    }

    /// Renews a (typically stale) entry's deadline after a successful
    /// revalidation. Returns whether the entry was present.
    pub(crate) fn refresh(&self, key: &CacheKey, expires_at_millis: u64) -> bool {
        let hash = hash_key(key);
        let mut shard = sync::lock_class("CacheStore.shards", &self.shards[self.shard_index(hash)]);
        let Some(idx) = shard.find(hash, key) else {
            return false;
        };
        if let Some(slot) = shard.slot_mut(idx) {
            slot.expires_at_millis = expires_at_millis;
        }
        shard.touch(idx);
        true
    }

    /// Inserts (or replaces) an entry expiring at `expires_at_millis`,
    /// evicting within the locked shard as needed. Returns what was
    /// evicted to make room (nothing when the entry was refused — use
    /// `put_validated` to distinguish).
    pub fn put(
        &self,
        key: CacheKey,
        entry: CacheEntry,
        expires_at_millis: u64,
        now_millis: u64,
    ) -> EvictionSummary {
        self.put_validated(key, entry, expires_at_millis, now_millis, None)
            .unwrap_or_default()
    }

    /// [`put`](CacheStore::put) with a revalidation token. Entries with a
    /// validator become `Stale` instead of `Expired` when their TTL
    /// lapses. Returns `None` when the entry was refused because it can
    /// never fit a shard's budget: nothing was stored, and whatever the
    /// key held — older than the response being refused — is removed
    /// rather than left to be served. `Some` with the eviction summary
    /// otherwise.
    pub(crate) fn put_validated(
        &self,
        key: CacheKey,
        entry: CacheEntry,
        expires_at_millis: u64,
        now_millis: u64,
        validator: Option<String>,
    ) -> Option<EvictionSummary> {
        let size_bytes = entry.approximate_size() + key.approximate_size();
        // Entries that can never fit a shard's budget are not cacheable.
        if self.shard_max_entries == 0 || size_bytes > self.shard_max_bytes {
            self.invalidate(&key);
            return None;
        }
        let validator: Option<Arc<str>> = validator.map(Arc::from);
        let hash = hash_key(&key);
        // Declared before the guard, so dropped after it.
        let (_replaced, _victims);
        let mut shard = sync::lock_class("CacheStore.shards", &self.shards[self.shard_index(hash)]);
        let before = (shard.entries, shard.bytes);
        let pinned = match shard.find(hash, &key) {
            Some(idx) => {
                _replaced = shard.replace(idx, entry, expires_at_millis, size_bytes, validator);
                shard.touch(idx);
                idx
            }
            None => {
                _replaced = None;
                shard.insert_new(Slot {
                    key,
                    hash,
                    entry,
                    expires_at_millis,
                    size_bytes,
                    validator,
                    lru_prev: NIL,
                    lru_next: NIL,
                    chain_next: NIL,
                })
            }
        };
        let summary;
        (summary, _victims) = self.evict_over_budget(&mut shard, now_millis, pinned);
        self.settle(before, &shard);
        Some(summary)
    }

    /// Evicts within a locked shard until its budget holds, never
    /// choosing the pinned slot. The victims are handed back for the
    /// caller to drop once it has released the shard.
    fn evict_over_budget(
        &self,
        shard: &mut Shard,
        now_millis: u64,
        pinned: u32,
    ) -> (EvictionSummary, Vec<Slot>) {
        let mut summary = EvictionSummary::default();
        let mut victims = Vec::new();
        while shard.entries > self.shard_max_entries || shard.bytes > self.shard_max_bytes {
            let Some(slot) = shard
                .pick_victim(now_millis, pinned)
                .and_then(|victim| shard.remove_index(victim))
            else {
                break;
            };
            if slot.expires_at_millis <= now_millis {
                summary.expired += 1;
            } else {
                summary.live += 1;
            }
            victims.push(slot);
        }
        (summary, victims)
    }

    /// Removes one entry. Returns whether it was present.
    pub fn invalidate(&self, key: &CacheKey) -> bool {
        let hash = hash_key(key);
        let removed = {
            let mut shard =
                sync::lock_class("CacheStore.shards", &self.shards[self.shard_index(hash)]);
            let before = (shard.entries, shard.bytes);
            let removed = shard
                .find(hash, key)
                .and_then(|idx| shard.remove_index(idx));
            self.settle(before, &shard);
            removed
        };
        removed.is_some()
    }

    /// Removes everything.
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            let emptied = {
                let mut shard = sync::lock_class("CacheStore.shards", shard);
                let before = (shard.entries, shard.bytes);
                let emptied = shard.clear();
                self.settle(before, &shard);
                emptied
            };
            drop(emptied);
        }
    }

    /// Current `(entries, approximate bytes)` over all shards, from the
    /// store-wide totals: two atomic loads, no lock. Exact whenever no
    /// operation is in flight; under concurrency each number is some
    /// recent total (the two need not be of the same instant), never
    /// more than the configured capacity.
    pub fn occupancy(&self) -> (usize, usize) {
        (
            self.entries.load(Ordering::Acquire),
            self.bytes.load(Ordering::Acquire),
        )
    }

    /// Current number of entries (including not-yet-reaped expired ones).
    pub fn len(&self) -> usize {
        self.occupancy().0
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current approximate byte usage.
    pub fn bytes(&self) -> usize {
        self.occupancy().1
    }

    /// Cross-checks every shard's incremental accounting
    /// ([`audit_shards`](CacheStore::audit_shards)) and the store-wide
    /// totals [`occupancy`](CacheStore::occupancy) reads against the sum
    /// of the shards' counters — a mutation that did not add its
    /// shard's net change to the totals, or did twice, shows up here.
    /// Intended for tests and stress harnesses, *between* operations:
    /// the totals and the sum are only comparable while nothing else is
    /// in flight.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn audit(&self) -> Result<(), String> {
        let shards = self.audit_shards()?;
        let totals = self.occupancy();
        if totals != shards {
            return Err(format!(
                "store totals (entries, bytes) = {totals:?} but the shards sum to {shards:?}"
            ));
        }
        Ok(())
    }

    /// The part of [`audit`](CacheStore::audit) that holds at any
    /// moment, other threads mid-operation included: each shard's
    /// entry/byte counters, recency list, collision chains and slab free
    /// list against a from-scratch recount, one shard lock at a time.
    /// Returns the sum of the shards' `(entries, bytes)` counters.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn audit_shards(&self) -> Result<(usize, usize), String> {
        let mut sum = (0, 0);
        for (shard_no, shard) in self.shards.iter().enumerate() {
            let shard = sync::lock_class("CacheStore.shards", shard);
            shard.check(shard_no)?;
            sum.0 += shard.entries;
            sum.1 += shard.bytes;
        }
        Ok(sum)
    }
}

impl Default for CacheStore {
    fn default() -> Self {
        CacheStore::new(Capacity::default())
    }
}

/// Result of [`CacheStore::get`].
#[derive(Debug)]
pub enum Lookup {
    /// No entry under this key.
    Absent,
    /// An entry existed but its TTL had elapsed; it was removed.
    Expired,
    /// A live entry (its form shares `Arc`s with the stored slot).
    Live(CacheEntry),
    /// An expired entry that carries a revalidation token; it remains
    /// stored and can be renewed with `CacheStore::refresh`.
    Stale {
        /// The stale entry.
        entry: CacheEntry,
        /// The revalidation token recorded at insertion (shared, not
        /// cloned per lookup).
        validator: Arc<str>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repr::StoredResponse;

    fn key(n: usize) -> CacheKey {
        CacheKey::Text(format!("key-{n}"))
    }

    fn value(size: usize) -> CacheEntry {
        CacheEntry::single(StoredResponse::XmlMessage(Arc::from(
            "x".repeat(size).into_bytes(),
        )))
    }

    #[test]
    fn get_put_roundtrip() {
        let store = CacheStore::default();
        assert!(matches!(store.get(&key(1), 0), Lookup::Absent));
        store.put(key(1), value(10), 100, 0);
        assert!(matches!(store.get(&key(1), 50), Lookup::Live(_)));
        assert_eq!(store.len(), 1);
        assert!(store.bytes() > 10);
    }

    #[test]
    fn entries_expire_lazily() {
        let store = CacheStore::default();
        store.put(key(1), value(10), 100, 0);
        assert!(matches!(store.get(&key(1), 100), Lookup::Expired));
        // The expired entry was reaped.
        assert!(matches!(store.get(&key(1), 100), Lookup::Absent));
        assert_eq!(store.len(), 0);
        assert_eq!(store.bytes(), 0);
    }

    #[test]
    fn replacement_updates_byte_accounting() {
        let store = CacheStore::default();
        store.put(key(1), value(1000), 100, 0);
        let b1 = store.bytes();
        store.put(key(1), value(10), 100, 0);
        assert!(store.bytes() < b1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn entry_capacity_evicts_lru() {
        // One shard so the recency order is the exact classic LRU order.
        let store = CacheStore::with_shards(
            Capacity {
                max_entries: 3,
                max_bytes: usize::MAX,
            },
            1,
        );
        for i in 0..3 {
            store.put(key(i), value(10), 1000, 0);
        }
        // Touch key 0 so key 1 becomes the LRU.
        assert!(matches!(store.get(&key(0), 0), Lookup::Live(_)));
        let evicted = store.put(key(3), value(10), 1000, 0);
        assert_eq!(evicted.total(), 1);
        assert_eq!(evicted.live, 1);
        assert_eq!(store.len(), 3);
        assert!(
            matches!(store.get(&key(1), 0), Lookup::Absent),
            "LRU entry should be gone"
        );
        assert!(matches!(store.get(&key(0), 0), Lookup::Live(_)));
        assert!(matches!(store.get(&key(3), 0), Lookup::Live(_)));
    }

    #[test]
    fn byte_capacity_evicts() {
        let store = CacheStore::with_shards(
            Capacity {
                max_entries: usize::MAX,
                max_bytes: 5000,
            },
            1,
        );
        for i in 0..10 {
            store.put(key(i), value(1000), 1000, 0);
        }
        assert!(store.bytes() <= 5000, "bytes={}", store.bytes());
        assert!(store.len() < 10);
        store.audit().unwrap();
    }

    #[test]
    fn expired_entries_are_preferred_eviction_victims() {
        let store = CacheStore::with_shards(
            Capacity {
                max_entries: 2,
                max_bytes: usize::MAX,
            },
            1,
        );
        store.put(key(0), value(10), 10, 0); // expires at 10
        store.put(key(1), value(10), 1000, 0);
        // Make key 0 most-recently-used to prove the choice is expiry
        // preference, not recency order.
        assert!(matches!(store.get(&key(0), 5), Lookup::Live(_)));
        let evicted = store.put(key(2), value(10), 1000, 50);
        assert_eq!(evicted.expired, 1);
        assert_eq!(evicted.live, 0);
        assert!(matches!(store.get(&key(0), 50), Lookup::Absent));
        assert!(matches!(store.get(&key(1), 50), Lookup::Live(_)));
    }

    #[test]
    fn fresh_insert_is_never_its_own_victim() {
        let store = CacheStore::with_shards(
            Capacity {
                max_entries: 1,
                max_bytes: usize::MAX,
            },
            1,
        );
        store.put(key(0), value(10), 1000, 0);
        // Insert an entry that is *already expired* at insertion time.
        // Expiry preference would otherwise pick it as its own victim.
        let evicted = store.put(key(1), value(10), 10, 50);
        assert_eq!(evicted.live, 1, "the old live entry is the victim");
        assert_eq!(store.len(), 1);
        assert!(matches!(store.get(&key(0), 50), Lookup::Absent));
        assert!(matches!(store.get(&key(1), 5), Lookup::Live(_)));
    }

    #[test]
    fn oversized_entries_are_refused() {
        let store = CacheStore::new(Capacity {
            max_entries: 10,
            max_bytes: 100,
        });
        assert!(store
            .put_validated(key(1), value(1000), 1000, 0, None)
            .is_none());
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn a_refused_replacement_removes_the_entry_it_would_have_replaced() {
        let store = CacheStore::with_shards(
            Capacity {
                max_entries: 10,
                max_bytes: 1000,
            },
            1,
        );
        store.put(key(1), value(10), 1000, 0);
        store.put(key(2), value(10), 1000, 0);
        // A newer response for key 1 that no shard can hold: the older
        // one must not go on being served in its place.
        assert!(store
            .put_validated(key(1), value(5000), 1000, 0, None)
            .is_none());
        assert!(matches!(store.get(&key(1), 0), Lookup::Absent));
        assert!(matches!(store.get(&key(2), 0), Lookup::Live(_)));
        assert_eq!(store.len(), 1);
        store.audit().unwrap();
    }

    #[test]
    fn auto_sharding_keeps_global_caps_hard() {
        let store = CacheStore::new(Capacity {
            max_entries: 10,
            max_bytes: 4096,
        });
        assert_eq!(store.shard_count(), 8);
        assert_eq!(store.shard_budget().max_entries, 1);
        for i in 0..100 {
            store.put(key(i), value(100), 1000, 0);
        }
        assert!(store.len() <= 10, "len={}", store.len());
        assert!(store.bytes() <= 4096, "bytes={}", store.bytes());
        store.audit().unwrap();
    }

    #[test]
    fn shard_counts_round_down_to_powers_of_two() {
        let cap = Capacity::default();
        assert_eq!(CacheStore::new(cap).shard_count(), 16);
        assert_eq!(CacheStore::with_shards(cap, 5).shard_count(), 4);
        assert_eq!(CacheStore::with_shards(cap, 0).shard_count(), 1);
        let tiny = CacheStore::new(Capacity {
            max_entries: 1,
            max_bytes: 100,
        });
        assert_eq!(tiny.shard_count(), 1);
    }

    #[test]
    fn totals_follow_every_operation_that_changes_a_shard() {
        let store = CacheStore::with_shards(
            Capacity {
                max_entries: 8,
                max_bytes: 4096,
            },
            4,
        );
        // `audit` compares the totals with the shards' counters, summed.
        let check = |what: &str| {
            assert_eq!(
                store.occupancy(),
                store.audit_shards().expect(what),
                "{what}"
            );
            assert_eq!(store.occupancy(), (store.len(), store.bytes()), "{what}");
            store.audit().expect(what);
        };
        for i in 0..6 {
            store.put(key(i), value(100), 100, 0);
        }
        check("inserts");
        store.put(key(0), value(300), 100, 0);
        check("a replacement of another size");
        for i in 6..40 {
            store.put(key(i), value(100), 100, 0);
        }
        check("inserts that evict");
        assert!(store.len() <= 8);
        let mut survivors = (0..40).filter(|i| matches!(store.get(&key(*i), 0), Lookup::Live(_)));
        let (survivor, superseded) = (survivors.next().unwrap(), survivors.next().unwrap());
        assert!(store
            .put_validated(key(99), value(5000), 100, 0, None)
            .is_none());
        check("a refused insert");
        let before = store.len();
        assert!(store
            .put_validated(key(superseded), value(5000), 100, 0, None)
            .is_none());
        assert_eq!(store.len(), before - 1);
        check("a refused replacement");
        assert!(store.invalidate(&key(survivor)));
        assert!(!store.invalidate(&key(survivor)));
        check("an invalidation");
        let before = store.len();
        let expired = (0..40)
            .filter(|i| matches!(store.get(&key(*i), 200), Lookup::Expired))
            .count();
        assert_eq!(store.len(), before - expired);
        assert!(expired > 0);
        check("expiry on lookup");
        store.put(key(1), value(100), 100, 0);
        store.clear();
        check("clear");
        assert_eq!(store.occupancy(), (0, 0));
        // A total that drifts from its shards is what `audit` is for;
        // the shards themselves are still sound.
        store.put(key(1), value(100), 100, 0);
        store.bytes.fetch_add(1, Ordering::AcqRel);
        let drift = store.audit().unwrap_err();
        assert!(drift.contains("but the shards sum to"), "{drift}");
        store.audit_shards().unwrap();
    }

    #[test]
    fn invalidate_and_clear() {
        let store = CacheStore::default();
        store.put(key(1), value(10), 100, 0);
        store.put(key(2), value(10), 100, 0);
        assert!(store.invalidate(&key(1)));
        assert!(!store.invalidate(&key(1)));
        assert_eq!(store.len(), 1);
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.bytes(), 0);
    }

    #[test]
    fn validated_entries_go_stale_instead_of_expiring() {
        let store = CacheStore::default();
        store.put_validated(key(1), value(10), 100, 0, Some("etag-1".into()));
        match store.get(&key(1), 150) {
            Lookup::Stale { validator, .. } => assert_eq!(&*validator, "etag-1"),
            other => panic!("expected stale, got {other:?}"),
        }
        // Still present; refresh renews it.
        assert!(store.refresh(&key(1), 300));
        assert!(matches!(store.get(&key(1), 200), Lookup::Live(_)));
        assert!(matches!(store.get(&key(1), 300), Lookup::Stale { .. }));
    }

    #[test]
    fn refresh_of_missing_entry_is_false() {
        let store = CacheStore::default();
        assert!(!store.refresh(&key(9), 10));
    }

    #[test]
    fn collision_chains_resolve_same_hash_keys() {
        // Drive a Shard directly with two manufactured same-hash slots to
        // exercise the chain_next path that real SipHash output (almost)
        // never hits.
        let mut shard = Shard::default();
        let slot = |n: usize| {
            let entry = value(8);
            let size_bytes = entry.approximate_size() + key(n).approximate_size();
            Slot {
                key: key(n),
                hash: 0xDEAD_BEEF,
                entry,
                expires_at_millis: 1000,
                size_bytes,
                validator: None,
                lru_prev: NIL,
                lru_next: NIL,
                chain_next: NIL,
            }
        };
        let a = shard.insert_new(slot(1));
        let b = shard.insert_new(slot(2));
        assert_eq!(shard.find(0xDEAD_BEEF, &key(1)), Some(a));
        assert_eq!(shard.find(0xDEAD_BEEF, &key(2)), Some(b));
        shard.check(0).unwrap();
        // Remove the chain head; the survivor must stay findable.
        assert!(shard.remove_index(b).is_some());
        assert_eq!(shard.find(0xDEAD_BEEF, &key(1)), Some(a));
        assert_eq!(shard.find(0xDEAD_BEEF, &key(2)), None);
        shard.check(0).unwrap();
        // And remove a mid-chain member after re-adding.
        let c = shard.insert_new(slot(3));
        assert!(shard.remove_index(a).is_some());
        assert_eq!(shard.find(0xDEAD_BEEF, &key(3)), Some(c));
        shard.check(0).unwrap();
    }

    #[test]
    fn audit_passes_after_mixed_workload() {
        let store = CacheStore::new(Capacity {
            max_entries: 32,
            max_bytes: 64 * 1024,
        });
        for round in 0..4 {
            for i in 0..100 {
                store.put(key(i), value(16 + (i % 50)), 1000 + i as u64, round);
            }
            for i in (0..100).step_by(3) {
                let _ = store.get(&key(i), round);
            }
            for i in (0..100).step_by(7) {
                store.invalidate(&key(i));
            }
            store.audit().unwrap();
        }
        store.clear();
        store.audit().unwrap();
    }

    #[test]
    fn removed_payloads_are_handed_back_to_the_caller_of_the_locked_section() {
        // Each payload is an `Arc` the test also holds: while its count
        // is 2 the payload is alive, wherever it now sits.
        let payload = |n: u8| -> Arc<[u8]> { Arc::from(vec![n; 16]) };
        let entry = |xml: &Arc<[u8]>| CacheEntry::single(StoredResponse::XmlMessage(xml.clone()));
        let (a, b, c, d) = (payload(1), payload(2), payload(3), payload(4));
        let store = CacheStore::with_shards(
            Capacity {
                max_entries: 2,
                max_bytes: usize::MAX,
            },
            1,
        );
        store.put(key(0), entry(&a), 1000, 0);
        store.put(key(1), entry(&b), 1000, 0);
        {
            let mut shard = sync::lock_class("CacheStore.shards", &store.shards[0]);
            let before = (shard.entries, shard.bytes);
            // Replacement: the old payload comes back, still alive.
            let idx = shard.find(hash_key(&key(0)), &key(0)).unwrap();
            let size = entry(&c).approximate_size() + key(0).approximate_size();
            let replaced = shard.replace(idx, entry(&c), 1000, size, None);
            shard.touch(idx);
            assert_eq!(Arc::strong_count(&a), 2);
            assert!(matches!(
                replaced.as_ref().map(CacheEntry::form),
                Some(StoredResponse::XmlMessage(xml)) if Arc::ptr_eq(xml, &a)
            ));
            // Eviction: push the shard over budget by hand, as `put`
            // does before it calls `evict_over_budget`.
            let slot = Slot {
                key: key(2),
                hash: hash_key(&key(2)),
                entry: entry(&d),
                expires_at_millis: 1000,
                size_bytes: size,
                validator: None,
                lru_prev: NIL,
                lru_next: NIL,
                chain_next: NIL,
            };
            let pinned = shard.insert_new(slot);
            let (summary, victims) = store.evict_over_budget(&mut shard, 0, pinned);
            assert_eq!((summary.live, victims.len()), (1, 1));
            assert_eq!(victims[0].key, key(1));
            assert_eq!(
                Arc::strong_count(&b),
                2,
                "the victim outlives the locked section"
            );
            // Clear hands its payloads back too.
            let emptied = shard.clear();
            assert_eq!(emptied.iter().flatten().count(), 2);
            assert_eq!((Arc::strong_count(&c), Arc::strong_count(&d)), (2, 2));
            // As every operation does before it releases its shard.
            store.settle(before, &shard);
            drop(shard);
            drop((replaced, victims, emptied));
        }
        for xml in [&a, &b, &c, &d] {
            assert_eq!(Arc::strong_count(xml), 1);
        }
        store.audit().unwrap();
        // And through the public operations nothing is leaked or kept.
        store.put(key(0), entry(&a), 10, 0);
        store.put(key(0), entry(&b), 10, 0);
        assert_eq!(Arc::strong_count(&a), 1, "replaced");
        assert!(store.invalidate(&key(0)));
        assert_eq!(Arc::strong_count(&b), 1, "invalidated");
        store.put(key(0), entry(&c), 10, 0);
        assert!(matches!(store.get(&key(0), 10), Lookup::Expired));
        assert_eq!(Arc::strong_count(&c), 1, "expired");
        store.put(key(0), entry(&d), 10, 0);
        store.clear();
        assert_eq!(Arc::strong_count(&d), 1, "cleared");
        store.audit().unwrap();
    }

    #[test]
    fn concurrent_hammering_is_safe() {
        let store = Arc::new(CacheStore::new(Capacity {
            max_entries: 64,
            max_bytes: usize::MAX,
        }));
        let mut threads = Vec::new();
        for t in 0..8 {
            let store = store.clone();
            threads.push(std::thread::spawn(move || {
                for i in 0..500 {
                    let k = key((t * 31 + i) % 100);
                    match store.get(&k, 0) {
                        Lookup::Live(_) => {}
                        _ => {
                            store.put(k, value(16), 1_000_000, 0);
                        }
                    }
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert!(store.len() <= 64);
        store.audit().unwrap();
    }
}
