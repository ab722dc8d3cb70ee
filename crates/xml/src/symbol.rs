//! Interned XML name symbols.
//!
//! Element and attribute names in SOAP traffic are drawn from a tiny
//! vocabulary (`soapenv:Envelope`, `item`, `xsi:type`, …) yet the naive
//! pipeline allocated a fresh `String` for every occurrence of every
//! name in every event. A [`Symbol`] is an `Arc<str>` plus its hash,
//! computed exactly once at intern time; a [`SymbolTable`] deduplicates
//! symbols so a recorded event sequence charges each distinct name once
//! no matter how many events mention it.
//!
//! The table deliberately has **no interior mutability** — interning
//! requires `&mut self` — so tables embedded in cached values stay
//! deeply immutable (invariant R1; `clippy.toml` disallows every cell,
//! lock and atomic type in this crate).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// FNV-1a 64-bit offset basis, exposed crate-internally so the reader's
/// name scanner can fold the hash into the same byte pass that
/// validates the name (hash-once, scan-once).
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime; see [`FNV_OFFSET`].
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit: tiny, dependency-free, and good enough for name-sized
/// keys. Computed once per interned string (hash-once): both the table
/// probe and every later `HashMap` use of the [`Symbol`] reuse it.
fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = FNV_OFFSET;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// An interned string: shared text plus its precomputed hash.
///
/// Cloning is a pointer bump. Equality first compares the cached hashes
/// and the `Arc` pointers, so comparing two symbols drawn from the same
/// table never touches the text.
#[derive(Clone)]
pub struct Symbol {
    text: Arc<str>,
    hash: u64,
}

impl Symbol {
    /// Interns `text` outside any table (computes the hash, allocates).
    /// Prefer [`SymbolTable::intern`] when many names repeat.
    pub(crate) fn new(text: &str) -> Self {
        Symbol {
            text: Arc::from(text),
            hash: fnv1a(text),
        }
    }

    /// The interned text.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// Length of the text in bytes.
    pub(crate) fn len(&self) -> usize {
        self.text.len()
    }

    /// Whether the text is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// The shared text buffer.
    pub fn shared_str(&self) -> &Arc<str> {
        &self.text
    }

    /// Whether two symbols share one allocation (same table entry).
    #[cfg(test)]
    pub(crate) fn ptr_eq(&self, other: &Symbol) -> bool {
        Arc::ptr_eq(&self.text, &other.text)
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && (Arc::ptr_eq(&self.text, &other.text) || self.text == other.text)
    }
}

impl Eq for Symbol {}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        &*self.text == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        &*self.text == *other
    }
}

impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.text.cmp(&other.text)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", &*self.text)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        &self.text
    }
}

/// Bucket marker for an empty slot in the open-addressed index.
const EMPTY: u32 = u32::MAX;

/// A deduplicating symbol table.
///
/// Open-addressed (linear probing) over the symbols' cached hashes; no
/// `std::collections::HashMap` so probing reuses the hash computed at
/// intern time instead of re-running SipHash per lookup. All mutation is
/// `&mut self` — a table frozen inside an `Arc`'d cached value is plain
/// immutable data (rule R1).
#[derive(Debug, Clone, Default)]
pub(crate) struct SymbolTable {
    symbols: Vec<Symbol>,
    /// Power-of-two bucket array of indices into `symbols`.
    buckets: Vec<u32>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        SymbolTable::default()
    }

    /// Interns `text`, returning the shared symbol (a pointer bump when
    /// the name was seen before).
    pub(crate) fn intern(&mut self, text: &str) -> Symbol {
        let hash = fnv1a(text);
        if let Some(found) = self.find(hash, text) {
            return found;
        }
        self.insert_new(Symbol {
            text: Arc::from(text),
            hash,
        })
    }

    /// Interns `text` under a hash the caller already computed — the
    /// reader folds FNV-1a into the byte scan that validates a name, so
    /// interning never re-reads the bytes. `hash` must equal
    /// `fnv1a(text)`.
    pub(crate) fn intern_prehashed(&mut self, hash: u64, text: &str) -> Symbol {
        debug_assert_eq!(hash, fnv1a(text), "caller-supplied hash mismatch");
        if let Some(found) = self.find(hash, text) {
            return found;
        }
        self.insert_new(Symbol {
            text: Arc::from(text),
            hash,
        })
    }

    /// Interns a lexical QName (`ns:elem` or `elem`) with both parts
    /// deduplicated through this table.
    pub(crate) fn intern_qname(&mut self, raw: &str) -> crate::name::QName {
        match raw.split_once(':') {
            Some((prefix, local)) => {
                let prefix = self.intern(prefix);
                let local = self.intern(local);
                crate::name::QName::from_symbols(Some(prefix), local)
            }
            None => crate::name::QName::from_symbols(None, self.intern(raw)),
        }
    }

    /// Looks up a previously interned name without inserting.
    #[cfg(test)]
    fn get(&self, text: &str) -> Option<Symbol> {
        self.find(fnv1a(text), text)
    }

    /// Number of distinct interned names.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.symbols.len()
    }

    fn find(&self, hash: u64, text: &str) -> Option<Symbol> {
        if self.buckets.is_empty() {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            match self.buckets[slot] {
                EMPTY => return None,
                index => {
                    let candidate = &self.symbols[index as usize];
                    if candidate.hash == hash && &*candidate.text == text {
                        return Some(candidate.clone());
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    fn insert_new(&mut self, symbol: Symbol) -> Symbol {
        // Grow at 75% load so probes stay short.
        if self.buckets.is_empty() || (self.symbols.len() + 1) * 4 > self.buckets.len() * 3 {
            self.grow();
        }
        let mask = self.buckets.len() - 1;
        let mut slot = (symbol.hash as usize) & mask;
        while self.buckets[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        self.buckets[slot] = self.symbols.len() as u32;
        self.symbols.push(symbol.clone());
        symbol
    }

    fn grow(&mut self) {
        let new_len = (self.buckets.len() * 2).max(16);
        self.buckets.clear();
        self.buckets.resize(new_len, EMPTY);
        let mask = new_len - 1;
        for (index, symbol) in self.symbols.iter().enumerate() {
            let mut slot = (symbol.hash as usize) & mask;
            while self.buckets[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.buckets[slot] = index as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let mut table = SymbolTable::new();
        let a = table.intern("Envelope");
        let b = table.intern("Envelope");
        assert!(a.ptr_eq(&b));
        assert_eq!(table.len(), 1);
        let c = table.intern("Body");
        assert!(!a.ptr_eq(&c));
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn symbols_compare_and_hash_by_text() {
        let a = Symbol::new("item");
        let mut table = SymbolTable::new();
        let b = table.intern("item");
        assert_eq!(a, b);
        assert!(!a.ptr_eq(&b), "different allocations, equal values");
        // A HashSet keyed by symbols finds equal symbols from any table
        // (hashing writes the cached value, never the text bytes).
        let mut set = std::collections::HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
        assert!(!set.contains(&Symbol::new("other")));
    }

    #[test]
    fn qname_interning_splits_prefixes() {
        let mut table = SymbolTable::new();
        let q = table.intern_qname("soapenv:Body");
        assert_eq!(q.prefix(), "soapenv");
        assert_eq!(q.local_part(), "Body");
        let plain = table.intern_qname("item");
        assert_eq!(plain.prefix(), "");
        assert_eq!(plain.local_part(), "item");
        // soapenv, Body, item
        assert_eq!(table.len(), 3);
        let again = table.intern_qname("soapenv:Body");
        assert!(again.local_symbol().ptr_eq(q.local_symbol()));
    }

    #[test]
    fn table_survives_growth() {
        let mut table = SymbolTable::new();
        let names: Vec<String> = (0..500).map(|i| format!("name-{i}")).collect();
        let first: Vec<Symbol> = names.iter().map(|n| table.intern(n)).collect();
        for (name, symbol) in names.iter().zip(&first) {
            let again = table.intern(name);
            assert!(again.ptr_eq(symbol), "{name} lost after growth");
        }
        assert_eq!(table.len(), 500);
        assert_eq!(table.get("name-250").as_ref(), Some(&first[250]));
        assert_eq!(table.get("absent"), None);
    }

    #[test]
    fn ordering_is_textual() {
        let mut v = [Symbol::new("b"), Symbol::new("a"), Symbol::new("c")];
        v.sort();
        let texts: Vec<&str> = v.iter().map(Symbol::as_str).collect();
        assert_eq!(texts, ["a", "b", "c"]);
    }
}
