//! Cache entries: one response under one stored form.
//!
//! A [`CacheEntry`] holds exactly one [`StoredResponse`] — the paper
//! stores each response under the one representation chosen for it
//! (§3.1, §6) — plus the mask of representations the response supports.
//! The mask is what convert-on-hit picks its target from: when the
//! adaptive policy decides a hot entry would be cheaper to serve from
//! another candidate, the hit builds that form with
//! [`StoredResponse::from_value`] and the store swaps it in
//! ([`CacheStore::replace_form`](crate::store::CacheStore::replace_form)).
//! The entry is charged for the one form it holds.

use crate::repr::StoredResponse;

/// One response stored under one representation.
///
/// `candidates` is the bitmask (by
/// [`ValueRepresentation::index`](crate::repr::ValueRepresentation::index))
/// of representations the response is known to support; it always
/// covers the stored form.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    form: StoredResponse,
    candidates: u8,
}

impl CacheEntry {
    /// An entry whose candidates are just its form's representation (no
    /// conversions unless widened with
    /// [`with_candidates`](CacheEntry::with_candidates)).
    pub fn single(form: StoredResponse) -> Self {
        let candidates = form.representation().bit();
        CacheEntry { form, candidates }
    }

    /// Widens the candidate set (the stored form always remains a
    /// candidate).
    pub fn with_candidates(mut self, mask: u8) -> Self {
        self.candidates |= mask;
        self
    }

    /// The stored form.
    pub fn form(&self) -> &StoredResponse {
        &self.form
    }

    /// Bitmask of representations this response supports (conversion
    /// targets), including the stored form's.
    pub fn candidates_mask(&self) -> u8 {
        self.candidates
    }

    /// Replaces the stored form, keeping the candidate set, and returns
    /// the form it held (for the store to drop outside its lock).
    pub(crate) fn set_form(&mut self, form: StoredResponse) -> StoredResponse {
        self.candidates |= form.representation().bit();
        std::mem::replace(&mut self.form, form)
    }

    /// Approximate memory footprint: the fixed entry overhead plus the
    /// stored form's size.
    pub fn approximate_size(&self) -> usize {
        CacheEntry::size_holding(&self.form)
    }

    /// What an entry weighs when `form` is the one it holds — lets the
    /// store size a form swap before it takes the shard lock.
    pub(crate) fn size_holding(form: &StoredResponse) -> usize {
        std::mem::size_of::<CacheEntry>() + form.approximate_size()
    }
}

impl From<StoredResponse> for CacheEntry {
    fn from(form: StoredResponse) -> Self {
        CacheEntry::single(form)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repr::ValueRepresentation;
    use std::sync::Arc;

    fn xml(len: usize) -> StoredResponse {
        StoredResponse::XmlMessage(Arc::from(vec![b'x'; len]))
    }

    #[test]
    fn candidates_widen_but_always_cover_the_stored_form() {
        let entry = CacheEntry::single(xml(8));
        assert_eq!(
            entry.candidates_mask(),
            ValueRepresentation::XmlMessage.bit()
        );
        let entry = entry.with_candidates(ValueRepresentation::CloneCopy.bit());
        let mask = entry.candidates_mask();
        assert_ne!(mask & ValueRepresentation::XmlMessage.bit(), 0);
        assert_ne!(mask & ValueRepresentation::CloneCopy.bit(), 0);
        assert_eq!(mask & ValueRepresentation::Serialization.bit(), 0);
    }

    #[test]
    fn replacing_the_form_keeps_candidates_and_resizes() {
        let mut entry =
            CacheEntry::single(xml(100)).with_candidates(ValueRepresentation::CloneCopy.bit());
        let before = entry.approximate_size();
        let old_size = entry.form().approximate_size();
        let new = StoredResponse::Serialized(Arc::from(vec![0u8; 40]));
        let new_size = new.approximate_size();
        assert_eq!(CacheEntry::size_holding(&new), before - old_size + new_size);
        entry.set_form(new);
        assert_eq!(
            entry.form().representation(),
            ValueRepresentation::Serialization
        );
        assert_eq!(entry.approximate_size(), before - old_size + new_size);
        let mask = entry.candidates_mask();
        for repr in [
            ValueRepresentation::XmlMessage,
            ValueRepresentation::CloneCopy,
            ValueRepresentation::Serialization,
        ] {
            assert_ne!(mask & repr.bit(), 0, "{repr}");
        }
    }
}
