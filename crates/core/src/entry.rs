//! Cache entries: one response under one stored form.
//!
//! A [`CacheEntry`] holds exactly one [`StoredResponse`] — the paper
//! stores each response under the one representation chosen for it
//! (§3.1, §6) — and is what the store sizes and charges.

use crate::repr::StoredResponse;

/// One response stored under one representation.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    form: StoredResponse,
}

impl CacheEntry {
    /// An entry holding `form`.
    pub fn single(form: StoredResponse) -> Self {
        CacheEntry { form }
    }

    /// The stored form.
    pub(crate) fn form(&self) -> &StoredResponse {
        &self.form
    }

    /// The stored form, moved out.
    pub(crate) fn into_form(self) -> StoredResponse {
        self.form
    }

    /// Approximate memory footprint: the fixed entry overhead plus the
    /// stored form's size.
    pub fn approximate_size(&self) -> usize {
        std::mem::size_of::<CacheEntry>() + self.form.approximate_size()
    }
}

impl From<StoredResponse> for CacheEntry {
    fn from(form: StoredResponse) -> Self {
        CacheEntry::single(form)
    }
}
