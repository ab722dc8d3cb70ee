//! The first leader in a process resolves `wsrc_client_coalesce_total`
//! by name through the global metrics registry's lock. This file holds
//! one test so that its `join` *is* the process's first: under the
//! debug lock witness it panics if that lookup happens inside the
//! `InflightTable.flights` critical section every coalesced call
//! contends on.

use wsrc_cache::CacheKey;
use wsrc_client::coalesce::{InflightTable, Role};

#[test]
fn a_fresh_tables_first_join_holds_one_lock_at_a_time() {
    let table = InflightTable::new();
    match table.join(CacheKey::Text("first".to_string())) {
        Role::Leader(guard) => guard.complete(),
        Role::Follower => panic!("nobody else is in flight"),
    }
}
