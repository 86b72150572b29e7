//! The fork-join pool behind every per-tile codec stage.
//!
//! `qn_linalg::parallel::par_map_chunked_into` runs its blocks on the
//! caller and on a persistent pool of `available_parallelism − 1`
//! helper threads. Thread ids are never reused, so a pool that spawned
//! its workers per call would show a fresh id on every call.

use qn::linalg::parallel::par_map_chunked_into;
use std::collections::HashSet;
use std::thread;

#[test]
fn no_parallel_call_spawns_a_thread() {
    let caller = thread::current().id();
    let helpers = rayon::current_num_threads() - 1;
    let mut others = HashSet::new();
    for _ in 0..200 {
        let mut ran_on = vec![None; 64];
        par_map_chunked_into(&mut ran_on, 1, |_, slot| {
            slot[0] = Some(thread::current().id());
        });
        others.extend(
            ran_on
                .into_iter()
                .map(|id| id.expect("every chunk ran"))
                .filter(|&id| id != caller),
        );
    }
    assert!(
        others.len() <= helpers,
        "200 parallel calls ran on {} threads besides the caller; the pool has {helpers} helpers",
        others.len()
    );
}
