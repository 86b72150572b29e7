//! What the gate-table counters count: every non-empty
//! `Mesh::forward_panels` call looks up its mesh's tables once, a miss
//! when it builds them and a hit when it finds them built. These are
//! the counts behind STATS' `gate_table_cache_hits`/`_misses` gauges
//! and perfbench's `backend.table_cache_hit_share`.
//!
//! The counters are process-wide, so this binary holds one test: no
//! other test's passes can move them while it reads them.

use qn_linalg::Panel;
use qn_photonic::{table_cache_stats, Mesh};

/// `(hits, misses)` added by one `forward_panels` call.
fn lookups(mesh: &Mesh, panels: &mut [Panel]) -> (u64, u64) {
    let before = table_cache_stats();
    mesh.forward_panels(panels);
    let after = table_cache_stats();
    (after.hits - before.hits, after.misses - before.misses)
}

#[test]
fn forward_panels_looks_up_the_tables_once_per_non_empty_call() {
    let mut mesh = Mesh::zeros(6, 3);
    let thetas: Vec<f64> = (0..mesh.param_count()).map(|i| i as f64 * 0.37).collect();
    mesh.set_thetas(&thetas);
    // Several panels, so a call that forks still looks up once.
    let mut panels: Vec<Panel> = [64, 64, 64, 5].map(|w| Panel::zeros(6, w)).into();

    assert_eq!(lookups(&mesh, &mut panels), (0, 1), "first call builds");
    assert_eq!(
        lookups(&mesh, &mut panels),
        (1, 0),
        "second call finds them"
    );
    let halved: Vec<f64> = thetas.iter().map(|t| t * 0.5).collect();
    mesh.set_thetas(&halved);
    assert_eq!(lookups(&mesh, &mut panels), (0, 1), "set_thetas drops them");
    assert_eq!(
        lookups(&mesh, &mut []),
        (0, 0),
        "an empty call looks nothing up"
    );
}
