//! Unit tests of the communication manager's write-miss owner routing
//! (`plan::owner_of`); the planners' tests are in `route/tests.rs`.

use crate::plan::owner_of;

/// Route over the non-empty prefix, as `replay_misses` does over the
/// plan's `own[..active]`.
fn route(own: &[(i64, i64)], idx: i64) -> Option<usize> {
    let active = own.iter().take_while(|r| r.0 < r.1).count();
    owner_of(&own[..active], idx)
}

#[test]
fn router_routes_contiguous_partitions() {
    // Uneven but contiguous: the `plan::build` shape.
    let own = [(0i64, 34), (34, 67), (67, 100)];
    for idx in 0..100 {
        let want = own.iter().position(|w| w.0 <= idx && idx < w.1);
        assert_eq!(route(&own, idx), want, "idx {idx}");
    }
    assert_eq!(route(&own, -1), None);
    assert_eq!(route(&own, 100), None);
}

#[test]
fn router_handles_empty_suffix() {
    // ngpus > iterations: trailing GPUs own nothing.
    let own = [(0i64, 2), (2, 3), (0, 0), (0, 0)];
    assert_eq!(route(&own, 0), Some(0));
    assert_eq!(route(&own, 2), Some(1));
    assert_eq!(route(&own, 3), None);
}

#[test]
fn router_falls_back_on_gaps() {
    let own = [(0i64, 2), (5, 9)];
    assert_eq!(route(&own, 1), Some(0));
    assert_eq!(route(&own, 3), None);
    assert_eq!(route(&own, 6), Some(1));
}

#[test]
fn router_handles_all_empty() {
    let own = [(0i64, 0), (0, 0)];
    assert_eq!(route(&own, 0), None);
}
