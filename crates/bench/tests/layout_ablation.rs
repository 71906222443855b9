//! The §IV-B4 claim: the 2-D layout transform turns the strided
//! `localaccess` reads of MD and KMEANS into coalesced ones, so the
//! runtime prices their kernels strictly faster with it than without.

use acc_apps::Scale;
use acc_bench::ablation_layout;

#[test]
fn layout_transform_prices_md_and_kmeans_kernels_faster() {
    let points = ablation_layout(Scale::Small, 42);
    assert_eq!(points.len(), 4);
    for app in ["md", "kmeans"] {
        let kernels_s = |transform| {
            points
                .iter()
                .find(|p| p.app == app && p.transform == transform)
                .unwrap_or_else(|| panic!("no {app} point with transform {transform}"))
                .kernels_time
        };
        let (with, without) = (kernels_s(true), kernels_s(false));
        assert!(
            with < without,
            "{app}: {with:e} s with the transform, {without:e} s without"
        );
    }
}
