//! Every ablation variant computes the right answer: a row whose run
//! fails its app oracle would price a program that does something else.

use acc_apps::Scale;
use acc_bench::{ablation_layout, ablation_loader_reuse, ablation_placement};

#[test]
fn every_ablation_row_passes_its_oracle() {
    for p in ablation_placement(Scale::Small, 42) {
        assert!(p.correct, "placement: {p:?}");
    }
    for p in ablation_layout(Scale::Small, 42) {
        assert!(p.correct, "layout: {p:?}");
    }
    for p in ablation_loader_reuse(Scale::Small, 42) {
        assert!(p.correct, "loader reuse: {p:?}");
    }
}
