//! Fig. 14: mean estimation error vs. the minimum number of
//! communicable APs. Paper finding: M-Loc's error decreases
//! monotonically with more APs while Centroid's *increases* (skewed AP
//! clusters drag it away).

use crate::common::{run_attack_experiment, AttackOutcomes, Table, ATTACK_SEEDS};
use marauder_sim::scenario::WorldModel;

/// Regenerates the figure from a fresh campaign.
pub fn run() -> String {
    run_with(&run_attack_experiment(ATTACK_SEEDS, WorldModel::FreeSpace))
}

/// Renders the figure from precomputed outcomes.
pub fn run_with(out: &AttackOutcomes) -> String {
    let mut t = Table::new(
        "Fig. 14 — mean error (m) vs minimum number of communicable APs",
        &["k_min", "M-Loc", "AP-Rad", "Centroid", "Nearest-AP"],
    );
    let m = out.mloc.mean_error_vs_min_k();
    let a = out.aprad.mean_error_vs_min_k();
    let c = out.centroid.mean_error_vs_min_k();
    let nn = out.nearest.mean_error_vs_min_k();
    let max_k = m.len().max(a.len()).max(c.len()).max(nn.len());
    let lookup = |v: &[(usize, f64)], k: usize| {
        v.iter()
            .find(|(kk, _)| *kk == k)
            .map(|(_, e)| format!("{e:.2}"))
            .unwrap_or_else(|| "-".into())
    };
    for k in 1..=max_k {
        t.row(&[
            k.to_string(),
            lookup(&m, k),
            lookup(&a, k),
            lookup(&c, k),
            lookup(&nn, k),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mloc_error_trends_down_with_k() {
        let out = run_attack_experiment(&[4], WorldModel::FreeSpace);
        let m = out.mloc.mean_error_vs_min_k();
        assert!(m.len() >= 3, "need a few k buckets, got {}", m.len());
        let first = m.first().expect("non-empty").1;
        let last = m.last().expect("non-empty").1;
        assert!(
            last <= first * 1.05,
            "M-Loc error should not grow with k: {first} -> {last}"
        );
        assert!(run_with(&out).contains("k_min"));
    }
}
