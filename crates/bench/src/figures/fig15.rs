//! Fig. 15: size of the intersected area vs. the minimum number of
//! communicable APs. AP-Rad's LP-estimated radii are looser than
//! M-Loc's measured ones, so its region is consistently larger.

use crate::common::{run_attack_experiment, AttackOutcomes, Table, ATTACK_SEEDS};
use marauder_sim::scenario::WorldModel;

/// Regenerates the figure from a fresh campaign.
pub fn run() -> String {
    run_with(&run_attack_experiment(ATTACK_SEEDS, WorldModel::FreeSpace))
}

/// Renders the figure from precomputed outcomes.
pub fn run_with(out: &AttackOutcomes) -> String {
    let mut t = Table::new(
        "Fig. 15 — intersected area (m^2) vs minimum number of communicable APs",
        &["k_min", "M-Loc", "AP-Rad"],
    );
    let m = out.mloc.mean_area_vs_min_k();
    let a = out.aprad.mean_area_vs_min_k();
    let max_k = m.len().max(a.len());
    let lookup = |v: &[(usize, f64)], k: usize| {
        v.iter()
            .find(|(kk, _)| *kk == k)
            .map(|(_, e)| format!("{e:.0}"))
            .unwrap_or_else(|| "-".into())
    };
    for k in 1..=max_k {
        t.row(&[k.to_string(), lookup(&m, k), lookup(&a, k)]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_shrinks_with_k() {
        let out = run_attack_experiment(&[5], WorldModel::FreeSpace);
        let m = out.mloc.mean_area_vs_min_k();
        assert!(m.len() >= 3);
        let first = m.first().expect("non-empty").1;
        let last = m.last().expect("non-empty").1;
        assert!(last < first, "area should shrink with k: {first} -> {last}");
        assert!(run_with(&out).contains("Fig. 15"));
    }
}
