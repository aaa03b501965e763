//! Fig. 16: probability that the intersected area covers the mobile's
//! true location, vs. the minimum number of communicable APs. M-Loc's
//! measured (over-estimating) radii keep coverage high; AP-Rad's LP
//! estimates can undercut the truth, costing coverage (the paper sees
//! exactly this gap).

use crate::common::{run_attack_experiment, AttackOutcomes, Table, ATTACK_SEEDS};
use marauder_sim::scenario::WorldModel;

/// Regenerates the figure from a fresh campaign.
pub fn run() -> String {
    run_with(&run_attack_experiment(ATTACK_SEEDS, WorldModel::FreeSpace))
}

/// Renders the figure from precomputed outcomes.
pub fn run_with(out: &AttackOutcomes) -> String {
    let mut t = Table::new(
        "Fig. 16 — P(region covers true location) vs minimum number of communicable APs",
        &["k_min", "M-Loc", "AP-Rad"],
    );
    let m = out.mloc.coverage_vs_min_k();
    let a = out.aprad.coverage_vs_min_k();
    let max_k = m.len().max(a.len());
    let lookup = |v: &[(usize, f64)], k: usize| {
        v.iter()
            .find(|(kk, _)| *kk == k)
            .map(|(_, e)| format!("{:.2}", e))
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
    fn mloc_coverage_beats_aprad() {
        let out = run_attack_experiment(&[6], WorldModel::FreeSpace);
        let m = out.mloc.coverage_vs_min_k();
        let a = out.aprad.coverage_vs_min_k();
        let mean =
            |v: &[(usize, f64)]| v.iter().map(|(_, p)| p).sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&m) >= mean(&a) - 0.05,
            "M-Loc coverage {} should be >= AP-Rad {}",
            mean(&m),
            mean(&a)
        );
        // With measured radii, coverage is high.
        assert!(mean(&m) > 0.7, "M-Loc coverage {}", mean(&m));
        assert!(run_with(&out).contains("Fig. 16"));
    }
}
