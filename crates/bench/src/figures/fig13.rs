//! Fig. 13: histogram of localization errors for M-Loc, AP-Rad and the
//! Centroid baseline. Paper headline: average error 9.41 m (M-Loc),
//! 13.75 m (AP-Rad), 17.28 m (Centroid) — M-Loc < AP-Rad < Centroid.

use crate::common::{run_attack_experiment, AttackOutcomes, Table, ATTACK_SEEDS};
use marauder_sim::scenario::WorldModel;

/// Regenerates the figure from a fresh campaign.
pub fn run() -> String {
    run_with(&run_attack_experiment(ATTACK_SEEDS, WorldModel::FreeSpace))
}

/// Renders the figure from precomputed outcomes.
pub fn run_with(out: &AttackOutcomes) -> String {
    let bucket = 10.0;
    let mut t = Table::new(
        "Fig. 13 — histogram of estimation errors (bucket = 10 m)",
        &["error bucket", "M-Loc", "AP-Rad", "Centroid", "Nearest-AP"],
    );
    let h_m = out.mloc.error_histogram(bucket);
    let h_a = out.aprad.error_histogram(bucket);
    let h_c = out.centroid.error_histogram(bucket);
    let h_n = out.nearest.error_histogram(bucket);
    let buckets = h_m.len().max(h_a.len()).max(h_c.len()).max(h_n.len());
    let count = |h: &[(f64, usize)], i: usize| h.get(i).map_or(0, |(_, c)| *c);
    for i in 0..buckets {
        t.row(&[
            format!("{:.0}-{:.0} m", i as f64 * bucket, (i + 1) as f64 * bucket),
            count(&h_m, i).to_string(),
            count(&h_a, i).to_string(),
            count(&h_c, i).to_string(),
            count(&h_n, i).to_string(),
        ]);
    }
    let stats = |o: &marauder_core::eval::EvalOutcome| {
        o.error_stats()
            .map(|s| format!("{:.2}", s.mean))
            .unwrap_or_else(|| "-".into())
    };
    t.row(&[
        "mean (m)".into(),
        stats(&out.mloc),
        stats(&out.aprad),
        stats(&out.centroid),
        stats(&out.nearest),
    ]);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_paper() {
        let out = run_attack_experiment(&[3], WorldModel::FreeSpace);
        let m = out.mloc.error_stats().expect("fixes").mean;
        let a = out.aprad.error_stats().expect("fixes").mean;
        let c = out.centroid.error_stats().expect("fixes").mean;
        assert!(m < c, "M-Loc {m} !< Centroid {c}");
        assert!(
            a < c * 1.2,
            "AP-Rad {a} should be competitive with Centroid {c}"
        );
        // Section III-C1: disc intersection beats the nearest-AP
        // approach whenever k > 1 — in aggregate, decisively.
        let n = out.nearest.error_stats().expect("fixes").mean;
        assert!(m < n, "M-Loc {m} !< Nearest-AP {n}");
        assert!(
            c < n,
            "even Centroid should beat Nearest-AP here ({c} vs {n})"
        );
        let s = run_with(&out);
        assert!(s.contains("mean (m)"));
    }
}
