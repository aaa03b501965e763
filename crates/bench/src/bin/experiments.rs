//! Regenerates every figure of the paper.
//!
//! ```text
//! experiments [--threads N] [fig2|fig3|...|fig17|all] ...
//! ```
//!
//! Tables print to stdout and are also written to `results/<fig>.txt`.
//! With no arguments, runs everything. Figures 13–16 share one simulated
//! campaign (as one real campaign fed all four in the paper).
//!
//! Independent figures are computed concurrently on the campaign
//! engine's worker pool (`--threads 1` forces a sequential run, and the
//! tables are byte-identical either way); output is printed in request
//! order once everything has finished.

use marauder_bench::common::{run_attack_experiment, AttackOutcomes, ATTACK_SEEDS};
use marauder_bench::{extensions, figures};
use marauder_sim::scenario::WorldModel;
use std::fs;
use std::path::Path;

fn write_result(name: &str, table: &str) {
    println!("{table}");
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.txt"));
        if let Err(e) = fs::write(&path, table) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

fn run_one(name: &str, shared: &Option<AttackOutcomes>) -> String {
    match (name, shared) {
        ("fig13", Some(s)) => figures::fig13::run_with(s),
        ("fig14", Some(s)) => figures::fig14::run_with(s),
        ("fig15", Some(s)) => figures::fig15::run_with(s),
        ("fig16", Some(s)) => figures::fig16::run_with(s),
        _ => {
            let (_, runner) = figures::all()
                .into_iter()
                .chain(extensions::all())
                .find(|(n, _)| *n == name)
                .expect("validated before dispatch");
            runner()
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        if i + 1 >= args.len() {
            eprintln!("--threads needs a value");
            std::process::exit(2);
        }
        match args[i + 1].parse::<usize>() {
            Ok(n) => marauder_par::set_threads(n),
            Err(e) => {
                eprintln!("bad --threads: {e}");
                std::process::exit(2);
            }
        }
        args.drain(i..=i + 1);
    }
    let known: Vec<&'static str> = figures::all()
        .iter()
        .map(|(n, _)| *n)
        .chain(extensions::all().iter().map(|(n, _)| *n))
        .collect();
    let wanted: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        known.iter().map(|n| n.to_string()).collect()
    } else {
        args
    };
    for name in &wanted {
        if !known.contains(&name.as_str()) {
            eprintln!("unknown experiment {name:?}; known: {}", known.join(" "));
            std::process::exit(2);
        }
    }

    let shared_needed = wanted
        .iter()
        .filter(|w| ["fig13", "fig14", "fig15", "fig16"].contains(&w.as_str()))
        .count();
    let shared = if shared_needed >= 2 {
        eprintln!("running the shared attack campaign for figs 13-16 ...");
        Some(run_attack_experiment(ATTACK_SEEDS, WorldModel::FreeSpace))
    } else {
        None
    };

    // Fan the remaining figures out across workers; each runner is a
    // pure function, so the tables do not depend on the schedule.
    let tables = marauder_par::par_map(&wanted, |name| {
        eprintln!("=== {name} ===");
        run_one(name, &shared)
    });
    for (name, table) in wanted.iter().zip(&tables) {
        write_result(name, table);
    }
}
