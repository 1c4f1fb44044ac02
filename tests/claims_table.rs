//! The experiment and claims tables stay in step with the files around
//! them: every experiment has its EXPERIMENTS.md section, its binary and
//! its committed artifact; every claim reads a known experiment and is
//! checked by a `#[test]` of its own name.

use lcda_bench::claims::CLAIMS;
use lcda_bench::experiments::{experiment, EXPERIMENTS};
use std::collections::HashSet;
use std::path::Path;

fn read(path: &str) -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(path))
        .unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn every_experiment_has_a_section_a_binary_and_an_artifact() {
    let doc = read("EXPERIMENTS.md");
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for e in &EXPERIMENTS {
        let heading = doc.lines().any(|line| {
            line.starts_with("##")
                && line.trim_start_matches('#').trim_start().split(' ').next() == Some(e.id)
        });
        assert!(heading, "EXPERIMENTS.md has no `## {}` section", e.id);
        let bin = read(&format!("crates/bench/src/bin/{}.rs", e.bin));
        assert!(
            bin.contains(&format!("lcda_bench::print(\"{}\")", e.id)),
            "{}.rs does not print {}",
            e.bin,
            e.id
        );
        assert!(
            root.join(format!("artifacts/{}.txt", e.bin)).is_file(),
            "artifacts/{}.txt is missing",
            e.bin
        );
        assert!(!e.seeds.is_empty(), "{} records no seed", e.id);
    }
    let ids: HashSet<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate experiment id");
    let bins = std::fs::read_dir(root.join("crates/bench/src/bin")).unwrap();
    assert_eq!(
        bins.count(),
        EXPERIMENTS.len(),
        "a binary is not in the table"
    );
}

#[test]
fn every_claim_names_a_known_experiment_and_has_a_test() {
    // Test bodies, one trimmed line each, so nesting depth does not matter.
    let tests: String = ["tests/paper_shapes.rs", "crates/bench/src/claims.rs"]
        .iter()
        .flat_map(|path| {
            read(path)
                .lines()
                .map(|l| l.trim().to_string())
                .collect::<Vec<_>>()
        })
        .collect::<Vec<_>>()
        .join("\n");
    let mut ids = HashSet::new();
    for claim in &CLAIMS {
        assert!(ids.insert(claim.id), "duplicate claim {}", claim.id);
        assert!(
            experiment(claim.experiment).is_some(),
            "claim {} names unknown experiment {}",
            claim.id,
            claim.experiment
        );
        assert!(!claim.seeds.is_empty(), "claim {} has no seed", claim.id);
        let test = format!(
            "#[test]\nfn {id}() {{\nassert_holds(\"{id}\");\n}}",
            id = claim.id
        );
        assert!(
            tests.contains(&test),
            "no #[test] checks claim {}",
            claim.id
        );
    }
}
