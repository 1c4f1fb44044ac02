//! Integration tests for the pluggable hardware-backend layer: both
//! backends end-to-end through the evaluation pipeline, cache isolation
//! across backends, and forward compatibility with pre-backend
//! checkpoints.

use lcda::core::codesign::OptimizerSpec;
use lcda::prelude::*;

fn pipeline_for(backend: &str, seed: u64) -> EvalPipeline {
    let space = DesignSpace::nacim_cifar10();
    let hw: Box<dyn HardwareCostEvaluator> = BackendRegistry::standard()
        .create(backend, &space)
        .expect("registered backend");
    EvalPipeline::new(Box::new(SurrogateEvaluator::new(space, seed)), hw)
}

#[test]
fn both_backends_evaluate_end_to_end_through_the_pipeline() {
    let d = DesignSpace::nacim_cifar10().reference_design();
    let registry = BackendRegistry::standard();
    let mut results = Vec::new();
    for name in registry.names() {
        let mut p = pipeline_for(name, 0);
        let (acc, hw) = p.evaluate(&d).expect("reference design evaluates");
        let hw = hw.unwrap_or_else(|| panic!("{name}: reference design within budget"));
        assert!((0.0..=1.0).contains(&acc), "{name}: accuracy {acc}");
        assert!(hw.is_finite(), "{name}: non-finite metrics");
        assert!(hw.energy_pj > 0.0 && hw.latency_ns > 0.0 && hw.area_mm2 > 0.0);
        results.push((name, hw));
    }
    assert_eq!(results.len(), 2, "standard registry exposes cim + systolic");
    // The two models must produce genuinely different cost surfaces.
    assert_ne!(results[0].1.energy_pj, results[1].1.energy_pj);
}

#[test]
fn cim_cache_entries_are_never_served_under_systolic() {
    let d = DesignSpace::nacim_cifar10().reference_design();

    // Fill a memo table under the cim backend…
    let mut cim = pipeline_for("cim", 7);
    cim.evaluate(&d).unwrap();
    let snapshot = cim.cache().expect("caching on").clone();
    assert!(!snapshot.is_empty());

    // …and offer it to a systolic pipeline over the same space and seed.
    let mut sys = pipeline_for("systolic", 7);
    assert!(
        !sys.restore_cache(snapshot),
        "a cim memo table must be refused by a systolic pipeline"
    );
    assert!(sys.cache().unwrap().is_empty());
    let (_, hw) = sys.evaluate(&d).unwrap();
    assert!(hw.is_some());
    assert_eq!(sys.stats().hits, 0, "systolic evaluation must be a miss");
    assert_eq!(sys.stats().misses, 2);
}

#[test]
fn cross_backend_checkpoint_is_rejected_at_resume() {
    let space = DesignSpace::nacim_cifar10();
    let config = CoDesignConfig::builder(Objective::AccuracyEnergy)
        .episodes(3)
        .seed(5)
        .build();

    let mut snaps: Vec<Checkpoint> = Vec::new();
    CoDesign::builder(space.clone(), config)
        .optimizer(OptimizerSpec::ExpertLlm)
        .build()
        .unwrap()
        .run_resumable(None, |cp| {
            snaps.push(cp.clone());
            Ok(())
        })
        .unwrap();
    let cp = snaps.pop().unwrap();
    assert_eq!(cp.backend, "cim");

    let err = CoDesign::builder(space, config)
        .optimizer(OptimizerSpec::ExpertLlm)
        .backend("systolic")
        .build()
        .unwrap()
        .run_resumable(Some(cp), |_| Ok(()))
        .unwrap_err();
    assert!(
        err.to_string().contains("backend"),
        "error must name the backend mismatch: {err}"
    );
}

#[test]
fn pre_backend_checkpoint_resumes_under_default_cim() {
    let space = DesignSpace::nacim_cifar10();
    let config = CoDesignConfig::builder(Objective::AccuracyEnergy)
        .episodes(6)
        .seed(11)
        .build();
    let run = |space: DesignSpace| {
        CoDesign::builder(space, config)
            .optimizer(OptimizerSpec::ExpertLlm)
            .build()
            .unwrap()
    };

    // Uninterrupted reference run, keeping the snapshot after episode 3.
    let mut snaps: Vec<Checkpoint> = Vec::new();
    let full = run(space.clone())
        .run_resumable(None, |cp| {
            snaps.push(cp.clone());
            Ok(())
        })
        .unwrap();

    // Simulate a checkpoint written before the backend layer existed: the
    // JSON simply has no `backend` key. Checksums came later than the
    // backend key, so such a file has no `checksum` key either.
    let json = snaps[2].to_json().unwrap();
    let legacy: String = json
        .lines()
        .filter(|l| {
            let l = l.trim_start();
            !l.starts_with("\"backend\"") && !l.starts_with("\"checksum\"")
        })
        .collect::<Vec<_>>()
        .join("\n");
    assert!(!legacy.contains("\"backend\""));
    let cp = Checkpoint::from_json(&legacy).expect("pre-backend JSON loads");
    assert_eq!(cp.backend, DEFAULT_BACKEND);
    assert_eq!(cp.episodes_done(), 3);

    // It resumes under a default-backend run and completes bit-identically
    // to the uninterrupted run.
    let resumed = run(space).run_resumable(Some(cp), |_| Ok(())).unwrap();
    assert_eq!(resumed, full);
}

#[test]
fn preset_hierarchies_are_golden_equivalent_to_the_builtins() {
    // The shipped JSON presets are the builtin hierarchies as data:
    // loading them must reproduce the default backends' metrics AND
    // cache fingerprints bit-for-bit.
    let space = DesignSpace::nacim_cifar10();
    let d = space.reference_design();
    let registry = BackendRegistry::standard();
    for (name, preset) in [("cim", "isaac.json"), ("systolic", "systolic_256.json")] {
        let path = format!("{}/configs/hw/{preset}", env!("CARGO_MANIFEST_DIR"));
        let mut configured: Box<dyn HardwareCostEvaluator> = registry
            .create(&format!("{name}@{path}"), &space)
            .unwrap_or_else(|e| panic!("{preset} loads: {e}"));
        let mut default: Box<dyn HardwareCostEvaluator> =
            registry.create(name, &space).expect("builtin");
        assert_eq!(
            configured.fingerprint(),
            default.fingerprint(),
            "{preset}: preset and builtin must share one cache namespace"
        );
        let lowered = configured.cost(&d).unwrap().expect("within budget");
        let builtin = default.cost(&d).unwrap().expect("within budget");
        assert_eq!(
            (lowered.energy_pj, lowered.latency_ns, lowered.area_mm2),
            (builtin.energy_pj, builtin.latency_ns, builtin.area_mm2),
            "{preset}: metrics must be bit-identical to the builtin"
        );
    }
}

#[test]
fn distinct_hierarchy_files_namespace_disjoint_fingerprints() {
    use lcda::core::HwHierarchy;
    let space = DesignSpace::nacim_cifar10();
    let registry = BackendRegistry::standard();
    let dir = std::env::temp_dir().join(format!("lcda-hw-files-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let a = dir.join("a.json");
    std::fs::write(&a, HwHierarchy::isaac().canonical_json()).unwrap();
    let mut bigger = HwHierarchy::isaac();
    bigger.chip.global_buffer_kb = 128;
    let b = dir.join("b.json");
    std::fs::write(&b, bigger.canonical_json()).unwrap();

    let from_a: Box<dyn HardwareCostEvaluator> = registry
        .create(&format!("cim@{}", a.display()), &space)
        .unwrap();
    let from_b: Box<dyn HardwareCostEvaluator> = registry
        .create(&format!("cim@{}", b.display()), &space)
        .unwrap();
    assert_ne!(
        from_a.fingerprint(),
        from_b.fingerprint(),
        "different hierarchy files targeting the same backend must not \
         share cache entries"
    );
    // Both fingerprints stay inside the backend's namespace.
    assert!(from_a.fingerprint().starts_with("cim/"));
    assert!(from_b.fingerprint().starts_with("cim/"));

    // And the pipeline enforces the split: a memo table filled under
    // hierarchy A is refused wholesale by a pipeline lowered from B.
    let d = space.reference_design();
    let mut pa = EvalPipeline::new(Box::new(SurrogateEvaluator::new(space.clone(), 7)), from_a);
    pa.evaluate(&d).unwrap();
    let snapshot = pa.cache().expect("caching on").clone();
    assert!(!snapshot.is_empty());
    let mut pb = EvalPipeline::new(Box::new(SurrogateEvaluator::new(space, 7)), from_b);
    assert!(
        !pb.restore_cache(snapshot),
        "hierarchy A's memo table must be refused under hierarchy B"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_search_runs_under_the_systolic_backend() {
    let space = DesignSpace::nacim_cifar10();
    let config = CoDesignConfig::builder(Objective::AccuracyLatency)
        .episodes(5)
        .seed(3)
        .build();
    let mut run = CoDesign::builder(space, config)
        .optimizer(OptimizerSpec::ExpertLlm)
        .backend("systolic")
        .build()
        .unwrap();
    assert_eq!(run.backend(), "systolic");
    let outcome = run.run().unwrap();
    assert_eq!(outcome.history.len(), 5);
    assert!(outcome.history.iter().any(|r| r.is_valid()));
    for r in outcome.history.iter().filter(|r| r.is_valid()) {
        let hw = r.hw.as_ref().unwrap();
        assert!(hw.is_finite());
        assert!(r.reward.is_finite());
    }
}
