//! Integration tests for the hardware cost model: `CimBackend` and a
//! model plugged in as an evaluator, end to end through the evaluation
//! pipeline; cache isolation across backend ids and hierarchies; forward
//! compatibility with pre-backend checkpoints; and the call shape the
//! benchmark package under `perf/` builds against.

use lcda::core::backend::backend_fingerprint;
use lcda::core::codesign::OptimizerSpec;
use lcda::core::HwHierarchy;
use lcda::prelude::*;

/// A cost model plugged in through `EvalPipeline::new` /
/// `CoDesignBuilder::hardware_evaluator` rather than by name: the `cim`
/// model's costs under the id `stub`, fingerprinted from the same parts
/// as `cim`, so only the id prefix tells the two apart.
struct StubBackend(CimBackend, DesignSpace);

impl StubBackend {
    fn new(space: DesignSpace) -> Self {
        StubBackend(CimBackend::new(space.clone()), space)
    }
}

impl HardwareCostEvaluator for StubBackend {
    fn cost(&mut self, design: &CandidateDesign) -> lcda::core::Result<Option<HwMetrics>> {
        self.0.cost(design)
    }

    fn name(&self) -> &'static str {
        "stub"
    }

    fn fingerprint(&self) -> String {
        let space = lcda_base::json::to_string(&self.1);
        backend_fingerprint("stub", &[&space, &self.0.hw().canonical_json()])
    }
}

fn pipeline_on(hw: Box<dyn HardwareCostEvaluator>, seed: u64) -> EvalPipeline {
    let space = DesignSpace::nacim_cifar10();
    EvalPipeline::new(Box::new(SurrogateEvaluator::new(space, seed)), hw)
}

fn cim_pipeline(seed: u64) -> EvalPipeline {
    let space = DesignSpace::nacim_cifar10();
    pipeline_on(Box::new(CimBackend::new(space)), seed)
}

/// Loads a hierarchy file and builds the backend on it, as `--hw-config`
/// does.
fn cim_on(path: &std::path::Path, space: &DesignSpace) -> CimBackend {
    let hw = HwHierarchy::load(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    CimBackend::from_hierarchy(space.clone(), hw).expect("a loaded hierarchy is valid")
}

#[test]
fn both_backends_evaluate_end_to_end_through_the_pipeline() {
    // The built-in `cim` model and a plugged-in evaluator.
    let space = DesignSpace::nacim_cifar10();
    let d = space.reference_design();
    for (name, mut p) in [
        ("cim", cim_pipeline(0)),
        ("stub", pipeline_on(Box::new(StubBackend::new(space)), 0)),
    ] {
        let (acc, hw) = p.evaluate(&d).expect("reference design evaluates");
        let hw = hw.unwrap_or_else(|| panic!("{name}: reference design within budget"));
        assert!((0.0..=1.0).contains(&acc), "{name}: accuracy {acc}");
        assert!(hw.is_finite(), "{name}: non-finite metrics");
        assert!(hw.energy_pj > 0.0 && hw.latency_ns > 0.0 && hw.area_mm2 > 0.0);
    }
}

#[test]
fn cim_cache_entries_are_never_served_under_another_backend_id() {
    let space = DesignSpace::nacim_cifar10();
    let d = space.reference_design();
    let stub = StubBackend::new(space.clone());
    let cim = CimBackend::new(space.clone());
    let digest = |fp: String| fp.split_once('/').map(|(_, d)| d.to_string());
    assert_eq!(
        digest(stub.fingerprint()),
        digest(cim.fingerprint()),
        "the stub hashes the same parts as cim"
    );

    // Fill a store under the cim backend (an attached one: a private
    // run on the analytic evaluators keeps no memo)…
    let store = CacheStore::new();
    let mut cim = cim_pipeline(7);
    cim.attach_store(&store);
    cim.evaluate(&d).unwrap();
    assert_eq!(store.len(), 2);

    // …and share it with a stub pipeline over the same space and seed.
    let mut other = pipeline_on(Box::new(stub), 7);
    other.attach_store(&store);
    let (_, hw) = other.evaluate(&d).unwrap();
    assert!(hw.is_some());
    assert_eq!(other.stats().hits, 0, "the stub evaluation must be a miss");
    assert_eq!(other.stats().misses, 2);
    assert_eq!(
        store.contexts(),
        2,
        "cim entries are never served to the stub"
    );
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

    // Resumed under a plugged-in evaluator: the run's backend is `stub`.
    let err = CoDesign::builder(space.clone(), config)
        .optimizer(OptimizerSpec::ExpertLlm)
        .hardware_evaluator(Box::new(StubBackend::new(space)))
        .build()
        .unwrap()
        .run_resumable(Some(cp), |_| Ok(()))
        .unwrap_err();
    assert!(
        err.to_string()
            .contains("produced under hardware backend `cim` but this run uses `stub`"),
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
    let json = lcda_base::json::to_string_pretty(&snaps[2]);
    let legacy: String = json
        .lines()
        .filter(|l| !l.trim_start().starts_with("\"backend\""))
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
    // The shipped JSON preset is the builtin hierarchy as data: loading
    // it must reproduce the default backend's metrics AND cache
    // fingerprint bit-for-bit.
    let space = DesignSpace::nacim_cifar10();
    let d = space.reference_design();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("configs/hw/isaac.json");
    let mut configured = cim_on(&path, &space);
    let mut default = CimBackend::new(space.clone());
    assert_eq!(
        configured.fingerprint(),
        default.fingerprint(),
        "preset and builtin must share one cache namespace"
    );
    let lowered = configured.cost(&d).unwrap().expect("within budget");
    let builtin = default.cost(&d).unwrap().expect("within budget");
    assert_eq!(
        (lowered.energy_pj, lowered.latency_ns, lowered.area_mm2),
        (builtin.energy_pj, builtin.latency_ns, builtin.area_mm2),
        "metrics must be bit-identical to the builtin"
    );
}

#[test]
fn distinct_hierarchy_files_namespace_disjoint_fingerprints() {
    let space = DesignSpace::nacim_cifar10();
    let dir = std::env::temp_dir().join(format!("lcda-hw-files-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let a = dir.join("a.json");
    std::fs::write(&a, HwHierarchy::isaac().canonical_json()).unwrap();
    let mut bigger = HwHierarchy::isaac();
    bigger.chip.global_buffer_kb = 128;
    let b = dir.join("b.json");
    std::fs::write(&b, bigger.canonical_json()).unwrap();

    let from_a = Box::new(cim_on(&a, &space));
    let from_b = Box::new(cim_on(&b, &space));
    assert_ne!(
        from_a.fingerprint(),
        from_b.fingerprint(),
        "different hierarchy files targeting the same backend must not \
         share cache entries"
    );
    // Both fingerprints stay inside the backend's namespace.
    assert!(from_a.fingerprint().starts_with("cim/"));
    assert!(from_b.fingerprint().starts_with("cim/"));

    // And the pipeline enforces the split: entries admitted under
    // hierarchy A never serve a pipeline lowered from B on the same
    // store. Both memoize on the attached store, as a private run on the
    // analytic evaluators keeps no memo.
    let d = space.reference_design();
    let store = CacheStore::new();
    let mut pa = EvalPipeline::new(Box::new(SurrogateEvaluator::new(space.clone(), 7)), from_a);
    pa.attach_store(&store);
    pa.evaluate(&d).unwrap();
    let mut pb = EvalPipeline::new(Box::new(SurrogateEvaluator::new(space, 7)), from_b);
    pb.attach_store(&store);
    pb.evaluate(&d).unwrap();
    assert_eq!(
        (pb.stats().hits, pb.stats().misses),
        (0, 2),
        "hierarchy A's entries must not serve hierarchy B"
    );
    assert_eq!(store.contexts(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The benchmark package under `perf/` builds against these calls,
/// exactly as `perf/src/workloads.rs` and `perf/src/trace.rs` make them:
/// a change that breaks them fails here rather than in a benchmark run.
#[test]
fn perf_call_shape_builds_the_cim_backend() -> Result<(), String> {
    use lcda_core::{BackendRegistry, DEFAULT_BACKEND};
    fn err(e: impl std::fmt::Display) -> String {
        e.to_string()
    }
    let space = DesignSpace::nacim_cifar10();
    let config = CoDesignConfig::builder(Objective::AccuracyEnergy)
        .episodes(2)
        .seed(3)
        .build();

    // workloads.rs: one run's hardware evaluator.
    let registry = BackendRegistry::standard();
    let backend = registry.parse(DEFAULT_BACKEND).map_err(err)?;
    let hardware: Box<dyn HardwareCostEvaluator> = registry
        .create_spec_with(&backend, &space, None)
        .map_err(err)?;
    let optimizer = OptimizerSpec::Random
        .instantiate(&space, &config)
        .map_err(err)?;
    let accuracy = Box::new(SurrogateEvaluator::new(space.clone(), 3));
    let mut run =
        CoDesign::new(space.clone(), config, optimizer, accuracy, hardware).map_err(err)?;
    assert_eq!(run.backend(), DEFAULT_BACKEND);
    assert_eq!(run.run().map_err(err)?.history.len(), 2);

    // trace.rs: a bare cost call, then a pipeline over a second backend.
    let registry = BackendRegistry::standard();
    let spec = registry.parse("cim").map_err(err)?;
    let design = space.reference_design();
    let mut cim = registry
        .create_spec_with(&spec, &space, None)
        .map_err(err)?;
    let metrics = cim.cost(&design).map_err(err)?.expect("within budget");
    assert_eq!(
        Some(metrics),
        CimBackend::new(space.clone()).cost(&design).map_err(err)?
    );

    let hardware = registry
        .create_spec_with(&spec, &space, None)
        .map_err(err)?;
    let mut pipeline = EvalPipeline::new(
        Box::new(SurrogateEvaluator::new(space.clone(), 3)),
        hardware,
    );
    // The analytic pair memoizes only on an attached store.
    pipeline.attach_store(&CacheStore::new());
    pipeline.evaluate(&design).map_err(err)?;
    pipeline.evaluate(&design).map_err(err)?;
    assert_eq!(pipeline.stats().hits, 2);

    // Any other name is refused by name.
    let refused = registry.parse("systolic").unwrap_err().to_string();
    assert!(
        refused.contains("unknown hardware backend `systolic`"),
        "{refused}"
    );
    Ok(())
}
