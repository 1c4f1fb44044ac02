//! Configuration identities: the cache fingerprints, the hierarchy digest
//! and the calibration a process computes once must equal what a fresh
//! render or a fresh calibration gives, whatever was built before them.

use lcda::core::backend::backend_fingerprint;
use lcda::core::pipeline::stable_fingerprint;
use lcda::core::surrogate::SurrogateParams;
use lcda::core::HwHierarchy;
use lcda::neurosim::chip::ChipConfig;
use lcda::neurosim::isaac;
use lcda::prelude::*;

/// The `cim` fingerprint rendered from scratch.
fn fresh_cim(space: &DesignSpace, hw: &HwHierarchy) -> String {
    backend_fingerprint(
        DEFAULT_BACKEND,
        &[&lcda_base::json::to_string(space), &hw.canonical_json()],
    )
}

/// The `surrogate` fingerprint rendered from scratch.
fn fresh_surrogate(space: &DesignSpace, params: &SurrogateParams, seed: u64) -> String {
    format!(
        "surrogate/{}",
        stable_fingerprint(&[
            &lcda_base::json::to_string(space),
            &format!("{params:?}"),
            &seed.to_string(),
            "true",
        ])
    )
}

#[test]
fn identity_strings_are_byte_stable() {
    let space = DesignSpace::nacim_cifar10();
    let cim = CimBackend::new(space.clone());
    assert_eq!(cim.fingerprint(), "cim/0101e45dd3f5bced");
    assert_eq!(cim.digest(), "ea5f1ca36e1a4e24");
    assert_eq!(HwHierarchy::isaac().digest(), "ea5f1ca36e1a4e24");
    assert_eq!(
        SurrogateEvaluator::new(space.clone(), 1).fingerprint(),
        "surrogate/8a3631a6fdea6446"
    );
    let mut hw = HwHierarchy::isaac();
    hw.chip.global_buffer_kb = 128;
    let bigger = CimBackend::from_hierarchy(space.clone(), hw).unwrap();
    assert_eq!(bigger.fingerprint(), "cim/ebf5b7a2377d195a");

    let config = CoDesignConfig::builder(Objective::AccuracyEnergy)
        .episodes(1)
        .build();
    let run = CoDesign::builder(space, config).build().unwrap();
    assert_eq!(run.hw_digest(), Some("ea5f1ca36e1a4e24"));
}

#[test]
fn the_cached_calibration_equals_a_fresh_one() {
    let fresh = isaac::calibrate(ChipConfig::isaac_default())
        .unwrap()
        .calibration;
    let space = DesignSpace::nacim_cifar10();
    let design = space.reference_design();
    for _ in 0..2 {
        let cim = CimBackend::new(space.clone());
        assert_eq!(cim.chip_config(&design).unwrap().calibration, fresh);
        let on_hw = CimBackend::from_hierarchy(space.clone(), HwHierarchy::isaac()).unwrap();
        assert_eq!(on_hw.chip_config(&design).unwrap().calibration, fresh);
    }
}

#[test]
fn identities_equal_a_fresh_render_in_any_build_order() {
    let space = DesignSpace::nacim_cifar10();
    let mut edited = HwHierarchy::isaac();
    edited.chip.global_buffer_kb = 128;
    edited.name = "edited".into();
    let mut fingerprints = Vec::new();
    for hw in [HwHierarchy::isaac(), edited, HwHierarchy::isaac()] {
        let cim = CimBackend::from_hierarchy(space.clone(), hw.clone()).unwrap();
        assert_eq!(cim.fingerprint(), fresh_cim(&space, &hw));
        assert_eq!(cim.digest(), hw.digest());
        assert_eq!(cim.summary(), hw.summary());
        fingerprints.push(cim.fingerprint());
    }
    assert_ne!(fingerprints[0], fingerprints[1]);
    assert_eq!(fingerprints[0], fingerprints[2]);
    assert_eq!(fingerprints[0], CimBackend::new(space).fingerprint());

    // `0.0 == -0.0`, but the two render differently, so they must never
    // share an identity, in either order.
    let mut plus = DesignSpace::nacim_cifar10();
    plus.area_budget_mm2 = 0.0;
    let mut minus = plus.clone();
    minus.area_budget_mm2 = -0.0;
    assert_ne!(
        lcda_base::json::to_string(&plus),
        lcda_base::json::to_string(&minus)
    );
    let params = SurrogateParams {
        jitter: 0.0,
        ..SurrogateParams::default()
    };
    let negative = SurrogateParams {
        jitter: -0.0,
        ..params
    };
    for order in [[&plus, &minus], [&minus, &plus]] {
        for space in order {
            let cim = CimBackend::new(space.clone());
            assert_eq!(cim.fingerprint(), fresh_cim(space, &HwHierarchy::isaac()));
            for p in [&params, &negative] {
                let surrogate = SurrogateEvaluator::new(space.clone(), 3).with_params(*p);
                assert_eq!(surrogate.fingerprint(), fresh_surrogate(space, p, 3));
            }
        }
    }
    assert_ne!(
        CimBackend::new(plus.clone()).fingerprint(),
        CimBackend::new(minus.clone()).fingerprint()
    );
}
