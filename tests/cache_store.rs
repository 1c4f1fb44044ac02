//! Integration tests for the shared cross-run [`CacheStore`]:
//! observation-equivalence with private per-run caches, deterministic
//! capacity-bounded eviction, and persistence.

use lcda::prelude::*;
use lcda_base::rng::check;
use std::collections::BTreeMap;

fn run_once(store: Option<&CacheStore>, episodes: u32, seed: u64) -> (Outcome, SessionStats) {
    let config = CoDesignConfig::builder(Objective::AccuracyEnergy)
        .episodes(episodes)
        .seed(seed)
        .build();
    let mut builder = CoDesign::builder(DesignSpace::nacim_cifar10(), config)
        .optimizer(OptimizerSpec::ExpertLlm)
        .backend("cim");
    if let Some(store) = store {
        builder = builder.cache_store(store);
    }
    let mut run = builder.build().expect("build");
    let outcome = run.run().expect("run");
    (outcome, run.session_stats())
}

#[test]
fn shared_store_changes_cost_but_never_results() {
    // Baseline: a private per-run cache.
    let (private, _) = run_once(None, 4, 3);

    // Two tenants sharing one store, run back to back.
    let store = CacheStore::new();
    let (first, stats1) = run_once(Some(&store), 4, 3);
    let (second, stats2) = run_once(Some(&store), 4, 3);

    assert_eq!(first, private, "a shared store must not change results");
    assert_eq!(second, private, "a warmed store must not change results");
    assert_eq!(stats1.cross_run_hits, 0);
    assert!(stats1.inserts > 0);
    assert!(
        stats2.cross_run_hits > 0,
        "the second tenant must reuse the first's entries: {stats2:?}"
    );
    assert_eq!(stats2.misses, 0);
    assert_eq!(stats2.inserts, 0);
}

#[test]
fn persisted_store_serves_cross_run_hits_after_reload() {
    let store = CacheStore::new();
    let (original, _) = run_once(Some(&store), 3, 17);

    let path = std::env::temp_dir().join(format!(
        "lcda-cache-store-reload-{}.json",
        std::process::id()
    ));
    store.save(&path).expect("save");
    let reloaded = CacheStore::load(&path, None).expect("load");
    std::fs::remove_file(&path).ok();

    assert_eq!(reloaded.len(), store.len());
    let (resumed, stats) = run_once(Some(&reloaded), 3, 17);
    assert_eq!(resumed, original, "persistence must not change results");
    assert!(
        stats.cross_run_hits > 0,
        "entries loaded from disk count as cross-run reuse: {stats:?}"
    );
    assert_eq!(stats.misses, 0);
}

/// A single session over an unbounded shared store is
/// observation-equivalent to a plain map: same lookup answers, same
/// insert outcomes, and the stats ledger balances.
#[test]
fn session_mirrors_a_plain_map() {
    check(64, |rng| {
        let store = CacheStore::new();
        let mut session = store.session("ctx");
        let mut model: BTreeMap<String, f64> = BTreeMap::new();
        let mut lookups = 0u64;
        for _ in 0..1 + rng.index(79) {
            let key = format!("k{}", rng.below(24));
            let value = rng.uniform_f64(0.0, 1.0);
            if rng.chance(0.5) {
                // A finite value is admitted only when the key is
                // absent; on a duplicate key the first admission wins.
                assert_eq!(
                    session.insert_accuracy(key.clone(), value),
                    !model.contains_key(&key)
                );
                model.entry(key.clone()).or_insert(value);
            } else {
                lookups += 1;
                assert_eq!(session.lookup_accuracy(&key), model.get(&key).copied());
            }
        }
        let stats = session.stats();
        assert_eq!(stats.hits + stats.misses, lookups);
        assert_eq!(stats.cross_run_hits, 0u64);
        assert_eq!(stats.inserts, model.len() as u64);
        assert_eq!(store.len(), model.len());
    });
}

/// Two capacity-bounded stores fed the identical admission order
/// evict identically: same survivors, same serialized bytes.
#[test]
fn capacity_eviction_is_deterministic() {
    check(64, |rng| {
        let keys: Vec<u64> = (0..1 + rng.index(59)).map(|_| rng.below(32)).collect();
        let capacity = 1 + rng.index(7);
        let a = CacheStore::with_capacity(capacity);
        let b = CacheStore::with_capacity(capacity);
        let mut sa = a.session("ctx");
        let mut sb = b.session("ctx");
        for (i, key) in keys.iter().enumerate() {
            let value = *key as f64 + i as f64 / 1000.0;
            sa.insert_accuracy(format!("k{key}"), value);
            sb.insert_accuracy(format!("k{key}"), value);
        }
        assert!(a.len() <= capacity);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.stats().evictions, b.stats().evictions);
        assert_eq!(
            a.to_json().expect("serialize a"),
            b.to_json().expect("serialize b")
        );
    });
}

/// The configured bound is a loaded store's only bound. `store.json` was
/// saved by `lcda serve --cache <path> --cache-capacity 6` after one job
/// (`{"episodes": 2, "seed": 3}`) in the build that still wrote
/// `"capacity": 6` into the file: it holds four entries.
#[test]
fn configured_capacity_bounds_a_loaded_store() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/parent_era/store.json");
    let newest = "[[24,3],[32,3],[48,3],[64,3],[96,3],[128,3]] | hw: [128,4,2,rram]";

    // The file's recorded capacity is ignored, in both directions.
    let unbounded = CacheStore::load(&fixture, None).expect("a file with `capacity` loads");
    assert_eq!(unbounded.len(), 4);
    assert_eq!(unbounded.capacity(), None);

    // Over the bound: evicted down to it, oldest admission first, as a
    // live overflow is.
    let bounded = CacheStore::load(&fixture, Some(1)).expect("load");
    assert_eq!(bounded.len(), 1);
    assert_eq!(bounded.capacity(), Some(1));
    assert_eq!(bounded.stats().evictions, 3);
    let mut probe = bounded.session("787bdcc0042989ee");
    assert!(
        probe.lookup_accuracy(newest).is_some(),
        "the newest admission survives"
    );
    assert!(probe.lookup_hardware(newest).is_none());

    // The same through `lcda serve --cache --cache-capacity 1`.
    let path = std::env::temp_dir().join(format!(
        "lcda-cache-store-bound-{}.json",
        std::process::id()
    ));
    std::fs::copy(&fixture, &path).expect("copy fixture");
    let server = JobServer::bind(ServeConfig {
        workers: 1,
        cache_capacity: Some(1),
        cache_path: Some(path.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let stats = server.stats();
    assert_eq!(stats.store_entries, 1);
    assert_eq!(stats.store_capacity, Some(1));
    server.shutdown().expect("shutdown");
    // The store saved at shutdown carries no bound of its own.
    let saved = std::fs::read_to_string(&path).expect("read saved store");
    std::fs::remove_file(&path).ok();
    assert!(!saved.contains("capacity"), "{saved}");
    assert_eq!(
        CacheStore::from_json(&saved, None).expect("reload").len(),
        1
    );
}
