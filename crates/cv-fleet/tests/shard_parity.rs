//! Sharded-merge correctness against real learned uploads: merging N member uploads
//! into a sharded store, each address entry routed to its shard, must yield a
//! database identical to the seed's sequential `InvariantDatabase::merge` (the
//! satellite acceptance test for the sharded store).

use cv_apps::{learning_suite, Browser};
use cv_fleet::ShardedInvariantStore;
use cv_inference::{InvariantDatabase, LearningFrontend};
use cv_runtime::{EnvConfig, ManagedExecutionEnvironment};

/// Produce per-member uploads exactly as amortized parallel learning does: page `i`
/// is traced by member `i % members`, erroneous runs are discarded.
fn member_uploads(members: usize) -> Vec<InvariantDatabase> {
    let browser = Browser::build();
    let pages = learning_suite();
    let mut uploads = Vec::new();
    for member in 0..members {
        let mut env = ManagedExecutionEnvironment::new(browser.image.clone(), EnvConfig::default());
        let mut frontend = LearningFrontend::new(browser.image.clone());
        for page in pages.iter().skip(member).step_by(members) {
            let result = env.run_with_tracer(page, &mut frontend);
            if result.is_completed() {
                frontend.commit_run();
            } else {
                frontend.discard_run();
            }
        }
        uploads.push(frontend.into_model().invariants);
    }
    uploads
}

#[test]
fn parallel_shard_merge_matches_sequential_merge_of_learned_uploads() {
    let uploads = member_uploads(5);
    assert!(
        uploads.iter().map(|u| u.len()).sum::<usize>() > 50,
        "learning produced a meaningful upload set"
    );

    // The seed's sequential path: one monolithic merge per upload, in member order.
    let mut sequential = InvariantDatabase::new();
    for upload in &uploads {
        sequential.merge(upload);
    }

    for shard_count in [1, 3, 8, 32] {
        let mut store = ShardedInvariantStore::new(shard_count);
        store.merge_uploads(&uploads);
        assert_eq!(
            store.snapshot(),
            sequential,
            "shard_count={shard_count} diverged from the sequential merge"
        );
    }
}

#[test]
fn sharded_snapshot_supports_the_same_lookups() {
    let uploads = member_uploads(3);
    let mut sequential = InvariantDatabase::new();
    for upload in &uploads {
        sequential.merge(upload);
    }
    let mut store = ShardedInvariantStore::new(8);
    store.merge_uploads(&uploads);
    let snapshot = store.snapshot();
    for addr in sequential.addrs() {
        assert_eq!(snapshot.invariants_at(addr), sequential.invariants_at(addr));
    }
    assert_eq!(snapshot.stats, sequential.stats);
}
