//! DetSim acceptance: the deterministic-simulation contract, end to
//! end. Plans round-trip through their text encoding; one plan replays
//! byte-identically; a pinned schedule with either planted canary bug
//! is caught by the invariant checkers and shrunk to a ≤5-event
//! reproducer that itself replays exactly; and a small clean swarm —
//! including a guaranteed ENOSPC-during-migration-under-pressure
//! compound slot — passes every checker on every tick. The pinned
//! `pressure_*.plan` files carry the memory-pressure defense: hard byte
//! ceiling, reconciled books and zero acked loss under ENOSPC/EIO on
//! the WAL, the spill path and in-flight migrations.

use dbaugur_sim::{
    generate_plan, run_plan, run_plan_with, run_swarm, shrink, CanaryBug, CheckKind, SimOptions,
    SimPlan, SimReport, SwarmConfig,
};

/// The swarm seed every gate pins: `dbaugur sim swarm` defaults to it,
/// so CI runs the same stream.
const SWARM_SEED: u64 = 0xD5_5EED;

#[test]
fn plans_round_trip_through_their_text_encoding() {
    for idx in 0..24 {
        let plan = generate_plan(SWARM_SEED, idx);
        let text = plan.encode();
        let back = SimPlan::parse(&text).unwrap_or_else(|e| panic!("plan {idx} reparses: {e}"));
        assert_eq!(back.encode(), text, "plan {idx} encoding is a fixpoint");
    }
}

#[test]
fn one_plan_replays_byte_identically() {
    // A compound slot: budget squeeze + migration fault + ENOSPC burst,
    // the deepest interleaving the generator guarantees.
    let plan = generate_plan(SWARM_SEED, 5);
    let a = run_plan(&plan);
    let b = run_plan(&plan);
    assert_eq!(a.digest, b.digest, "same seed + same plan ⇒ same digest");
    assert_eq!(a.per_shard_digests, b.per_shard_digests);
    assert_eq!(a.acked, b.acked);
    assert_eq!(a.violations.len(), b.violations.len());
}

#[test]
fn pinned_canary_is_caught_shrunk_small_and_replays() {
    // Schedule 0 of the pinned stream trips both planted migration
    // bugs: the coarse import check manifests as phantom duplication,
    // the whole-history drain as a destroyed acknowledged observation.
    let plan = generate_plan(SWARM_SEED, 0);
    for (canary, check) in [
        (CanaryBug::CoarseImportCheck, CheckKind::Phantom),
        (CanaryBug::WholeHistoryDrain, CheckKind::Conservation),
    ] {
        let opts = SimOptions { canary, stop_at_first_violation: true };
        let run = run_plan_with(&plan, &opts);
        assert!(!run.passed(), "{canary:?}: the planted bug must trip a checker");
        assert_eq!(run.violations[0].check, check, "{canary:?}");

        let rep = shrink(&plan, &opts).expect("a failing plan shrinks");
        assert!(
            rep.to_events <= 5,
            "{canary:?}: reproducer has {} events, acceptance budget is 5",
            rep.to_events
        );
        assert!(rep.to_events <= rep.from_events);
        assert_eq!(rep.check, check, "{canary:?}: the reproducer trips the same checker");
        let a = run_plan_with(&rep.plan, &opts);
        let b = run_plan_with(&rep.plan, &opts);
        assert_eq!(a.digest, b.digest, "{canary:?}: the reproducer replays byte-identically");
        assert!(!a.passed(), "{canary:?}: the reproducer still fails");

        // Without the canary the same minimal schedule is survivable:
        // the shrunk plan isolates the planted bug, not an ambient
        // weakness.
        let clean = run_plan(&rep.plan);
        assert!(
            clean.passed(),
            "{canary:?}: reproducer passes once the bug is unplanted: {:?}",
            clean.violations
        );
    }
}

#[test]
fn pinned_group_commit_plan_survives_batch_boundary_faults() {
    // The streaming-front-door reproducer: group-committed intake under
    // a short write torn into a batch, an ENOSPC burst that drops a
    // whole coalesced batch unacked, and two crashes that land while
    // partial batches sit in the buffer. The checkers prove the ack
    // contract — acked only after fsync, every lost record a typed
    // shed, no acknowledged observation destroyed.
    let text = include_str!("plans/stream_group_commit.plan");
    let plan = SimPlan::parse(text).expect("pinned plan parses");
    assert_eq!(plan.encode(), text, "the pinned plan is canonically encoded");
    assert_eq!(plan.group_commit, 7, "batch size stays off the per-tick alignment");
    let a = run_plan(&plan);
    let b = run_plan(&plan);
    assert!(a.passed(), "violations: {:?}", a.violations);
    assert_eq!(a.digest, b.digest, "the streaming reproducer replays byte-identically");
    assert_eq!(a.per_shard_digests, b.per_shard_digests);
    assert_eq!(a.crashes, 2);
    assert!(a.stream_flushes > 0, "group commit actually engaged");
    assert!(
        a.acked >= a.stream_flushes * 2,
        "batches coalesced: {} flushes for {} acks",
        a.stream_flushes,
        a.acked
    );
    assert!(a.stream_lost > 0, "faults landed inside coalesced batches");
    assert!(a.shed_io >= a.stream_lost, "lost records are ledgered, not vanished");
}

/// The flood really pressured the budget, every scheduled fault kind
/// really fired, every rung short of quarantine really worked — and the
/// ceiling still held after enforcement on every tick.
fn ladder_engaged_and_ceiling_held(r: &SimReport) {
    let arbiter = r.arbiter.expect("a budgeted world reports its arbiter");
    assert!(r.acked > 10_000, "the run did real work: {r:?}");
    assert_eq!(arbiter.ceiling_breaches, 0, "hard ceiling held every tick");
    assert!(r.resident_peak <= arbiter.max_total_resident);
    assert!(r.enospc_injected > 0, "ENOSPC bursts actually fired");
    assert!(r.eio_injected > 0, "EIO burst actually fired");
    assert!(r.spill_write_failures > 0, "a full disk bounced spill writes");
    assert!(r.spilled_observations > 0, "the spill rung did real work");
    assert!(arbiter.exhausted_ticks > 0, "the flood actually pressured the budget");
    assert!(arbiter.pressure_sheds_engaged > 0, "the shed rung engaged");
    assert!(r.shed_pressure > 0, "typed memory-pressure sheds reached the front door");
    assert!(r.migrations_completed > 0, "auto-rebalance drove real migrations");
}

#[test]
fn pinned_pressure_plans_hold_the_ceiling_the_books_and_every_acked_observation() {
    type Expect = fn(&SimReport);
    let cases: [(&str, &str, Expect); 4] = [
        // Front-door ENOSPC/EIO, mid-spill ENOSPC and a mid-commit
        // migration fault over a 4-shard flood at several times the
        // budget's slack.
        (
            "pressure_ladder",
            include_str!("plans/pressure_ladder.plan"),
            ladder_engaged_and_ceiling_held,
        ),
        // A burst right before enforcement every third tick: bounced
        // spill blobs wait in the pending buffer, they are never dropped.
        ("pressure_spill_faults", include_str!("plans/pressure_spill_faults.plan"), |r| {
            assert!(r.spill_write_failures > 0, "spill writes were actually bounced");
            assert_eq!(r.arbiter.expect("budgeted").ceiling_breaches, 0);
        }),
        // A budget below the unevictable template-string floor: the
        // ladder cannot win, so it sheds, then quarantines — the breach
        // is reported honestly and still nothing acked is lost.
        ("pressure_deep_exhaustion", include_str!("plans/pressure_deep_exhaustion.plan"), |r| {
            let arbiter = r.arbiter.expect("budgeted");
            assert!(arbiter.pressure_quarantines > 0, "final rung fired");
            assert!(r.quarantines > 0, "a worst offender left rotation");
            assert!(r.shed_breaker > 0, "quarantined shard's intake shed at the breaker");
            assert!(arbiter.ceiling_breaches > 0, "an unsatisfiable budget breaches honestly");
        }),
        // The CI drill: 8 shards, 20 000 templates, 15 000 a tick.
        ("pressure_ci", include_str!("plans/pressure_ci.plan"), ladder_engaged_and_ceiling_held),
    ];
    let reports = cases.map(|(name, text, expect)| {
        let plan = SimPlan::parse(text).unwrap_or_else(|e| panic!("{name} parses: {e}"));
        assert_eq!(plan.encode(), text, "{name} is canonically encoded");
        let a = run_plan(&plan);
        // Ceiling, Books and Conservation ran after every tick.
        assert!(a.passed(), "{name} violations: {:?}", a.violations);
        // The CI drill is half this binary's debug wall time; its replay
        // identity is checked in release by `dbaugur sim replay` in
        // CI's `sim` job.
        if name != "pressure_ci" {
            assert_eq!(a.digest, run_plan(&plan).digest, "{name} replays byte-identically");
        }
        assert_eq!(a.pending_spills_final, 0, "{name}: pending spills drained after relief");
        expect(&a);
        a
    });

    // The ladder plan again with rebalance flipped off: the heat-driven
    // migrations must measurably flatten max/mean shard heat over the
    // run's tail.
    let on = &reports[0];
    let mut plan = SimPlan::parse(cases[0].1).expect("parses");
    assert!(plan.rebalance);
    plan.rebalance = false;
    let off = run_plan(&plan);
    assert!(off.passed(), "control arm violations: {:?}", off.violations);
    assert!(
        on.heat_ratio_tail < off.heat_ratio_tail,
        "rebalance must flatten max/mean heat: {} (on) vs {} (off)",
        on.heat_ratio_tail,
        off.heat_ratio_tail
    );
}

#[test]
fn small_clean_swarm_holds_every_invariant() {
    let cfg = SwarmConfig {
        schedules: 12,
        seed: SWARM_SEED,
        shrink_failures: true,
        max_shrinks: 1,
        ..SwarmConfig::default()
    };
    let report = run_swarm(&cfg);
    for f in &report.failures {
        eprintln!("schedule {}: {} — {}", f.index, f.check, f.detail);
        if let Some(s) = &f.shrunk {
            eprintln!("reproducer:\n{}", s.plan.encode());
        }
    }
    assert!(report.clean(), "swarm must be clean: {}/{} failed", report.failed, report.schedules);
    assert!(report.replay_checked > 0, "the replay-identity slot ran");
    assert!(report.sibling_checked > 0, "the isolation slot ran");
    assert!(report.acked > 0);
    assert!(report.faults_injected > 0, "schedules actually injected faults");
}
