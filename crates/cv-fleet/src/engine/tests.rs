//! A configuration is its units, in order, and nothing else. The mutants these kill
//! are listed with the others in `parity.rs`. Every `run_epoch` below is also
//! compared with the per-member-environment reference the engine carries in this
//! build.

use super::*;
use cv_inference::Variable;
use cv_isa::{Operand, Port, ProgramBuilder, Reg};
use cv_patch::RepairStrategy;
use std::collections::HashSet;

/// `in ecx; mov ebx, ecx; out ebx; halt`, and the addresses of the `mov` and the `out`.
fn program() -> (BinaryImage, Addr, Addr) {
    let mut b = ProgramBuilder::new();
    let main = b.function("main");
    b.input(Reg::Ecx, Port::Input);
    let mov = b.mov(Reg::Ebx, Reg::Ecx);
    let out = b.output(Reg::Ebx, Port::Render);
    b.halt();
    b.set_entry(main);
    (b.build().unwrap(), mov, out)
}

fn plan(ops: impl IntoIterator<Item = (Addr, Directive)>) -> PatchPlan {
    let mut plan = PatchPlan::new();
    for (location, directive) in ops {
        plan.push(location, directive);
    }
    plan
}

/// A two-variable check — the kind whose hooks once carried a cell, and an identity.
fn checks(mov: Addr, out: Addr) -> Directive {
    Directive::InstallChecks(vec![CheckPatch::new(Invariant::LessThan {
        a: Variable::read(mov, 0, Operand::Reg(Reg::Ecx)),
        b: Variable::read(out, 0, Operand::Reg(Reg::Ebx)),
    })])
}

fn repair(site: Addr, min: i32) -> Directive {
    Directive::InstallRepair(RepairPatch {
        invariant: Invariant::LowerBound {
            var: Variable::read(site, 0, Operand::Reg(Reg::Ecx)),
            min,
        },
        strategy: RepairStrategy::ClampToLowerBound,
    })
}

#[test]
fn reinstalling_a_removed_patch_is_the_configuration_it_was() {
    let (_, mov, out) = program();
    let mut table = ConfigTable::new();
    let install = plan([(out, checks(mov, out))]);
    let installed = table.successor(EMPTY_CONFIG, &install);
    assert_ne!(installed, EMPTY_CONFIG);
    let removed = table.successor(installed, &plan([(out, Directive::RemoveChecks)]));
    assert_eq!(removed, EMPTY_CONFIG);
    assert_eq!(table.successor(removed, &install), installed);
    assert_eq!(table.configs.len(), 2);
}

#[test]
fn installation_order_distinguishes_configurations() {
    let (_, mov, _) = program();
    let mut table = ConfigTable::new();
    // Both clamp ecx at the `mov`, for two failure locations: hooks at one address run
    // in installation order, so which clamp runs last is observable.
    let (low, high) = ((1, repair(mov, 1)), (2, repair(mov, 9)));
    let low_first = table.successor(EMPTY_CONFIG, &plan([low.clone(), high.clone()]));
    let high_first = table.successor(EMPTY_CONFIG, &plan([high, low]));
    assert_ne!(low_first, high_first);
    assert_eq!(table.units(low_first).len(), 2);
    assert_eq!(table.units(high_first).len(), 2);
}

#[test]
fn a_bootstrapped_member_shares_the_configuration_of_those_pushed_to() {
    let (image, mov, out) = program();
    let mut engine = EventEngine::new(&image, MonitorConfig::full(), 3, 1);
    let (first, second) = (
        plan([(out, checks(mov, out))]),
        plan([(mov, repair(mov, 1))]),
    );
    engine.apply_plan(&first);
    engine.apply_plan(&second);
    // Member 2 loses everything and is brought back by one bootstrap plan.
    engine.crash(2);
    engine.rejoin(2);
    assert_eq!(engine.slots[2].config, EMPTY_CONFIG);
    engine.reset_and_apply(2, &plan([(out, checks(mov, out)), (mov, repair(mov, 1))]));
    assert_eq!(engine.slots[2].config, engine.slots[0].config);

    let pages: Vec<Presentation> = (0..3).map(|node| Presentation::new(node, [0])).collect();
    let records = engine.run_epoch(&pages, &[out]);
    assert_eq!(
        engine.scratch[0].len(),
        1,
        "one materialisation for all three"
    );
    for record in &records {
        assert_eq!(record.rendered, [1], "the clamp ran");
        assert_eq!(
            record.digests[0].1.observations.len(),
            1,
            "so did the check"
        );
    }
    assert_eq!(engine.resident_state_bytes(), 3 * 8);
}

#[test]
fn a_reset_member_holds_the_plan_and_nothing_else() {
    let (image, mov, out) = program();
    let mut engine = EventEngine::new(&image, MonitorConfig::full(), 2, 1);
    engine.apply_plan(&plan([(out, checks(mov, out)), (mov, repair(mov, 9))]));
    // Member 1 is rolled back onto a configuration without the repair.
    engine.reset_and_apply(1, &plan([(out, checks(mov, out))]));
    assert_eq!(engine.table.units(engine.slots[1].config).len(), 1);

    let pages: Vec<Presentation> = (0..2).map(|node| Presentation::new(node, [0])).collect();
    let records = engine.run_epoch(&pages, &[out]);
    assert_eq!(records[0].rendered, [9]);
    assert_eq!(records[1].rendered, [0], "no clamp survives the reset");
}

/// A push over an existing installation replaces it, on the engine and on the
/// reference alike — so the two agree on every plan sequence, not only those the
/// responder protocol emits (its installs always follow the matching remove). The
/// reference used to drop the old handles without uninstalling: the first clamp
/// stayed and this page rendered 9 there.
#[test]
fn an_install_over_an_installation_replaces_it() {
    let (image, mov, out) = program();
    let mut engine = EventEngine::new(&image, MonitorConfig::full(), 2, 1);
    let pages: Vec<Presentation> = (0..2).map(|node| Presentation::new(node, [0])).collect();

    engine.apply_plan(&plan([(out, checks(mov, out))]));
    engine.apply_plan(&plan([(out, checks(mov, out))]));
    assert_eq!(engine.table.units(engine.slots[0].config).len(), 1);
    for record in engine.run_epoch(&pages, &[out]) {
        assert_eq!(
            record.digests[0].1.observations.len(),
            1,
            "one check, observed once"
        );
    }

    engine.apply_plan(&plan([(mov, repair(mov, 9))]));
    engine.apply_plan(&plan([(mov, repair(mov, 1))]));
    assert_eq!(engine.table.units(engine.slots[0].config).len(), 2);
    for record in engine.run_epoch(&pages, &[out]) {
        assert_eq!(record.rendered, [1], "only the second clamp is installed");
    }
}

/// A push maps every up member to `ConfigTable::successor` of the configuration it
/// held — one lineage folding back onto its ancestor, one onto the empty
/// configuration, one unchanged — and each worker then keeps exactly the
/// materialisations of configurations some member still holds.
#[test]
fn a_push_moves_each_member_to_its_successor_and_retires_the_rest() {
    let (image, mov, out) = program();
    let mut engine = EventEngine::new(&image, MonitorConfig::full(), 8, 2);
    engine.apply_plan(&plan([(out, checks(mov, out))]));
    for node in [2, 3] {
        engine.reset_and_apply(
            node,
            &plan([(out, checks(mov, out)), (mov, repair(mov, 9))]),
        );
    }
    for node in [4, 5] {
        engine.reset_and_apply(node, &plan([(mov, repair(mov, 1))]));
    }
    engine.reset_and_apply(6, &PatchPlan::new());
    engine.crash(7);
    let pages: Vec<Presentation> = (0..7).map(|node| Presentation::new(node, [0])).collect();
    engine.run_epoch(&pages, &[out]);
    let held_before: HashSet<ConfigId> = engine.slots.iter().map(|s| s.config).collect();
    assert_eq!(
        held_before.len(),
        4,
        "checks, checks + repair, repair, empty"
    );

    let push = plan([(mov, Directive::RemoveRepair)]);
    let expected: Vec<ConfigId> = (0..8)
        .map(|node| {
            let slot = engine.slots[node];
            if slot.alive {
                engine.table.successor(slot.config, &push)
            } else {
                slot.config
            }
        })
        .collect();
    let materialised: Vec<HashSet<ConfigId>> = engine
        .scratch
        .iter()
        .map(|scratch| scratch.keys().copied().collect())
        .collect();
    engine.apply_plan(&push);

    let configs: Vec<ConfigId> = engine.slots.iter().map(|s| s.config).collect();
    assert_eq!(configs, expected);
    assert_eq!(
        configs[2], configs[0],
        "checks + repair folds back onto checks"
    );
    assert_eq!(configs[4], EMPTY_CONFIG, "repair alone folds onto empty");
    let held: HashSet<ConfigId> = configs.iter().copied().collect();
    for (worker, scratch) in engine.scratch.iter().enumerate() {
        let kept: HashSet<ConfigId> = scratch.keys().copied().collect();
        let still_held: HashSet<ConfigId> =
            materialised[worker].intersection(&held).copied().collect();
        assert_eq!(kept, still_held, "worker {worker}");
    }
}

/// Which configurations a worker materialises feeds `shared_state_bytes`, and so
/// `bytes_per_member`: an epoch big enough to run on the worker threads still
/// deals member `n` to worker `n % worker_count`, whichever thread runs the share.
#[test]
fn a_worker_materialises_exactly_the_configurations_of_its_members() {
    let (image, mov, out) = program();
    for worker_count in [2, 3] {
        let mut engine = EventEngine::new(&image, MonitorConfig::full(), 24, worker_count);
        engine.apply_plan(&plan([(out, checks(mov, out))]));
        for node in (1..24).step_by(2) {
            engine.reset_and_apply(node, &plan([(mov, repair(mov, 9))]));
        }
        assert_ne!(engine.slots[0].config, engine.slots[1].config);

        let pages: Vec<Presentation> = (0..24).map(|node| Presentation::new(node, [0])).collect();
        assert!(pages.len() >= SMALL_EPOCH_INLINE);
        engine.run_epoch(&pages, &[out]);
        for (worker, scratch) in engine.scratch.iter().enumerate() {
            let held: HashSet<ConfigId> = scratch.keys().copied().collect();
            let dealt: HashSet<ConfigId> = (worker..24)
                .step_by(worker_count)
                .map(|node| engine.slots[node].config)
                .collect();
            assert_eq!(held, dealt, "worker {worker} of {worker_count}");
        }
    }
}

/// A presentation to a member that does not exist is refused by the engine's
/// assert, not by an index panic on the way to it.
#[test]
#[should_panic(expected = "unknown node")]
fn an_epoch_for_an_unknown_member_panics_naming_it() {
    let (image, _, _) = program();
    let mut fleet = crate::Fleet::new(
        image,
        cv_core::ClearViewConfig::default(),
        crate::FleetConfig::new(4),
    );
    let node = fleet.node_count();
    fleet.run_epoch(&[Presentation::new(node, [0])]);
}
