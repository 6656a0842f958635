//! The delivery-independence property behind the whole chaos plane: applying a
//! fleet envelope stream in **any permutation, with any duplicates** yields the
//! same merged [`InvariantDatabase`] and the same net [`PatchPlan`] as
//! in-order exactly-once delivery.
//!
//! [`SequencedApplier`] is the executable model of the coordinator's apply
//! discipline — deduplicate by `(from, epoch, seq)`, stash state-bearing
//! payloads by sequence key, fold in key order — and the live `Fleet` applies
//! uploads and patch pushes the same way. Proving the model delivery-order
//! independent is what licenses the transport to drop, duplicate, reorder, and
//! retransmit freely.
//!
//! Below that, two structures on the delivery path are held to plain models:
//! [`DedupeWindow`] to a sorted set of every key it accepted, and
//! [`Transport::recv_into`] to [`Transport::recv`] on every backend.

use cv_core::{Directive, PatchPlan};
use cv_fleet::{
    tier_peer, ChaosConfig, ChaosTransport, DedupeWindow, Envelope, EnvelopePayload,
    InProcessTransport, PeerId, SequencedApplier, SocketTransport, Transport, TransportStats,
    COORDINATOR,
};
use cv_inference::{Invariant, InvariantDatabase, Variable};
use cv_isa::Operand;
use cv_patch::{CheckPatch, RepairPatch, RepairStrategy};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use std::collections::BTreeSet;
use std::sync::Arc;

fn invariant_strategy() -> BoxedStrategy<Invariant> {
    prop_oneof![
        (
            0x4_0000u32..0x4_1000,
            prop::collection::vec(any::<u32>(), 1..4)
        )
            .prop_map(|(addr, values)| Invariant::OneOf {
                var: Variable::read(addr, 0, Operand::Imm(0)),
                values: values.into_iter().collect(),
            }),
        (0x4_0000u32..0x4_1000, any::<i32>()).prop_map(|(addr, min)| Invariant::LowerBound {
            var: Variable::read(addr, 1, Operand::Imm(1)),
            min,
        }),
    ]
    .boxed()
}

fn database_strategy() -> BoxedStrategy<InvariantDatabase> {
    prop::collection::vec(invariant_strategy(), 1..5)
        .prop_map(|invs| {
            let mut db = InvariantDatabase::new();
            for inv in invs {
                db.insert(inv);
            }
            db.recount();
            db
        })
        .boxed()
}

fn plan_strategy() -> BoxedStrategy<PatchPlan> {
    let directive = prop_oneof![
        invariant_strategy().prop_map(|inv| Directive::InstallChecks(vec![CheckPatch::new(inv)])),
        Just(Directive::RemoveChecks),
        (invariant_strategy(), any::<u32>()).prop_map(|(invariant, value)| {
            Directive::InstallRepair(RepairPatch {
                invariant,
                strategy: RepairStrategy::SetValue { value },
            })
        }),
        Just(Directive::RemoveRepair),
    ];
    prop::collection::vec((0x4_0000u32..0x4_1000, directive), 0..4)
        .prop_map(|ops| {
            let mut plan = PatchPlan::new();
            for (loc, dir) in ops {
                plan.push(loc, dir);
            }
            plan
        })
        .boxed()
}

/// One raw stream element before sequencing: which member it is from and what
/// it carries.
#[derive(Debug, Clone)]
enum Element {
    Upload(u32, InvariantDatabase),
    Push(u32, PatchPlan),
    Page(u32),
}

fn element_strategy() -> BoxedStrategy<Element> {
    prop_oneof![
        (0u32..16, database_strategy()).prop_map(|(node, db)| Element::Upload(node, db)),
        (0u32..16, plan_strategy()).prop_map(|(node, plan)| Element::Push(node, plan)),
        (0u32..16).prop_map(Element::Page),
    ]
    .boxed()
}

/// Assign epoch-grouped, strictly increasing sequence numbers — the shape the
/// fleet's single coordinator counter produces.
fn sequence(elements: Vec<Element>, epochs: u64) -> Vec<Envelope> {
    let per_epoch = elements.len().div_ceil(epochs.max(1) as usize).max(1);
    elements
        .into_iter()
        .enumerate()
        .map(|(i, element)| {
            let epoch = 1 + (i / per_epoch) as u64;
            let seq = i as u64;
            match element {
                Element::Upload(node, db) => Envelope {
                    from: node,
                    to: COORDINATOR,
                    epoch,
                    seq,
                    payload: EnvelopePayload::Upload {
                        invariants: Arc::new(db),
                        procs: Arc::new(Vec::new()),
                    },
                },
                Element::Push(node, plan) => Envelope {
                    from: COORDINATOR,
                    to: node,
                    epoch,
                    seq,
                    payload: EnvelopePayload::PatchPush(Arc::new(plan)),
                },
                Element::Page(node) => Envelope {
                    from: COORDINATOR,
                    to: node,
                    epoch,
                    seq,
                    payload: EnvelopePayload::Page(vec![seq as u32]),
                },
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any permutation-with-duplicates of the stream applies identically to
    /// in-order exactly-once delivery.
    #[test]
    fn any_permutation_with_duplicates_applies_identically(
        elements in prop::collection::vec(element_strategy(), 1..24),
        epochs in 1u64..4,
        order in prop::collection::vec(any::<usize>(), 0..64),
        dup_picks in prop::collection::vec(any::<usize>(), 0..24),
    ) {
        let stream = sequence(elements, epochs);

        // Reference: in order, exactly once.
        let mut reference = SequencedApplier::new(4);
        for env in &stream {
            prop_assert!(reference.offer(env), "first delivery must be fresh");
        }

        // Adversarial delivery: a permutation of the stream (drawn without
        // replacement via the order indices) with extra duplicate deliveries
        // spliced in (drawn with replacement).
        let mut remaining: Vec<&Envelope> = stream.iter().collect();
        let mut delivery: Vec<&Envelope> = Vec::with_capacity(stream.len() + dup_picks.len());
        for &idx in &order {
            if remaining.is_empty() {
                break;
            }
            delivery.push(remaining.swap_remove(idx % remaining.len()));
        }
        // Whatever the order vector did not consume arrives last, in order.
        delivery.extend(remaining);
        for &idx in &dup_picks {
            let pos = idx % delivery.len();
            let env = delivery[pos];
            delivery.insert(pos, env);
        }

        let mut chaotic = SequencedApplier::new(4);
        let mut fresh = 0usize;
        for env in &delivery {
            if chaotic.offer(env) {
                fresh += 1;
            }
        }
        prop_assert_eq!(fresh, stream.len(), "every envelope fresh exactly once");
        prop_assert_eq!(chaotic.suppressed(), dup_picks.len() as u64);

        prop_assert_eq!(reference.database(), chaotic.database());
        prop_assert_eq!(
            format!("{:?}", reference.net_plan()),
            format!("{:?}", chaotic.net_plan()),
        );
    }
}

/// One step against a [`DedupeWindow`]: offer the key `(to, from, epoch, seq)`,
/// or retire every epoch below a floor.
#[derive(Debug, Clone)]
enum WindowOp {
    Accept(PeerId, PeerId, u64, u64),
    Retire(u64),
}

/// One op in four retires. Small ranges, so keys repeat within and across
/// epochs, and a retired epoch is offered again.
fn window_op_strategy() -> BoxedStrategy<WindowOp> {
    (0u8..4, 0u32..3, 0u32..2, 0u64..5, 0u64..4)
        .prop_map(|(kind, to, from, epoch, seq)| match kind {
            0 => WindowOp::Retire(epoch),
            _ => WindowOp::Accept(to, from, epoch, seq),
        })
        .boxed()
}

/// The endpoints the delivery checks address: members 0–2 and 6 (so inboxes 3–5
/// are never addressed), the root, and the tier coordinators 1..3.
fn endpoints() -> Vec<PeerId> {
    vec![
        0,
        1,
        2,
        6,
        COORDINATOR,
        tier_peer(1),
        tier_peer(2),
        tier_peer(3),
    ]
}

/// Send `rounds` of `(from, to)` endpoint picks through `transport`, ticking
/// once and draining every endpoint (plus one nobody addresses) after each
/// round, then flushing and draining once more. Returns every envelope in the
/// order it came out, and the final counters; `into` drains through
/// [`Transport::recv_into`] into one buffer that is never cleared.
fn drain_all(
    mut transport: Box<dyn Transport>,
    rounds: &[Vec<(usize, usize)>],
    into: bool,
) -> (Vec<Envelope>, TransportStats) {
    let endpoints = endpoints();
    let mut drained = Vec::new();
    let mut drain = |transport: &mut Box<dyn Transport>| {
        for peer in endpoints.iter().copied().chain([77]) {
            if into {
                transport.recv_into(peer, &mut drained);
            } else {
                drained.extend(transport.recv(peer));
            }
        }
    };
    let mut seq = 0u64;
    for round in rounds {
        for &(from, to) in round {
            transport.send(Envelope {
                from: endpoints[from % endpoints.len()],
                to: endpoints[to % endpoints.len()],
                epoch: 1,
                seq,
                payload: EnvelopePayload::Page(vec![seq as u32]),
            });
            seq += 1;
        }
        transport.tick();
        drain(&mut transport);
    }
    for _ in 0..transport.flush_ticks() {
        transport.tick();
    }
    drain(&mut transport);
    let stats = transport.stats();
    (drained, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The per-epoch hash sets answer every offer, and count every duplicate,
    /// exactly as one sorted set of `(to, from, epoch, seq)` pruned by epoch.
    #[test]
    fn dedupe_window_matches_a_set_of_every_accepted_key(
        ops in prop::collection::vec(window_op_strategy(), 1..120),
    ) {
        let mut window = DedupeWindow::new();
        let mut model: BTreeSet<(PeerId, PeerId, u64, u64)> = BTreeSet::new();
        let mut suppressed = 0u64;
        for op in ops {
            match op {
                WindowOp::Accept(to, from, epoch, seq) => {
                    let fresh = model.insert((to, from, epoch, seq));
                    suppressed += u64::from(!fresh);
                    let envelope = Envelope {
                        from,
                        to,
                        epoch,
                        seq,
                        payload: EnvelopePayload::Ack,
                    };
                    prop_assert_eq!(window.accept(&envelope), fresh);
                }
                WindowOp::Retire(floor) => {
                    model.retain(|&(_, _, epoch, _)| epoch >= floor);
                    window.retire_below(floor);
                }
            }
            prop_assert_eq!(window.suppressed(), suppressed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `recv_into` hands back what `recv` would — the same envelopes, in the
    /// same order, with the same counters — on the in-process backend (member
    /// and tier inboxes), the socket backend, and chaos with a delay window.
    #[test]
    fn recv_into_delivers_what_recv_delivers_on_every_backend(
        rounds in prop::collection::vec(
            prop::collection::vec((any::<usize>(), any::<usize>()), 0..12),
            1..5,
        ),
        seed in any::<u64>(),
    ) {
        let backends: [fn(u64) -> Box<dyn Transport>; 3] = [
            |_| Box::new(InProcessTransport::new()),
            |_| Box::new(SocketTransport::new().expect("loopback socket pair")),
            |seed| {
                let config = ChaosConfig::standard(seed);
                assert!(config.delay_ticks > 0);
                Box::new(ChaosTransport::new(Box::new(InProcessTransport::new()), config))
            },
        ];
        for build in backends {
            let by_recv = drain_all(build(seed), &rounds, false);
            let by_recv_into = drain_all(build(seed), &rounds, true);
            prop_assert_eq!(&by_recv, &by_recv_into);
        }
    }
}
