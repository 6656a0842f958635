//! Full snapshots: the versioned, self-describing container for the complete
//! protection state.
//!
//! ```text
//! "CVSP" | version u32 | section_count u32
//! section table: { id u32 | offset u64 | len u64 | crc32 u32 } per section
//! META       (id 1): epoch u64 | shard_count u32
//! INVARIANTS (id 2): learning stats | columnar invariant database
//! PROCEDURES (id 3): discovered procedure entry addresses (ascending)
//! PLAN       (id 4): the net patch plan (checks + validated repairs)
//! ```
//!
//! The procedure section stores only the *discovery state* — the entry addresses.
//! CFGs, dominators, and block maps are deterministic functions of the binary image,
//! so [`Snapshot::restore_model`] rebuilds them by replaying `observe_block` over
//! the entries (the same rule the fleet's distributed learning already uses), and
//! the snapshot stays small and image-independent.

use crate::codec;
use crate::error::StoreError;
use crate::wire::{read_container, require_section, write_container, Reader, Writer};
use cv_core::{NetPatchState, PatchPlan};
use cv_inference::{InvariantDatabase, LearnedModel, ProcedureDatabase};
use cv_isa::{Addr, BinaryImage};

/// Magic bytes opening a full snapshot container.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"CVSP";
/// The format version this crate encodes and decodes.
pub const FORMAT_VERSION: u32 = 1;

/// Section id of the META section.
pub const SECTION_META: u32 = 1;
/// Section id of the columnar invariant-database section.
pub const SECTION_INVARIANTS: u32 = 2;
/// Section id of the procedure-discovery section.
pub const SECTION_PROCEDURES: u32 = 3;
/// Section id of the net-patch-plan section.
pub const SECTION_PLAN: u32 = 4;

/// The full protection state of a ClearView deployment at one epoch: everything a
/// fresh process needs to reach Protected without replaying learning.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The epoch the state was captured at.
    pub epoch: u64,
    /// The shard count of the store the snapshot was cut from — deltas against this
    /// snapshot are keyed by the same routing.
    pub shard_count: u32,
    /// The community invariant database.
    pub invariants: InvariantDatabase,
    /// Entry addresses of every dynamically discovered procedure (ascending).
    pub procedures: Vec<Addr>,
    /// The net patch plan: what is installed on every member.
    pub plan: PatchPlan,
}

impl Snapshot {
    /// Capture the protection state of a learned model plus a net patch
    /// configuration.
    pub fn capture(
        epoch: u64,
        shard_count: u32,
        model: &LearnedModel,
        net: &NetPatchState,
    ) -> Self {
        let span = cv_obs::recorder()
            .span("store.snapshot_capture", "store")
            .arg("epoch", epoch);
        let snapshot = Snapshot {
            epoch,
            shard_count: shard_count.max(1),
            invariants: model.invariants.clone(),
            procedures: model.procedures.procedures().map(|p| p.entry).collect(),
            plan: net.to_plan(),
        };
        span.arg("invariants", snapshot.invariants.len() as u64)
            .finish();
        snapshot
    }

    /// Rebuild a [`LearnedModel`] for `image` from this snapshot: the invariant
    /// database verbatim, the procedure database by re-discovering each stored
    /// entry (CFGs are a deterministic function of the image).
    ///
    /// Entries are replayed with [`ProcedureDatabase::ensure_procedure`], not
    /// `observe_block`: under procedure fission a stored entry can lie inside
    /// another stored procedure's CFG (the live fleet discovered the inner one
    /// first), and the block-level rule would silently drop it — leaving the
    /// restored coordinator with fewer procedures than its checkpoints claim and
    /// breaking delta convergence for members still holding the old base.
    pub fn restore_model(&self, image: BinaryImage) -> LearnedModel {
        let mut procedures = ProcedureDatabase::new(image);
        for entry in &self.procedures {
            procedures.ensure_procedure(*entry);
        }
        LearnedModel {
            invariants: self.invariants.clone(),
            procedures,
        }
    }

    /// The durable subset of the snapshot's plan: the validated repairs a restored
    /// or bootstrapped member must install (in-flight checking state is dropped —
    /// see [`NetPatchState::repair_plan`]).
    pub fn bootstrap_plan(&self) -> PatchPlan {
        let mut net = NetPatchState::new();
        net.apply(&self.plan);
        net.repair_plan()
    }

    /// Encode into the versioned container format.
    pub fn encode(&self) -> Vec<u8> {
        let span = cv_obs::recorder()
            .span("store.snapshot_encode", "store")
            .arg("epoch", self.epoch);
        let mut meta = Writer::new();
        meta.u64(self.epoch);
        meta.u32(self.shard_count);

        let mut invariants = Writer::new();
        codec::write_database(&mut invariants, &self.invariants);

        let mut procedures = Writer::new();
        procedures.u32(self.procedures.len() as u32);
        procedures.u32_column(&self.procedures);

        let mut plan = Writer::new();
        codec::write_plan(&mut plan, &self.plan);

        let bytes = write_container(
            SNAPSHOT_MAGIC,
            FORMAT_VERSION,
            &[
                (SECTION_META, meta.into_bytes()),
                (SECTION_INVARIANTS, invariants.into_bytes()),
                (SECTION_PROCEDURES, procedures.into_bytes()),
                (SECTION_PLAN, plan.into_bytes()),
            ],
        );
        span.arg("bytes", bytes.len() as u64).finish();
        bytes
    }

    /// Decode a container, rejecting truncation, checksum mismatches, unknown
    /// versions, and structurally impossible payloads. Unknown *sections* are
    /// skipped (the section table is self-describing), so future writers can add
    /// sections without breaking this decoder.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, StoreError> {
        let _span = cv_obs::recorder()
            .span("store.snapshot_decode", "store")
            .arg("bytes", bytes.len() as u64);
        let sections = read_container(bytes, SNAPSHOT_MAGIC, FORMAT_VERSION)?;

        let mut r = Reader::new(require_section(&sections, SECTION_META)?);
        let epoch = r.u64("meta epoch")?;
        let shard_count = r.u32("meta shard count")?;
        if shard_count == 0 {
            return Err(StoreError::Corrupt {
                context: "snapshot shard count is zero",
            });
        }

        let mut r = Reader::new(require_section(&sections, SECTION_INVARIANTS)?);
        let invariants = codec::read_database(&mut r)?;
        if !r.is_exhausted() {
            return Err(StoreError::Corrupt {
                context: "trailing bytes after the invariant database",
            });
        }

        let mut r = Reader::new(require_section(&sections, SECTION_PROCEDURES)?);
        let n_procs = r.len_u32(4, "procedure count")?;
        let procedures = r.u32_column(n_procs, "procedure entries")?;
        if procedures.windows(2).any(|w| w[0] >= w[1]) {
            return Err(StoreError::Corrupt {
                context: "procedure entries not strictly ascending",
            });
        }

        let mut r = Reader::new(require_section(&sections, SECTION_PLAN)?);
        let plan = codec::read_plan(&mut r)?;

        Ok(Snapshot {
            epoch,
            shard_count,
            invariants,
            procedures,
            plan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_core::Directive;
    use cv_inference::{Invariant, Variable};
    use cv_isa::{Operand, Reg};
    use cv_patch::{RepairPatch, RepairStrategy};

    fn sample() -> Snapshot {
        let mut invariants = InvariantDatabase::new();
        let var = Variable::read(0x4_0000, 0, Operand::Reg(Reg::Ebx));
        invariants.insert(Invariant::OneOf {
            var,
            values: [0x4_1000u32, 0x4_2000].into_iter().collect(),
        });
        invariants.stats.events_processed = 10;
        invariants.recount();
        let mut plan = PatchPlan::new();
        plan.push(
            0x4_0000,
            Directive::InstallRepair(RepairPatch {
                invariant: Invariant::OneOf {
                    var,
                    values: [0x4_1000u32].into_iter().collect(),
                },
                strategy: RepairStrategy::SetValue { value: 0x4_1000 },
            }),
        );
        Snapshot {
            epoch: 9,
            shard_count: 8,
            invariants,
            procedures: vec![0x4_0000, 0x4_0040],
            plan,
        }
    }

    #[test]
    fn snapshot_round_trips_byte_identically() {
        let snap = sample();
        let bytes = snap.encode();
        let decoded = Snapshot::decode(&bytes).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn truncation_bad_magic_and_version_are_rejected() {
        let snap = sample();
        let bytes = snap.encode();
        for k in [0usize, 3, 11, bytes.len() / 2, bytes.len() - 1] {
            assert!(Snapshot::decode(&bytes[..k]).is_err(), "prefix {k} decoded");
        }
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Snapshot::decode(&bad_magic),
            Err(StoreError::BadMagic { .. })
        ));
        let mut bad_version = bytes.clone();
        bad_version[4] = 0xFE;
        assert!(matches!(
            Snapshot::decode(&bad_version),
            Err(StoreError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn restore_model_survives_procedure_fission() {
        use cv_isa::{Cond, Port, ProgramBuilder};

        // main: input; if x < 10 skip the call; call helper; output; halt.
        let mut b = ProgramBuilder::new();
        let main = b.function("main");
        b.input(Reg::Eax, Port::Input);
        b.cmp(Reg::Eax, 10u32);
        let small = b.new_label("small");
        b.jcc(Cond::Lt, small);
        let helper = b.new_label("helper");
        b.call(helper);
        b.bind(small);
        let join = b.here();
        b.output(Reg::Eax, Port::Render);
        b.halt();
        b.bind(helper);
        b.add(Reg::Eax, Reg::Eax);
        b.ret();
        b.set_entry(main);
        let image = b.build().unwrap();

        // Procedure fission: the join block runs first and becomes its own
        // procedure; main is discovered later and covers its entry.
        let mut live = ProcedureDatabase::new(image.clone());
        assert_eq!(live.observe_block(join), Some(join));
        assert_eq!(live.observe_block(image.entry), Some(image.entry));
        let model = LearnedModel {
            invariants: InvariantDatabase::new(),
            procedures: live,
        };
        let snap = Snapshot::capture(3, 8, &model, &cv_core::NetPatchState::new());
        assert_eq!(snap.procedures, vec![image.entry, join]);

        let restored = Snapshot::decode(&snap.encode())
            .unwrap()
            .restore_model(image);
        let entries: Vec<Addr> = restored.procedures.procedures().map(|p| p.entry).collect();
        assert_eq!(
            entries, snap.procedures,
            "restore must reproduce every stored procedure, fissioned or not"
        );
    }

    #[test]
    fn bootstrap_plan_keeps_only_repairs() {
        let mut snap = sample();
        snap.plan.push(0x5_0000, Directive::InstallChecks(vec![]));
        let bootstrap = snap.bootstrap_plan();
        assert_eq!(bootstrap.len(), 1);
        assert!(matches!(
            bootstrap.ops()[0].directive,
            Directive::InstallRepair(_)
        ));
    }

    /// A kind byte flipped from one-of to lower-bound, with the section's CRC
    /// re-stamped so the flip reaches the codec, leaves three lower-bound kinds
    /// over a two-entry lower-bound column. The decoder must reject that, not
    /// index past the column.
    #[test]
    fn a_kind_byte_flipped_under_a_valid_crc_is_rejected() {
        let golden: &[u8] = include_bytes!("../tests/golden_snapshot_v1.bin");
        let mut sections: Vec<(u32, Vec<u8>)> =
            read_container(golden, SNAPSHOT_MAGIC, FORMAT_VERSION)
                .unwrap()
                .into_iter()
                .map(|(id, payload)| (id, payload.to_vec()))
                .collect();
        let payload = &mut sections
            .iter_mut()
            .find(|(id, _)| *id == SECTION_INVARIANTS)
            .unwrap()
            .1;
        // Walk the section's layout up to the kind column.
        let mut r = Reader::new(payload);
        codec::read_stats(&mut r).unwrap();
        let n_vars = r.len_u32(1, "variables").unwrap();
        r.u32_column(n_vars, "addresses").unwrap();
        r.u16_column(n_vars, "slots").unwrap();
        r.u8_column(n_vars, "tags").unwrap();
        r.u32_column(n_vars, "a").unwrap();
        r.i32_column(n_vars, "b").unwrap();
        let n_entries = r.len_u32(1, "entries").unwrap();
        r.u32_column(n_entries, "entry addresses").unwrap();
        r.u32_column(n_entries, "entry counts").unwrap();
        let n_kinds = r.len_u32(1, "kinds").unwrap();
        let kinds_at = payload.len() - r.remaining();
        let kinds = &mut payload[kinds_at..kinds_at + n_kinds];
        assert_eq!(kinds.iter().filter(|&&k| k == 0).count(), 2, "two one-ofs");
        assert_eq!(
            kinds.iter().filter(|&&k| k == 1).count(),
            2,
            "two lower bounds"
        );
        // The last one-of (kind 0) becomes a lower bound (kind 1).
        let last_one_of = kinds.iter().rposition(|&k| k == 0).unwrap();
        kinds[last_one_of] = 1;

        let bytes = write_container(SNAPSHOT_MAGIC, FORMAT_VERSION, &sections);
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
