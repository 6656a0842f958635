//! Domain codecs: the columnar invariant-database encoding, the patch-plan
//! encoding, and the primitives they share.
//!
//! **The database is written columnar.** Variables are interned into a sorted table
//! written as parallel arrays (addresses, slot codes, operand tags, operand
//! payloads), and invariants are split by kind into per-kind parallel arrays
//! (variable ids, bounds, value sets) plus one flat `kinds` array recording, per
//! check-address entry, which kind column each invariant came from. Encoding and
//! decoding are therefore flat column copies — no per-invariant pointer chasing —
//! which is what makes `snapshot_bench`'s encode/decode rates scale with memory
//! bandwidth rather than invariant structure.
//!
//! **Plans are written inline.** A patch plan is a few ops even at fleet scale, so
//! its directives (checking patches, repairs, strategies) use a simple tagged
//! inline encoding.
//!
//! Both codecs are deterministic: the same in-memory value always encodes to the
//! same bytes, so `encode -> decode -> encode` is byte-identical (the round-trip
//! property test).

use crate::error::StoreError;
use crate::wire::{Reader, Writer};
use cv_core::{Directive, PatchPlan};
use cv_inference::{Invariant, InvariantDatabase, LearningStats, VarSlot, Variable};
use cv_isa::{Addr, MemRef, Operand, Reg};
use cv_patch::{CheckPatch, RepairPatch, RepairStrategy};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Variables
// ---------------------------------------------------------------------------

const SLOT_READ: u8 = 0;
const SLOT_COMPUTED: u8 = 1;
const SLOT_SP: u8 = 2;

const OP_NONE: u8 = 0;
const OP_REG: u8 = 1;
const OP_IMM: u8 = 2;
const OP_MEM: u8 = 3;

/// No-register marker inside a packed memory operand.
const NO_REG: u32 = 0xFF;

fn slot_code(slot: VarSlot) -> u16 {
    match slot {
        VarSlot::Read(n) => ((SLOT_READ as u16) << 8) | n as u16,
        VarSlot::ComputedAddr(n) => ((SLOT_COMPUTED as u16) << 8) | n as u16,
        VarSlot::StackPointer => (SLOT_SP as u16) << 8,
    }
}

fn slot_from_code(code: u16) -> Result<VarSlot, StoreError> {
    let idx = (code & 0xFF) as u8;
    match (code >> 8) as u8 {
        SLOT_READ => Ok(VarSlot::Read(idx)),
        SLOT_COMPUTED => Ok(VarSlot::ComputedAddr(idx)),
        SLOT_SP if idx == 0 => Ok(VarSlot::StackPointer),
        _ => Err(StoreError::Corrupt {
            context: "unknown variable slot code",
        }),
    }
}

/// Pack an operand into `(tag, a, b)` — the three columns of the variable table.
fn operand_columns(op: Option<Operand>) -> (u8, u32, i32) {
    match op {
        None => (OP_NONE, 0, 0),
        Some(Operand::Reg(r)) => (OP_REG, r.index() as u32, 0),
        Some(Operand::Imm(v)) => (OP_IMM, v, 0),
        Some(Operand::Mem(m)) => {
            let base = m.base.map(|r| r.index() as u32).unwrap_or(NO_REG);
            let index = m.index.map(|r| r.index() as u32).unwrap_or(NO_REG);
            (
                OP_MEM,
                base | (index << 8) | ((m.scale as u32) << 16),
                m.disp,
            )
        }
    }
}

fn reg_from(idx: u32) -> Result<Option<Reg>, StoreError> {
    if idx == NO_REG {
        return Ok(None);
    }
    Reg::from_index(idx as usize)
        .map(Some)
        .ok_or(StoreError::Corrupt {
            context: "register index out of range",
        })
}

fn operand_from_columns(tag: u8, a: u32, b: i32) -> Result<Option<Operand>, StoreError> {
    match tag {
        OP_NONE => Ok(None),
        OP_REG => Ok(Some(Operand::Reg(reg_from(a)?.ok_or(
            StoreError::Corrupt {
                context: "register operand carries the no-register marker",
            },
        )?))),
        OP_IMM => Ok(Some(Operand::Imm(a))),
        OP_MEM => Ok(Some(Operand::Mem(MemRef {
            base: reg_from(a & 0xFF)?,
            index: reg_from((a >> 8) & 0xFF)?,
            scale: ((a >> 16) & 0xFF) as u8,
            disp: b,
        }))),
        _ => Err(StoreError::Corrupt {
            context: "unknown operand tag",
        }),
    }
}

/// Write one variable inline (the plan codec's form).
fn write_variable(w: &mut Writer, var: &Variable) {
    let (tag, a, b) = operand_columns(var.operand);
    w.u32(var.addr);
    w.u16(slot_code(var.slot));
    w.u8(tag);
    w.u32(a);
    w.i32(b);
}

/// Read one inline variable.
fn read_variable(r: &mut Reader<'_>) -> Result<Variable, StoreError> {
    let addr = r.u32("variable address")?;
    let slot = slot_from_code(r.u16("variable slot")?)?;
    let tag = r.u8("operand tag")?;
    let a = r.u32("operand payload a")?;
    let b = r.i32("operand payload b")?;
    Ok(Variable {
        addr,
        slot,
        operand: operand_from_columns(tag, a, b)?,
    })
}

// ---------------------------------------------------------------------------
// Invariants, inline form (plans)
// ---------------------------------------------------------------------------

const INV_ONE_OF: u8 = 0;
const INV_LOWER_BOUND: u8 = 1;
const INV_LESS_THAN: u8 = 2;
const INV_SP_OFFSET: u8 = 3;

fn write_invariant(w: &mut Writer, inv: &Invariant) {
    match inv {
        Invariant::OneOf { var, values } => {
            w.u8(INV_ONE_OF);
            write_variable(w, var);
            w.u8(values.len() as u8);
            for v in values {
                w.u32(*v);
            }
        }
        Invariant::LowerBound { var, min } => {
            w.u8(INV_LOWER_BOUND);
            write_variable(w, var);
            w.i32(*min);
        }
        Invariant::LessThan { a, b } => {
            w.u8(INV_LESS_THAN);
            write_variable(w, a);
            write_variable(w, b);
        }
        Invariant::StackPointerOffset {
            proc_entry,
            at,
            offset,
        } => {
            w.u8(INV_SP_OFFSET);
            w.u32(*proc_entry);
            w.u32(*at);
            w.i32(*offset);
        }
    }
}

fn read_invariant(r: &mut Reader<'_>) -> Result<Invariant, StoreError> {
    match r.u8("invariant kind")? {
        INV_ONE_OF => {
            let var = read_variable(r)?;
            let n = r.u8("one-of value count")? as usize;
            let mut values = std::collections::BTreeSet::new();
            for _ in 0..n {
                values.insert(r.u32("one-of value")?);
            }
            if values.len() != n {
                return Err(StoreError::Corrupt {
                    context: "one-of value set has duplicates",
                });
            }
            Ok(Invariant::OneOf { var, values })
        }
        INV_LOWER_BOUND => Ok(Invariant::LowerBound {
            var: read_variable(r)?,
            min: r.i32("lower bound")?,
        }),
        INV_LESS_THAN => Ok(Invariant::LessThan {
            a: read_variable(r)?,
            b: read_variable(r)?,
        }),
        INV_SP_OFFSET => Ok(Invariant::StackPointerOffset {
            proc_entry: r.u32("sp-offset procedure entry")?,
            at: r.u32("sp-offset site")?,
            offset: r.i32("sp-offset value")?,
        }),
        _ => Err(StoreError::Corrupt {
            context: "unknown invariant kind",
        }),
    }
}

// ---------------------------------------------------------------------------
// Learning stats
// ---------------------------------------------------------------------------

/// Write the learning counters (fixed-width, field order is part of the format).
pub fn write_stats(w: &mut Writer, stats: &LearningStats) {
    for v in [
        stats.events_processed,
        stats.runs_committed,
        stats.runs_discarded,
        stats.variables_observed,
        stats.duplicates_removed,
        stats.pointers_classified,
        stats.one_of,
        stats.lower_bound,
        stats.less_than,
        stats.sp_offset,
    ] {
        w.u64(v);
    }
}

/// Read the learning counters.
pub fn read_stats(r: &mut Reader<'_>) -> Result<LearningStats, StoreError> {
    Ok(LearningStats {
        events_processed: r.u64("stats.events_processed")?,
        runs_committed: r.u64("stats.runs_committed")?,
        runs_discarded: r.u64("stats.runs_discarded")?,
        variables_observed: r.u64("stats.variables_observed")?,
        duplicates_removed: r.u64("stats.duplicates_removed")?,
        pointers_classified: r.u64("stats.pointers_classified")?,
        one_of: r.u64("stats.one_of")?,
        lower_bound: r.u64("stats.lower_bound")?,
        less_than: r.u64("stats.less_than")?,
        sp_offset: r.u64("stats.sp_offset")?,
    })
}

// ---------------------------------------------------------------------------
// Columnar entry encoding (full databases and delta shard sections)
// ---------------------------------------------------------------------------

/// Encode a set of `(check address, invariants)` entries columnar. Entries must be
/// in ascending address order (the canonical [`InvariantDatabase::entries`] order).
pub fn write_entries(w: &mut Writer, entries: &[(Addr, &[Invariant])]) {
    // Pass 1: intern every mentioned variable into a sorted table.
    let mut var_ids: BTreeMap<Variable, u32> = BTreeMap::new();
    for (_, invs) in entries {
        for inv in invs.iter() {
            for var in inv.variables() {
                var_ids.entry(var).or_insert(0);
            }
        }
    }
    for (next, id) in var_ids.values_mut().enumerate() {
        *id = next as u32;
    }

    // Variable table columns.
    let n_vars = var_ids.len();
    let mut v_addr = Vec::with_capacity(n_vars);
    let mut v_slot = Vec::with_capacity(n_vars);
    let mut v_tag = Vec::with_capacity(n_vars);
    let mut v_a = Vec::with_capacity(n_vars);
    let mut v_b = Vec::with_capacity(n_vars);
    for var in var_ids.keys() {
        let (tag, a, b) = operand_columns(var.operand);
        v_addr.push(var.addr);
        v_slot.push(slot_code(var.slot));
        v_tag.push(tag);
        v_a.push(a);
        v_b.push(b);
    }

    // Entry layout plus per-kind columns.
    let mut e_addr: Vec<u32> = Vec::with_capacity(entries.len());
    let mut e_count: Vec<u32> = Vec::with_capacity(entries.len());
    let mut kinds: Vec<u8> = Vec::new();
    let (mut oo_var, mut oo_count, mut oo_values) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lb_var, mut lb_min) = (Vec::new(), Vec::new());
    let (mut lt_a, mut lt_b) = (Vec::new(), Vec::new());
    let (mut sp_proc, mut sp_at, mut sp_off) = (Vec::new(), Vec::new(), Vec::new());
    for (addr, invs) in entries {
        e_addr.push(*addr);
        e_count.push(invs.len() as u32);
        for inv in invs.iter() {
            match inv {
                Invariant::OneOf { var, values } => {
                    kinds.push(INV_ONE_OF);
                    oo_var.push(var_ids[var]);
                    oo_count.push(values.len() as u8);
                    oo_values.extend(values.iter().copied());
                }
                Invariant::LowerBound { var, min } => {
                    kinds.push(INV_LOWER_BOUND);
                    lb_var.push(var_ids[var]);
                    lb_min.push(*min);
                }
                Invariant::LessThan { a, b } => {
                    kinds.push(INV_LESS_THAN);
                    lt_a.push(var_ids[a]);
                    lt_b.push(var_ids[b]);
                }
                Invariant::StackPointerOffset {
                    proc_entry,
                    at,
                    offset,
                } => {
                    kinds.push(INV_SP_OFFSET);
                    sp_proc.push(*proc_entry);
                    sp_at.push(*at);
                    sp_off.push(*offset);
                }
            }
        }
    }

    // Flat copies, one column at a time.
    w.u32(n_vars as u32);
    w.u32_column(&v_addr);
    w.u16_column(&v_slot);
    w.u8_column(&v_tag);
    w.u32_column(&v_a);
    w.i32_column(&v_b);

    w.u32(e_addr.len() as u32);
    w.u32_column(&e_addr);
    w.u32_column(&e_count);
    w.u32(kinds.len() as u32);
    w.u8_column(&kinds);

    w.u32(oo_var.len() as u32);
    w.u32_column(&oo_var);
    w.u8_column(&oo_count);
    w.u32(oo_values.len() as u32);
    w.u32_column(&oo_values);

    w.u32(lb_var.len() as u32);
    w.u32_column(&lb_var);
    w.i32_column(&lb_min);

    w.u32(lt_a.len() as u32);
    w.u32_column(&lt_a);
    w.u32_column(&lt_b);

    w.u32(sp_proc.len() as u32);
    w.u32_column(&sp_proc);
    w.u32_column(&sp_at);
    w.i32_column(&sp_off);
}

/// Decode entries previously written by [`write_entries`], in stored order.
pub fn read_entries(r: &mut Reader<'_>) -> Result<Vec<(Addr, Vec<Invariant>)>, StoreError> {
    // Variable table.
    let n_vars = r.len_u32(4 + 2 + 1 + 4 + 4, "variable count")?;
    let v_addr = r.u32_column(n_vars, "variable addresses")?;
    let v_slot = r.u16_column(n_vars, "variable slots")?;
    let v_tag = r.u8_column(n_vars, "operand tags")?;
    let v_a = r.u32_column(n_vars, "operand a column")?;
    let v_b = r.i32_column(n_vars, "operand b column")?;
    let mut vars = Vec::with_capacity(n_vars);
    for i in 0..n_vars {
        vars.push(Variable {
            addr: v_addr[i],
            slot: slot_from_code(v_slot[i])?,
            operand: operand_from_columns(v_tag[i], v_a[i], v_b[i])?,
        });
    }
    let var = |id: u32| -> Result<Variable, StoreError> {
        vars.get(id as usize).copied().ok_or(StoreError::Corrupt {
            context: "variable id out of range",
        })
    };

    // Entry layout.
    let n_entries = r.len_u32(8, "entry count")?;
    let e_addr = r.u32_column(n_entries, "entry addresses")?;
    let e_count = r.u32_column(n_entries, "entry invariant counts")?;
    let n_kinds = r.len_u32(1, "kind count")?;
    let kinds = r.u8_column(n_kinds, "kind column")?;
    let total: u64 = e_count.iter().map(|&c| c as u64).sum();
    if total != n_kinds as u64 {
        return Err(StoreError::Corrupt {
            context: "entry counts disagree with the kind column",
        });
    }

    // Kind columns.
    let n_oo = r.len_u32(5, "one-of count")?;
    let oo_var = r.u32_column(n_oo, "one-of variable ids")?;
    let oo_count = r.u8_column(n_oo, "one-of value counts")?;
    let n_oo_values = r.len_u32(4, "one-of value total")?;
    let oo_values = r.u32_column(n_oo_values, "one-of values")?;
    if oo_count.iter().map(|&c| c as u64).sum::<u64>() != n_oo_values as u64 {
        return Err(StoreError::Corrupt {
            context: "one-of value counts disagree with the value column",
        });
    }
    let n_lb = r.len_u32(8, "lower-bound count")?;
    let lb_var = r.u32_column(n_lb, "lower-bound variable ids")?;
    let lb_min = r.i32_column(n_lb, "lower-bound minima")?;
    let n_lt = r.len_u32(8, "less-than count")?;
    let lt_a = r.u32_column(n_lt, "less-than a ids")?;
    let lt_b = r.u32_column(n_lt, "less-than b ids")?;
    let n_sp = r.len_u32(12, "sp-offset count")?;
    let sp_proc = r.u32_column(n_sp, "sp-offset procedure entries")?;
    let sp_at = r.u32_column(n_sp, "sp-offset sites")?;
    let sp_off = r.i32_column(n_sp, "sp-offset values")?;
    // Each kind column must hold exactly as many invariants as the kind layout
    // names, or the walk below would index past its end.
    let mut per_kind = (0, 0, 0, 0);
    for &kind in &kinds {
        match kind {
            INV_ONE_OF => per_kind.0 += 1,
            INV_LOWER_BOUND => per_kind.1 += 1,
            INV_LESS_THAN => per_kind.2 += 1,
            INV_SP_OFFSET => per_kind.3 += 1,
            _ => {
                return Err(StoreError::Corrupt {
                    context: "unknown invariant kind in kind column",
                })
            }
        }
    }
    if per_kind != (n_oo, n_lb, n_lt, n_sp) {
        return Err(StoreError::Corrupt {
            context: "kind counts disagree with the kind columns",
        });
    }

    // Reassemble: walk the entry layout, consuming each kind column by cursor.
    let (mut ko, mut koo, mut klb, mut klt, mut ksp, mut kval) = (0, 0, 0, 0, 0usize, 0usize);
    let mut entries = Vec::with_capacity(n_entries);
    let mut last_addr: Option<Addr> = None;
    for i in 0..n_entries {
        let addr = e_addr[i];
        if let Some(last) = last_addr {
            if addr <= last {
                return Err(StoreError::Corrupt {
                    context: "entry addresses not strictly ascending",
                });
            }
        }
        last_addr = Some(addr);
        let mut invs = Vec::with_capacity(e_count[i] as usize);
        for _ in 0..e_count[i] {
            let inv = match kinds[ko] {
                INV_ONE_OF => {
                    let n = oo_count[koo] as usize;
                    let values: std::collections::BTreeSet<u32> =
                        oo_values[kval..kval + n].iter().copied().collect();
                    if values.len() != n {
                        return Err(StoreError::Corrupt {
                            context: "one-of value set has duplicates",
                        });
                    }
                    let inv = Invariant::OneOf {
                        var: var(oo_var[koo])?,
                        values,
                    };
                    koo += 1;
                    kval += n;
                    inv
                }
                INV_LOWER_BOUND => {
                    let inv = Invariant::LowerBound {
                        var: var(lb_var[klb])?,
                        min: lb_min[klb],
                    };
                    klb += 1;
                    inv
                }
                INV_LESS_THAN => {
                    let inv = Invariant::LessThan {
                        a: var(lt_a[klt])?,
                        b: var(lt_b[klt])?,
                    };
                    klt += 1;
                    inv
                }
                INV_SP_OFFSET => {
                    let inv = Invariant::StackPointerOffset {
                        proc_entry: sp_proc[ksp],
                        at: sp_at[ksp],
                        offset: sp_off[ksp],
                    };
                    ksp += 1;
                    inv
                }
                _ => {
                    return Err(StoreError::Corrupt {
                        context: "unknown invariant kind in kind column",
                    })
                }
            };
            ko += 1;
            if inv.check_addr() != addr {
                return Err(StoreError::Corrupt {
                    context: "invariant's check address disagrees with its entry",
                });
            }
            invs.push(inv);
        }
        entries.push((addr, invs));
    }
    Ok(entries)
}

/// Encode a whole database: its learning counters plus its entries, columnar.
pub fn write_database(w: &mut Writer, db: &InvariantDatabase) {
    write_stats(w, &db.stats);
    let entries: Vec<(Addr, &[Invariant])> = db.entries().collect();
    write_entries(w, &entries);
}

/// Decode a database written by [`write_database`].
pub fn read_database(r: &mut Reader<'_>) -> Result<InvariantDatabase, StoreError> {
    let stats = read_stats(r)?;
    let entries = read_entries(r)?;
    let mut db = InvariantDatabase::new();
    for (addr, invs) in entries {
        db.set_entry(addr, invs);
    }
    db.stats = stats;
    Ok(db)
}

// ---------------------------------------------------------------------------
// Patch plans
// ---------------------------------------------------------------------------

const DIR_INSTALL_CHECKS: u8 = 0;
const DIR_REMOVE_CHECKS: u8 = 1;
const DIR_INSTALL_REPAIR: u8 = 2;
const DIR_REMOVE_REPAIR: u8 = 3;

const STRAT_SET_VALUE: u8 = 0;
const STRAT_SKIP_CALL: u8 = 1;
const STRAT_RETURN: u8 = 2;
const STRAT_CLAMP: u8 = 3;
const STRAT_ENFORCE_LT: u8 = 4;

fn write_strategy(w: &mut Writer, strategy: &RepairStrategy) {
    match strategy {
        RepairStrategy::SetValue { value } => {
            w.u8(STRAT_SET_VALUE);
            w.u32(*value);
        }
        RepairStrategy::SkipCall => w.u8(STRAT_SKIP_CALL),
        RepairStrategy::ReturnFromProcedure { sp_adjust } => {
            w.u8(STRAT_RETURN);
            w.i32(*sp_adjust);
        }
        RepairStrategy::ClampToLowerBound => w.u8(STRAT_CLAMP),
        RepairStrategy::EnforceLessThan => w.u8(STRAT_ENFORCE_LT),
    }
}

fn read_strategy(r: &mut Reader<'_>) -> Result<RepairStrategy, StoreError> {
    match r.u8("repair strategy tag")? {
        STRAT_SET_VALUE => Ok(RepairStrategy::SetValue {
            value: r.u32("set-value payload")?,
        }),
        STRAT_SKIP_CALL => Ok(RepairStrategy::SkipCall),
        STRAT_RETURN => Ok(RepairStrategy::ReturnFromProcedure {
            sp_adjust: r.i32("return-from-procedure adjust")?,
        }),
        STRAT_CLAMP => Ok(RepairStrategy::ClampToLowerBound),
        STRAT_ENFORCE_LT => Ok(RepairStrategy::EnforceLessThan),
        _ => Err(StoreError::Corrupt {
            context: "unknown repair strategy tag",
        }),
    }
}

/// Encode a patch plan (op order is part of the format).
pub fn write_plan(w: &mut Writer, plan: &PatchPlan) {
    w.u32(plan.len() as u32);
    for op in plan.ops() {
        w.u32(op.location);
        match &op.directive {
            Directive::InstallChecks(checks) => {
                w.u8(DIR_INSTALL_CHECKS);
                w.u32(checks.len() as u32);
                for check in checks {
                    write_invariant(w, &check.invariant);
                }
            }
            Directive::RemoveChecks => w.u8(DIR_REMOVE_CHECKS),
            Directive::InstallRepair(repair) => {
                w.u8(DIR_INSTALL_REPAIR);
                write_invariant(w, &repair.invariant);
                write_strategy(w, &repair.strategy);
            }
            Directive::RemoveRepair => w.u8(DIR_REMOVE_REPAIR),
        }
    }
}

/// Decode a patch plan written by [`write_plan`].
pub fn read_plan(r: &mut Reader<'_>) -> Result<PatchPlan, StoreError> {
    let n_ops = r.len_u32(5, "plan op count")?;
    let mut plan = PatchPlan::new();
    for _ in 0..n_ops {
        let location = r.u32("op location")?;
        let directive = match r.u8("directive tag")? {
            DIR_INSTALL_CHECKS => {
                let n = r.len_u32(1, "check count")?;
                let mut checks = Vec::with_capacity(n);
                for _ in 0..n {
                    checks.push(CheckPatch::new(read_invariant(r)?));
                }
                Directive::InstallChecks(checks)
            }
            DIR_REMOVE_CHECKS => Directive::RemoveChecks,
            DIR_INSTALL_REPAIR => {
                let invariant = read_invariant(r)?;
                let strategy = read_strategy(r)?;
                Directive::InstallRepair(RepairPatch {
                    invariant,
                    strategy,
                })
            }
            DIR_REMOVE_REPAIR => Directive::RemoveRepair,
            _ => {
                return Err(StoreError::Corrupt {
                    context: "unknown directive tag",
                })
            }
        };
        plan.push(location, directive);
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> InvariantDatabase {
        let mut db = InvariantDatabase::new();
        let v1 = Variable::read(0x1000, 0, Operand::Reg(Reg::Ecx));
        let v2 = Variable::read(
            0x1004,
            1,
            Operand::Mem(MemRef::indexed(Reg::Ebx, Reg::Esi, 4, -8)),
        );
        let v3 = Variable::computed_addr(0x1008, 0);
        db.insert(Invariant::OneOf {
            var: v1,
            values: [3u32, 9, 0xFFFF_FFFF].into_iter().collect(),
        });
        db.insert(Invariant::LowerBound { var: v1, min: -7 });
        db.insert(Invariant::LessThan { a: v1, b: v2 });
        db.insert(Invariant::OneOf {
            var: v3,
            values: [0x4000u32].into_iter().collect(),
        });
        db.insert(Invariant::StackPointerOffset {
            proc_entry: 0x1000,
            at: 0x100C,
            offset: -2,
        });
        db.stats.events_processed = 123;
        db.stats.runs_committed = 4;
        db.recount();
        db
    }

    #[test]
    fn database_round_trips_byte_identically() {
        let db = sample_db();
        let mut w = Writer::new();
        write_database(&mut w, &db);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded = read_database(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(decoded, db);
        let mut w2 = Writer::new();
        write_database(&mut w2, &decoded);
        assert_eq!(w2.into_bytes(), bytes, "re-encode must be byte-identical");
    }

    #[test]
    fn plan_round_trips() {
        let v = Variable::read(0x2000, 0, Operand::Reg(Reg::Eax));
        let inv = Invariant::LowerBound { var: v, min: 1 };
        let mut plan = PatchPlan::new();
        plan.push(
            0x2000,
            Directive::InstallChecks(vec![CheckPatch::new(inv.clone())]),
        );
        plan.push(0x2000, Directive::RemoveChecks);
        plan.push(
            0x2000,
            Directive::InstallRepair(RepairPatch {
                invariant: inv,
                strategy: RepairStrategy::ReturnFromProcedure { sp_adjust: 3 },
            }),
        );
        plan.push(0x2000, Directive::RemoveRepair);
        let mut w = Writer::new();
        write_plan(&mut w, &plan);
        let bytes = w.into_bytes();
        let decoded = read_plan(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(decoded, plan);
        let mut w2 = Writer::new();
        write_plan(&mut w2, &decoded);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn mismatched_check_addr_is_rejected() {
        let db = sample_db();
        let mut w = Writer::new();
        write_database(&mut w, &db);
        let mut bytes = w.into_bytes();
        // The entry-address column sits right after the stats (80 bytes) + var table.
        // Flip a bit somewhere in the middle of the payload; the decoder must reject
        // (via one of its structural checks) rather than return a different database.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let result = read_database(&mut Reader::new(&bytes));
        if let Ok(decoded) = result {
            // A flipped bit in a value column can decode structurally; it must not
            // silently equal the original.
            assert_ne!(decoded, db);
        }
    }
}
