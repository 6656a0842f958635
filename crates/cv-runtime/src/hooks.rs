//! Instrumentation hooks: the plugin interface of the managed execution environment.
//!
//! The Determina environment "allows plugins to validate and (if desired) transform new
//! code blocks before they enter the cache for execution" and to eject previously
//! inserted blocks, which is how ClearView applies and removes patches from running
//! applications (Section 2.1). In this reproduction a patch is a [`Hook`] attached to an
//! instruction address: it runs immediately before the instruction executes, may read
//! and write machine state, may emit invariant-check [`Observation`]s, and may redirect
//! control (skip the instruction or return from the enclosing procedure) — the three
//! repair actions of Section 2.5.
//!
//! # How a patch reaches the run loop
//!
//! The real system rebuilds a patched block with the instrumentation compiled into it,
//! so an unpatched instruction pays nothing. [`HookRegistry`] gets the same property
//! from a *site table*: one word per word of the code segment, laid over the same
//! address range as the code cache's slots ([`CodeTable`](crate::CodeTable)), holding
//! which hooked site — if any — sits at that address. "Does `eip` carry hooks" is one
//! bounds check and one load, exact, with no hashing; an instruction without a patch
//! stops there. The table is allocated by the first hook placed inside the code
//! segment, so an unpatched environment carries none.
//!
//! A site keeps its hooks in installation order; they run in that order and the first
//! action other than [`HookAction::Continue`] ends the walk. Hooks placed outside the
//! code segment (a heap address that injected code reaches when the Memory Firewall is
//! off) have no table entry: they are found by comparing addresses along the short
//! list of sites, which the run loop only does when `eip` is outside the table.
//!
//! # What a hook can remember
//!
//! Nothing beyond the run it executes in. A patch made of two hooks — the auxiliary
//! store at the earlier instruction of a two-variable invariant and the check at the
//! later one (Section 2.4.2) — passes its value through the run:
//! [`HookContext::store_aux`] files a word under a key the two hooks agree on and
//! [`HookContext::aux`] reads it back. The values belong to the run the way its
//! observations do: every run starts with none, so what one page stored can never
//! decide a check on the next, and an environment's hooks are the same before and
//! after any run.

use crate::machine::Machine;
use cv_isa::{Addr, Inst, Word};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifies a registered hook (and therefore an applied patch).
pub type HookId = u64;

/// What the hook asks the environment to do after it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookAction {
    /// Execute the instruction normally (possibly after the hook mutated state).
    Continue,
    /// Do not execute the instruction; continue at the next instruction. Implements the
    /// "skip the call" repair for one-of invariants on function pointers.
    SkipInstruction,
    /// Return immediately from the enclosing procedure: adjust the stack pointer by
    /// `sp_adjust` (derived from a learned stack-pointer-offset invariant) so that it
    /// points at the saved return address, then perform a normal `ret`.
    ReturnFromProcedure {
        /// Words to add to the stack pointer before popping the return address.
        sp_adjust: i32,
    },
}

/// Whether a checked invariant held.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObservationKind {
    /// The invariant was satisfied at this execution of the check.
    Satisfied,
    /// The invariant was violated.
    Violated,
}

/// One observation produced by an invariant-checking patch (Section 2.4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Observation {
    /// The hook (patch) that produced the observation.
    pub hook: HookId,
    /// The instruction address the patch is attached to.
    pub addr: Addr,
    /// Satisfied or violated.
    pub kind: ObservationKind,
}

/// The state a hook can inspect and mutate when it runs.
pub struct HookContext<'a> {
    /// The guest machine (registers, memory, heap, I/O).
    pub machine: &'a mut Machine,
    /// The instruction about to execute.
    pub inst: Inst,
    /// The instruction's address.
    pub addr: Addr,
    /// The id of the hook currently running.
    pub hook_id: HookId,
    observations: &'a mut Vec<Observation>,
    aux: &'a mut Vec<(u64, Word)>,
}

impl<'a> HookContext<'a> {
    pub(crate) fn new(
        machine: &'a mut Machine,
        inst: Inst,
        addr: Addr,
        hook_id: HookId,
        observations: &'a mut Vec<Observation>,
        aux: &'a mut Vec<(u64, Word)>,
    ) -> Self {
        HookContext {
            machine,
            inst,
            addr,
            hook_id,
            observations,
            aux,
        }
    }

    /// Record an invariant-check observation for this run.
    pub fn observe(&mut self, kind: ObservationKind) {
        self.observations.push(Observation {
            hook: self.hook_id,
            addr: self.addr,
            kind,
        });
    }

    /// File `value` under `key` for a hook that runs later in this run, replacing what
    /// was there; `None` empties the slot, so a reader never sees an older value.
    pub fn store_aux(&mut self, key: u64, value: Option<Word>) {
        self.aux.retain(|(k, _)| *k != key);
        if let Some(word) = value {
            self.aux.push((key, word));
        }
    }

    /// The value filed under `key` earlier in this run, if there is one.
    pub fn aux(&self, key: u64) -> Option<Word> {
        self.aux.iter().find(|(k, _)| *k == key).map(|(_, w)| *w)
    }
}

/// A hook attached to an instruction address.
pub trait Hook: Send {
    /// Runs immediately before the instruction at the hook's address executes.
    fn on_execute(&mut self, ctx: &mut HookContext<'_>) -> HookAction;

    /// Human-readable description used in logs and repair reports.
    fn describe(&self) -> String {
        "hook".to_string()
    }
}

/// A registered hook together with its id.
pub(crate) type HookEntry = (HookId, Box<dyn Hook>);

/// One hooked address and its hooks, in installation order.
struct Site {
    addr: Addr,
    hooks: Vec<HookEntry>,
}

/// The per-environment registry of hooks, keyed by instruction address.
#[derive(Default)]
pub struct HookRegistry {
    code_base: Addr,
    code_words: usize,
    /// Per code word: 1 + the index in `sites` of the site at that address, 0 for none.
    /// Empty until a hook is placed inside the code segment.
    site_of: Vec<u32>,
    /// Hooked addresses, inside the code segment and outside it, in no particular order.
    sites: Vec<Site>,
    addr_of: HashMap<HookId, Addr>,
    next_id: HookId,
}

impl HookRegistry {
    /// Create an empty registry that knows no code segment: every site is found by
    /// comparing addresses.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty registry for the code segment of `code_words` words at `code_base`.
    pub fn for_code(code_base: Addr, code_words: usize) -> Self {
        HookRegistry {
            code_base,
            code_words,
            ..Self::default()
        }
    }

    /// Index in `sites` of the site at `addr`.
    #[inline(always)]
    fn site_index(&self, addr: Addr) -> Option<usize> {
        match self.site_of.get(addr.wrapping_sub(self.code_base) as usize) {
            Some(0) => None,
            Some(&entry) => Some(entry as usize - 1),
            None => self.sites.iter().position(|site| site.addr == addr),
        }
    }

    /// The site-table entry for `addr`, if `addr` is inside the code segment.
    fn table_entry(&mut self, addr: Addr) -> Option<&mut u32> {
        let offset = addr.wrapping_sub(self.code_base) as usize;
        if offset < self.code_words && self.site_of.is_empty() {
            self.site_of = vec![0; self.code_words];
        }
        self.site_of.get_mut(offset)
    }

    /// The hooks to run before the instruction at `addr`, in installation order.
    ///
    /// Forced inline (with `site_index`): both run loops ask at every instruction,
    /// and traced runs measured ~5% slower with the lookup called.
    #[inline(always)]
    pub(crate) fn at_mut(&mut self, addr: Addr) -> Option<&mut [HookEntry]> {
        let index = self.site_index(addr)?;
        Some(&mut self.sites[index].hooks)
    }

    /// Register a hook at `addr`; returns its id.
    pub fn add(&mut self, addr: Addr, hook: Box<dyn Hook>) -> HookId {
        let id = self.next_id;
        self.next_id += 1;
        self.addr_of.insert(id, addr);
        match self.site_index(addr) {
            Some(index) => self.sites[index].hooks.push((id, hook)),
            None => {
                self.sites.push(Site {
                    addr,
                    hooks: vec![(id, hook)],
                });
                let entry = self.sites.len() as u32;
                if let Some(slot) = self.table_entry(addr) {
                    *slot = entry;
                }
            }
        }
        id
    }

    /// Remove a hook by id. Returns the address it was attached to, if it existed.
    pub fn remove(&mut self, id: HookId) -> Option<Addr> {
        let addr = self.addr_of.remove(&id)?;
        let index = self.site_index(addr)?;
        self.sites[index].hooks.retain(|(hid, _)| *hid != id);
        if self.sites[index].hooks.is_empty() {
            // The last site moves into the hole; its table entry follows it.
            self.sites.swap_remove(index);
            if let Some(slot) = self.table_entry(addr) {
                *slot = 0;
            }
            if let Some(moved) = self.sites.get(index).map(|site| site.addr) {
                if let Some(slot) = self.table_entry(moved) {
                    *slot = index as u32 + 1;
                }
            }
        }
        Some(addr)
    }

    /// The address a hook is attached to.
    pub fn addr_of(&self, id: HookId) -> Option<Addr> {
        self.addr_of.get(&id).copied()
    }

    /// Total number of registered hooks.
    pub fn len(&self) -> usize {
        self.addr_of.len()
    }

    /// True when no hooks are registered.
    pub fn is_empty(&self) -> bool {
        self.addr_of.is_empty()
    }

    /// True if any hook is registered at `addr`.
    pub fn has_hooks_at(&self, addr: Addr) -> bool {
        self.site_index(addr).is_some()
    }

    /// All addresses that currently have hooks, ascending.
    pub fn hooked_addrs(&self) -> Vec<Addr> {
        let mut addrs: Vec<Addr> = self.sites.iter().map(|site| site.addr).collect();
        addrs.sort_unstable();
        addrs
    }

    /// Remove every hook.
    pub fn clear(&mut self) {
        self.site_of.fill(0);
        self.sites.clear();
        self.addr_of.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NopHook;
    impl Hook for NopHook {
        fn on_execute(&mut self, _ctx: &mut HookContext<'_>) -> HookAction {
            HookAction::Continue
        }
    }

    /// A registry over the code segment `0x1000..0x3000` and one that knows no segment:
    /// the same addresses are table entries in one and list entries in the other.
    fn registries() -> [HookRegistry; 2] {
        [HookRegistry::for_code(0x1000, 0x2000), HookRegistry::new()]
    }

    #[test]
    fn add_and_remove_hooks() {
        for mut reg in registries() {
            assert!(reg.is_empty());
            let a = reg.add(0x1000, Box::new(NopHook));
            let b = reg.add(0x1000, Box::new(NopHook));
            let c = reg.add(0x2000, Box::new(NopHook));
            assert_eq!(reg.len(), 3);
            assert!(reg.has_hooks_at(0x1000));
            assert_eq!(reg.addr_of(b), Some(0x1000));
            assert_eq!(reg.remove(a), Some(0x1000));
            assert!(reg.has_hooks_at(0x1000), "second hook still present");
            assert_eq!(reg.remove(b), Some(0x1000));
            assert!(!reg.has_hooks_at(0x1000));
            assert_eq!(reg.remove(b), None, "double remove is a no-op");
            assert_eq!(reg.len(), 1);
            assert_eq!(reg.hooked_addrs(), vec![0x2000]);
            assert_eq!(reg.remove(c), Some(0x2000));
            assert!(reg.is_empty());
        }
    }

    #[test]
    fn clear_removes_everything() {
        for mut reg in registries() {
            reg.add(0x1001, Box::new(NopHook));
            reg.add(2, Box::new(NopHook));
            reg.clear();
            assert!(reg.is_empty());
            assert!(!reg.has_hooks_at(0x1001));
            assert!(!reg.has_hooks_at(2));
            assert!(reg.hooked_addrs().is_empty());
        }
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let mut reg = HookRegistry::new();
        let a = reg.add(1, Box::new(NopHook));
        let b = reg.add(1, Box::new(NopHook));
        assert!(b > a);
    }

    /// Hooked addresses come back ascending whatever the installation order, with
    /// sites inside the code segment and outside it (below and above) in one list.
    #[test]
    fn hooked_addrs_are_ascending() {
        for mut reg in registries() {
            for addr in [0x2fff, 0x9_0000, 0x1000, 0x20, 0x1800, 0x1000] {
                reg.add(addr, Box::new(NopHook));
            }
            assert_eq!(
                reg.hooked_addrs(),
                vec![0x20, 0x1000, 0x1800, 0x2fff, 0x9_0000]
            );
        }
    }

    /// Removing a site moves another into its place; every remaining site must still
    /// be found, with its own hooks in their installation order.
    #[test]
    fn removing_sites_in_any_order_keeps_the_others_reachable() {
        let addrs = [0x1000, 0x9_0000, 0x1005, 0x20, 0x2fff, 0x1800];
        for first_out in 0..addrs.len() {
            for mut reg in registries() {
                let ids: Vec<(HookId, HookId)> = addrs
                    .iter()
                    .map(|&a| (reg.add(a, Box::new(NopHook)), reg.add(a, Box::new(NopHook))))
                    .collect();
                for step in 0..addrs.len() {
                    let gone = (first_out + step * 5) % addrs.len();
                    assert_eq!(reg.remove(ids[gone].0), Some(addrs[gone]));
                    let left: Vec<HookId> = reg
                        .at_mut(addrs[gone])
                        .expect("one hook left")
                        .iter()
                        .map(|(id, _)| *id)
                        .collect();
                    assert_eq!(left, vec![ids[gone].1]);
                    assert_eq!(reg.remove(ids[gone].1), Some(addrs[gone]));
                    assert!(reg.at_mut(addrs[gone]).is_none());
                    for later in step + 1..addrs.len() {
                        let kept = (first_out + later * 5) % addrs.len();
                        let hooks: Vec<HookId> = reg
                            .at_mut(addrs[kept])
                            .expect("untouched site")
                            .iter()
                            .map(|(id, _)| *id)
                            .collect();
                        assert_eq!(hooks, vec![ids[kept].0, ids[kept].1]);
                    }
                }
                assert!(reg.is_empty());
                assert!(reg.hooked_addrs().is_empty());
            }
        }
    }

    /// An unhooked address next to hooked ones is never mistaken for one — inside the
    /// table, at its two edges, and outside it.
    #[test]
    fn the_site_test_is_exact() {
        for mut reg in registries() {
            for addr in [0x1000, 0x2fff, 0x3000, 0xfff] {
                reg.add(addr, Box::new(NopHook));
            }
            for addr in [0x1001, 0x2ffe, 0x3001, 0xffe, 0, u32::MAX] {
                assert!(!reg.has_hooks_at(addr), "{addr:#x}");
                assert!(reg.at_mut(addr).is_none());
            }
            for addr in [0x1000, 0x2fff, 0x3000, 0xfff] {
                assert_eq!(reg.at_mut(addr).map(|hooks| hooks.len()), Some(1));
            }
        }
    }
}
