//! The six workloads. Each is a closed loop with one client: the next operation
//! is issued when the previous one returns.

pub mod fleet_churn;
pub mod fleet_outbreak;
pub mod fleet_steady;
pub mod host_browse;
pub mod host_heavy;
pub mod host_repair;

use crate::spans::Recorder;

/// What one operation did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpResult {
    /// Presentations (benign and exploit) completed.
    pub pages: u64,
    /// Members brought back to the synced state.
    pub rejoins: u64,
    /// Encoded bytes the rejoins' sync payloads took.
    pub sync_bytes: u64,
    /// An output check failed, or the operation was refused.
    pub failed: bool,
    /// Wall-clock from the first exploit presentation to immunity, where the
    /// operation itself is an attack (`host_repair`, `fleet_outbreak`).
    pub immunity_ns: Option<u64>,
    /// Exploit presentations (host) or attack epochs (fleet) to immunity.
    pub immunity_epochs: Option<u64>,
}

/// What set-up measured once, outside the timed region.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupFacts {
    /// Time to immunity of the set-up's own attack, on the workloads whose
    /// timed operation is not an attack.
    pub immunity_ns: Option<u64>,
    /// Mean presentations/epochs to immunity of that attack.
    pub immunity_epochs: Option<f64>,
    /// Bytes of protection state per member at the end of set-up.
    pub bytes_per_member: f64,
}

/// One iteration of a workload's secondary rejoin loop.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rejoined {
    /// Members brought back to the synced, protected state.
    pub rejoins: u64,
    /// Encoded bytes their sync payloads took.
    pub sync_bytes: u64,
    /// Every rejoined member was synced and survived the exploit.
    pub ok: bool,
}

/// One workload: an op list generated from the seed in set-up, replayed in
/// whole passes.
pub trait Workload {
    /// Operations in the op list.
    fn op_count(&self) -> usize;

    /// Run operation `idx`. On the first pass the outputs are folded into the
    /// digest; every pass checks them.
    fn run_op(&mut self, idx: usize, first_pass: bool, rec: &mut Recorder) -> OpResult;

    /// The CRC-32 of the first pass's outputs.
    fn digest(&mut self) -> u32;

    fn setup_facts(&self) -> SetupFacts;

    /// Checks that need the state the timed region left behind; `false` fails
    /// the run.
    fn after_region(&mut self) -> bool;

    /// Where the workload's own operation does not rejoin members: bring
    /// members back once, on the state the region left behind. The harness
    /// loops it for a second, because the contract wants `rejoins_per_s` and
    /// `sync_bytes_per_rejoin` on every workload. `None` where the timed
    /// operation already measures rejoins.
    fn rejoin_once(&mut self) -> Option<Rejoined>;

    /// Inputs the ladder calibrates this workload's rungs on.
    fn ladder_inputs(&self) -> crate::ladder::Inputs;
}

/// Names of the six workloads, in round-robin order.
pub const NAMES: [&str; 6] = [
    "host_browse",
    "host_heavy",
    "host_repair",
    "fleet_steady",
    "fleet_outbreak",
    "fleet_churn",
];

/// Set up workload `name` from `seed`; `None` for an unknown name.
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "host_browse" => Box::new(host_browse::HostBrowse::setup(seed, smoke)),
        "host_heavy" => Box::new(host_heavy::HostHeavy::setup(seed, smoke)),
        "host_repair" => Box::new(host_repair::HostRepair::setup(seed, smoke)),
        "fleet_steady" => Box::new(fleet_steady::FleetSteady::setup(seed, smoke)),
        "fleet_outbreak" => Box::new(fleet_outbreak::FleetOutbreak::setup(seed, smoke)),
        "fleet_churn" => Box::new(fleet_churn::FleetChurn::setup(seed, smoke)),
        _ => return None,
    })
}
