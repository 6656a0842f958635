//! The names and units of everything a run reports. `BENCHMARK.json` at the
//! repository root is written by hand — it also holds each metric's direction
//! and bound and each workload's rationale — and a unit test holds it to these
//! tables, so the names a run prints and the names the file declares cannot
//! drift.

/// A measured value with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricValue {
    pub value: f64,
    pub unit: &'static str,
}

/// A metric's declared name and unit.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn metric(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// The end-to-end metrics, reported by every untraced run.
pub const END_TO_END: [MetricSpec; 11] = [
    metric("pages_per_s", "1/s"),
    metric("rejoins_per_s", "1/s"),
    metric("op_p50_ms", "ms"),
    metric("op_p90_ms", "ms"),
    metric("cpu_us_per_page", "us"),
    metric("time_to_immunity_ms", "ms"),
    metric("epochs_to_immunity", "count"),
    metric("sync_bytes_per_rejoin", "B"),
    metric("bytes_per_member", "B"),
    metric("peak_rss_mb", "MB"),
    metric("setup_s", "s"),
];

/// The per-layer ladder, reported by every traced run. A layer is the prefix
/// of the name.
pub const PER_LAYER: [MetricSpec; 79] = [
    // floor: the denominators, moved by nothing.
    metric("floor.interp_ns_per_inst", "ns"),
    metric("floor.memcpy_mb_s", "MB/s"),
    // cv-isa
    metric("isa.decode_ns_per_inst", "ns"),
    metric("isa.block_build_us", "us"),
    metric("isa.blocks_built_per_op", "count"),
    // cv-runtime
    metric("runtime.machine_new_us", "us"),
    metric("runtime.machine_cow_us", "us"),
    metric("runtime.run_bare_us", "us"),
    metric("runtime.run_mf_us", "us"),
    metric("runtime.run_mf_ss_us", "us"),
    metric("runtime.run_mf_hg_us", "us"),
    metric("runtime.run_full_us", "us"),
    metric("runtime.monitor_overhead_pct", "%"),
    metric("runtime.shared_run_full_us", "us"),
    metric("runtime.traced_run_us", "us"),
    metric("runtime.interp_ns_per_inst", "ns"),
    metric("runtime.insts_per_page", "count"),
    metric("runtime.firewall_checks_per_page", "count"),
    metric("runtime.heap_guard_checks_per_page", "count"),
    metric("runtime.shadow_stack_ops_per_page", "count"),
    metric("runtime.hook_invocations_per_page", "count"),
    metric("runtime.blocks_ejected_per_op", "count"),
    // cv-inference
    metric("inference.learn_model_ms", "ms"),
    metric("inference.events_per_s", "1/s"),
    metric("inference.infer_us", "us"),
    metric("inference.merge_us", "us"),
    metric("inference.trace_events_per_page", "count"),
    metric("inference.invariants", "count"),
    // cv-patch
    metric("patch.install_us", "us"),
    metric("patch.uninstall_us", "us"),
    metric("patch.check_hook_ns", "ns"),
    metric("patch.repair_hook_ns", "ns"),
    metric("patch.hooks_installed", "count"),
    metric("patch.checks_per_campaign", "count"),
    // cv-core
    metric("core.present_overhead_us", "us"),
    metric("core.app_new_us", "us"),
    metric("core.attack_present_us", "us"),
    metric("core.candidates_us", "us"),
    metric("core.repairgen_us", "us"),
    metric("core.responder_on_run_us", "us"),
    metric("core.presentations_per_campaign", "count"),
    metric("core.manager_ms_per_epoch", "ms"),
    metric("core.manager_fanout_ms_per_epoch", "ms"),
    metric("core.plan_merge_us", "us"),
    metric("core.epochs_to_immunity", "count"),
    // cv-store
    metric("store.snapshot_bytes", "B"),
    metric("store.snapshot_encode_mb_s", "MB/s"),
    metric("store.snapshot_decode_mb_s", "MB/s"),
    metric("store.delta_cut_us", "us"),
    metric("store.delta_encode_us", "us"),
    metric("store.delta_apply_us", "us"),
    metric("store.delta_bytes_per_rejoin", "B"),
    metric("store.bootstrap_bytes_per_rejoin", "B"),
    metric("store.envelope_encode_ns", "ns"),
    metric("store.envelope_decode_ns", "ns"),
    // cv-fleet
    metric("fleet.new_ms", "ms"),
    metric("fleet.learning_ms", "ms"),
    metric("fleet.execution_ms_per_epoch", "ms"),
    metric("fleet.patch_push_ms_per_push", "ms"),
    metric("fleet.patch_applications_per_push", "count"),
    metric("fleet.envelopes_per_epoch", "count"),
    metric("fleet.transport_rtt_inproc_us", "us"),
    metric("fleet.epoch_overhead_ms", "ms"),
    metric("fleet.checkpoint_us", "us"),
    metric("fleet.crash_us", "us"),
    metric("fleet.rejoin_delta_us", "us"),
    metric("fleet.rejoin_full_us", "us"),
    metric("fleet.join_warm_us", "us"),
    metric("fleet.delta_savings", "count"),
    metric("fleet.tier_delta_cuts", "count"),
    metric("fleet.tier_sync_bytes", "B"),
    metric("fleet.root_sync_bypass_count", "count"),
    metric("fleet.retransmits", "count"),
    metric("fleet.resident_bytes_per_member", "B"),
    // trace: the closing check.
    metric("trace.op_ms", "ms"),
    metric("trace.reconstructed_ms", "ms"),
    metric("trace.unattributed_share", "count"),
    metric("trace.overhead_pct", "%"),
    metric("trace.spans", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use cv_perf::json::{parse, Value};
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// `(name, unit)` of every entry of one of the file's metric lists.
    fn declared(file: &Value, list: &str) -> Vec<(String, String)> {
        let text =
            |entry: &Value, key: &str| entry.get(key).and_then(Value::as_str).map(String::from);
        file.get(list)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}` list"))
            .iter()
            .map(|entry| {
                let name = text(entry, "name").expect("a name");
                let unit = text(entry, "unit").expect("a unit");
                let better = text(entry, "better").expect("a direction");
                assert!(valid_name(&name) && valid_unit(&unit), "{name} [{unit}]");
                assert!(better == "lower" || better == "higher", "{name}");
                (name, unit)
            })
            .collect()
    }

    fn table(specs: &[MetricSpec]) -> Vec<(String, String)> {
        specs
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_a_run_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(file.len() < 64 * 1024);
        let file = parse(&file).expect("BENCHMARK.json parses");

        let workloads: Vec<&str> = file
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("a workloads list")
            .iter()
            .map(|w| {
                let why = w.get("why").and_then(Value::as_str).expect("a why");
                assert!(why.len() <= 200 && !why.contains('\n'));
                w.get("name").and_then(Value::as_str).expect("a name")
            })
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);

        let end_to_end = declared(&file, "end_to_end");
        let per_layer = declared(&file, "per_layer");
        assert_eq!(end_to_end, table(&END_TO_END));
        assert_eq!(per_layer, table(&PER_LAYER));
        let names: BTreeSet<&String> = end_to_end.iter().chain(&per_layer).map(|m| &m.0).collect();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "a name is used once"
        );

        // Bounds: at most a quarter, and `setup_s` carries the largest.
        let bounds: Vec<(&str, f64)> = file
            .get("end_to_end")
            .and_then(Value::as_arr)
            .expect("checked above")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Value::as_str)
                        .expect("checked above"),
                    m.get("bound").and_then(Value::as_f64).expect("a bound"),
                )
            })
            .collect();
        let setup = bounds
            .iter()
            .find(|(name, _)| *name == "setup_s")
            .expect("setup_s")
            .1;
        assert!(bounds
            .iter()
            .all(|(_, b)| (0.0..=0.25).contains(b) && *b <= setup));
    }
}
