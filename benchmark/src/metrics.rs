//! The metric vocabulary: every name the benchmark prints, with its unit and
//! direction.  `../BENCHMARK.json` lists exactly these (a test checks it).

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and the share of the parent's median by which it may
/// get worse before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// All four sit at the widest bound a driver accepts.  Ten runs on ten seeds
/// spread (interquartile range over median) by 1–10 % at nominal machine speed
/// (see `calib`; 13–35 % raw), and a benchmark is steady enough only when that
/// is under a third of the bound.  `lat_p99_ns` spread by 25–120 % and is the
/// per-layer metric `client.lat_p99_ns` instead.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_ns",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub fn end_to_end(name: &str) -> &'static EndToEnd {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .expect("a name from END_TO_END")
}

use Better::{Higher, Lower};

/// The per-layer metrics: `(name, unit, better)`.  The prefix is the layer,
/// one of this repo's modules.
pub const PER_LAYER: [(&str, &str, Better); 58] = [
    ("workload.gen_ns", "ns", Lower),
    ("workload.timer_ns", "ns", Lower),
    ("workload.gen_lag_p99_ns", "ns", Lower),
    ("workload.batch_mean", "count", Lower),
    ("workload.speed_factor", "ratio", Higher),
    ("epoch.pin_ns", "ns", Lower),
    ("kcas.execute_k2_ns", "ns", Lower),
    ("kcas.execute_k2_path16_ns", "ns", Lower),
    ("kcas.ops_per_op", "count", Lower),
    ("kcas.retries_per_kop", "count", Lower),
    ("kcas.helps_per_kop", "count", Lower),
    ("kcas.boxed_fallbacks", "count", Lower),
    ("pathcas.op_k2_path16_ns", "ns", Lower),
    ("pathcas.validate_path16_ns", "ns", Lower),
    ("pathcas-ds.get_ns", "ns", Lower),
    ("pathcas-ds.insert_ns", "ns", Lower),
    ("pathcas-ds.remove_ns", "ns", Lower),
    ("pathcas-ds.rmw_ns", "ns", Lower),
    ("pathcas-ds.scan16_ns", "ns", Lower),
    ("pathcas-ds.restarts_per_kop", "count", Lower),
    ("pathcas-ds.rotations_per_kop", "count", Lower),
    ("pathcas-ds.allocs_per_op", "count", Lower),
    ("pathcas-ds.avg_key_depth", "count", Lower),
    ("pathcas-ds.bytes_per_key", "B", Lower),
    ("mapapi.dyn_tax_ns", "ns", Lower),
    ("shard.get_ns", "ns", Lower),
    ("shard.route_tax_ns", "ns", Lower),
    ("shard.scan16_ns", "ns", Lower),
    ("shard.scan_amplification", "ratio", Lower),
    ("shard.shards_per_scan", "count", Lower),
    ("shard.imbalance", "ratio", Lower),
    ("proto.encode_req_ns", "ns", Lower),
    ("proto.decode_req_ns", "ns", Lower),
    ("proto.encode_resp_ns", "ns", Lower),
    ("proto.decode_resp_ns", "ns", Lower),
    ("proto.scan8_resp_ns", "ns", Lower),
    ("proto.frame_decode_ns", "ns", Lower),
    ("proto.bytes_per_req", "B", Lower),
    ("proto.bytes_per_resp", "B", Lower),
    ("client.rtt_d1_ns", "ns", Lower),
    ("client.rtt_d32_ns", "ns", Lower),
    ("client.slo_miss_share", "ratio", Lower),
    ("client.lat_p99_ns", "ns", Lower),
    ("client.scan_p50_ns", "ns", Lower),
    ("client.scan_p99_ns", "ns", Lower),
    ("server.residual_d1_ns", "ns", Lower),
    ("server.residual_d32_ns", "ns", Lower),
    ("server.ready_ns", "ns", Lower),
    ("server.decode_ns", "ns", Lower),
    ("server.op_ns", "ns", Lower),
    ("server.resp_ns", "ns", Lower),
    ("server.flush_ns", "ns", Lower),
    ("server.read_syscalls_per_req", "count", Lower),
    ("server.write_syscalls_per_req", "count", Lower),
    ("server.wakeups_per_req", "count", Lower),
    ("server.frames_per_wakeup", "count", Higher),
    ("server.allocs_per_req", "count", Lower),
    ("telemetry.trace_overhead_share", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; hold it to the tables above and to
    /// the workload list, so the two cannot drift apart.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let json = include_str!("../../BENCHMARK.json");
        let row = |name: &str, unit: &str, better: Better| {
            format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"",
                better.label()
            )
        };
        for m in &END_TO_END {
            let want = format!(
                "{}, \"bound\": {}}}",
                row(m.name, m.unit, m.better),
                m.bound
            );
            assert!(json.contains(&want), "BENCHMARK.json lacks {want}");
        }
        for (name, unit, better) in PER_LAYER {
            let want = format!("{}}}", row(name, unit, better));
            assert!(json.contains(&want), "BENCHMARK.json lacks {want}");
        }
        for w in &crate::gen::WORKLOADS {
            assert!(json.contains(&format!(
                "{{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name, w.why
            )));
        }
        let rows = json.matches("{\"name\": ").count();
        assert_eq!(
            rows,
            END_TO_END.len() + PER_LAYER.len() + crate::gen::WORKLOADS.len()
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(crate::gen::WORKLOADS.iter().map(|w| w.name));
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(crate::gen::WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }
}
