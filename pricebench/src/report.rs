//! Metric names, units and the result line.

/// One reported metric.
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Reported by untraced runs (`--trace 0`).
pub const END_TO_END: [Metric; 7] = [
    metric("throughput_rps", "1/s", "higher"),
    metric("p50_ms", "ms", "lower"),
    metric("p99_ms", "ms", "lower"),
    metric("tick_p50_ms", "ms", "lower"),
    metric("tick_p99_ms", "ms", "lower"),
    metric("setup_s", "s", "lower"),
    metric("peak_rss_mb", "MB", "lower"),
];

/// Reported by traced runs (`--trace 1`). A layer a workload does not
/// exercise (the WAL on in-memory workloads, `revise`/`price` where the
/// stream has none, the report cost of SubstOn, which has no quiet
/// step) reads 0.
pub const PER_LAYER: [Metric; 27] = [
    metric("loadgen.late_p99_us", "us", "lower"),
    metric("loadgen.queue_full_retries", "count/1k", "lower"),
    metric("protocol.decode_us", "us", "lower"),
    metric("protocol.encode_us", "us", "lower"),
    metric("protocol.req_bytes", "B", "lower"),
    metric("protocol.resp_bytes", "B", "lower"),
    metric("shard.submit_us", "us", "lower"),
    metric("shard.roundtrip_us", "us", "lower"),
    metric("shard.queue_depth_max", "count", "lower"),
    metric("shard.pool_overhead_ratio", "ratio", "lower"),
    metric("game.handle_us.create", "us", "lower"),
    metric("game.handle_us.arrive", "us", "lower"),
    metric("game.handle_us.revise", "us", "lower"),
    metric("game.handle_us.tick", "us", "lower"),
    metric("game.handle_us.price", "us", "lower"),
    metric("game.handle_us.snapshot", "us", "lower"),
    metric("game.inproc_rps", "1/s", "higher"),
    metric("core.advance_us", "us", "lower"),
    metric("core.submit_us", "us", "lower"),
    metric("core.events_per_s", "1/s", "higher"),
    metric("core.report_us", "us", "lower"),
    metric("econ.money_parse_us", "us", "lower"),
    metric("wal.append_us", "us", "lower"),
    metric("wal.bytes_per_record", "B", "lower"),
    metric("wal.checkpoint_ms", "ms", "lower"),
    metric("wal.checkpoints", "count", "lower"),
    metric("wal.recover_s", "s", "lower"),
];

/// Median of `values` (sorts them; 0 when empty).
#[must_use]
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile of already sorted `sorted` (0 when empty).
#[must_use]
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per index, the median of `runs[..][index]` (the mean of the middle
/// two for an even count). Every run has the same length.
#[must_use]
pub fn median_per_index(runs: &[Vec<u64>]) -> Vec<u64> {
    let len = runs.first().map_or(0, Vec::len);
    let mut column = Vec::with_capacity(runs.len());
    (0..len)
        .map(|k| {
            column.clear();
            column.extend(runs.iter().map(|run| run[k]));
            column.sort_unstable();
            let n = column.len();
            if n % 2 == 1 {
                column[n / 2]
            } else {
                ((u128::from(column[n / 2 - 1]) + u128::from(column[n / 2])) / 2) as u64
            }
        })
        .collect()
}

/// Prints every metric of `defs` with its unit, then the result line:
/// one JSON object, the last line of standard output.
pub fn emit(defs: &[Metric], values: &[(&str, f64)], attempted: u64, failed: u64, correct: bool) {
    let mut fields = Vec::with_capacity(defs.len());
    for def in defs {
        let value = values
            .iter()
            .find(|(name, _)| *name == def.name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
        println!(
            "  {:<30} {:>16.6} {:<9} ({} is better)",
            def.name, value, def.unit, def.better
        );
        fields.push(format!(
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            def.name, def.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
}

/// Resident-memory high-water mark of this process, MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use serde_json::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Object(map) => &map[key],
            _ => panic!("not an object"),
        }
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::String(s) => s,
            _ => panic!("not a string"),
        }
    }

    fn list(v: &Value) -> &[Value] {
        match v {
            Value::Array(items) => items,
            _ => panic!("not an array"),
        }
    }

    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let workloads: Vec<(&str, &str)> = list(field(&doc, "workloads"))
            .iter()
            .map(|w| (text(field(w, "name")), text(field(w, "why"))))
            .collect();
        let want: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, want);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let got: Vec<(&str, &str, &str)> = list(field(&doc, key))
                .iter()
                .map(|m| {
                    (
                        text(field(m, "name")),
                        text(field(m, "unit")),
                        text(field(m, "better")),
                    )
                })
                .collect();
            let want: Vec<_> = defs.iter().map(|m| (m.name, m.unit, m.better)).collect();
            assert_eq!(got, want, "{key}");
        }
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sorted, 0.5), 50);
        assert_eq!(quantile(&sorted, 0.99), 99);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn medians_are_taken_per_index() {
        let runs = vec![vec![5, 1, u64::MAX], vec![1, 9, u64::MAX], vec![3, 2, 0]];
        assert_eq!(median_per_index(&runs), vec![3, 2, u64::MAX]);
        assert_eq!(median_per_index(&runs[..2]), vec![3, 5, u64::MAX]);
        assert!(median_per_index(&[]).is_empty());
    }
}
