//! BENCHMARK.json names exactly the metrics the benchmark prints.

use ldft_repo_bench::{PER_LAYER, WORKLOADS};

const END_TO_END: [&str; 5] = [
    "setup_s",
    "calls_per_s",
    "cpu_us_per_call",
    "virtual_runtime_s",
    "peak_rss_mib",
];

/// Every `"<key>": "<value>"` value in the file, in order.
fn values(json: &str, key: &str) -> Vec<String> {
    json.split(&format!("\"{key}\""))
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
        .collect()
}

#[test]
fn benchmark_json_lists_every_printed_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let expected: Vec<&str> = WORKLOADS
        .into_iter()
        .chain(END_TO_END)
        .chain(PER_LAYER.iter().map(|(name, _)| *name))
        .collect();
    assert_eq!(values(&json, "name"), expected);
    let units = values(&json, "unit");
    let per_layer_units: Vec<&str> = PER_LAYER.iter().map(|(_, unit)| *unit).collect();
    assert_eq!(units[END_TO_END.len()..], per_layer_units[..]);
}
