//! `cargo run -p bench --bin check`: hold the `BENCH_*.json` files at the
//! repository root to the floors committed in `crates/bench/floors.json`.
//!
//! A floor is `{ "bench": "sched", "key": "incremental_speedup", "min": 1.0 }`:
//! `key` is a dotted path into `BENCH_<bench>.json`, a `*` segment means
//! every element of an array, and `min`/`max` are inclusive and both
//! optional (neither: the key only has to be there); `why` is for the
//! reader. Every file a floor names must also carry the `host` block the
//! harness writes. Floors are
//! ratios between two live paths, scaling ratios or virtual-time values,
//! so one file serves full and `BENCH_QUICK=1` runs on any host.

use bench::harness::repo_root;
use serde::Value;
use std::collections::BTreeMap;

const HOST_KEYS: [&str; 4] = ["cores", "rustc", "commit", "quick"];

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        Value::F64(x) => Some(x),
        _ => None,
    }
}

/// Every value `path` reaches; empty when any segment is missing (or a
/// `*` meets an empty array).
fn lookup<'a>(root: &'a Value, path: &str) -> Vec<&'a Value> {
    let mut reached = vec![root];
    for segment in path.split('.') {
        reached = reached
            .into_iter()
            .flat_map(|v| match (segment, v) {
                ("*", Value::Seq(items)) => items.iter().collect(),
                _ => field(v, segment).into_iter().collect::<Vec<_>>(),
            })
            .collect();
    }
    reached
}

/// One line per broken floor; empty when every floor holds. `read` maps a
/// bench name to the text of its `BENCH_<name>.json`, if there is one.
fn violations(floors: &Value, read: impl Fn(&str) -> Option<String>) -> Vec<String> {
    let Value::Seq(floors) = floors else { return vec!["floors: not a JSON array".into()] };
    let mut out = Vec::new();
    let mut reports: BTreeMap<String, Option<Value>> = BTreeMap::new();
    for floor in floors {
        let (Some(Value::Str(bench)), Some(Value::Str(key))) =
            (field(floor, "bench"), field(floor, "key"))
        else {
            out.push(format!("floors: entry without \"bench\" and \"key\": {floor:?}"));
            continue;
        };
        let report = reports.entry(bench.clone()).or_insert_with(|| {
            let Some(text) = read(bench) else {
                out.push(format!("{bench}: no BENCH_{bench}.json"));
                return None;
            };
            let report = match serde_json::from_str::<Value>(&text) {
                Ok(report) => report,
                Err(e) => {
                    out.push(format!("{bench}: BENCH_{bench}.json does not parse: {e}"));
                    return None;
                }
            };
            for k in HOST_KEYS {
                if lookup(&report, &format!("host.{k}")).is_empty() {
                    out.push(format!("{bench}.host.{k}: missing"));
                }
            }
            Some(report)
        });
        let Some(report) = report else { continue };
        let values = lookup(report, key);
        if values.is_empty() {
            out.push(format!("{bench}.{key}: missing"));
        }
        let (min, max) =
            (field(floor, "min").and_then(number), field(floor, "max").and_then(number));
        if min.is_none() && max.is_none() {
            continue;
        }
        for v in values {
            let Some(x) = number(v) else {
                out.push(format!("{bench}.{key}: {v:?} is not a number"));
                continue;
            };
            if let Some(m) = min.filter(|&m| x < m) {
                out.push(format!("{bench}.{key} = {x} is under min {m}"));
            }
            if let Some(m) = max.filter(|&m| x > m) {
                out.push(format!("{bench}.{key} = {x} is over max {m}"));
            }
        }
    }
    out
}

fn committed_floors() -> Value {
    serde_json::from_str(include_str!("../../floors.json")).expect("floors.json parses")
}

fn read_committed(bench: &str) -> Option<String> {
    std::fs::read_to_string(repo_root().join(format!("BENCH_{bench}.json"))).ok()
}

fn main() {
    let broken = violations(&committed_floors(), read_committed);
    if broken.is_empty() {
        println!("every floor in crates/bench/floors.json holds");
        return;
    }
    for line in &broken {
        eprintln!("FLOOR {line}");
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{
        "bench": "unit",
        "host": { "cores": 2, "rustc": "rustc 1.0", "commit": "abc", "quick": false },
        "speedup": 12.5,
        "configs": [ { "ratio": 0.1 }, { "ratio": 0.4 } ]
    }"#;

    fn check(floors: &str) -> Vec<String> {
        let floors = serde_json::from_str(floors).unwrap();
        violations(&floors, |bench| (bench == "unit").then(|| REPORT.to_string()))
    }

    #[test]
    fn committed_reports_hold_the_committed_floors() {
        assert_eq!(violations(&committed_floors(), read_committed), Vec::<String>::new());
    }

    #[test]
    fn floors_inside_their_bounds_pass() {
        let ok = check(
            r#"[{"bench": "unit", "key": "speedup", "min": 12.5, "max": 12.5},
                {"bench": "unit", "key": "configs.*.ratio", "max": 0.4},
                {"bench": "unit", "key": "host.rustc"}]"#,
        );
        assert_eq!(ok, Vec::<String>::new());
    }

    #[test]
    fn each_kind_of_break_names_the_offending_key() {
        let missing = check(r#"[{"bench": "unit", "key": "configs.*.fps", "min": 1}]"#);
        assert_eq!(missing, ["unit.configs.*.fps: missing"]);
        let under = check(r#"[{"bench": "unit", "key": "speedup", "min": 13}]"#);
        assert_eq!(under, ["unit.speedup = 12.5 is under min 13"]);
        let over = check(r#"[{"bench": "unit", "key": "configs.*.ratio", "max": 0.25}]"#);
        assert_eq!(over, ["unit.configs.*.ratio = 0.4 is over max 0.25"]);
        let not_a_number = check(r#"[{"bench": "unit", "key": "host.commit", "min": 1}]"#);
        assert_eq!(not_a_number, [r#"unit.host.commit: Str("abc") is not a number"#]);
    }

    #[test]
    fn a_floor_naming_a_bench_with_no_file_fails_once() {
        let absent =
            check(r#"[{"bench": "ghost", "key": "a", "min": 1}, {"bench": "ghost", "key": "b"}]"#);
        assert_eq!(absent, ["ghost: no BENCH_ghost.json"]);
    }

    #[test]
    fn a_report_without_the_host_block_fails() {
        let floors = serde_json::from_str(r#"[{"bench": "bare", "key": "x"}]"#).unwrap();
        let broken = violations(&floors, |_| Some(r#"{"x": 1}"#.to_string()));
        assert_eq!(broken.len(), HOST_KEYS.len(), "{broken:?}");
        assert!(broken.contains(&"bare.host.commit: missing".to_string()));
    }
}
