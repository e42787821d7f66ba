//! Command-line entry point of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-check
//! ```
//!
//! Standard output ends with one JSON result line; the line before it is
//! the run's provenance. Progress and problems go to standard error. A
//! traced run also writes its spans to `.perfbench/trace-<workload>.jsonl`
//! in the repository, replacing the previous traced run's.

use mflb_perfbench::layers::MIN_COVERAGE;
use mflb_perfbench::provenance::provenance;
use mflb_perfbench::workloads::{work_dir, NAMES};
use mflb_perfbench::{obj, run_traced, run_untraced, self_check};
use std::process::exit;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-check [--seed <n>]";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}\nworkloads: {}", NAMES.join(", "));
    exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<&str> {
        args.iter().position(|a| a == name).map(|i| {
            args.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage_error(&format!("{name} needs a value")))
        })
    };
    let parsed = |name: &str| {
        flag(name).map(|v| {
            v.parse::<u64>().unwrap_or_else(|_| usage_error(&format!("bad {name} value `{v}`")))
        })
    };
    let seed = parsed("--seed").unwrap_or(1);

    if args.iter().any(|a| a == "--self-check") {
        match self_check(seed) {
            Ok(lines) => {
                for line in lines {
                    println!("{line}");
                }
                println!("self-check passed");
            }
            Err(e) => {
                eprintln!("self-check failed: {e}");
                exit(1);
            }
        }
        return;
    }

    let workload = flag("--workload").unwrap_or_else(|| usage_error("--workload is required"));
    if !NAMES.contains(&workload) {
        usage_error(&format!("unknown workload `{workload}`"));
    }
    let seconds = parsed("--seconds").unwrap_or(10) as f64;
    let trace = match flag("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => usage_error(&format!("bad --trace value `{other}`")),
    };

    let prov = provenance(workload, seed, seconds, trace);
    eprintln!("perfbench: {workload} seed {seed}, {seconds} s, trace {}", trace as u8);
    let outcome = if trace {
        run_traced(workload, seed, seconds).and_then(|(out, tracer)| {
            let path = work_dir()?.join(format!("trace-{workload}.jsonl"));
            tracer
                .write_jsonl(&path, &prov)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("spans written to {}", path.display());
            if let Some(cov) = out.value("trace.coverage").filter(|c| *c < MIN_COVERAGE) {
                eprintln!("warning: layer spans cover only {cov:.3} of {workload}'s wall time");
            }
            Ok(out)
        })
    } else {
        run_untraced(workload, seed, seconds)
    };
    let outcome = outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1)
    });
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    println!("{}", obj(vec![("provenance", prov)]).to_json());
    println!("{}", outcome.to_json().to_json());
    if !outcome.correct() {
        exit(1);
    }
}
