//! `compilebench` — the compile benchmark of the Longnail reproduction.
//!
//! ```text
//! cargo run --release --manifest-path compilebench/Cargo.toml -- \
//!     --workload <matrix_cold|unit_o2_xcheck|serve_edit> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one workload for `--seconds`, checks every iteration's outputs, and
//! prints as its last stdout line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before it
//! records the machine shape (`available_parallelism`, workers, seed, build
//! profile, the run's median reference time). The exit code is nonzero when
//! any output check failed.
//!
//! Times are wall times scaled to a nominal host speed by a reference task
//! timed after every set-up and iteration (see `speed`), so that the host's
//! drift does not read as a change of the compiler.
//!
//! The traced run times each layer from outside, by calling its public
//! entry points on the inputs the untraced iteration just compiled (see
//! `layers`); the compiler itself is not instrumented for it.

mod cells;
mod layers;
mod speed;
mod stats;
mod workloads;

use stats::{beyond, percentile, ratio, result_line, Metric};
use std::process::ExitCode;
use workloads::{Params, Run, Workload};

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 9] = [
    ("latency_ms_p50", "ms"),
    ("latency_ms_p95", "ms"),
    ("throughput_per_s", "1/s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("area_um2", "um2"),
    ("crit_path_ns", "ns_22nm"),
    ("sched_objective", "cycles"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed with `--trace 1`; a layer a workload never
/// runs reads 0 there.
const PER_LAYER: [(&str, &str); 58] = [
    ("sched.problem_ms", "ms"),
    ("sched.solve_ms", "ms"),
    ("sched.deps", "count"),
    ("sched.fallbacks", "count"),
    ("ilp.pivots", "count"),
    ("ilp.presolve", "count"),
    ("ilp.rounds", "count"),
    ("ilp.nodes", "count"),
    ("ilp.us_per_pivot", "us"),
    ("rtl.opt.fold_ms", "ms"),
    ("rtl.opt.cse_ms", "ms"),
    ("rtl.opt.mux_ms", "ms"),
    ("rtl.opt.strength_ms", "ms"),
    ("rtl.opt.narrow_ms", "ms"),
    ("rtl.opt.dce_ms", "ms"),
    ("rtl.opt.fold_rewrites", "count"),
    ("rtl.opt.cse_rewrites", "count"),
    ("rtl.opt.mux_rewrites", "count"),
    ("rtl.opt.strength_rewrites", "count"),
    ("rtl.opt.narrow_rewrites", "count"),
    ("rtl.opt.dce_rewrites", "count"),
    ("rtl.opt.iterations", "count"),
    ("rtl.opt.gate_ms", "ms"),
    ("rtl.opt.fallbacks", "count"),
    ("xcheck.ms", "ms"),
    ("xcheck.cycles", "count"),
    ("xcheck.mismatches", "count"),
    ("qcache.hit_ratio", "ratio"),
    ("qcache.replay_ms", "ms"),
    ("qcache.waits", "count"),
    ("qcache.frontend.misses", "count"),
    ("qcache.lower.misses", "count"),
    ("qcache.problem.misses", "count"),
    ("qcache.solve.misses", "count"),
    ("qcache.modes.misses", "count"),
    ("qcache.rtl.misses", "count"),
    ("qcache.opt.misses", "count"),
    ("qcache.verilog.misses", "count"),
    ("qcache.config.misses", "count"),
    ("coredsl.ms", "ms"),
    ("coredsl.bytes", "bytes"),
    ("ir.lower_ms", "ms"),
    ("ir.graphs", "count"),
    ("ir.ops", "count"),
    ("pool.busy_ratio", "ratio"),
    ("pool.queue_wait_ms", "ms"),
    ("pool.max_job_ms", "ms"),
    ("rtl.build_ms", "ms"),
    ("rtl.nets", "count"),
    ("rtl.lint_ms", "ms"),
    ("eda.estimate_ms", "ms"),
    ("rtl.verilog_ms", "ms"),
    ("rtl.verilog_bytes", "bytes"),
    ("driver.modes_ms", "ms"),
    ("driver.config_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

const USAGE: &str = "usage: compilebench --workload <matrix_cold|unit_o2_xcheck|serve_edit> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Params, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    Ok(Params {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        workers,
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The end-to-end metrics; times are scaled to the nominal host (`speed`).
fn end_to_end(run: &Run) -> Result<Vec<f64>, String> {
    let q = run.quality.total();
    let latencies_ms = run.speed.scale_iterations(&run.latencies_ms);
    let busy_s = latencies_ms.iter().sum::<f64>() / 1e3;
    Ok(vec![
        percentile(&latencies_ms, 50),
        percentile(&latencies_ms, 95),
        ratio(run.work_items as f64, busy_s),
        1.0 - ratio(run.checks.failed as f64, run.checks.attempted as f64),
        peak_rss_mb()?,
        q.area_um2,
        q.crit_path_ns,
        q.sched_objective as f64,
        percentile(&run.speed.scale_setups(&run.setups_s), 50),
    ])
}

fn main() -> ExitCode {
    let params = match parse_args(std::env::args().skip(1)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("compilebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match workloads::run(&params) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("compilebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics: Vec<Metric> = if params.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: run.ledger.per_iteration(name),
                unit,
            })
            .collect()
    } else {
        let values = match end_to_end(&run) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("compilebench: {e}");
                return ExitCode::FAILURE;
            }
        };
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    };
    println!(
        "{{\"shape\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {}, \"workers\": {}, \"profile\": \"{}\", \
         \"iterations\": {}, \"samples_beyond_p95\": {}, \"distinct_cells\": {}, \"edits\": {}, \
         \"reference_ms\": {}}}}}",
        params.workload.name(),
        params.seed,
        params.seconds,
        u8::from(params.trace),
        params.workers,
        run.workers,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        run.latencies_ms.len(),
        beyond(&run.latencies_ms, 95),
        run.quality.cells(),
        run.edits,
        run.speed.median_ms(),
    );
    println!(
        "{}",
        result_line(run.checks.attempted, run.checks.failed, &metrics)
    );
    if run.checks.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..start + text[start..].find(']').expect("closed list")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("closed name")].to_string())
            .collect()
    }

    #[test]
    fn metric_names_are_valid_and_declared() {
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(stats::valid_metric_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
        }
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        assert_eq!(declared("per_layer"), layer);
        let workloads: Vec<String> = Workload::ALL.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("workloads"), workloads);
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let p = parse("--workload serve_edit --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (p.workload, p.seed, p.seconds, p.trace),
            (Workload::ServeEdit, 9, 3, true)
        );
        assert!(parse("--seed 9").is_err(), "workload required");
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload matrix_cold --trace 2").is_err());
        assert!(parse("--workload matrix_cold --seconds 0").is_err());
        assert!(parse("--workload matrix_cold --seed").is_err());
        assert!(parse("--workload matrix_cold --verbose 1").is_err());
    }
}
