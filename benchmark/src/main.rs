//! The repository benchmark: Table 1's four workloads measured end to end,
//! with a separate traced run for per-layer numbers. See `README.md` next
//! to this package for why each workload was chosen and what each
//! per-layer metric is predicted to move.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <customer_serial|bdi_streams|customer_mix_durable|tpcds_mpp> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! process exits non-zero when any answer is wrong.

mod bdi;
mod check;
mod harness;
mod mix;
mod mpp;
mod readonly;
mod serial;
mod trace;
mod util;

use dash_core::{AutoConfig, HardwareSpec};
use std::path::PathBuf;

pub const WORKLOADS: [&str; 4] = [
    "customer_serial",
    "bdi_streams",
    "customer_mix_durable",
    "tpcds_mpp",
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where spans and the durable workload's database go, under the
    /// working directory.
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        out_dir: PathBuf::from("bench-out"),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("benchmark: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(2);
    }
    let hw = HardwareSpec::detect();
    let cfg = AutoConfig::derive(&hw);
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# hardware (HardwareSpec::detect): cores={} ram_mb={}; auto-config: query_parallelism={} wlm_concurrency={} bufferpool_pages={}",
        hw.cores, hw.ram_mb, cfg.query_parallelism, cfg.wlm_concurrency, cfg.bufferpool_pages
    );
    let result = match args.workload.as_str() {
        "customer_serial" => serial::run(&args),
        "bdi_streams" => bdi::run(&args),
        "customer_mix_durable" => mix::run(&args),
        _ => mpp::run(&args),
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for n in &result.notes {
        println!("# {n}");
    }
    if args.trace {
        let path = args
            .out_dir
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match result.tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "# {} spans written to {}",
                result.tracer.spans().len(),
                path.display()
            ),
            Err(e) => println!("# could not write spans to {}: {e}", path.display()),
        }
        println!("# end-to-end figures under tracing (not the result):");
        for m in &result.e2e {
            println!("#   {} = {:.4} {}", m.name, m.value, m.unit);
        }
    }
    let metrics = if args.trace {
        &result.layers
    } else {
        &result.e2e
    };
    util::print_result(result.correct, result.attempted, result.failed, metrics);
    if !result.correct {
        std::process::exit(1);
    }
}
