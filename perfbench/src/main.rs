//! End-to-end and per-layer benchmark of the RTPB simulator cores.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <write_fanout|read_mostly|churn_recovery> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload, single-threaded, against
//! `SimCluster` through `RtpbClient`. With `--trace 0` it prints every
//! end-to-end metric; with `--trace 1` it runs the workload untraced,
//! again with spans around every call into the harness, then replays each
//! layer's public functions on inputs shaped like the workload, and prints
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod checks;
mod gen;
mod layers;
mod report;
mod run;
#[cfg(test)]
mod selftest;
mod span;

use std::process::ExitCode;

/// How much shorter a traced run's measured phase is than an untraced one.
const TRACE_HORIZON_DIVISOR: u64 = 8;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !gen::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {:?}",
            gen::WORKLOADS
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.clamp(1, 60),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A traced run measures the workload twice, untraced and traced, and
    // holds one span per client call, so it runs a shorter horizon.
    let seconds = if args.trace {
        args.seconds.div_ceil(TRACE_HORIZON_DIVISOR)
    } else {
        args.seconds
    };
    let workload = gen::generate(&args.workload, args.seed, seconds, gen::Scale::FULL)
        .expect("workload name was validated");
    let lines = report::bench(&workload, args.seed, args.seconds, args.trace);
    for line in lines {
        println!("{line}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload read_mostly --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "read_mostly".into(),
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload read_mostly --seconds 1")).is_err());
        assert!(parse_args(&argv(
            "--workload read_mostly --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }
}
