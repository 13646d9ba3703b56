//! The repo benchmark. See `README.md` next to this package and
//! `BENCHMARK.json` at the repo root.
//!
//! With `--workload W` this process runs that one workload and prints
//! the driver's JSON result as its last line. Without it, it runs itself
//! once per workload (so each gets its own peak RSS) and passes the
//! output through; `--repeat-check` and `--quick` build on that.

mod check;
mod drive;
mod e2e;
mod host;
mod input;
mod onion;
mod oracle;
mod report;
mod stats;
mod wire;

use std::process::ExitCode;

use input::Workload;

pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub traced: bool,
    pub scale: u64,
    pub repeat_check: bool,
    pub quick: bool,
}

const USAGE: &str = "usage: benchmark/run.sh [--workload point_read|scan_join|closure|write_mix] \
                     [--seed N] [--seconds S] [--trace 0|1 | --traced] [--repeat-check] [--quick]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        traced: false,
        scale: input::SCALE,
        repeat_check: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::from_name(&name)
                        .ok_or(format!("unknown workload `{name}`\n{USAGE}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s.is_nan() || s < 1.0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => args.traced = value()? == "1",
            "--traced" => args.traced = true,
            "--scale" => args.scale = value()?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--repeat-check" => args.repeat_check = true,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let manifest = report::check_manifest()?;
    std::fs::create_dir_all(host::OUT_DIR).map_err(|e| format!("{}: {e}", host::OUT_DIR))?;
    let Some(workload) = args.workload else {
        return check::run_all(&args, &manifest);
    };
    let seconds = args.seconds.unwrap_or(manifest.run_seconds as f64);
    let (outcome, names) = if args.traced {
        (
            onion::run(workload, args.scale, args.seed, seconds)?,
            report::layer_names(),
        )
    } else {
        (
            e2e::run(workload, args.scale, args.seed, seconds)?,
            report::gated_names(),
        )
    };
    outcome.print(workload);
    if !outcome.invalid.is_empty() {
        return Ok(false);
    }
    println!("{}", outcome.json_line(&names));
    Ok(true)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
