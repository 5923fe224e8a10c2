//! `vdsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress and check failures on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed`, `metrics`.

use std::process::ExitCode;

use vdsbench::workloads::{Size, WORKLOADS};
use vdsbench::{run, Options};

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::full(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag}` takes {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("vdsbench: {e}");
            return ExitCode::from(2);
        }
    };
    std::panic::set_hook(Box::new(|info| {
        eprintln!("vdsbench: panic: {info}");
    }));
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("vdsbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "vdsbench: {} seed {}: simulated-statistics digest {}",
        opts.workload,
        opts.seed,
        outcome.sim.sim_digest()
    );
    if let Some(spans) = &outcome.spans {
        let dir = std::path::Path::new(".vdsbench");
        let path = dir.join(format!("{}-seed{}.spans.jsonl", opts.workload, opts.seed));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans)) {
            eprintln!("vdsbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
