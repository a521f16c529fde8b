//! `ss-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). Progress and sample counts go to standard error. Store
//! files live under `.bench_work/` in the working directory and are
//! removed at exit.

use ss_perfbench::workload::{self, Config, Workload};
use std::path::PathBuf;

const USAGE: &str = "usage: ss-perfbench --workload <serve-hot|serve-cold|rw-mixed|ingest> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(Config, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("bad --seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let dir =
        PathBuf::from(".bench_work").join(format!("{}-{}", workload.name(), std::process::id()));
    Ok((
        Config {
            workload,
            seed,
            seconds: seconds.unwrap_or(20.0),
            dir,
        },
        trace.unwrap_or(false),
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, trace) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "workload {} seed {} seconds {} trace {} ({} cores)",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    if let Err(e) = std::fs::create_dir_all(&cfg.dir) {
        eprintln!("creating {}: {e}", cfg.dir.display());
        std::process::exit(1);
    }
    let result = workload::run(&cfg, trace);
    let _ = std::fs::remove_dir_all(&cfg.dir);
    let _ = std::fs::remove_dir(".bench_work");
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    };
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("metric {} is not a finite number", m.name);
        std::process::exit(1);
    }
    for b in &out.broken {
        eprintln!("check failed: {b}");
    }
    println!("{}", out.json());
}
