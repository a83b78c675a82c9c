//! Command-line entry of the benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a stamp line (machine, toolchain, commit, seed, worker counts),
//! every metric by name with its unit, and as the last line one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`. Exits 0
//! when every checked answer was right, 1 when one was not, 2 on a usage
//! error.

use aiac_perfbench::measure;
use aiac_perfbench::workloads::{self, pool_workers, RunSpec, Size, Workload};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: paper-grid, pool-ring, service-open, trace-check";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<RunSpec, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut traced = false;
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunSpec {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
        size: Size::Full,
    })
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// One line that identifies where and how the result was measured.
fn stamp(spec: &RunSpec) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let caches: Vec<String> = measure::caches()
        .iter()
        .map(|c| json_str(&format!("L{} {} {} KiB", c.level, c.kind, c.bytes >> 10)))
        .collect();
    format!(
        "stamp {{\"workload\": {}, \"traced\": {}, \"seed\": {}, \"seconds\": {}, \
         \"nproc\": {}, \"cpu\": {}, \"caches\": [{}], \"rustc\": {}, \"commit\": {}, \
         \"workers\": {{\"pool\": {}, \"service\": {}, \"simulated\": 1, \"sequential\": 1}}}}",
        json_str(spec.workload.name()),
        spec.traced,
        spec.seed,
        spec.seconds,
        measure::nproc(),
        json_str(&measure::cpu_model()),
        caches.join(", "),
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(&env("PERFBENCH_COMMIT")),
        pool_workers(),
        measure::nproc(),
    )
}

fn main() {
    let spec = match parse(std::env::args().skip(1)) {
        Ok(spec) => spec,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("{}", stamp(&spec));
    let outcome = workloads::run(&spec);
    println!(
        "{} ({} metrics):",
        spec.workload.name(),
        if spec.traced {
            "per-layer"
        } else {
            "end-to-end"
        }
    );
    print!("{}", outcome.render_listing(spec.traced));
    let missing = outcome.missing(spec.traced);
    if !missing.is_empty() {
        eprintln!("perfbench: metrics never measured: {missing:?}");
    }
    println!("{}", outcome.render_json(spec.traced));
    if !outcome.correct(spec.traced) {
        std::process::exit(1);
    }
}
