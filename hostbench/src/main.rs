//! Command line of the host-time benchmark:
//!
//! ```text
//! hostbench --workload <cached-fleet|paper-repro|zipf-fanin> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints progress to stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and the metrics (end-to-end
//! untraced, per-layer traced). A traced run also writes the spans it
//! kept to `hostbench/out/spans-<workload>.jsonl`.

use std::process::ExitCode;

use hostbench::{fanin, fleet, repro, result_json, spans_jsonl, Opts, WORKLOADS};

fn parse() -> Result<(String, Opts), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (want one of {WORKLOADS:?})"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(0.0..=3600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace {t:?} (want 0 or 1)")),
    };
    Ok((
        workload,
        Opts {
            seed,
            seconds,
            trace,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "hostbench: {workload} seed {} for {} s, trace {}",
        opts.seed, opts.seconds, opts.trace
    );
    let out = match workload.as_str() {
        "cached-fleet" => fleet::run(&opts, &fleet::Params::default()),
        "paper-repro" => repro::run(&opts, false),
        _ => fanin::run(&opts, &fanin::Params::default()),
    };
    for p in &out.problems {
        eprintln!("hostbench: FAILED: {p}");
    }
    if opts.trace {
        let dir = std::path::Path::new("hostbench/out");
        let file = dir.join(format!("spans-{workload}.jsonl"));
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&file, spans_jsonl(&out.spans)))
        {
            eprintln!("hostbench: could not write {}: {e}", file.display());
        }
    }
    println!("{}", result_json(&out, opts.trace));
    ExitCode::SUCCESS
}
