//! `fbuf-fuzz`: long seeded lockstep campaigns against the reference
//! model, with automatic shrinking of divergences.
//!
//! Each case is one seed: it fixes the command stream, the fault plan
//! (which sites can fail, how often, whether a domain crash is
//! scheduled), and therefore the whole execution on both sides of the
//! differ (`fbuf_model::Harness`). A campaign runs many cases; any
//! divergence is shrunk to a 1-minimal failing subsequence and written
//! to the corpus directory as a replayable `.case` file, and the run
//! exits nonzero.
//!
//! Environment knobs:
//!
//! * `FBUF_FUZZ_CASES` — cases per campaign (default 64);
//! * `FBUF_FUZZ_CMDS`  — commands per case (default 200);
//! * `FBUF_FUZZ_SEED`  — campaign seed (default a fixed constant, so CI
//!   runs are reproducible; set a fresh value to explore);
//! * `FBUF_FUZZ_CORPUS` — where to write shrunk failures (default
//!   `tests/corpus` under the current directory);
//! * `FBUF_FUZZ_ADV` — hostile personas overlaid on every case's
//!   command stream (default 0 = benign). Nonzero arms the harness's
//!   containment machinery (quota jail, revocation, token defense) and
//!   records `adv` in any shrunk corpus case so replay is bit-identical.
//!
//! Replay mode: `fbuf-fuzz --replay <dir>` re-runs every `*.case` file
//! in `<dir>` and fails if any of them diverges — the regression gate
//! that keeps once-found bugs fixed forever.

use std::path::Path;
use std::process::ExitCode;

use fbuf_bench::knobs;
use fbuf_model::fuzz;

fn replay_dir(dir: &Path) -> ExitCode {
    let mut entries: Vec<_> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "case"))
            .collect(),
        Err(e) => {
            eprintln!("fbuf-fuzz: cannot read {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    entries.sort();
    if entries.is_empty() {
        eprintln!("fbuf-fuzz: no .case files in {}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut bad = 0;
    for path in &entries {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fbuf-fuzz: {}: {e}", path.display());
                bad += 1;
                continue;
            }
        };
        let case = match fuzz::parse_corpus(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("fbuf-fuzz: {}: malformed: {e}", path.display());
                bad += 1;
                continue;
            }
        };
        match fuzz::replay(&case, None) {
            Ok(out) => println!(
                "replay {} — OK ({} commands, seed {:#x})",
                path.file_name().unwrap_or_default().to_string_lossy(),
                out.commands,
                case.seed
            ),
            Err(fail) => {
                eprintln!(
                    "replay {} — DIVERGED at command {}: {}",
                    path.display(),
                    fail.fail_index,
                    fail.message
                );
                bad += 1;
            }
        }
    }
    if bad > 0 {
        eprintln!("fbuf-fuzz: {bad}/{} corpus case(s) failed", entries.len());
        ExitCode::FAILURE
    } else {
        println!("fbuf-fuzz: all {} corpus case(s) clean", entries.len());
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--replay") {
        let Some(dir) = args.get(1) else {
            eprintln!("usage: fbuf-fuzz --replay <corpus-dir>");
            return ExitCode::FAILURE;
        };
        return replay_dir(Path::new(dir));
    }

    let cases = knobs::read("FBUF_FUZZ_CASES", knobs::parse_u64).unwrap_or(64) as usize;
    let cmds = knobs::read("FBUF_FUZZ_CMDS", knobs::parse_u64).unwrap_or(200) as usize;
    let seed = knobs::read("FBUF_FUZZ_SEED", knobs::parse_u64).unwrap_or(0xfb0f_5eed_2026_0801);
    let corpus = std::env::var("FBUF_FUZZ_CORPUS").unwrap_or_else(|_| "tests/corpus".into());
    let adv = knobs::read("FBUF_FUZZ_ADV", knobs::parse_u64).unwrap_or(0) as u32;

    println!("fbuf-fuzz: {cases} case(s) × {cmds} command(s), seed {seed:#x}, adv {adv}");
    let report = fuzz::campaign(seed, cases, cmds, None, adv);
    println!(
        "fbuf-fuzz: {} command(s) executed across {} case(s)",
        report.commands, report.cases
    );
    println!("faults injected:");
    for line in report.injected_lines() {
        println!("{line}");
    }
    if report.failures.is_empty() {
        println!("fbuf-fuzz: zero divergences");
        return ExitCode::SUCCESS;
    }

    for (case_seed, fail) in &report.failures {
        eprintln!(
            "fbuf-fuzz: case seed {case_seed:#x} DIVERGED at command {}: {}",
            fail.fail_index, fail.message
        );
        let keep = fuzz::shrink(*case_seed, cmds, fail, None, adv);
        eprintln!("fbuf-fuzz: shrunk to {} command(s): {keep:?}", keep.len());
        let note = format!(
            "found by campaign seed {seed:#x}\ndiverged: {}",
            fail.message
        );
        let entry = fuzz::corpus_entry(*case_seed, cmds, Some(&keep), &note, adv);
        let dir = Path::new(&corpus);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("fbuf-fuzz: cannot create {}: {e}", dir.display());
            continue;
        }
        let file = dir.join(format!("fuzz-{case_seed:016x}.case"));
        match std::fs::write(&file, entry) {
            Ok(()) => eprintln!("fbuf-fuzz: wrote {}", file.display()),
            Err(e) => eprintln!("fbuf-fuzz: cannot write {}: {e}", file.display()),
        }
    }
    eprintln!(
        "fbuf-fuzz: {} divergence(s) in {} case(s)",
        report.failures.len(),
        report.cases
    );
    ExitCode::FAILURE
}
