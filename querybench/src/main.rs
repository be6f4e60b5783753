//! `querybench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric, then the result as one JSON line. Exits 1
//! when an answer is wrong (or, traced, when a latency split fails its sum
//! check) and 2 on a usage or set-up error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use querybench::data::Scale;
use querybench::report;
use querybench::run::{run, Limit, RunConfig, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or_else(|| format!("no workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => match value.as_str() {
                "0" | "1" => trace = Some(value == "1"),
                _ => return Err(format!("--trace takes 0 or 1, got {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |what| format!("missing {what}");
    let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("querybench: {e}");
            return ExitCode::from(2);
        }
    };
    let bench_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let name = args.workload.name();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = RunConfig {
        workload: args.workload,
        seed: args.seed,
        scale: Scale::FULL,
        limit: Limit::Time(Duration::from_secs_f64(args.seconds)),
        trace: args.trace,
        work_dir: bench_dir.join("work").join(format!(
            "{name}-{}-{}",
            args.seed,
            std::process::id()
        )),
        threads,
    };
    let out = match run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("querybench: {e}");
            return ExitCode::from(2);
        }
    };

    let metrics = if args.trace { report::per_layer(&out) } else { report::end_to_end(&out) };
    println!("workload {name}, seed {}, nproc {threads}, engine parallelism {threads}", args.seed);
    for m in &metrics {
        let note = if m.note.is_empty() { String::new() } else { format!("  ({})", m.note) };
        println!("{:<34} {:>16.6} {}{note}", m.name, m.value, m.unit);
    }
    let mut ok = out.records.iter().all(|r| r.correct) && !out.records.is_empty();
    if args.trace {
        let spans = bench_dir.join("out").join(format!("spans-{name}-{}.jsonl", args.seed));
        let written = std::fs::create_dir_all(spans.parent().expect("spans file has a parent"))
            .and_then(|_| std::fs::write(&spans, report::spans_jsonl(&out)));
        if let Err(e) = written {
            eprintln!("querybench: writing {}: {e}", spans.display());
        }
        let failures = out.records.iter().filter(|r| !r.sum_check()).count();
        if failures > 0 {
            eprintln!("querybench: {failures} latency splits failed the sum check");
            ok = false;
        }
    }
    println!("{}", report::json_line(&out, &metrics));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
