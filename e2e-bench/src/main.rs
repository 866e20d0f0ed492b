//! `chason-e2e`: the end-to-end (`run --trace 0`) and per-layer
//! (`run --trace 1`) benchmark of `chason serve` and `chason route`, the
//! `capacity` probe of the open-loop mix, and the `agree` check between
//! two result sets. See `README.md` beside this crate.

use chason_e2e_bench::json::{self, Json};
use chason_e2e_bench::report::{
    agree, end_to_end, layer_table, per_layer, read_bounds, record, render, render_rows,
    result_line, run_entry, verdict, END_TO_END, PER_LAYER,
};
use chason_e2e_bench::workload::{Scale, Workload, OPEN_LOOP_RPS};
use chason_e2e_bench::{run, Host, Options};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  chason-e2e [run] [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
             [--runs N] [--out FILE] [--spans DIR] [--small]
  chason-e2e capacity [--seed N] [--seconds S] [--small]
  chason-e2e agree A.json B.json [--benchmark BENCHMARK.json]

workloads: sim-spmv, pipelined-cpu, update-mix-open, sharded-spmv (default: all,
with their rounds interleaved). --trace 0 (the default) measures the end-to-end
metrics; --trace 1 is the traced run, which measures the per-layer ones. The
last line of output is the result of the last workload as one JSON object.
--runs N repeats the whole run with N consecutive seeds from --seed; --out
writes every run to a result set that `agree` compares.";

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("chason-e2e: {e}");
            ExitCode::from(2)
        }
    }
}

struct Args {
    command: String,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    out: Option<PathBuf>,
    spans: PathBuf,
    small: bool,
    benchmark: PathBuf,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: "run".to_string(),
        workloads: Vec::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        runs: 1,
        out: None,
        spans: PathBuf::from("e2e-bench/out"),
        small: false,
        benchmark: PathBuf::from("BENCHMARK.json"),
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1).peekable();
    if let Some(first) = it.peek().filter(|a| !a.starts_with("--")) {
        args.command = first.clone();
        it.next();
    }
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |flag: &str, text: String| {
            text.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v > 0.0)
                .ok_or_else(|| format!("{flag} takes a positive number, got {text:?}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workloads.push(
                    Workload::parse(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?,
                );
            }
            "--seed" => {
                let text = value("--seed")?;
                args.seed = text
                    .parse()
                    .map_err(|_| format!("--seed takes an integer, got {text:?}"))?;
            }
            "--seconds" => args.seconds = number("--seconds", value("--seconds")?)?,
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--runs" => args.runs = number("--runs", value("--runs")?)? as u64,
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--spans" => args.spans = PathBuf::from(value("--spans")?),
            "--benchmark" => args.benchmark = PathBuf::from(value("--benchmark")?),
            "--small" => args.small = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if !other.starts_with("--") => args.files.push(PathBuf::from(other)),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = Workload::ALL.to_vec();
    }
    Ok(args)
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    match args.command.as_str() {
        "run" => measure(&args),
        "capacity" => capacity(&args),
        "agree" => agree_sets(&args),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

fn read_json(path: &PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn measure(args: &Args) -> Result<ExitCode, String> {
    let traced = args.trace;
    let host = Host::read();
    host.check()?;
    let mut all_correct = true;
    let mut entries = Vec::new();
    for i in 0..args.runs {
        let options = Options {
            workloads: args.workloads.clone(),
            seed: args.seed + i,
            seconds: args.seconds,
            traced,
            scale: if args.small {
                Scale::Small
            } else {
                Scale::Full
            },
            closed_loop: false,
            spans_dir: traced.then(|| args.spans.clone()),
        };
        let runs = run(&options)?;
        let host = Host::read();
        let mut records = Vec::new();
        for run in &runs {
            let e2e = end_to_end(run);
            println!("{}", render(run, &host, args.seconds, &e2e));
            let layers = if traced { per_layer(run) } else { Vec::new() };
            if traced {
                println!(
                    "per-layer metrics (traced rounds)\n{}",
                    render_rows(&layers)
                );
                if let Some(table) = layer_table(run) {
                    println!("{table}");
                }
            }
            all_correct &= verdict(run).0;
            let line = if traced {
                result_line(run, &layers, &PER_LAYER)
            } else {
                result_line(run, &e2e, &END_TO_END)
            };
            match line {
                Ok(line) => println!("{line}"),
                Err(e) => {
                    eprintln!("chason-e2e: {e}");
                    all_correct = false;
                }
            }
            let name = run.workload.name().to_string();
            records.push((name, record(run, &[e2e, layers].concat())));
        }
        entries.push(run_entry(options.seed, &host, records));
    }
    if let Some(path) = &args.out {
        let set = Json::Obj(vec![
            ("benchmark".to_string(), Json::Str("chason-e2e".to_string())),
            ("seconds".to_string(), Json::Num(args.seconds)),
            ("traced".to_string(), Json::Bool(traced)),
            ("runs".to_string(), Json::Arr(entries)),
        ]);
        std::fs::write(path, set.render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("chason-e2e: wrote {}", path.display());
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Drives `update-mix-open`'s request mix in a closed loop (both
/// connections, 32 in flight each) and reports how far below the
/// resulting capacity the open loop's fixed rate sits.
fn capacity(args: &Args) -> Result<ExitCode, String> {
    let host = Host::read();
    host.check()?;
    let options = Options {
        workloads: vec![Workload::UpdateMixOpen],
        seed: args.seed,
        seconds: args.seconds,
        traced: false,
        scale: if args.small {
            Scale::Small
        } else {
            Scale::Full
        },
        closed_loop: true,
        spans_dir: None,
    };
    let runs = run(&options)?;
    let mut ok = true;
    for run in &runs {
        let metrics = end_to_end(run);
        println!("{}", render(run, &host, args.seconds, &metrics));
        ok &= verdict(run).0;
        if let Some(rps) = metrics.iter().find(|m| m.name == "throughput_rps") {
            println!(
                "closed-loop capacity {:.2} req/s; the open loop offers {OPEN_LOOP_RPS} req/s = {:.1}% of it",
                rps.value,
                OPEN_LOOP_RPS / rps.value * 100.0
            );
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn agree_sets(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.files.as_slice() else {
        return Err(format!("agree takes two result sets\n{USAGE}"));
    };
    let bounds = read_bounds(&read_json(&args.benchmark)?)?;
    let (report, ok) = agree(&read_json(a)?, &read_json(b)?, &bounds)?;
    print!("{report}");
    println!("{}", if ok { "agree: yes" } else { "agree: NO" });
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
