//! `chason` — command-line front end for the Chasoň sparse-acceleration
//! simulator.
//!
//! ```text
//! chason schedule <matrix.mtx> [--scheduler crhcs|pe-aware|row-based]
//!                              [--channels 16] [--pes 8] [--distance 10]
//!                              [--hops 1]
//! chason run <matrix.mtx>      [--engine chason|serpens] [--iterations 1]
//! chason compare <matrix.mtx>  # both engines side by side
//! chason generate <recipe> <out.mtx> --n 4096 --nnz 60000 [--alpha 1.7]
//!                              [--bandwidth 8] [--dense-rows 4] [--seed 1]
//! chason catalog               # the Table 2 evaluation matrices
//! ```

mod args;
mod bench;
mod commands;
mod service;

use args::Args;
use std::process::ExitCode;

const USAGE: &str = "\
chason — Chasoň sparse-acceleration simulator

USAGE:
  chason schedule <matrix.mtx> [--scheduler crhcs|pe-aware|row-based]
                               [--channels N] [--pes N] [--distance D] [--hops H] [--insights]
  chason run <matrix.mtx>      [--engine chason|serpens]
  chason compare <matrix.mtx>
  chason profile <matrix.mtx>  [--trace FILE] [--assert-reclaim]
                               # per-unit cycle attribution, Chason vs Serpens
  chason solve <matrix.mtx>      [--solver cg|jacobi] [--engine chason|serpens|cpu]
                               [--max-iterations N] [--tolerance T]
  chason export <matrix.mtx> <out.chsn>   # offline CrHCS -> binary artifact
  chason inspect <file.chsn>
  chason verify <matrix.mtx>   [--scheduler crhcs|pe-aware|row-based]
                               [--channels N] [--pes N] [--distance D] [--hops H]
                               [--corrupt KIND]   # static rule checker (S001-S006,
                               P001, R001); exits non-zero on violations
  chason conformance           [--corpus small|extended] [--fuzz N] [--deltas N]
                               [--seed S] [--fixtures DIR] [--artifacts DIR]
                               # differential cross-engine harness, schedule
                               fuzzer, and delta-splice oracles (spliced plans
                               must equal from-scratch plans); exits non-zero
                               on violations or escapes
  chason generate <recipe> <out.mtx> --n N --nnz NNZ
                               [--alpha A] [--bandwidth W] [--dense-rows D] [--seed S]
                               (recipes: uniform, powerlaw, banded, arrow)
  chason catalog
  chason serve                 [--addr HOST:PORT] [--workers N] [--queue N]
                               [--plan-cache N] [--matrix-cache N]
                               [--retry-after-ms MS] [--channels N] [--pes N]
                               # CHSP daemon; runs until a Shutdown request;
                               serves every connection from one
                               readiness-driven event loop
  chason route                 --shards HOST:PORT,HOST:PORT,... [--addr HOST:PORT]
                               [--workers N] [--queue N] [--matrix-cache N]
                               [--retry-attempts N] [--health-interval-ms MS]
                               [--shutdown-shards]
                               # scatter-gather CHSP frontend over N serve shards;
                               --shutdown-shards forwards a wire Shutdown to
                               every backend before draining
  chason client <op>           stats | metrics | load <m.mtx> | spmv <m.mtx>
                               | solve <m.mtx> | plan <m.mtx> [--out FILE]
                               | update <m.mtx> [--insert \"r,c,v[;...]\"]
                                 [--revalue \"r,c,v[;...]\"] [--delete \"r,c[;...]\"]
                               | shutdown
                               [--addr HOST:PORT] [--engine E] [--solver S]
                               [--retries N]   # back off and resend on Busy
  chason loadgen               [--addr HOST:PORT] [--connections N] [--requests M]
                               [--seed S] [--format text|json] [--report FILE]
                               [--require-hits] [--churn PCT] [--router]
                               [--pipeline DEPTH] [--open-loop RPS]
                               # deterministic load generator; closed-loop by
                               default, --pipeline keeps up to DEPTH requests
                               in flight per connection, --open-loop sends on a
                               fixed aggregate schedule instead of waiting;
                               --churn sends that percentage as matrix deltas;
                               --router targets a chason route frontend and
                               reports per-shard balance + gather percentiles
  chason bench                 [--profile smoke|full] [--name NAME] [--out DIR]
                               [--filter SUBSTR] [--baseline FILE] [--current FILE]
                               [--threshold PCT]
                               # wall-clock benchmarks -> BENCH_<name>.json;
                               with --baseline, gates on regressions

Matrices are MatrixMarket coordinate files (real/integer/pattern,
general/symmetric).";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(_) => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_str() {
        "schedule" => commands::schedule(&args),
        "run" => commands::run(&args),
        "compare" => commands::compare(&args),
        "profile" => commands::profile(&args),
        "solve" => commands::solve(&args),
        "export" => commands::export(&args),
        "inspect" => commands::inspect(&args),
        "verify" => commands::verify(&args),
        "conformance" => commands::conformance(&args),
        "generate" => commands::generate(&args),
        "catalog" => commands::catalog(),
        "bench" => bench::bench(&args),
        "serve" => service::serve(&args),
        "route" => service::route(&args),
        "client" => service::client(&args),
        "loadgen" => service::run_loadgen(&args),
        "help" | "--help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
