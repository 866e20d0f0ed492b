//! `chason serve` / `chason route` / `chason client` / `chason loadgen` —
//! the CHSP service front ends.

use crate::args::Args;
use crate::commands::scheduler_config;
use chason_router::{Router, RouterConfig};
use chason_serve::client::{Client, ClientError, RetryPolicy};
use chason_serve::loadgen::{self, LoadgenOptions};
use chason_serve::proto::{Engine, SolverKind};
use chason_serve::server::{ServeConfig, Server};
use chason_sparse::market::read_matrix_market;
use chason_sparse::CooMatrix;
use std::fs::File;
use std::io::Write;
use std::time::Duration;

fn parse_engine(args: &Args) -> Result<Engine, String> {
    let name = args.get("engine").unwrap_or("chason");
    Engine::from_name(name).ok_or_else(|| format!("unknown engine '{name}'"))
}

fn read_positional_matrix(args: &Args, index: usize) -> Result<CooMatrix, String> {
    let path = args
        .positional
        .get(index)
        .ok_or_else(|| "expected a MatrixMarket file path".to_string())?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_matrix_market(file).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// The [`ServeConfig`] a `chason serve` command line asks for. Every
/// fallback but the listen address is [`ServeConfig::default`]'s.
fn serve_config(args: &Args) -> Result<ServeConfig, String> {
    if args.has_flag("plan-cache") {
        // Each resident matrix holds its own plans, so one bound covers both.
        return Err("--plan-cache was removed; --matrix-cache bounds the plans".to_string());
    }
    let defaults = ServeConfig::default();
    Ok(ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7477").to_string(),
        workers: args.get_or("workers", defaults.workers)?,
        queue_capacity: args.get_or("queue", defaults.queue_capacity)?,
        matrix_cache_capacity: args.get_or("matrix-cache", defaults.matrix_cache_capacity)?,
        idle_timeout: Duration::from_secs(
            args.get_or("idle-timeout-secs", defaults.idle_timeout.as_secs())?,
        ),
        retry_after_ms: args.get_or("retry-after-ms", defaults.retry_after_ms)?,
        sched: scheduler_config(args)?,
        ..defaults
    })
}

/// `chason serve` — run the CHSP daemon until a `Shutdown` request
/// arrives.
pub fn serve(args: &Args) -> Result<(), String> {
    let config = serve_config(args)?;
    let server = Server::start(config).map_err(|e| format!("cannot start server: {e}"))?;
    println!("chason serve listening on {}", server.local_addr());
    // The line above is how scripts discover an ephemeral port; make sure
    // it is visible before we block.
    std::io::stdout()
        .flush()
        .map_err(|e| format!("stdout: {e}"))?;
    server.join();
    println!("chason serve drained and exited");
    Ok(())
}

/// `chason route` — scatter-gather CHSP frontend over N backend shards;
/// runs until a `Shutdown` request arrives (forwarded to every shard
/// when `--shutdown-shards` is set).
pub fn route(args: &Args) -> Result<(), String> {
    let shards: Vec<String> = args
        .get("shards")
        .unwrap_or("")
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if shards.is_empty() {
        return Err("route needs --shards HOST:PORT,HOST:PORT,...".to_string());
    }
    // Every fallback but the listen address is `RouterConfig::default()`'s.
    let defaults = RouterConfig::default();
    let config = RouterConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7478").to_string(),
        shards,
        workers: args.get_or("workers", defaults.workers)?,
        queue_capacity: args.get_or("queue", defaults.queue_capacity)?,
        matrix_cache_capacity: args.get_or("matrix-cache", defaults.matrix_cache_capacity)?,
        retry_after_ms: args.get_or("retry-after-ms", defaults.retry_after_ms)?,
        shard_retry: RetryPolicy {
            max_attempts: args.get_or("retry-attempts", defaults.shard_retry.max_attempts)?,
            ..defaults.shard_retry
        },
        health_interval: Duration::from_millis(args.get_or(
            "health-interval-ms",
            defaults.health_interval.as_millis() as u64,
        )?),
        shutdown_shards: args.has_flag("shutdown-shards"),
        ..defaults
    };
    let router = Router::start(config).map_err(|e| format!("cannot start router: {e}"))?;
    println!("chason route listening on {}", router.local_addr());
    // The line above is how scripts discover an ephemeral port; make sure
    // it is visible before we block.
    std::io::stdout()
        .flush()
        .map_err(|e| format!("stdout: {e}"))?;
    router.join();
    println!("chason route drained and exited");
    Ok(())
}

fn connect(args: &Args) -> Result<Client, String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7477");
    let client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let retries = args.get_or("retries", 0u32)?;
    Ok(if retries > 0 {
        client.with_retry(Some(RetryPolicy {
            max_attempts: retries,
            ..RetryPolicy::default()
        }))
    } else {
        client
    })
}

/// Renders a client error for the terminal, surfacing the server's
/// back-off hint on `Busy` instead of a generic failure string.
fn describe(err: ClientError) -> String {
    match err {
        ClientError::Busy { retry_after_ms } => format!(
            "server busy — retry after {retry_after_ms} ms \
             (pass --retries N to back off and retry automatically)"
        ),
        ClientError::RetriesExhausted {
            attempts,
            retry_after_ms,
        } => format!(
            "server still busy after {attempts} attempts — last hint: \
             retry after {retry_after_ms} ms"
        ),
        other => other.to_string(),
    }
}

/// Parses a `;`-separated list of `row,col,value` triplets
/// (e.g. `--insert "0,5,1.5;2,7,-3.25"`).
fn parse_triplets(spec: &str) -> Result<Vec<(u64, u64, f32)>, String> {
    spec.split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            let parts: Vec<&str> = s.split(',').map(str::trim).collect();
            let [r, c, v] = parts.as_slice() else {
                return Err(format!("expected row,col,value in '{s}'"));
            };
            Ok((
                r.parse()
                    .map_err(|_| format!("invalid row '{r}' in '{s}'"))?,
                c.parse()
                    .map_err(|_| format!("invalid col '{c}' in '{s}'"))?,
                v.parse()
                    .map_err(|_| format!("invalid value '{v}' in '{s}'"))?,
            ))
        })
        .collect()
}

/// Parses a `;`-separated list of `row,col` coordinates
/// (e.g. `--delete "0,5;2,7"`).
fn parse_coords(spec: &str) -> Result<Vec<(u64, u64)>, String> {
    spec.split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            let parts: Vec<&str> = s.split(',').map(str::trim).collect();
            let [r, c] = parts.as_slice() else {
                return Err(format!("expected row,col in '{s}'"));
            };
            Ok((
                r.parse()
                    .map_err(|_| format!("invalid row '{r}' in '{s}'"))?,
                c.parse()
                    .map_err(|_| format!("invalid col '{c}' in '{s}'"))?,
            ))
        })
        .collect()
}

/// `chason client <op>` — one-shot CHSP requests against a running
/// server.
pub fn client(args: &Args) -> Result<(), String> {
    let op = args.positional.first().map(String::as_str).ok_or_else(|| {
        "expected an operation: stats | metrics | load | spmv | solve | plan | update | shutdown"
            .to_string()
    })?;
    let mut client = connect(args)?;
    match op {
        "stats" => {
            let snapshot = client.stats().map_err(describe)?;
            print!("{}", snapshot.render_table());
        }
        "metrics" => {
            let text = client.metrics().map_err(describe)?;
            print!("{text}");
        }
        "load" => {
            let matrix = read_positional_matrix(args, 1)?;
            let (handle, fresh) = client.load_matrix(&matrix).map_err(describe)?;
            println!(
                "handle {handle:#018x} ({}, {} x {}, {} nnz)",
                if fresh { "fresh" } else { "already resident" },
                matrix.rows(),
                matrix.cols(),
                matrix.nnz()
            );
        }
        "spmv" => {
            let matrix = read_positional_matrix(args, 1)?;
            let engine = parse_engine(args)?;
            let (handle, _) = client.load_matrix(&matrix).map_err(describe)?;
            let x = vec![1.0f32; matrix.cols()];
            let (y, service_micros, simulated_nanos) =
                client.spmv(handle, engine, x).map_err(describe)?;
            let checksum: f64 = y.iter().map(|&v| v as f64).sum();
            println!("engine        : {}", engine.name());
            println!("y checksum    : {checksum:.6}");
            println!("service time  : {service_micros} us");
            println!("modeled time  : {simulated_nanos} ns");
        }
        "solve" => {
            let matrix = read_positional_matrix(args, 1)?;
            let engine = parse_engine(args)?;
            let solver_name = args.get("solver").unwrap_or("cg");
            let solver = SolverKind::from_name(solver_name)
                .ok_or_else(|| format!("unknown solver '{solver_name}'"))?;
            let max_iterations = args.get_or("max-iterations", 500u32)?;
            let tolerance = args.get_or("tolerance", 1e-6f64)?;
            let (handle, _) = client.load_matrix(&matrix).map_err(describe)?;
            let b = vec![1.0f32; matrix.rows()];
            let outcome = client
                .solve(handle, engine, solver, max_iterations, tolerance, b)
                .map_err(describe)?;
            println!("solver        : {} on {}", solver.name(), engine.name());
            println!(
                "converged     : {} after {} iterations (residual {:.3e})",
                outcome.converged, outcome.iterations, outcome.residual
            );
            println!("service time  : {} us", outcome.service_micros);
            println!("modeled time  : {} ns", outcome.simulated_nanos);
        }
        "plan" => {
            let matrix = read_positional_matrix(args, 1)?;
            let engine = parse_engine(args)?;
            let (handle, _) = client.load_matrix(&matrix).map_err(describe)?;
            let bytes = client.plan(handle, engine).map_err(describe)?;
            match args.get("out") {
                Some(path) => {
                    std::fs::write(path, &bytes)
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    println!("wrote {} CHPL bytes to {path}", bytes.len());
                }
                None => println!(
                    "plan artifact: {} CHPL bytes (use --out FILE to save)",
                    bytes.len()
                ),
            }
        }
        "update" => {
            let matrix = read_positional_matrix(args, 1)?;
            let inserts = args
                .get("insert")
                .map(parse_triplets)
                .transpose()?
                .unwrap_or_default();
            let revalues = args
                .get("revalue")
                .map(parse_triplets)
                .transpose()?
                .unwrap_or_default();
            let deletes = args
                .get("delete")
                .map(parse_coords)
                .transpose()?
                .unwrap_or_default();
            if inserts.is_empty() && revalues.is_empty() && deletes.is_empty() {
                return Err(
                    "update needs at least one --insert r,c,v / --revalue r,c,v / --delete r,c"
                        .to_string(),
                );
            }
            // Loading is idempotent: if the matrix is already resident this
            // just resolves the handle of its current lineage.
            let (handle, _) = client.load_matrix(&matrix).map_err(describe)?;
            let outcome = client
                .update(handle, inserts, revalues, deletes)
                .map_err(describe)?;
            println!("handle        : {handle:#018x}");
            println!("version       : {}", outcome.version);
            println!("nnz           : {}", outcome.nnz);
            println!(
                "plans spliced : {} ({}/{} windows replanned)",
                outcome.plans_spliced, outcome.windows_replanned, outcome.windows_total
            );
        }
        "shutdown" => {
            client.shutdown().map_err(describe)?;
            println!("server acknowledged shutdown");
        }
        other => return Err(format!("unknown client operation '{other}'")),
    }
    Ok(())
}

/// `chason loadgen` — deterministic load against a CHSP server (or an
/// in-process one when `--addr` is omitted): closed-loop by default,
/// pipelined with `--pipeline DEPTH`, open-loop with `--open-loop RPS`.
pub fn run_loadgen(args: &Args) -> Result<(), String> {
    let churn = args.get_or("churn", 0u64)?;
    if churn > 100 {
        return Err(format!(
            "--churn {churn} is out of range (percentage, 0-100)"
        ));
    }
    let open_loop_rps = args
        .get("open-loop")
        .map(|raw| {
            raw.parse::<u64>()
                .map_err(|e| format!("--open-loop {raw}: {e}"))
        })
        .transpose()?;
    let options = LoadgenOptions {
        connections: args.get_or("connections", 4usize)?,
        requests: args.get_or("requests", 1000usize)?,
        seed: args.get_or("seed", 7u64)?,
        addr: args.get("addr").map(str::to_string),
        require_hits: args.has_flag("require-hits"),
        churn,
        router: args.has_flag("router"),
        pipeline: args.get_or("pipeline", 1usize)?,
        open_loop_rps,
    };
    let report = loadgen::run(&options)?;
    let rendered = match args.get("format").unwrap_or("text") {
        "text" => report.render(),
        "json" => {
            let mut json = report.render_json();
            json.push('\n');
            json
        }
        other => return Err(format!("unknown format '{other}' (expected text or json)")),
    };
    print!("{rendered}");
    if let Some(path) = args.get("report") {
        std::fs::write(path, &rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("report written to {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(String::from)).expect("a subcommand")
    }

    #[test]
    fn serve_falls_back_to_the_server_defaults() {
        let config = serve_config(&parse("serve")).expect("valid");
        let defaults = ServeConfig::default();
        assert_eq!(config.addr, "127.0.0.1:7477");
        assert_eq!(config.workers, defaults.workers);
        assert_eq!(config.queue_capacity, defaults.queue_capacity);
        assert_eq!(config.matrix_cache_capacity, defaults.matrix_cache_capacity);
        assert_eq!(config.idle_timeout, defaults.idle_timeout);
        assert_eq!(config.retry_after_ms, defaults.retry_after_ms);
        let config = serve_config(&parse("serve --matrix-cache 5")).expect("valid");
        assert_eq!(config.matrix_cache_capacity, 5);
    }

    #[test]
    fn serve_refuses_the_removed_plan_cache_flag() {
        let err = serve_config(&parse("serve --plan-cache 64")).expect_err("removed flag");
        assert!(err.contains("--matrix-cache"), "{err}");
    }
}
