//! In-process deployments, started through the public `Server::start` and
//! `Router::start` with their default configurations, and the cold start
//! that `setup_s` times.

use crate::reference::{Held, Reference};
use crate::workload::{Inputs, Workload};
use chason_router::{Router, RouterConfig};
use chason_serve::client::Client;
use chason_serve::{ServeConfig, Server};
use std::io;
use std::net::SocketAddr;
use std::time::Instant;

/// Backend shards behind the router of `sharded-spmv`.
pub const SHARDS: usize = 3;

enum Front {
    Serve(Server),
    Route(Router),
}

/// A running deployment: one server, or a router over [`SHARDS`] servers.
pub struct Deployment {
    front: Front,
    shards: Vec<Server>,
}

impl Deployment {
    /// Starts a server, or shards plus a router in front of them.
    ///
    /// # Errors
    ///
    /// Bind or thread-spawn failures; anything already started is stopped.
    pub fn start(sharded: bool) -> io::Result<Deployment> {
        if !sharded {
            return Ok(Deployment {
                front: Front::Serve(Server::start(ServeConfig::default())?),
                shards: Vec::new(),
            });
        }
        let mut shards = Vec::with_capacity(SHARDS);
        for _ in 0..SHARDS {
            match Server::start(ServeConfig::default()) {
                Ok(shard) => shards.push(shard),
                Err(e) => {
                    stop_servers(shards);
                    return Err(e);
                }
            }
        }
        let config = RouterConfig {
            shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
            ..RouterConfig::default()
        };
        match Router::start(config) {
            Ok(router) => Ok(Deployment {
                front: Front::Route(router),
                shards,
            }),
            Err(e) => {
                stop_servers(shards);
                Err(e)
            }
        }
    }

    /// The address clients talk to.
    pub fn addr(&self) -> SocketAddr {
        match &self.front {
            Front::Serve(server) => server.local_addr(),
            Front::Route(router) => router.local_addr(),
        }
    }

    /// The servers that execute requests: the front server, or every shard.
    pub fn serve_addrs(&self) -> Vec<SocketAddr> {
        match &self.front {
            Front::Serve(server) => vec![server.local_addr()],
            Front::Route(_) => self.shards.iter().map(Server::local_addr).collect(),
        }
    }

    /// Drains and joins every thread of the deployment.
    pub fn stop(self) {
        match self.front {
            Front::Serve(server) => stop_servers(vec![server]),
            Front::Route(router) => {
                router.shutdown();
                router.join();
            }
        }
        stop_servers(self.shards);
    }
}

fn stop_servers(servers: Vec<Server>) {
    for server in &servers {
        server.shutdown();
    }
    for server in servers {
        server.join();
    }
}

/// A deployment with every matrix loaded and every plan built.
pub struct Ready {
    /// The deployment.
    pub deployment: Deployment,
    /// Matrix handles, in input order.
    pub handles: Vec<u64>,
    /// Seconds from start to the last set-up reply.
    pub setup_s: f64,
}

/// Starts a fresh deployment, loads every matrix and answers one SpMV per
/// matrix on each engine the workload uses; the elapsed time is one
/// `setup_s` sample. Matrix uploads, request decoding, sharding and plan
/// building all land in it. The replies are checked after the clock
/// stops, so the benchmark's own reference is not part of the sample.
///
/// # Errors
///
/// Start-up failures and any wrong or failed set-up reply.
pub fn cold_start(
    workload: Workload,
    inputs: &Inputs,
    reference: &Reference,
) -> Result<Ready, String> {
    let started = Instant::now();
    let deployment = Deployment::start(workload.sharded())
        .map_err(|e| format!("deployment failed to start: {e}"))?;
    let mut setup_s = 0.0;
    let loaded = (|| {
        let mut client = Client::connect(deployment.addr())
            .map_err(|e| format!("set-up connect failed: {e}"))?;
        let mut handles = Vec::with_capacity(inputs.matrices.len());
        for matrix in &inputs.matrices {
            let (handle, fresh) = client
                .load_matrix(matrix)
                .map_err(|e| format!("LoadMatrix failed: {e}"))?;
            if !fresh {
                return Err("a fresh deployment reported the matrix already resident".to_string());
            }
            handles.push(handle);
        }
        let mut replies = Vec::new();
        for (m, &handle) in handles.iter().enumerate() {
            for &engine in workload.engines() {
                let (y, _, _) = client
                    .spmv(handle, engine, inputs.xs[0].clone())
                    .map_err(|e| format!("first {} SpMV failed: {e}", engine.name()))?;
                replies.push((m, y));
            }
        }
        setup_s = started.elapsed().as_secs_f64();
        for (m, y) in replies {
            reference.check_spmv(m, 0, &inputs.xs[0], &y, &Held::new())?;
        }
        Ok(handles)
    })();
    match loaded {
        Ok(handles) => Ok(Ready {
            deployment,
            handles,
            setup_s,
        }),
        Err(e) => {
            deployment.stop();
            Err(e)
        }
    }
}
