//! The router's upload scatter over real sockets: each shard ends up
//! holding exactly the nnz-balanced slice of the uploaded matrix, under
//! the handle a direct upload of that slice mints.

use chason_core::plan::matrix_fingerprint;
use chason_router::{Router, RouterConfig};
use chason_serve::client::Client;
use chason_serve::server::{ServeConfig, Server};
use chason_sparse::generators::power_law;
use chason_sparse::shard::ShardSpec;
use std::time::Duration;

#[test]
fn each_shard_holds_its_slice_under_the_slice_handle() {
    let shards: Vec<Server> = (0..3)
        .map(|_| {
            Server::start(ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            })
            .expect("shard binds an ephemeral port")
        })
        .collect();
    let router = Router::start(RouterConfig {
        shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
        workers: 1,
        health_interval: Duration::from_millis(200),
        ..RouterConfig::default()
    })
    .expect("router binds an ephemeral port");

    let m = power_law(600, 400, 9_000, 1.7, 21);
    let mut client = Client::connect(router.local_addr()).expect("connect to router");
    let (handle, fresh) = client.load_matrix(&m).expect("router load");
    assert_eq!((handle, fresh), (matrix_fingerprint(&m), true));

    let spec = ShardSpec::nnz_balanced(&m, shards.len()).expect("600 rows, 3 shards");
    for (k, shard) in shards.iter().enumerate() {
        let slice = spec.slice(&m, k).expect("spec tiles the matrix");
        let mut direct = Client::connect(shard.local_addr()).expect("connect to shard");
        // Not fresh: the router's scatter already put this slice there.
        let (shard_handle, fresh) = direct.load_matrix(&slice).expect("shard load");
        assert_eq!(shard_handle, matrix_fingerprint(&slice), "shard {k}");
        assert!(!fresh, "shard {k} did not already hold its slice");
    }

    client.shutdown().expect("router shutdown");
    router.join();
    for shard in shards {
        shard.shutdown();
        shard.join();
    }
}
