//! Shard-router integration suite: two in-process replicas behind a
//! [`Router`], proving stable hash ownership, retry-on-another-owner when a
//! replica dies, drain without dropping an in-flight response, a poison
//! body answered 400 once without downing a replica, and
//! generation-consistent fan-out reload (converged, rejected-atomically,
//! and torn rollouts).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sls_datasets::SyntheticBlobs;
use sls_linalg::{Matrix, ParallelPolicy};
use sls_rbm_core::{ModelKind, PipelineArtifact, SlsPipelineConfig};
use sls_serve::{
    replica_rank, Client, ErrorResponse, LiveRegistry, ModelsResponse, Router, RouterConfig,
    RouterDrainResponse, RouterHandle, RouterReloadResponse, RouterStatzResponse, ServeOptions,
    Server, ServerHandle, ServingModel,
};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A fresh per-test directory: pid plus a process-wide counter, so
/// concurrent test binaries never collide on a shared fixed path.
fn unique_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("sls_serve_router_{tag}_{}_{n}", std::process::id()))
}

/// Trains one quick artifact; `seed` varies the bits so reloads are
/// observable.
fn train(seed: u64) -> PipelineArtifact {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let ds = SyntheticBlobs::new(30, 4, 2)
        .separation(6.0)
        .generate(&mut rng);
    PipelineArtifact::fit(
        ModelKind::Grbm,
        SlsPipelineConfig::quick_demo()
            .with_clusters(2)
            .with_hidden(4),
        ds.features(),
        &mut rng,
    )
    .expect("training succeeds")
    .artifact
}

/// Saves one artifact under each name in `models`, so rendezvous hashing
/// has several keys to spread across the replica set.
fn export(dir: &PathBuf, artifact: &PipelineArtifact, models: &[&str]) {
    std::fs::create_dir_all(dir).expect("create artifact dir");
    for name in models {
        artifact
            .save(dir.join(format!("{name}.json")))
            .expect("artifact saves");
    }
}

fn start_replica(dir: &PathBuf) -> ServerHandle {
    Server::bind_live(
        "127.0.0.1:0",
        LiveRegistry::from_dir(dir, false).expect("load artifact dir"),
        2,
    )
    .expect("bind ephemeral port")
    .with_options(ServeOptions::default())
    .start()
    .expect("replica starts")
}

fn start_router(replicas: Vec<SocketAddr>, replication: usize) -> RouterHandle {
    Router::bind(
        "127.0.0.1:0",
        RouterConfig::new(replicas)
            .with_replication(replication)
            .with_health_interval(Duration::from_millis(50)),
    )
    .expect("bind router")
    .start()
    .expect("router starts")
}

fn router_statz(client: &Client) -> RouterStatzResponse {
    let body = client
        .request_ok("GET", "/admin/statz", "")
        .expect("router statz")
        .body;
    serde_json::from_str(&body).expect("router statz parses")
}

const PROBE: &str = r#"{"rows": [[0.1, 0.2, 0.3, 0.4], [-1.5, 2.0, 0.25, -0.75]]}"#;

#[test]
fn ownership_is_stable_and_matches_the_published_hash() {
    let models = ["alpha", "beta", "gamma", "delta", "epsilon"];
    let dir = unique_dir("ownership");
    export(&dir, &train(1), &models);
    let replica_a = start_replica(&dir);
    let replica_b = start_replica(&dir);
    let addrs = vec![replica_a.addr(), replica_b.addr()];
    let router = start_router(addrs.clone(), 1);
    let client = Client::new(router.addr());

    // With replication 1 each model has exactly one owner — the head of the
    // public `replica_rank` — so per-replica forward counters are fully
    // predicted by the hash.
    const ROUNDS: u64 = 3;
    let mut expected = [0u64; 2];
    for model in &models {
        let owner = replica_rank(model, &addrs)[0];
        expected[owner] += ROUNDS;
        let direct = Client::new(addrs[owner])
            .request_ok("POST", &format!("/models/{model}/features"), PROBE)
            .expect("direct request")
            .body;
        for _ in 0..ROUNDS {
            let routed = client
                .request_ok("POST", &format!("/models/{model}/features"), PROBE)
                .expect("routed request")
                .body;
            assert_eq!(routed, direct, "router must forward `{model}` verbatim");
        }
    }
    assert!(
        expected.iter().all(|&n| n > 0),
        "the hash should spread 5 models over 2 replicas (got {expected:?})"
    );
    let statz = router_statz(&client);
    assert_eq!(statz.replication, 1);
    assert_eq!(statz.forwards, ROUNDS * models.len() as u64);
    for (index, replica) in statz.replicas.iter().enumerate() {
        assert_eq!(
            replica.forwards, expected[index],
            "replica {index} forward counter must match hash ownership"
        );
        assert!(replica.healthy);
        assert!(!replica.drained);
    }

    router.shutdown();
    replica_a.shutdown();
    replica_b.shutdown();
}

#[test]
fn a_killed_replica_is_retried_on_the_other_owner() {
    let models = ["alpha", "beta", "gamma", "delta", "epsilon"];
    let dir = unique_dir("retry");
    export(&dir, &train(2), &models);
    let replica_a = start_replica(&dir);
    let replica_b = start_replica(&dir);
    let addrs = vec![replica_a.addr(), replica_b.addr()];
    let router = start_router(addrs.clone(), 2);
    let client = Client::new(router.addr());

    // Kill replica 0. With replication 2 every model is owned by both, so
    // every request must still succeed via replica 1 — including models
    // whose *first-ranked* owner just died.
    let victim_first: Vec<&str> = models
        .iter()
        .filter(|m| replica_rank(m, &addrs)[0] == 0)
        .copied()
        .collect();
    assert!(
        !victim_first.is_empty(),
        "at least one of 5 models should rank the victim first"
    );
    let reference: Vec<String> = models
        .iter()
        .map(|model| {
            Client::new(addrs[1])
                .request_ok("POST", &format!("/models/{model}/features"), PROBE)
                .expect("direct request")
                .body
        })
        .collect();
    replica_a.shutdown();

    for (model, direct) in models.iter().zip(&reference) {
        let routed = client
            .request_ok("POST", &format!("/models/{model}/features"), PROBE)
            .expect("routed request survives the kill");
        assert_eq!(&routed.body, direct, "`{model}` must come back bit-equal");
    }
    let statz = router_statz(&client);
    assert_eq!(statz.forwards, models.len() as u64);
    assert!(
        statz.retried_requests >= 1,
        "models ranking the dead replica first must be counted as retried"
    );
    assert!(
        !statz.replicas[0].healthy,
        "dead replica must be marked down"
    );
    assert_eq!(statz.replicas[0].forwards, 0);
    assert_eq!(statz.replicas[1].forwards, models.len() as u64);
    assert_eq!(statz.unrouted, 0);

    router.shutdown();
    replica_b.shutdown();
}

#[test]
fn drain_under_load_loses_no_request_and_freezes_the_replica() {
    let models = ["alpha", "beta", "gamma"];
    let dir = unique_dir("drain");
    export(&dir, &train(3), &models);
    let replica_a = start_replica(&dir);
    let replica_b = start_replica(&dir);
    let addrs = vec![replica_a.addr(), replica_b.addr()];
    let router = start_router(addrs.clone(), 2);
    let client = Client::new(router.addr());
    let reference: Vec<String> = models
        .iter()
        .map(|model| {
            Client::new(addrs[0])
                .request_ok("POST", &format!("/models/{model}/features"), PROBE)
                .expect("direct request")
                .body
        })
        .collect();

    // 4 keep-alive workers hammer the router while the main thread drains
    // replica 0 mid-run. Every single response must succeed and match.
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for worker in 0..4usize {
            let stop = Arc::clone(&stop);
            let reference = &reference;
            let router_addr = router.addr();
            workers.push(scope.spawn(move || {
                let mut connection = Client::new(router_addr).connect();
                let mut served = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let model = models[(worker + served as usize) % models.len()];
                    let index = (worker + served as usize) % models.len();
                    let response = connection
                        .request_ok("POST", &format!("/models/{model}/features"), PROBE)
                        .expect("no request may fail across the drain");
                    assert_eq!(response.body, reference[index], "`{model}` bit-equal");
                    served += 1;
                }
                served
            }));
        }

        std::thread::sleep(Duration::from_millis(100));
        let body = format!("{{\"replica\": \"{}\"}}", addrs[0]);
        let response = client
            .request_ok("POST", "/admin/drain", &body)
            .expect("drain accepted");
        let drain: RouterDrainResponse =
            serde_json::from_str(&response.body).expect("drain body parses");
        assert_eq!(drain.status, "drained", "in-flight must reach zero");
        assert_eq!(drain.in_flight, 0);
        assert!(drain.node_drained, "the node itself must accept the drain");
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, Ordering::SeqCst);
        let served: u64 = workers.into_iter().map(|w| w.join().expect("worker")).sum();
        assert!(served > 0, "load must overlap the drain");
    });

    // The drained node health-fails for other traffic sources but keeps
    // serving: direct inference still answers, /healthz reports 503.
    let direct = Client::new(addrs[0]);
    let health = direct
        .request("GET", "/healthz", "")
        .expect("socket answers");
    assert_eq!(health.status, 503, "drained node must fail health checks");
    let after = direct
        .request_ok("POST", "/models/alpha/features", PROBE)
        .expect("drained node still serves in-flight style traffic")
        .body;
    assert_eq!(after, reference[0]);

    let statz = router_statz(&client);
    assert!(statz.replicas[0].drained);
    assert_eq!(statz.replicas[0].generation, None);
    assert_eq!(statz.replicas[0].in_flight, 0);
    let frozen = statz.replicas[0].forwards;
    for _ in 0..5 {
        client
            .request_ok("POST", "/models/alpha/features", PROBE)
            .expect("post-drain request");
    }
    let statz = router_statz(&client);
    assert_eq!(
        statz.replicas[0].forwards, frozen,
        "a drained replica must receive no new forwards"
    );
    assert_eq!(statz.unrouted, 0);

    // The survivor is the last active replica: draining it must be refused.
    let body = format!("{{\"replica\": \"{}\"}}", addrs[1]);
    let refused = client
        .request("POST", "/admin/drain", &body)
        .expect("socket answers");
    assert_eq!(refused.status, 409);
    assert!(refused.body.contains("last_replica"), "{}", refused.body);

    router.shutdown();
    replica_a.shutdown();
    replica_b.shutdown();
}

#[test]
fn a_query_of_death_is_rejected_once_and_leaves_both_replicas_serving() {
    let dir = unique_dir("poison");
    let artifact = train(8);
    export(&dir, &artifact, &["demo"]);
    let replica_a = start_replica(&dir);
    let replica_b = start_replica(&dir);
    let addrs = vec![replica_a.addr(), replica_b.addr()];
    let router = start_router(addrs.clone(), 2);
    let client = Client::new(router.addr());

    // 20 000 unclosed `[` once overflowed a replica's stack; with retry on
    // the next owner, one request then took down the whole replica set.
    let poison = "[".repeat(20_000);
    let response = client
        .request("POST", "/v1/models/demo/features", &poison)
        .expect("the poison request is answered");
    assert_eq!(response.status, 400, "{}", response.body);
    let error: ErrorResponse = serde_json::from_str(&response.body).expect("error body parses");
    assert_eq!(error.code, "invalid_body");
    let statz = router_statz(&client);
    assert_eq!(statz.retried_requests, 0, "a 400 must not be retried");
    assert_eq!(statz.unrouted, 0);
    for (replica, addr) in statz.replicas.iter().zip(&addrs) {
        assert!(replica.healthy, "{addr} marked down");
        let health = Client::new(*addr).health().expect("replica still answers");
        assert_eq!(health.status, "ok");
    }

    // The next valid request is served, bit for bit.
    let rows = vec![vec![0.1, 0.2, 0.3, 0.4], vec![-1.5, 2.0, 0.25, -0.75]];
    let features = client
        .features("demo", &rows)
        .expect("valid request served");
    let expected = ServingModel::from_artifact(artifact, false)
        .features_with(
            &Matrix::from_rows(&rows).expect("rectangular rows"),
            &ParallelPolicy::serial(),
        )
        .expect("in-process features");
    let got: Vec<u64> = features.iter().flatten().map(|x| x.to_bits()).collect();
    let want: Vec<u64> = expected.as_slice().iter().map(|x| x.to_bits()).collect();
    assert_eq!(got, want);

    router.shutdown();
    replica_a.shutdown();
    replica_b.shutdown();
}

#[test]
fn fanout_reload_converges_or_rejects_atomically() {
    let dir = unique_dir("reload");
    let path = dir.join("demo.json");
    export(&dir, &train(4), &["demo"]);
    let replica_a = start_replica(&dir);
    let replica_b = start_replica(&dir);
    let addrs = vec![replica_a.addr(), replica_b.addr()];
    let router = start_router(addrs.clone(), 2);
    let client = Client::new(router.addr());

    // Happy path: both replicas swap 1 -> 2 and agree.
    train(5).save(&path).expect("save generation 2");
    let response = client
        .request_ok("POST", "/admin/reload", "")
        .expect("fan-out reload");
    let reload: RouterReloadResponse =
        serde_json::from_str(&response.body).expect("reload body parses");
    assert_eq!(reload.status, "swapped");
    assert!(reload.swapped);
    assert_eq!(reload.generation, Some(2));
    assert_eq!(reload.replicas.len(), 2);
    for replica in &reload.replicas {
        assert!(replica.reachable, "{}", replica.addr);
        let inner = replica.response.as_ref().expect("per-replica response");
        assert!(inner.swapped);
        assert_eq!(inner.generation, 2);
    }
    let statz = router_statz(&client);
    assert_eq!(statz.consistent_generation, Some(2));

    // Corrupt artifact: every replica rejects, nothing diverges, and the
    // old generation keeps serving *and* being advertised.
    std::fs::write(&path, "{ not an artifact").expect("corrupt artifact");
    let response = client
        .request("POST", "/admin/reload", "")
        .expect("socket answers");
    assert_eq!(response.status, 409);
    let reload: RouterReloadResponse =
        serde_json::from_str(&response.body).expect("reload body parses");
    assert_eq!(reload.status, "rejected");
    assert!(!reload.swapped);
    assert_eq!(reload.generation, Some(2), "old generation must survive");
    let models: ModelsResponse = serde_json::from_str(
        &client
            .request_ok("GET", "/models", "")
            .expect("router models")
            .body,
    )
    .expect("models body parses");
    assert_eq!(models.generation, 2);
    assert_eq!(models.models.len(), 1, "demo stays advertised");

    router.shutdown();
    replica_a.shutdown();
    replica_b.shutdown();
}

#[test]
fn a_torn_rollout_hides_the_model_until_generations_realign() {
    let dir = unique_dir("torn");
    let path = dir.join("demo.json");
    export(&dir, &train(6), &["demo"]);
    let replica_a = start_replica(&dir);
    let replica_b = start_replica(&dir);
    let addrs = vec![replica_a.addr(), replica_b.addr()];
    let router = start_router(addrs.clone(), 2);
    let client = Client::new(router.addr());

    // Skew the set on purpose: reload only replica 1 directly, bypassing
    // the router's fan-out. Replica 0 stays on generation 1.
    train(7).save(&path).expect("save generation 2");
    let skewed = Client::new(addrs[1]).reload().expect("direct reload");
    assert!(skewed.swapped);
    assert_eq!(skewed.generation, 2);

    let statz = router_statz(&client);
    assert_eq!(
        statz.consistent_generation, None,
        "mixed generations must not report consistency"
    );
    let models: ModelsResponse = serde_json::from_str(
        &client
            .request_ok("GET", "/models", "")
            .expect("router models")
            .body,
    )
    .expect("models body parses");
    assert_eq!(
        models.generation, 0,
        "0 is the explicit 'inconsistent' marker"
    );
    assert!(
        models.models.is_empty(),
        "a torn model must be withdrawn, not served mixed"
    );

    // Re-align by reloading the lagging replica directly; the router
    // advertises the model again.
    let healed = Client::new(addrs[0]).reload().expect("direct reload");
    assert!(healed.swapped);
    assert_eq!(healed.generation, 2);
    let statz = router_statz(&client);
    assert_eq!(statz.consistent_generation, Some(2));
    let models: ModelsResponse = serde_json::from_str(
        &client
            .request_ok("GET", "/models", "")
            .expect("router models")
            .body,
    )
    .expect("models body parses");
    assert_eq!(models.generation, 2);
    assert_eq!(models.models.len(), 1);

    router.shutdown();
    replica_a.shutdown();
    replica_b.shutdown();
}
