//! The serving workloads, `serve_wide` and `serve_routed`.

use crate::client::{self, encode_request, Conn, Expect, Op};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{host, procs, stats, Res, Settings};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sls_linalg::{Matrix, ParallelPolicy};
use sls_rbm_core::PipelineArtifact;
use sls_serve::api::matrix_to_rows;
use sls_serve::http::{self, HttpLimits, RequestRead};
use sls_serve::{
    AssignResponse, FeaturesResponse, LiveRegistry, RouterHealthResponse, RouterReloadResponse,
    RouterStatzResponse, RowsRequest, ServingModel,
};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One server, 64-row requests.
    Wide,
    /// Router in front of two replicas, 1-row requests, periodic reloads.
    Routed,
}

impl Shape {
    fn model(self) -> &'static str {
        match self {
            Shape::Wide => "wide",
            Shape::Routed => "routed",
        }
    }

    fn rows_per_request(self) -> usize {
        match self {
            Shape::Wide => 64,
            Shape::Routed => 1,
        }
    }

    /// Distinct payloads cycled through; each is sent to both endpoints.
    fn payloads(self) -> usize {
        match self {
            Shape::Wide => 16,
            Shape::Routed => 64,
        }
    }
}

/// Visible width of the served model.
const VISIBLE: usize = 256;
/// Clusters of the served model's head.
const CLUSTERS: usize = 8;
/// Instances the served artifact is exported from.
const EXPORT_INSTANCES: usize = 256;
/// `sls-serve export`'s default seed. The served model is the same in
/// every run; `--seed` varies the request traffic. A model exported from a
/// different seed would move `cluster_acc` by tens of percent between
/// seeds, which no repetition inside a run can average out.
const MODEL_SEED: &str = "2023";
/// Every this many operations `serve_routed` sends a fan-out reload.
const RELOAD_EVERY: u64 = 500;
/// The measured phase is split evenly over this many launches, each a
/// fresh set of processes. On a shared host the program runs up to a third
/// slower in stretches of one to several seconds, which the fixed
/// calibration loop does not see, and how much of a run they cover changes
/// from minute to minute. Interference only ever adds time, so
/// `lat_p50_ms` is the median request of the fastest launch: the program's
/// speed in the quiet stretches every run has.
const SEGMENTS: usize = 40;
/// Extra launches, stopped as soon as they are healthy, before each
/// segment's own. A launch takes a few milliseconds, and whatever else the
/// host runs at that moment can add tens of percent; `setup_s` is the
/// fastest of the launches spread over the whole run.
const PROBES_PER_SEGMENT: usize = 1;
/// Untimed operations at the start of each segment.
const WARMUP_OPS: usize = 20;

/// Everything generated at set-up: the artifact directory, the pre-encoded
/// requests and the in-process reference answers.
struct Fixture {
    shape: Shape,
    dir: PathBuf,
    ops: Vec<Op>,
    /// The served model's Hungarian accuracy over its labelled rows.
    cluster_acc: f64,
}

/// The parallel policy `sls-serve serve` runs with at its defaults: one
/// linalg thread per core, pooled dispatch.
fn serving_policy() -> ParallelPolicy {
    let global = ParallelPolicy::global();
    ParallelPolicy::new(0)
        .with_min_rows_per_thread(global.min_rows_per_thread)
        .with_pool(true)
        .with_simd(global.simd)
}

fn fixture(settings: &Settings, shape: Shape) -> Res<Fixture> {
    let dir = settings.work.join("artifacts");
    let seed = MODEL_SEED;
    let instances = EXPORT_INSTANCES.to_string();
    let (visible, clusters) = (VISIBLE.to_string(), CLUSTERS.to_string());
    let out = dir.to_string_lossy().into_owned();
    procs::run_ok(
        &settings.sls_serve,
        &procs::args(&[
            "export",
            "--out",
            &out,
            "--name",
            shape.model(),
            "--model",
            "sls-grbm",
            "--instances",
            &instances,
            "--dims",
            &visible,
            "--clusters",
            &clusters,
            "--seed",
            seed,
        ]),
    )?;
    let labelled = settings.work.join("labelled.csv");
    let labelled_path = labelled.to_string_lossy().into_owned();
    procs::run_ok(
        &settings.sls_serve,
        &procs::args(&[
            "synth",
            "--out",
            &labelled_path,
            "--instances",
            &instances,
            "--dims",
            &visible,
            "--clusters",
            &clusters,
            "--separation",
            "5",
            "--seed",
            seed,
        ]),
    )?;
    let artifact = PipelineArtifact::load(dir.join(format!("{}.json", shape.model())))?;
    let model = ServingModel::from_artifact(artifact, false);
    let serial = ParallelPolicy::serial();

    let labelled = sls_datasets::load_csv_dataset(&labelled, &Default::default())?;
    let predicted = model.assign_with(labelled.features(), &serial)?;
    let cluster_acc = sls_metrics::clustering_accuracy(&predicted, labelled.labels())?;

    // Request traffic: fresh rows from the same blob family, never the
    // training rows.
    let per = shape.rows_per_request();
    let mut rng = ChaCha8Rng::seed_from_u64(settings.seed ^ 0x5245_5155);
    let traffic = sls_datasets::SyntheticBlobs::new(per * shape.payloads(), VISIBLE, CLUSTERS)
        .separation(5.0)
        .generate(&mut rng);
    let mut ops = Vec::new();
    for p in 0..shape.payloads() {
        let rows: Vec<Vec<f64>> = (p * per..(p + 1) * per)
            .map(|r| traffic.features().row(r).to_vec())
            .collect();
        let matrix = Matrix::from_rows(&rows)?;
        let body = serde_json::to_string(&RowsRequest { rows })?;
        let features = model.features_with(&matrix, &serial)?;
        let assignments = model.assign_with(&matrix, &serial)?;
        let base = format!("/v1/models/{}", shape.model());
        ops.push(Op {
            bytes: encode_request("POST", &format!("{base}/features"), &body),
            expect: Expect::Features(features.as_slice().iter().map(|x| x.to_bits()).collect()),
        });
        ops.push(Op {
            bytes: encode_request("POST", &format!("{base}/assign"), &body),
            expect: Expect::Assign(assignments),
        });
    }
    Ok(Fixture {
        shape,
        dir,
        ops,
        cluster_acc,
    })
}

/// The running program: one server, or two replicas behind a router.
struct Fleet {
    procs: Vec<procs::Server>,
    /// Where the client connects.
    entry: SocketAddr,
    /// Replica addresses in the order the router was given them.
    replicas: Vec<SocketAddr>,
}

impl Fleet {
    fn rss_mb(&self) -> f64 {
        self.procs.iter().map(|p| procs::peak_rss_mb(p.pid())).sum()
    }
}

/// Launches the program and waits until every process answers `/healthz`
/// (the router with both replicas up and the model advertised). Returns
/// the fleet and the seconds that took.
fn launch(settings: &Settings, fixture: &Fixture) -> Res<(Fleet, f64)> {
    let start = Instant::now();
    let dir = fixture.dir.to_string_lossy().into_owned();
    let serve_args = procs::args(&["serve", "--dir", &dir, "--addr", "127.0.0.1:0"]);
    let replicas = match fixture.shape {
        Shape::Wide => 1,
        Shape::Routed => 2,
    };
    let mut procs = Vec::new();
    for _ in 0..replicas {
        procs.push(procs::Server::spawn(&settings.sls_serve, &serve_args)?);
    }
    let replica_addrs: Vec<SocketAddr> = procs.iter().map(|p| p.addr).collect();
    if fixture.shape == Shape::Routed {
        let list: Vec<String> = replica_addrs.iter().map(SocketAddr::to_string).collect();
        let args = procs::args(&[
            "route",
            "--replicas",
            &list.join(","),
            "--addr",
            "127.0.0.1:0",
        ]);
        procs.push(procs::Server::spawn(&settings.sls_serve, &args)?);
    }
    let fleet = Fleet {
        entry: procs.last().expect("at least one process").addr,
        procs,
        replicas: replica_addrs,
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    for p in &fleet.procs {
        loop {
            if ready(
                p.addr,
                fixture.shape == Shape::Routed && p.addr == fleet.entry,
                replicas,
            ) {
                break;
            }
            if Instant::now() > deadline {
                return Err(format!("process at {} never became healthy", p.addr).into());
            }
            // No sleep: a process is polled only after it has announced
            // its address, so it answers within microseconds, and a fixed
            // sleep would round every launch up to its step.
            std::thread::yield_now();
        }
    }
    Ok((fleet, start.elapsed().as_secs_f64()))
}

fn ready(addr: SocketAddr, router: bool, replicas: usize) -> bool {
    let Ok(reply) = client::get(addr, "/healthz") else {
        return false;
    };
    if reply.status != 200 || !router {
        return reply.status == 200;
    }
    serde_json::from_str::<RouterHealthResponse>(&reply.body)
        .is_ok_and(|h| h.available == replicas && h.models == 1)
}

/// What one closed-loop phase observed.
#[derive(Default)]
struct Phase {
    /// Client-observed latency of each inference request, seconds.
    latencies: Vec<f64>,
    /// Round trip of each reload, seconds.
    reloads: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    wall_s: f64,
}

impl Phase {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }
}

/// Drives one connection in a closed loop until `seconds` pass (or
/// `max_ops` operations complete). Inference operations cycle through the
/// pre-encoded requests; with `reloads`, every `RELOAD_EVERY`th operation is
/// a fan-out reload. `generation` is the registry generation the responses
/// must carry and advances with each reload. With a tracer, each request
/// gets a `net.socket` span whose id is its operation index.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    conn: &mut Conn,
    fixture: &Fixture,
    seconds: f64,
    max_ops: usize,
    reloads: bool,
    generation: &mut u64,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let model = fixture.shape.model();
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < seconds && (i as usize) < max_ops {
        phase.attempted += 1;
        if reloads && i % RELOAD_EVERY == RELOAD_EVERY - 1 {
            match reload(conn, generation) {
                Ok(rtt) => phase.reloads.push(rtt),
                Err(e) => phase.fail(e),
            }
            i += 1;
            continue;
        }
        let op = &fixture.ops[i as usize % fixture.ops.len()];
        let span = tracer.as_deref_mut().map(|t| t.open("net.socket", None, i));
        let sent = Instant::now();
        let outcome = conn
            .exchange(&op.bytes)
            .map_err(|e| e.to_string())
            .and_then(|reply| match reply.status {
                200 => client::verify(reply.body.as_bytes(), &op.expect, model, *generation),
                other => Err(format!("status {other}")),
            });
        let latency = sent.elapsed().as_secs_f64();
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.close(id);
        }
        match outcome {
            Ok(()) => phase.latencies.push(latency),
            Err(e) => phase.fail(format!("operation {i}: {e}")),
        }
        i += 1;
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// Sends one `POST /v1/admin/reload` through the router and checks that
/// every replica swapped to the next generation; returns the round trip.
fn reload(conn: &mut Conn, generation: &mut u64) -> Result<f64, String> {
    let sent = Instant::now();
    let reply = conn
        .exchange(&encode_request("POST", "/v1/admin/reload", ""))
        .map_err(|e| format!("reload failed: {e}"))?;
    let rtt = sent.elapsed().as_secs_f64();
    let wanted = *generation + 1;
    if reply.status != 200 {
        return Err(format!("reload answered {}", reply.status));
    }
    match serde_json::from_str::<RouterReloadResponse>(&reply.body) {
        Ok(r) if r.swapped && r.generation == Some(wanted) => {
            *generation = wanted;
            Ok(rtt)
        }
        _ => Err(format!("reload did not swap to generation {wanted}")),
    }
}

fn statz(router: SocketAddr) -> Res<RouterStatzResponse> {
    let reply = client::get(router, "/v1/admin/statz")?;
    if reply.status != 200 {
        return Err(format!("router statz answered {}", reply.status).into());
    }
    Ok(serde_json::from_str(&reply.body)?)
}

pub fn run(settings: &Settings, shape: Shape) -> Res<Outcome> {
    let fixture = fixture(settings, shape)?;
    if settings.trace {
        return traced(settings, &fixture);
    }
    let routed = shape == Shape::Routed;
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let (mut latencies, mut reloads, mut segment_p50s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ok, mut attempted, mut opened, mut wall_s) = (0, 0, 0, 0.0);
    let mut rss: f64 = 0.0;
    for _ in 0..SEGMENTS {
        // Each launch is stopped (dropped) before the next starts.
        for _ in 0..PROBES_PER_SEGMENT {
            setups.push(launch(settings, &fixture)?.1);
        }
        let (fleet, seconds) = launch(settings, &fixture)?;
        setups.push(seconds);
        let mut conn = Conn::new(fleet.entry);
        let mut generation = 1;
        let warm = closed_loop(
            &mut conn,
            &fixture,
            f64::INFINITY,
            WARMUP_OPS,
            false,
            &mut generation,
            None,
        );
        let segment = settings.seconds / SEGMENTS as f64;
        let phase = closed_loop(
            &mut conn,
            &fixture,
            segment,
            usize::MAX,
            routed,
            &mut generation,
            None,
        );
        absorb(&mut out, &warm);
        absorb(&mut out, &phase);
        if routed {
            let statz = statz(fleet.entry)?;
            let expected = phase.reloads.len() as u64 + 1;
            if statz.consistent_generation != Some(expected) {
                out.fail(format!(
                    "router consistent_generation is {:?}, expected {expected}",
                    statz.consistent_generation
                ));
            }
        }
        rss = rss.max(fleet.rss_mb());
        ok += phase.latencies.len() + phase.reloads.len();
        attempted += phase.attempted;
        opened += conn.opened;
        wall_s += phase.wall_s;
        segment_p50s.push(stats::median(&phase.latencies));
        latencies.extend(phase.latencies);
        reloads.extend(phase.reloads);
    }
    if routed {
        println!(
            "reloads {} reload_ms_p50 {:.3} (fan-out round trip, excluded from latency)",
            reloads.len(),
            stats::median(&reloads) * 1e3
        );
    }
    let n = latencies.len();
    // Reported, not gated: see perfbench/README.md.
    println!(
        "connections_opened {opened} pooled over {n} requests: lat_p50_ms {:.4} lat_p90_ms {:.4} \
         lat_p99_ms {:.4} throughput_ops {:.2}",
        stats::median(&latencies) * 1e3,
        stats::percentile(&latencies, 0.90) * 1e3,
        stats::percentile(&latencies, 0.99) * 1e3,
        n as f64 / wall_s
    );
    segment_p50s.sort_by(f64::total_cmp);
    println!(
        "launch medians ms {:?}",
        segment_p50s
            .iter()
            .map(|s| (s * 1e7).round() / 1e4)
            .collect::<Vec<_>>()
    );
    out.metric(
        "lat_p50_ms",
        stats::min(&segment_p50s) * 1e3,
        "ms",
        "lower",
        n,
    );
    println!(
        "launches {} setup_ms min {:.3} median {:.3} max {:.3}",
        setups.len(),
        stats::min(&setups) * 1e3,
        stats::median(&setups) * 1e3,
        stats::percentile(&setups, 1.0) * 1e3
    );
    out.metric("setup_s", stats::min(&setups), "s", "lower", setups.len());
    out.metric("rss_peak_mb", rss, "MiB", "lower", SEGMENTS);
    out.metric(
        "ok_frac",
        ok as f64 / attempted.max(1) as f64,
        "ratio",
        "higher",
        attempted as usize,
    );
    out.metric("cluster_acc", fixture.cluster_acc, "ratio", "higher", 1);
    Ok(out)
}

/// Adds a phase's verification counts to the run's.
fn absorb(out: &mut Outcome, phase: &Phase) {
    out.attempted += phase.attempted;
    out.failed += phase.failed;
    out.errors.extend(phase.errors.iter().cloned());
}

/// Seconds-to-microseconds median.
fn median_us(values: &[f64]) -> f64 {
    stats::median(values) * 1e6
}

/// Requests of each traced round replayed in process.
const REPLAY_PER_ROUND: usize = 16;

/// The in-process side of the traced run: the served directory loaded as
/// the server loads it, and the server's parallel policy.
struct Replayer {
    live: LiveRegistry,
    policy: ParallelPolicy,
    limits: HttpLimits,
}

impl Replayer {
    /// Replays one request twice, as two root spans: `request`, through
    /// each layer's public entry point (read, the whole handler
    /// `route_live`, write), and `route.steps`, the handler's steps one by
    /// one. Which runs first alternates with the request id, so the second
    /// run's warmer caches favour neither side of `server.route_us`. Checks
    /// the handler's answer against the reference and the step-by-step
    /// encode against it.
    fn replay(
        &self,
        tracer: &mut Tracer,
        op: &Op,
        model: &str,
        id: u64,
    ) -> Res<Result<(), String>> {
        let steps_first = id % 2 == 1;
        let mut encoded = None;
        if steps_first {
            encoded = Some(self.steps(tracer, op, model, id)?);
        }
        let (status, body) = self.request(tracer, op, id)?;
        let (encoded, generation) = match encoded {
            Some(encoded) => encoded,
            None => self.steps(tracer, op, model, id)?,
        };
        Ok(match status {
            200 if encoded != body => {
                Err("step-by-step encode differs from route_live".to_string())
            }
            200 => client::verify(body.as_bytes(), &op.expect, model, generation),
            other => Err(format!("in-process route answered {other}")),
        })
    }

    /// Read, `route_live`, write; returns the handler's status and body.
    fn request(&self, tracer: &mut Tracer, op: &Op, id: u64) -> Res<(u16, String)> {
        let root = tracer.open("request", None, id);
        let read = tracer.time("http.read", Some(root), id, || {
            http::read_request_limited(&mut op.bytes.as_slice(), &self.limits)
        })?;
        let RequestRead::Complete { request, .. } = read else {
            return Err("pre-encoded request read as too large".into());
        };
        let route = tracer.open("server.route", Some(root), id);
        let (status, body) = sls_serve::route_live(&self.live, &request, &self.policy, None);
        tracer.close(route);
        let mut wire = Vec::with_capacity(body.len() + 128);
        tracer.time("http.write", Some(root), id, || {
            http::write_response_keep_alive(&mut wire, status, &body, true)
        })?;
        tracer.close(root);
        Ok((status, body))
    }

    /// The handler's steps one by one; returns the encoded response and the
    /// generation that answered.
    fn steps(&self, tracer: &mut Tracer, op: &Op, model: &str, id: u64) -> Res<(String, u64)> {
        let RequestRead::Complete { request, .. } =
            http::read_request_limited(&mut op.bytes.as_slice(), &self.limits)?
        else {
            return Err("pre-encoded request read as too large".into());
        };
        let steps = tracer.open("route.steps", None, id);
        let rows = tracer.time("api.decode", Some(steps), id, || {
            serde_json::from_str::<RowsRequest>(&request.body)
        })?;
        let matrix = tracer.time("api.to_matrix", Some(steps), id, || rows.to_matrix())?;
        let current = self.live.current();
        let served = current.registry.get(model)?;
        let encoded = match op.expect {
            Expect::Features(_) => {
                let features = tracer.time("registry.features", Some(steps), id, || {
                    served.features_with(&matrix, &self.policy)
                })?;
                tracer.time("api.encode", Some(steps), id, || {
                    serde_json::to_string(&FeaturesResponse {
                        model: model.to_string(),
                        generation: current.generation,
                        features: matrix_to_rows(&features),
                    })
                })?
            }
            Expect::Assign(_) => {
                let assignments = tracer.time("registry.assign", Some(steps), id, || {
                    served.assign_with(&matrix, &self.policy)
                })?;
                tracer.time("api.encode", Some(steps), id, || {
                    serde_json::to_string(&AssignResponse {
                        model: model.to_string(),
                        generation: current.generation,
                        assignments,
                    })
                })?
            }
        };
        tracer.close(steps);
        Ok((encoded, current.generation))
    }
}

/// The traced serving run. It alternates short rounds of every
/// measurement: the socket loop untraced, the socket loop with a
/// `net.socket` span per request, (for the router) the same payloads
/// straight to the owning replica, and an in-process replay of some of the
/// traced requests under the same ids. Each round takes a fraction of a
/// second, so host drift cancels out of the differences between them.
fn traced(settings: &Settings, fixture: &Fixture) -> Res<Outcome> {
    let calib_ms = host::calib_ms();
    let shape = fixture.shape;
    let model = shape.model();
    let routed = shape == Shape::Routed;
    let (fleet, _) = launch(settings, fixture)?;
    let mut out = Outcome::default();
    let statz_before = if routed {
        Some(statz(fleet.entry)?)
    } else {
        None
    };
    let mut conn = Conn::new(fleet.entry);
    let mut direct = routed
        .then(|| Conn::new(fleet.replicas[sls_serve::replica_rank(model, &fleet.replicas)[0]]));
    let mut generation = 1;
    let warm = closed_loop(
        &mut conn,
        fixture,
        f64::INFINITY,
        WARMUP_OPS,
        false,
        &mut generation,
        None,
    );
    absorb(&mut out, &warm);

    let replayer = Replayer {
        live: LiveRegistry::from_dir(&fixture.dir, false)?,
        policy: serving_policy(),
        limits: HttpLimits::default(),
    };
    let mut tracer = Tracer::new();
    let (mut plain, mut traced_lat, mut direct_lat, mut reloads) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let chunk = fixture.ops.len();
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed().as_secs_f64() < settings.seconds {
        let first_id = round * chunk as u64;
        let phase = closed_loop(
            &mut conn,
            fixture,
            f64::INFINITY,
            chunk,
            false,
            &mut generation,
            None,
        );
        absorb(&mut out, &phase);
        plain.extend(phase.latencies);

        let first_span = tracer.spans.len();
        let phase = closed_loop(
            &mut conn,
            fixture,
            f64::INFINITY,
            chunk,
            false,
            &mut generation,
            Some(&mut tracer),
        );
        for span in &mut tracer.spans[first_span..] {
            span.request += first_id;
        }
        absorb(&mut out, &phase);
        traced_lat.extend(phase.latencies);

        if let Some(direct) = direct.as_mut() {
            let phase = closed_loop(
                direct,
                fixture,
                f64::INFINITY,
                chunk,
                false,
                &mut generation,
                None,
            );
            absorb(&mut out, &phase);
            direct_lat.extend(phase.latencies);
        }

        for (i, op) in fixture.ops.iter().take(REPLAY_PER_ROUND).enumerate() {
            out.attempted += 1;
            if let Err(e) = replayer.replay(&mut tracer, op, model, first_id + i as u64)? {
                out.failed += 1;
                out.fail(format!("replay {}: {e}", first_id + i as u64));
            }
        }

        if routed {
            out.attempted += 1;
            match reload(&mut conn, &mut generation) {
                Ok(rtt) => reloads.push(rtt),
                Err(e) => {
                    out.failed += 1;
                    out.fail(e);
                }
            }
        }
        round += 1;
    }
    let statz_after = if routed {
        Some(statz(fleet.entry)?)
    } else {
        None
    };
    let opened = conn.opened + direct.as_ref().map_or(0, |d| d.opened);
    drop(fleet);

    let artifact_path = fixture.dir.join(format!("{model}.json"));
    let mut reload_ms = Vec::new();
    let mut load_ms = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let outcome = replayer.live.reload();
        reload_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if !outcome.swapped {
            out.fail("in-process reload did not swap".to_string());
        }
        let start = Instant::now();
        PipelineArtifact::load(&artifact_path)?;
        load_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    write_trace(settings, &tracer)?;

    let plain_p50 = stats::median(&plain);
    // The socket phase the in-process layers sit under: the server itself,
    // which for the router is the owning replica.
    let socket_p50 = if routed {
        stats::median(&direct_lat)
    } else {
        plain_p50
    };
    let read_us = median_us(&tracer.durations("http.read"));
    let route_us = median_us(&tracer.durations("server.route"));
    let write_us = median_us(&tracer.durations("http.write"));
    let transport_us = socket_p50 * 1e6 - read_us - route_us - write_us;
    // The handler's work outside its timed steps, an estimate: each
    // replayed request's `server.route` minus its `route.steps`, another
    // execution of the same steps.
    let steps_s: HashMap<u64, f64> = tracer
        .spans
        .iter()
        .filter(|s| s.name == "route.steps")
        .map(|s| (s.request, s.duration_s()))
        .collect();
    let route_self: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.name == "server.route")
        .filter_map(|s| Some(s.duration_s() - steps_s.get(&s.request)?))
        .collect();
    let (retried_frac, unrouted) = match (statz_before, statz_after) {
        (Some(before), Some(after)) => {
            let forwards = after.forwards.saturating_sub(before.forwards).max(1);
            (
                after
                    .retried_requests
                    .saturating_sub(before.retried_requests) as f64
                    / forwards as f64,
                after.unrouted.saturating_sub(before.unrouted) as f64,
            )
        }
        _ => (0.0, 0.0),
    };
    let hop_us = if routed {
        (plain_p50 - socket_p50) * 1e6
    } else {
        0.0
    };
    let request_bytes = stats::mean(
        &fixture
            .ops
            .iter()
            .map(|op| op.bytes.len() as f64)
            .collect::<Vec<_>>(),
    );
    let n = tracer.durations("server.route").len();
    let durations_us = |name: &str| median_us(&tracer.durations(name));

    out.metric("http.read_us", read_us, "us", "lower", n);
    out.metric(
        "api.decode_us",
        durations_us("api.decode"),
        "us",
        "lower",
        n,
    );
    out.metric(
        "api.to_matrix_us",
        durations_us("api.to_matrix"),
        "us",
        "lower",
        n,
    );
    out.metric(
        "registry.features_us",
        durations_us("registry.features"),
        "us",
        "lower",
        n / 2,
    );
    out.metric(
        "registry.assign_us",
        durations_us("registry.assign"),
        "us",
        "lower",
        n / 2,
    );
    out.metric(
        "api.encode_us",
        durations_us("api.encode"),
        "us",
        "lower",
        n,
    );
    out.metric("server.route_us", median_us(&route_self), "us", "lower", n);
    out.metric("http.write_us", write_us, "us", "lower", n);
    out.metric("net.transport_us", transport_us, "us", "lower", plain.len());
    out.metric("router.hop_us", hop_us, "us", "lower", direct_lat.len());
    out.metric("router.retried_frac", retried_frac, "ratio", "lower", 1);
    out.metric("router.unrouted", unrouted, "count", "lower", 1);
    out.metric(
        "router.reload_ms",
        stats::median(&reloads) * 1e3,
        "ms",
        "lower",
        reloads.len(),
    );
    out.metric(
        "live.reload_ms",
        stats::median(&reload_ms),
        "ms",
        "lower",
        reload_ms.len(),
    );
    out.metric(
        "artifact.load_ms",
        stats::median(&load_ms),
        "ms",
        "lower",
        load_ms.len(),
    );
    out.metric(
        "api.request_bytes",
        request_bytes,
        "bytes",
        "",
        fixture.ops.len(),
    );
    out.metric("http.connections_opened", opened as f64, "count", "", 1);
    out.metric("host.calib_ms", calib_ms, "ms", "", 1);
    out.metric(
        "trace.overhead_ms",
        (stats::median(&traced_lat) - plain_p50) * 1e3,
        "ms",
        "",
        traced_lat.len(),
    );
    out.metric(
        "trace.unattributed_frac",
        transport_us / (socket_p50 * 1e6),
        "ratio",
        "",
        1,
    );
    Ok(out)
}

/// Writes the run's spans next to the build output, where they outlive the
/// run's scratch directory.
pub fn write_trace(settings: &Settings, tracer: &Tracer) -> Res<()> {
    let dir = Path::new(".bench_build").join("perfbench-traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.jsonl", settings.workload, settings.seed));
    tracer.write(&path)?;
    println!("spans {} written to {}", tracer.spans.len(), path.display());
    Ok(())
}
