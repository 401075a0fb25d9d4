//! The training workloads, `retrain` and `export`: one-shot jobs whose
//! users pay their whole cost, set-up included, on every run.

use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{host, procs, stats, Res, Settings};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sls_clustering::AffinityPropagation;
use sls_consensus::{LocalSupervision, LocalSupervisionBuilder, VotingPolicy};
use sls_datasets::{leading_sample, ChunkSource, ChunkedCsvReader, CsvOptions, Dataset};
use sls_linalg::{Matrix, ParallelPolicy};
use sls_rbm_core::{
    base_clusterers, ClusterHead, FittedPreprocessor, ModelKind, PipelineArtifact, Preprocessing,
    SlsPipelineConfig, SlsRbm, StreamLimit, StreamTrainer, TrainCheckpoint, VisibleKind,
};
use sls_serve::RetrainOptions;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// `sls-serve retrain` on a 4096 × 256 CSV.
    Retrain,
    /// `sls-serve export --model sls-rbm --instances 768`.
    Export,
}

const DIMS: usize = 256;
const CLUSTERS: usize = 8;
const SEPARATION: f64 = 5.0;
/// `retrain`'s supervision and cluster-head seed tags. They mirror private
/// constants of `sls_serve::retrain`; if those change, the traced run's
/// consistency check fails rather than measuring a different program.
const SUPERVISION_TAG: u64 = 0x5355_5056;
const HEAD_TAG: u64 = 0x4845_4144;
/// Seed of every job's rows, `sls-serve export`'s default. It is the same in
/// every run: how long affinity propagation's preference bisection runs
/// swings 1.3–3.9 s between seeds, and the accuracy by several percent, far
/// more than any bound could absorb. `--seed` changes no training input.
const DATA_SEED: u64 = 2023;
/// Start-up probes spread over the run; the fastest is `setup_s`: a probe
/// takes milliseconds, and whatever else the host runs at that moment can
/// add tens of percent.
const STARTUP_PROBES: usize = 24;
/// Share of the job's wall time the traced layers must account for.
const ACCOUNT_SHARE: f64 = 0.35;

impl Job {
    fn rows(self) -> usize {
        match self {
            Job::Retrain => 4096,
            Job::Export => 768,
        }
    }

    /// A job's typical length on a 2-vCPU x86-64 container; it only sizes
    /// the panel, which depends on `--seconds` and never on a measurement.
    fn nominal_seconds(self) -> f64 {
        match self {
            Job::Retrain => 5.0,
            Job::Export => 2.5,
        }
    }

    fn artifact_name(self) -> &'static str {
        match self {
            Job::Retrain => "retrained",
            Job::Export => "exported",
        }
    }
}

/// One job of the run's panel: the labelled rows it reads (`retrain`) or
/// generates itself (`export`), and where it writes.
struct Case {
    csv: PathBuf,
    out: PathBuf,
}

impl Case {
    fn new(settings: &Settings, name: &str) -> Self {
        Self {
            csv: settings.work.join("data.csv"),
            out: settings.work.join(name),
        }
    }

    fn artifact(&self, job: Job) -> PathBuf {
        self.out.join(format!("{}.json", job.artifact_name()))
    }
}

/// Writes the labelled rows with `sls-serve synth` (the same rows `export`
/// generates internally from the same seed) and loads them back.
fn synthesize(settings: &Settings, job: Job, case: &Case) -> Res<Dataset> {
    let (rows, dims, clusters) = (
        job.rows().to_string(),
        DIMS.to_string(),
        CLUSTERS.to_string(),
    );
    procs::run_ok(
        &settings.sls_serve,
        &procs::args(&[
            "synth",
            "--out",
            &case.csv.to_string_lossy(),
            "--instances",
            &rows,
            "--dims",
            &dims,
            "--clusters",
            &clusters,
            "--separation",
            &SEPARATION.to_string(),
            "--seed",
            &DATA_SEED.to_string(),
        ]),
    )?;
    Ok(sls_datasets::load_csv_dataset(
        &case.csv,
        &CsvOptions::default(),
    )?)
}

fn job_args(job: Job, case: &Case) -> Vec<String> {
    let out = case.out.to_string_lossy().into_owned();
    let clusters = CLUSTERS.to_string();
    match job {
        Job::Retrain => procs::args(&[
            "retrain",
            "--data",
            &case.csv.to_string_lossy(),
            "--out",
            &out,
            "--clusters",
            &clusters,
        ]),
        Job::Export => procs::args(&[
            "export",
            "--out",
            &out,
            "--name",
            job.artifact_name(),
            "--model",
            "sls-rbm",
            "--instances",
            &job.rows().to_string(),
            "--dims",
            &DIMS.to_string(),
            "--clusters",
            &clusters,
            "--seed",
            &DATA_SEED.to_string(),
        ]),
    }
}

/// Loads an exported artifact and assigns every labelled row; returns the
/// labels and their Hungarian accuracy.
fn check_artifact(path: &Path, labelled: &Dataset) -> Res<(Vec<usize>, f64)> {
    let artifact = PipelineArtifact::load(path)?;
    let predicted = artifact.assign(labelled.features())?;
    if predicted.len() != labelled.n_instances() {
        return Err(format!(
            "artifact assigned {} of {} labelled rows",
            predicted.len(),
            labelled.n_instances()
        )
        .into());
    }
    let accuracy = sls_metrics::clustering_accuracy(&predicted, labelled.labels())?;
    Ok((predicted, accuracy))
}

pub fn run(settings: &Settings, job: Job) -> Res<Outcome> {
    if settings.trace {
        return traced(settings, job);
    }
    let panel = (settings.seconds / job.nominal_seconds()).round().max(1.0) as u64;
    // Probes are killed at their first line, before they write anything.
    let probe = Case::new(settings, "probe");
    let labelled = synthesize(settings, job, &probe)?;
    let probes_per_job = STARTUP_PROBES.div_ceil(panel as usize);
    let mut out = Outcome::default();
    let (mut walls, mut rss, mut accs, mut setups) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for index in 0..panel {
        for _ in 0..probes_per_job {
            setups.push(procs::startup_s(
                &settings.sls_serve,
                &job_args(job, &probe),
            )?);
        }
        let case = Case::new(settings, &format!("out-{index}"));
        out.attempted += 1;
        let run = procs::run_job(&settings.sls_serve, &job_args(job, &case))?;
        if !run.success {
            out.failed += 1;
            out.fail(format!("job {index} failed:\n{}", run.stderr));
            continue;
        }
        match check_artifact(&case.artifact(job), &labelled) {
            Ok((_, accuracy)) => {
                walls.push(run.wall_s);
                rss.push(run.peak_rss_mb);
                accs.push(accuracy);
            }
            Err(e) => {
                out.failed += 1;
                out.fail(format!("job {index}: {e}"));
            }
        }
    }
    let n = walls.len();
    // Reported, not gated: see perfbench/README.md.
    println!(
        "panel {panel} job(s), wall_s {walls:?}, lat_median_ms {:.1}, lat_max_ms {:.1}, \
         throughput_ops {:.4}",
        stats::median(&walls) * 1e3,
        stats::percentile(&walls, 1.0) * 1e3,
        n as f64 / walls.iter().sum::<f64>()
    );
    // The fastest job, for the reason `serve::SEGMENTS` gives.
    out.metric("lat_p50_ms", stats::min(&walls) * 1e3, "ms", "lower", n);
    println!(
        "probes {} startup_ms min {:.3} median {:.3} max {:.3}",
        setups.len(),
        stats::min(&setups) * 1e3,
        stats::median(&setups) * 1e3,
        stats::percentile(&setups, 1.0) * 1e3
    );
    out.metric("setup_s", stats::min(&setups), "s", "lower", setups.len());
    out.metric("rss_peak_mb", stats::median(&rss), "MiB", "lower", n);
    out.metric(
        "ok_frac",
        n as f64 / panel as f64,
        "ratio",
        "higher",
        panel as usize,
    );
    out.metric("cluster_acc", stats::mean(&accs), "ratio", "higher", n);
    Ok(out)
}

/// What the replayed supervision stage produced.
struct Supervised {
    supervision: LocalSupervision,
    ap_exemplars: usize,
    ap_iterations: usize,
}

/// `LocalSupervisionBuilder::build_with_clusterers`, one base clusterer at
/// a time so each gets its own span: the same sub-seeds drawn in the same
/// order, the same serial execution the default policy gives.
fn supervise(
    tracer: &mut Tracer,
    root: usize,
    data: &Matrix,
    voting: VotingPolicy,
    parallel: ParallelPolicy,
    rng: &mut impl RngCore,
) -> Res<Supervised> {
    let clusterers = base_clusterers(CLUSTERS, &parallel);
    let sub_seeds: Vec<u64> = clusterers.iter().map(|_| rng.next_u64()).collect();
    let mut partitions = Vec::new();
    let (mut ap_exemplars, mut ap_iterations) = (0, 0);
    for (clusterer, &seed) in clusterers.iter().zip(&sub_seeds) {
        let mut sub_rng = ChaCha8Rng::seed_from_u64(seed);
        let labels = match clusterer.name() {
            // AP ignores its RNG, and `cluster` is `fit(..).assignment`;
            // calling `fit` directly also yields the exemplar and
            // iteration counts.
            "AP" => {
                let ap = AffinityPropagation::default()
                    .with_target_clusters(CLUSTERS)
                    .with_parallel(parallel);
                let outcome = tracer.time("clustering.ap", Some(root), 0, || ap.fit(data))?;
                ap_exemplars = outcome.exemplars.len();
                ap_iterations = outcome.iterations;
                outcome.assignment.labels().to_vec()
            }
            name => {
                let span = match name {
                    "DP" => "clustering.dp",
                    "K-means" => "clustering.kmeans",
                    other => return Err(format!("unknown base clusterer `{other}`").into()),
                };
                tracer
                    .time(span, Some(root), 0, || {
                        clusterer.cluster(data, &mut sub_rng)
                    })?
                    .labels()
                    .to_vec()
            }
        };
        partitions.push(labels);
    }
    let supervision = tracer.time("consensus.align_vote", Some(root), 0, || {
        LocalSupervisionBuilder::new(CLUSTERS)
            .with_policy(voting)
            .with_parallel(parallel)
            .build_from_partitions(&partitions)
    })?;
    Ok(Supervised {
        supervision,
        ap_exemplars,
        ap_iterations,
    })
}

/// The replayed job's result, compared with the program's own.
struct Replayed {
    artifact: PipelineArtifact,
    supervised: Supervised,
    /// `export`'s training-time cluster sizes (it prints them).
    sizes: Option<BTreeMap<usize, usize>>,
}

/// `sls_serve::retrain` step by step at the CLI's defaults.
fn replay_retrain(tracer: &mut Tracer, root: usize, case: &Case, out: &Path) -> Res<Replayed> {
    let mut options = RetrainOptions::new(&case.csv, out);
    options.n_clusters = CLUSTERS;
    let parallel = options.parallel;
    let (source, sample) = tracer.time("datasets.ingest", Some(root), 0, || -> Res<_> {
        let source = ChunkedCsvReader::open(&options.data, &options.csv, options.chunk_size)?;
        let sample = leading_sample(&source, options.sample_rows)?;
        Ok((source, sample))
    })?;
    let preprocessing = match options.model_kind.visible_kind() {
        VisibleKind::Binary => Preprocessing::BinarizeMedian,
        VisibleKind::Gaussian => Preprocessing::Standardize,
    };
    let (preprocessor, preprocessed) =
        tracer.time("core.preprocess", Some(root), 0, || -> Res<_> {
            let preprocessor = FittedPreprocessor::fit(preprocessing, &sample)?;
            let preprocessed = preprocessor.transform_with(&sample, &parallel)?;
            Ok((preprocessor, preprocessed))
        })?;
    let mut rng = ChaCha8Rng::seed_from_u64(options.seed ^ SUPERVISION_TAG);
    let supervised = supervise(
        tracer,
        root,
        &preprocessed,
        options.voting,
        parallel,
        &mut rng,
    )?;
    let mut checkpoint = TrainCheckpoint::fresh(
        options.model_kind,
        source.n_features(),
        options.n_hidden,
        options.train,
        options.seed,
    )?;
    let trainer = StreamTrainer::new().with_parallel(parallel);
    for _ in 0..options.train.epochs {
        tracer.time("core.epoch", Some(root), 0, || {
            trainer.advance(
                &mut checkpoint,
                &source,
                &preprocessor,
                Some((&supervised.supervision, &options.sls)),
                StreamLimit::Epochs(1),
            )
        })?;
    }
    let artifact = tracer.time("core.export", Some(root), 0, || -> Res<_> {
        checkpoint.save(&options.checkpoint)?;
        let mut artifact =
            PipelineArtifact::from_params(checkpoint.params.clone(), options.model_kind);
        artifact.preprocessor = preprocessor;
        let features = artifact.features_with(&sample, &parallel)?;
        let mut head_rng = ChaCha8Rng::seed_from_u64(options.seed ^ HEAD_TAG);
        let (head, _) = ClusterHead::fit_kmeans(&features, options.n_clusters, &mut head_rng)?;
        artifact.cluster_head = Some(head);
        artifact.save(out.join("replayed.json"))?;
        Ok(artifact)
    })?;
    Ok(Replayed {
        artifact,
        supervised,
        sizes: None,
    })
}

/// `sls-serve export --model sls-rbm` step by step: `PipelineArtifact::fit`
/// over `SlsRbmPipeline::run` with the CLI's configuration.
fn replay_export(tracer: &mut Tracer, root: usize, out: &Path) -> Res<Replayed> {
    let job = Job::Export;
    let mut rng = ChaCha8Rng::seed_from_u64(DATA_SEED);
    let dataset = tracer.time("datasets.ingest", Some(root), 0, || {
        sls_datasets::SyntheticBlobs::new(job.rows(), DIMS, CLUSTERS)
            .separation(SEPARATION)
            .generate(&mut rng)
    });
    let config = SlsPipelineConfig::quick_demo()
        .with_clusters(CLUSTERS)
        .with_parallel(ParallelPolicy::global());
    let parallel = config.parallel;
    let (preprocessor, preprocessed) =
        tracer.time("core.preprocess", Some(root), 0, || -> Res<_> {
            let preprocessor = FittedPreprocessor::fit(config.preprocessing, dataset.features())?;
            let preprocessed = preprocessor.transform_with(dataset.features(), &parallel)?;
            Ok((preprocessor, preprocessed))
        })?;
    let supervised = supervise(
        tracer,
        root,
        &preprocessed,
        config.voting,
        parallel,
        &mut rng,
    )?;
    let mut model = SlsRbm::new(preprocessed.cols(), config.n_hidden, &mut rng);
    tracer.time("core.sls_train", Some(root), 0, || {
        model.train_with(
            &preprocessed,
            &supervised.supervision,
            config.train,
            config.sls,
            parallel,
            &mut rng,
        )
    })?;
    let (artifact, labels) = tracer.time("core.export", Some(root), 0, || -> Res<_> {
        let hidden = model.hidden_features_with(&preprocessed, &parallel)?;
        let (head, labels) = ClusterHead::fit_kmeans(&hidden, CLUSTERS, &mut rng)?;
        let mut artifact = PipelineArtifact::from_params(
            sls_rbm_core::BoltzmannMachine::params(&model).clone(),
            ModelKind::SlsRbm,
        );
        artifact.preprocessor = preprocessor;
        artifact.cluster_head = Some(head);
        artifact.save(out.join("replayed.json"))?;
        Ok((artifact, labels))
    })?;
    Ok(Replayed {
        artifact,
        supervised,
        sizes: Some(sizes_of(&labels)),
    })
}

fn sizes_of(labels: &[usize]) -> BTreeMap<usize, usize> {
    let mut sizes = BTreeMap::new();
    for &label in labels {
        *sizes.entry(label).or_insert(0usize) += 1;
    }
    sizes
}

/// The traced training run: the job once through the CLI, then the same
/// job replayed through each layer's public entry points with a span
/// around each, and a check that the replay is the same computation.
fn traced(settings: &Settings, job: Job) -> Res<Outcome> {
    let calib_ms = host::calib_ms();
    let case = Case::new(settings, "out");
    let labelled = synthesize(settings, job, &case)?;
    let mut out = Outcome {
        attempted: 1,
        ..Outcome::default()
    };
    let run = procs::run_job(&settings.sls_serve, &job_args(job, &case))?;
    if !run.success {
        out.failed = 1;
        out.fail(format!("job failed:\n{}", run.stderr));
        return Ok(out);
    }
    let (job_labels, _) = check_artifact(&case.artifact(job), &labelled)?;
    let job_artifact = PipelineArtifact::load(case.artifact(job))?;

    let replay_dir = settings.work.join("replay");
    std::fs::create_dir_all(&replay_dir)?;
    let mut tracer = Tracer::new();
    let root = tracer.open("job", None, 0);
    let replayed = match job {
        Job::Retrain => replay_retrain(&mut tracer, root, &case, &replay_dir)?,
        Job::Export => replay_export(&mut tracer, root, &replay_dir)?,
    };
    tracer.close(root);
    crate::serve::write_trace(settings, &tracer)?;

    // Consistency: the replay must be the job's own computation.
    let (replay_labels, _) = check_artifact(&replay_dir.join("replayed.json"), &labelled)?;
    let summary = replayed.supervised.supervision.summary();
    let mut mismatches = Vec::new();
    if replayed.artifact.params != job_artifact.params
        || replayed.artifact.preprocessor != job_artifact.preprocessor
        || replayed.artifact.cluster_head != job_artifact.cluster_head
    {
        mismatches.push("replayed artifact differs from the job's".to_string());
    }
    if sizes_of(&replay_labels) != sizes_of(&job_labels) {
        mismatches.push("cluster sizes over the labelled rows differ".to_string());
    }
    if let Some(sizes) = &replayed.sizes {
        if !run.stderr.contains(&format!("cluster sizes {sizes:?}")) {
            mismatches.push(format!("job did not report cluster sizes {sizes:?}"));
        }
    }
    if job == Job::Retrain {
        let coverage = format!("covering {:.1}%", summary.coverage * 100.0);
        if !run.stderr.contains(&coverage) {
            mismatches.push(format!("job did not report supervision {coverage}"));
        }
    }
    let job_s = tracer.spans[root].duration_s();
    let attributed: f64 = tracer
        .spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(|s| s.duration_s())
        .sum();
    let unattributed = (run.wall_s - attributed) / run.wall_s;
    println!(
        "consistency coverage {:.6} clusters {} job_wall_s {:.3} replay_s {:.3} attributed_s {:.3} \
         unattributed {:.3} (allowed ±{ACCOUNT_SHARE})",
        summary.coverage, summary.n_clusters, run.wall_s, job_s, attributed, unattributed
    );
    if unattributed.abs() > ACCOUNT_SHARE {
        mismatches.push(format!(
            "layer spans account for {attributed:.3}s of the job's {:.3}s",
            run.wall_s
        ));
    }
    for m in mismatches {
        out.failed = 1;
        out.fail(m);
    }

    let total = |name: &str| tracer.durations(name).iter().fold(0.0, |sum, d| sum + d);
    let epochs = tracer.durations("core.epoch");
    out.metric(
        "datasets.ingest_s",
        total("datasets.ingest"),
        "s",
        "lower",
        1,
    );
    out.metric(
        "core.preprocess_s",
        total("core.preprocess"),
        "s",
        "lower",
        1,
    );
    out.metric("clustering.dp_s", total("clustering.dp"), "s", "lower", 1);
    out.metric(
        "clustering.kmeans_s",
        total("clustering.kmeans"),
        "s",
        "lower",
        1,
    );
    out.metric("clustering.ap_s", total("clustering.ap"), "s", "lower", 1);
    out.metric(
        "consensus.align_vote_s",
        total("consensus.align_vote"),
        "s",
        "lower",
        1,
    );
    out.metric("consensus.coverage", summary.coverage, "ratio", "", 1);
    out.metric(
        "clustering.ap_exemplars",
        replayed.supervised.ap_exemplars as f64,
        "count",
        "",
        1,
    );
    out.metric(
        "clustering.ap_iterations",
        replayed.supervised.ap_iterations as f64,
        "count",
        "",
        1,
    );
    out.metric(
        "core.epoch_s",
        stats::median(&epochs),
        "s",
        "lower",
        epochs.len(),
    );
    out.metric("core.sls_train_s", total("core.sls_train"), "s", "lower", 1);
    out.metric("core.export_s", total("core.export"), "s", "lower", 1);
    out.metric("host.calib_ms", calib_ms, "ms", "", 1);
    out.metric("trace.overhead_ms", (job_s - run.wall_s) * 1e3, "ms", "", 1);
    out.metric("trace.unattributed_frac", unattributed, "ratio", "", 1);
    Ok(out)
}
